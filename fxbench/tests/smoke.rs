//! The noise-free gate: `fxbench --smoke` makes one pass per workload
//! plus the memory pass, judges no timing, and prints only the counts
//! that must repeat exactly. Two runs must print the same bytes.
//!
//! The binary itself checks, on every run, that the metrics it emits are
//! exactly those `BENCHMARK.json` declares (each once, with the declared
//! unit, names in `[A-Za-z0-9_.-]`) and exits non-zero otherwise — so a
//! successful exit here covers that too.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fxbench(out_dir: &str, args: &[&str]) -> Output {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out_dir);
    Command::new(env!("CARGO_BIN_EXE_fxbench"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("fxbench runs")
}

#[test]
fn smoke_counts_repeat_exactly() {
    let first = fxbench("smoke-a", &["--smoke"]);
    assert!(
        first.status.success(),
        "fxbench --smoke failed: {}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = fxbench("smoke-b", &["--smoke"]);
    assert!(second.status.success());
    let (a, b) = (
        String::from_utf8(first.stdout).expect("utf-8"),
        String::from_utf8(second.stdout).expect("utf-8"),
    );
    assert_eq!(
        a, b,
        "exact-repeat counts differ between two runs of the same code"
    );

    // One line per (exact count, workload): `name@workload value unit`.
    let workloads = [
        "xmark-single",
        "xmark-select",
        "bank-1024",
        "records-json",
        "soup-html",
        "pubsub-churn",
    ];
    for workload in workloads {
        for name in [
            "peak_state_bits",
            "tokenize.events_per_doc",
            "io.read_calls_per_doc",
            "bank.peak_instances",
        ] {
            let key = format!("{name}@{workload} ");
            assert_eq!(
                a.lines().filter(|l| l.starts_with(&key)).count(),
                1,
                "`{key}` must be printed exactly once"
            );
        }
    }
    for line in a.lines() {
        let name = line.split('@').next().expect("a metric name");
        assert!(
            name.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
            "metric name `{name}` has characters outside [A-Za-z0-9_.-]"
        );
    }
}

#[test]
fn corrupted_reference_exits_non_zero() {
    let run = fxbench(
        "corrupt",
        &[
            "--smoke",
            "--workload",
            "records-json",
            "--corrupt-reference",
        ],
    );
    assert_eq!(
        run.status.code(),
        Some(1),
        "a wrong output must fail the command"
    );
    assert!(String::from_utf8_lossy(&run.stderr).contains("wrong or failed"));
}

#[test]
fn agree_judges_gaps_by_the_declared_bounds() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("agree");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = |mb_s: f64| {
        format!(
            "{{\"seed\": 42, \"workloads\": {{\"xmark-single\": {{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\
             \"setup_s\": {{\"value\": 0.001, \"unit\": \"s\"}}, \"mb_s\": {{\"value\": {mb_s}, \"unit\": \"MB/s\"}}, \
             \"docs_per_s\": {{\"value\": 2000, \"unit\": \"1/s\"}}, \"doc_p50_us\": {{\"value\": 500, \"unit\": \"us\"}}, \
             \"doc_p99_us\": {{\"value\": 900, \"unit\": \"us\"}}, \"peak_state_bits\": {{\"value\": 47, \"unit\": \"bits\"}}, \
             \"peak_heap_bytes\": {{\"value\": 1000, \"unit\": \"B\"}}}}}}}}}}"
        )
    };
    let paths: Vec<PathBuf> = [("a", 60.0), ("same", 60.5), ("slower", 30.0)]
        .into_iter()
        .map(|(name, mb_s)| {
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, file(mb_s)).expect("write result file");
            path
        })
        .collect();
    let agree = |b: &PathBuf| {
        Command::new(env!("CARGO_BIN_EXE_fxbench"))
            .arg("--agree")
            .args([&paths[0], b])
            .output()
            .expect("fxbench runs")
    };
    assert!(
        agree(&paths[1]).status.success(),
        "a 0.8 % gap is within every bound"
    );
    let apart = agree(&paths[2]);
    assert_eq!(apart.status.code(), Some(1), "a 50 % gap is over the bound");
    assert!(String::from_utf8_lossy(&apart.stdout).contains("OVER"));
}
