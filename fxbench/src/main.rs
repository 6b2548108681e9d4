//! `fxbench` — the repository's benchmark (declared by `BENCHMARK.json`).
//!
//! One command generates the inputs from `--seed`, checks every output
//! against a reference evaluator, prints every metric by name and unit,
//! writes `target/fxbench/result.json` (and, with tracing, one
//! `trace-<workload>.json` per workload) and exits non-zero on any wrong
//! output or on a run too noisy to read. It drives only public API of
//! the library crates. See `README.md` beside this package.
//!
//! ```text
//! fxbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! fxbench --smoke [--workload NAME]...      exact-repeat counts only, no timing judged
//! fxbench --agree A.json B.json             compare two result files against the bounds
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing and heap
//! counting off; `--trace 1` measures the per-layer metrics (layer
//! ladder + traced run); without `--trace` both are done. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod harness;
mod ladder;
mod report;
mod trace;
mod workloads;

use harness::{Budget, HeapReading, Runner, Series};
use report::{metric, Metric, WorkloadResult};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Name, PassSums};
use workloads::{EngineRunner, Inputs, Kind, PartsRunner, PubsubRunner, Reference, Server};

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

/// Exit code for a wrong output, a failed document or a metric list
/// that differs from `BENCHMARK.json`.
const EXIT_WRONG: u8 = 1;
/// Exit code for a command line that cannot be read.
const EXIT_USAGE: u8 = 2;
/// Exit code for a run too noisy to read.
const EXIT_NOISY: u8 = 3;

/// Counts that must repeat exactly from run to run; `--smoke` prints
/// these and nothing else.
const EXACT_COUNTS: [&str; 19] = [
    "peak_state_bits",
    "state.max_doc_peak_bits",
    "scan.positions_per_kb",
    "tokenize.events_per_doc",
    "intern.names_per_doc",
    "intern.table_growth",
    "batch.batches_per_doc",
    "batch.payload_bytes_per_event",
    "route.matches_per_doc",
    "bank.activations_per_kevent",
    "bank.peak_instances",
    "bank.peak_records",
    "bank.groups",
    "bank.residual_pool",
    "bank.residual_builds_delta",
    "alloc.calls_per_doc",
    "io.read_calls_per_doc",
    "server.deliveries_per_doc",
    "server.dropped",
];

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end to end only; `Some(true)`: per layer only.
    trace: Option<bool>,
    smoke: bool,
    corrupt_reference: bool,
    out: PathBuf,
    agree: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: report::declared_run_seconds(),
        trace: None,
        smoke: false,
        corrupt_reference: false,
        out: PathBuf::from("target/fxbench"),
        agree: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads
                    .push(Kind::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            // Test only: break the reference so the run must fail.
            "--corrupt-reference" => args.corrupt_reference = true,
            "--agree" => args.agree = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = Kind::ALL.to_vec();
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fxbench: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if let Some((a, b)) = &args.agree {
        return agree(a, b);
    }
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("fxbench: {e}");
            ExitCode::from(EXIT_WRONG)
        }
    }
}

fn agree(a: &str, b: &str) -> ExitCode {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    match read(a)
        .and_then(|a| Ok((a, read(b)?)))
        .and_then(|(a, b)| report::agree(&a, &b))
    {
        Ok(0) => ExitCode::SUCCESS,
        Ok(over) => {
            eprintln!("fxbench: {over} (metric, workload) pairs differ by more than their bound");
            ExitCode::from(EXIT_WRONG)
        }
        Err(e) => {
            eprintln!("fxbench: {e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

// ------------------------------------------------------------ pipelines

/// A workload's product path: an engine session or the server.
enum Pipeline<'a> {
    Engine(Box<EngineRunner<'a>>),
    Pubsub(Box<PubsubRunner<'a>>),
}

impl<'a> Pipeline<'a> {
    fn build(inputs: &'a Inputs, reference: &'a Reference) -> Pipeline<'a> {
        if inputs.kind == Kind::PubsubChurn {
            Pipeline::Pubsub(Box::new(PubsubRunner::start(
                inputs,
                reference,
                Server::single(),
            )))
        } else {
            Pipeline::Engine(Box::new(EngineRunner::new(inputs, reference)))
        }
    }

    /// Ends the pipeline (shutting the server down and joining its
    /// worker); false if a delivery was lost, dropped or failed to parse.
    fn close(self) -> bool {
        match self {
            Pipeline::Pubsub(r) => r.finish(),
            Pipeline::Engine(_) => true,
        }
    }

    fn set_traced(&mut self, traced: bool) {
        match self {
            Pipeline::Engine(r) => r.traced = traced,
            Pipeline::Pubsub(r) => r.traced = traced,
        }
    }
}

impl Runner for Pipeline<'_> {
    fn docs(&self) -> usize {
        match self {
            Pipeline::Engine(r) => r.docs(),
            Pipeline::Pubsub(r) => r.docs(),
        }
    }
    fn run_doc(&mut self, i: usize) -> bool {
        match self {
            Pipeline::Engine(r) => r.run_doc(i),
            Pipeline::Pubsub(r) => r.run_doc(i),
        }
    }
    fn between_docs(&mut self, i: usize) -> bool {
        match self {
            Pipeline::Engine(r) => r.between_docs(i),
            Pipeline::Pubsub(r) => r.between_docs(i),
        }
    }
}

/// One cold construction, timed: query text → `parse_query` → builder →
/// `build()` → `session()` (+ source) → first document (the corpus'
/// median-length one) finished and checked; for the server: `start` +
/// every `subscribe` + that document through the barrier. Tear-down is
/// not timed.
fn construct_once(inputs: &Inputs, reference: &Reference, doc: usize) -> (Duration, bool) {
    let begin = Instant::now();
    let mut pipeline = Pipeline::build(inputs, reference);
    let ok = pipeline.run_doc(doc);
    let took = begin.elapsed();
    (took, pipeline.close() && ok)
}

/// Everything one workload carries through a run.
struct State<'a> {
    inputs: &'a Inputs,
    reference: &'a Reference,
    pipeline: Pipeline<'a>,
    series: Series,
    /// Per sample, nanoseconds per construction.
    setup_ns: Vec<u64>,
    /// Documents checked outside the timed rounds, and how many failed.
    extra_attempted: u64,
    extra_failed: u64,
    /// Symbol-table size after warm-up (for `intern.table_growth`).
    symbols_after_warmup: usize,
    /// False once a server that was shut down had lost or dropped a delivery.
    conserved: bool,
    result: WorkloadResult,
}

impl State<'_> {
    fn kind(&self) -> Kind {
        self.inputs.kind
    }

    fn checked_pass(&mut self) {
        self.extra_failed += harness::untimed_pass(&mut self.pipeline);
        self.extra_attempted += self.inputs.docs.len() as u64;
    }

    /// Brings the whole pipeline to the CPU the generator thread was just
    /// pinned to. An engine session runs on the calling thread, so there
    /// is nothing to do; the server's worker thread keeps the CPU it was
    /// started on, so `pubsub-churn` starts a fresh server (threads
    /// inherit the pin) and warms it with one pass.
    fn follow_the_pin(&mut self) {
        if self.kind() != Kind::PubsubChurn {
            return;
        }
        let fresh = Pipeline::build(self.inputs, self.reference);
        self.conserved &= std::mem::replace(&mut self.pipeline, fresh).close();
        self.checked_pass();
    }
}

// ------------------------------------------------------------------ run

fn run(args: &Args) -> Result<ExitCode, String> {
    let budget = Budget {
        total: if args.smoke {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(args.seconds)
        },
        smoke: args.smoke,
    };
    let want_end_to_end = args.trace != Some(true);
    let want_per_layer = args.trace != Some(false);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;

    let declared = report::declared_workloads();
    if !declared
        .iter()
        .map(|(n, w)| (n.as_str(), w.as_str()))
        .eq(Kind::ALL.iter().map(|k| (k.name(), k.why())))
    {
        return Err("the workloads of BENCHMARK.json differ from fxbench's".to_string());
    }

    // Inputs and references first: the corpus is allocated before any
    // heap baseline is taken.
    let mut prepared = Vec::new();
    for &kind in &args.workloads {
        let inputs = Inputs::generate(kind, args.seed);
        if args.seed == workloads::DEFAULT_SEED
            && inputs.fingerprint() != Inputs::recorded_fingerprint(kind)
        {
            return Err(format!(
                "input fingerprint of `{}` at seed {} is {:#018x}, recorded {:#018x}: \
                 fx_workloads or the vendored RNG changed what is measured",
                kind.name(),
                args.seed,
                inputs.fingerprint(),
                Inputs::recorded_fingerprint(kind)
            ));
        }
        let mut reference = Reference::compute(&inputs);
        if args.corrupt_reference {
            reference.corrupt();
        }
        prepared.push((inputs, reference));
    }

    // Threads inherit the pin of the thread that starts them, so pin
    // before the first server is started.
    harness::pin_to_cpu(0);
    let mut states: Vec<State> = prepared
        .iter()
        .map(|(inputs, reference)| State {
            inputs,
            reference,
            pipeline: Pipeline::build(inputs, reference),
            series: Series::new(inputs.docs.len()),
            setup_ns: Vec::new(),
            extra_attempted: 0,
            extra_failed: 0,
            symbols_after_warmup: 0,
            conserved: true,
            result: WorkloadResult::default(),
        })
        .collect();

    for state in &mut states {
        for _ in 0..harness::WARMUP_PASSES {
            state.checked_pass();
        }
        if let Pipeline::Engine(r) = &state.pipeline {
            state.symbols_after_warmup = r.product().engine().symbols().len();
        }
    }

    if want_end_to_end {
        let mut memo = harness::FastMemo::load(&args.out);
        timed_rounds(&mut states, budget, &mut memo);
        if !budget.smoke {
            memo.save()
                .map_err(|e| format!("{}: {e}", args.out.display()))?;
        }
    }
    let mut noisy = Vec::new();
    for state in &mut states {
        let heap = memory_passes(state, if budget.smoke { 1 } else { 5 });
        let (peak_state_bits, max_state_bits) = state_pass(state);
        if want_end_to_end {
            let reading = state.series.read();
            if !budget.smoke && reading.samples < harness::MIN_LATENCY_SAMPLES {
                noisy.push((state.kind().name(), reading.samples));
            }
            state.result.end_to_end = end_to_end_metrics(state, &reading, peak_state_bits, &heap);
        }
        if want_per_layer {
            state.result.per_layer = per_layer_metrics(state, budget, &heap, args)?;
            state.result.per_layer.push(metric(
                "state.max_doc_peak_bits",
                "bits",
                max_state_bits as f64,
            ));
        }
    }

    // Close every pipeline (joining the server's worker) and settle the
    // correctness verdict.
    let mut results: Vec<(&str, WorkloadResult)> = Vec::new();
    for state in states {
        let State {
            inputs,
            pipeline,
            series,
            extra_attempted,
            extra_failed,
            conserved,
            mut result,
            ..
        } = state;
        let conserved = pipeline.close() && conserved;
        result.attempted = series.attempted + extra_attempted;
        result.failed = series.failed + extra_failed;
        result.correct = result.failed == 0 && conserved;
        if want_end_to_end {
            report::check_against_declaration("end_to_end", &result.end_to_end)?;
        }
        if want_per_layer {
            report::check_against_declaration("per_layer", &result.per_layer)?;
        }
        results.push((inputs.kind.name(), result));
    }

    let by_ref: Vec<(&str, &WorkloadResult)> = results.iter().map(|(n, r)| (*n, r)).collect();
    print_table(&by_ref, args.smoke);
    let result_path = args.out.join("result.json");
    std::fs::write(
        &result_path,
        report::result_file(args.seed, args.seconds, &by_ref),
    )
    .map_err(|e| format!("{}: {e}", result_path.display()))?;

    if let Some((workload, samples)) = noisy.first() {
        eprintln!(
            "fxbench: machine too noisy (or --seconds too short): `{workload}` has only {samples} latency samples \
             in passes within {:.0} % of Tfast, need {}",
            (harness::UNCONTENDED_FACTOR - 1.0) * 100.0,
            harness::MIN_LATENCY_SAMPLES
        );
        return Ok(ExitCode::from(EXIT_NOISY));
    }
    if !args.smoke {
        println!("{}", report::result_line(&by_ref));
    }
    let all_correct = results.iter().all(|(_, r)| r.correct);
    if !all_correct {
        for (workload, r) in &results {
            if !r.correct {
                eprintln!(
                    "fxbench: `{workload}`: {} of {} documents wrong or failed",
                    r.failed, r.attempted
                );
            }
        }
        return Ok(ExitCode::from(EXIT_WRONG));
    }
    Ok(ExitCode::SUCCESS)
}

fn print_table(results: &[(&str, &WorkloadResult)], exact_only: bool) {
    for (workload, r) in results {
        for m in r.metrics() {
            // With two threads on one CPU the server's allocation count
            // depends on who parks when; every other count repeats.
            let racy = *workload == "pubsub-churn" && m.name == "alloc.calls_per_doc";
            if !exact_only || (EXACT_COUNTS.contains(&m.name) && !racy) {
                println!(
                    "{:<44} {:>20} {}",
                    format!("{}@{workload}", m.name),
                    m.value,
                    m.unit
                );
            }
        }
        if !exact_only {
            println!(
                "{:<44} {:>20} of {}",
                format!("failed@{workload}"),
                r.failed,
                r.attempted
            );
        }
    }
}

// ---------------------------------------------------------- end to end

/// The timed rounds: tracing and heap counting are off. Each round
/// moves the generator to the next CPU and gives every workload its
/// set-up samples and one slice, round-robin, so a slow stretch of the
/// machine hits all of them. Workloads that have not seen the fast mode
/// after the regular rounds (see [`harness::FastMemo`]) get extra ones.
fn timed_rounds(states: &mut [State], budget: Budget, memo: &mut harness::FastMemo) {
    // Size the latency buffers from one more untimed pass, so they do
    // not grow inside a timed one.
    for state in states.iter_mut() {
        let begin = Instant::now();
        state.checked_pass();
        let passes = budget.total.as_nanos() / begin.elapsed().as_nanos().max(1);
        state
            .series
            .reserve(passes as usize * 3 / 2 + harness::ROUNDS);
    }
    if budget.smoke {
        // One round with one construction is enough.
        for state in states.iter_mut() {
            state.round(Duration::ZERO, 1, 1);
        }
        return;
    }
    let cost_per_byte =
        |state: &State| harness::fast(&state.series.pass_ns) / state.inputs.bytes() as f64;
    for round in 0..harness::ROUNDS + harness::MAX_EXTRA_ROUNDS {
        let extra = round >= harness::ROUNDS;
        harness::pin_to_cpu(round);
        let mut measured = false;
        for state in states.iter_mut() {
            if extra && !memo.looks_slow(state.kind().name(), cost_per_byte(state)) {
                continue;
            }
            state.round(
                budget.slice(),
                harness::SETUP_SAMPLES_PER_ROUND,
                state.kind().setup_batch(),
            );
            measured = true;
        }
        if !measured {
            break;
        }
    }
    for state in states.iter() {
        memo.note(state.kind().name(), cost_per_byte(state));
    }
}

impl State<'_> {
    /// One round on the CPU the generator was just pinned to: `samples`
    /// set-up samples of `batch` cold constructions each, then one slice.
    fn round(&mut self, slice: Duration, samples: usize, batch: usize) {
        self.follow_the_pin();
        let doc = self.inputs.setup_doc();
        for _ in 0..samples {
            let mut total = Duration::ZERO;
            for _ in 0..batch {
                let (took, ok) = construct_once(self.inputs, self.reference, doc);
                total += took;
                self.extra_attempted += 1;
                self.extra_failed += u64::from(!ok);
            }
            self.setup_ns.push(total.as_nanos() as u64 / batch as u64);
        }
        self.series.slice(&mut self.pipeline, slice);
    }
}

/// Dedicated passes with the counting allocator on; the reading with the
/// median peak. An engine session allocates the same every pass; the
/// server's peak depends on which thread runs when (one pass in ten or
/// so held 55 KB more on `pubsub-churn`), which the median rides out.
fn memory_passes(state: &mut State, passes: usize) -> HeapReading {
    let mut readings: Vec<HeapReading> = (0..passes)
        .map(|_| harness::count_heap(|| state.checked_pass()).1)
        .collect();
    readings.sort_by_key(|r| r.peak_live);
    readings[passes / 2]
}

/// The paper's quantity, read after every document of one pass on a
/// pipeline of its own: `Verdicts::total_peak_bits()` of a fresh session
/// per document (`Session::index_stats().total_bits` on an indexed one).
/// Returns the mean and the max over the documents. The server has no
/// public accessor, so `pubsub-churn` reads the same reporting
/// `IndexedBank` rebuilt from public pieces over the same subscriptions
/// and documents.
fn state_pass(state: &mut State) -> (f64, u64) {
    let (failed, tally) = if state.kind() == Kind::PubsubChurn {
        let symbols = std::sync::Arc::new(fx_xml::Symbols::new());
        let mut mirror = PartsRunner::new(state.inputs, state.reference, &symbols);
        mirror.track_state = true;
        (harness::untimed_pass(&mut mirror), mirror.tally)
    } else {
        let mut probe = EngineRunner::new(state.inputs, state.reference);
        probe.track_state = true;
        (harness::untimed_pass(&mut probe), probe.tally)
    };
    let docs = state.inputs.docs.len();
    state.extra_failed += failed;
    state.extra_attempted += docs as u64;
    (
        tally.state_bits_sum as f64 / docs as f64,
        tally.state_bits_max,
    )
}

fn end_to_end_metrics(
    state: &State,
    reading: &harness::Reading,
    peak_state_bits: f64,
    heap: &HeapReading,
) -> Vec<Metric> {
    let mut setup = state.setup_ns.clone();
    setup.sort_unstable();
    let bytes = state.inputs.bytes() as f64;
    let docs = state.inputs.docs.len() as f64;
    eprintln!(
        "# {}: {} passes, Tfast {:.3} ms, {} latency samples over uncontended passes (share {:.2}), {} set-up samples",
        state.kind().name(),
        state.series.pass_ns.len(),
        reading.fast_ns / 1e6,
        reading.samples,
        reading.uncontended_share,
        setup.len()
    );
    vec![
        metric("setup_s", "s", harness::quantile(&setup, 0.10) / 1e9),
        metric("mb_s", "MB/s", bytes / 1e6 / (reading.fast_ns / 1e9)),
        metric("docs_per_s", "1/s", docs / (reading.fast_ns / 1e9)),
        metric("doc_p50_us", "us", reading.p50_ns / 1e3),
        metric("doc_p99_us", "us", reading.p99_ns / 1e3),
        metric("peak_state_bits", "bits", peak_state_bits),
        metric("peak_heap_bytes", "B", heap.peak_live as f64),
    ]
}

// ----------------------------------------------------------- per layer

/// What the traced run of one workload measured.
struct Traced {
    untraced_fast_ns: f64,
    traced_fast_ns: f64,
    uncontended_share: f64,
    /// Mean per-name sums over the uncontended traced passes.
    product: PassSums,
    parts: PassSums,
    read_calls_per_doc: f64,
}

fn mean_sums(passes: &[(u64, PassSums)]) -> PassSums {
    let times: Vec<u64> = passes.iter().map(|(t, _)| *t).collect();
    let mut mean = PassSums::default();
    if times.is_empty() {
        return mean;
    }
    let limit = harness::fast(&times) * harness::UNCONTENDED_FACTOR;
    let kept: Vec<&PassSums> = passes
        .iter()
        .filter(|(t, _)| *t as f64 <= limit)
        .map(|(_, s)| s)
        .collect();
    for i in 0..trace::NAMES {
        mean.self_ns[i] = kept.iter().map(|s| s.self_ns[i]).sum::<u64>() / kept.len() as u64;
        mean.count[i] = kept.iter().map(|s| s.count[i]).sum::<u64>() / kept.len() as u64;
    }
    mean
}

fn timed_pass<R: Runner>(runner: &mut R) -> (u64, u64) {
    let begin = Instant::now();
    let failed = harness::untimed_pass(runner);
    (begin.elapsed().as_nanos() as u64, failed)
}

/// Passes whose full span list is written to the trace file.
const KEPT_PASSES: usize = 2;

/// The traced run: untraced product passes, traced product passes and
/// traced parts-pipeline passes, interleaved so drift hits all three.
/// Writes `trace-<workload>.json`.
fn traced_run(state: &mut State, budget: Budget, out: &Path, seed: u64) -> Result<Traced, String> {
    let docs = state.inputs.docs.len();
    let mut parts = match &state.pipeline {
        Pipeline::Engine(r) => Some(PartsRunner::new(
            state.inputs,
            state.reference,
            r.product().engine().symbols(),
        )),
        Pipeline::Pubsub(_) => None,
    };
    let reads_before = match &state.pipeline {
        Pipeline::Engine(r) => r.tally.read_calls,
        Pipeline::Pubsub(_) => 0,
    };
    let capacity = 2
        * (docs * 16 + state.reference.matches_per_pass() as usize + state.inputs.bytes() / 1024)
        + 1024;
    let (mut untraced, mut product, mut parts_passes) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Vec<(&str, usize, Vec<trace::Span>)> = Vec::new();
    let mut failed = 0u64;
    let mut product_passes_run = 0u64;
    let span = budget.total / 5;
    let begin = Instant::now();
    let mut cycle = 0usize;
    while cycle < KEPT_PASSES || begin.elapsed() < span {
        let keep = cycle < KEPT_PASSES;
        let (ns, f) = timed_pass(&mut state.pipeline);
        untraced.push(ns);
        failed += f;

        state.pipeline.set_traced(true);
        trace::begin_pass(if keep { capacity } else { 0 });
        let (ns, f) = timed_pass(&mut state.pipeline);
        state.pipeline.set_traced(false);
        failed += f;
        product.push((ns, trace::take_pass()));
        if keep {
            kept.push(("product", cycle, trace::take_spans()));
        }
        product_passes_run += 2;

        if let Some(parts) = &mut parts {
            parts.traced = true;
            trace::begin_pass(if keep { capacity } else { 0 });
            let (ns, f) = timed_pass(parts);
            failed += f;
            parts_passes.push((ns, trace::take_pass()));
            if keep {
                kept.push(("parts", cycle, trace::take_spans()));
            }
        }
        cycle += 1;
        if budget.smoke && cycle >= KEPT_PASSES {
            break;
        }
    }
    let runs = 2 + usize::from(parts.is_some());
    state.extra_attempted += (cycle * runs * docs) as u64;
    state.extra_failed += failed;

    let product_mean = mean_sums(&product);
    let parts_mean = mean_sums(&parts_passes);
    let gap = kept
        .iter()
        .map(|(_, _, spans)| trace::self_time_gap(spans))
        .fold(0.0, f64::max);
    if gap > 0.02 {
        return Err(format!(
            "span self times differ from their root spans by {:.1} %",
            gap * 100.0
        ));
    }
    write_trace_file(
        state,
        out,
        seed,
        &kept,
        &[
            ("product", &product_mean, product.len()),
            ("parts", &parts_mean, parts_passes.len()),
        ],
        gap,
    )?;

    let untraced_fast_ns = harness::fast(&untraced);
    let within = untraced
        .iter()
        .filter(|&&t| t as f64 <= untraced_fast_ns * harness::UNCONTENDED_FACTOR)
        .count();
    let reads = match &state.pipeline {
        Pipeline::Engine(r) => {
            (r.tally.read_calls - reads_before) as f64 / (product_passes_run * docs as u64) as f64
        }
        Pipeline::Pubsub(_) => 0.0,
    };
    Ok(Traced {
        untraced_fast_ns,
        traced_fast_ns: harness::fast(&product.iter().map(|(t, _)| *t).collect::<Vec<_>>()),
        uncontended_share: within as f64 / untraced.len() as f64,
        product: product_mean,
        parts: parts_mean,
        read_calls_per_doc: reads,
    })
}

fn write_trace_file(
    state: &State,
    out: &Path,
    seed: u64,
    kept: &[(&str, usize, Vec<trace::Span>)],
    sums: &[(&str, &PassSums, usize)],
    gap: f64,
) -> Result<(), String> {
    let mut text = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {seed},\n  \"time_unit\": \"ns\",\n  \"self_time_gap\": {gap},\n",
        state.kind().name()
    );
    text.push_str("  \"mean_per_pass\": {\n");
    for (i, (pipeline, mean, passes)) in sums.iter().enumerate() {
        write!(text, "    \"{pipeline}\": {{\"passes\": {passes}").expect("writing to a String");
        for name in Name::ALL {
            if mean.count_of(name) > 0 {
                write!(
                    text,
                    ", \"{}\": {{\"self_ns\": {}, \"spans\": {}}}",
                    name.as_str(),
                    mean.self_of(name),
                    mean.count_of(name)
                )
                .expect("writing to a String");
            }
        }
        text.push_str(if i + 1 < sums.len() { "},\n" } else { "}\n" });
    }
    text.push_str("  },\n  \"kept_passes\": [\n");
    for (i, (pipeline, pass, spans)) in kept.iter().enumerate() {
        writeln!(
            text,
            "    {{\"pipeline\": \"{pipeline}\", \"pass\": {pass}, \"spans\": ["
        )
        .expect("writing to a String");
        for (j, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if j + 1 < spans.len() { "," } else { "" };
            writeln!(
                text,
                "      {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"doc\": {}}}{sep}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.doc
            )
            .expect("writing to a String");
        }
        text.push_str(if i + 1 < kept.len() {
            "    ]},\n"
        } else {
            "    ]}\n"
        });
    }
    text.push_str("  ]\n}\n");
    let path = out.join(format!("trace-{}.json", state.kind().name()));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn per_layer_metrics(
    state: &mut State,
    budget: Budget,
    heap: &HeapReading,
    args: &Args,
) -> Result<Vec<Metric>, String> {
    let traced = traced_run(state, budget, &args.out, args.seed)?;
    let bytes = state.inputs.bytes() as f64;
    let docs = state.inputs.docs.len() as f64;

    // The ladder rows share the engine's symbol table; the server keeps
    // its own, so the `pubsub-churn` rows start from an empty one (the
    // ladder compiles the queries into it, as the server does).
    let symbols = match &state.pipeline {
        Pipeline::Engine(r) => std::sync::Arc::clone(r.product().engine().symbols()),
        Pipeline::Pubsub(_) => std::sync::Arc::new(fx_xml::Symbols::new()),
    };
    let mut out = ladder::Ladder::new(state.inputs, state.reference, &symbols, budget).rows();

    let table_growth = match &state.pipeline {
        Pipeline::Engine(r) => r.product().engine().symbols().len() - state.symbols_after_warmup,
        Pipeline::Pubsub(_) => 0,
    };
    out.push(metric("intern.table_growth", "count", table_growth as f64));

    // Product-path `doc` self time (everything but the reader and the
    // sink) minus the same evaluation through the parts pipeline.
    let session_self = if state.kind() == Kind::PubsubChurn {
        0.0
    } else {
        let parts = traced.parts.self_of(Name::Doc)
            + traced.parts.self_of(Name::SourceDrive)
            + traced.parts.self_of(Name::BankBatch);
        (traced.product.self_of(Name::Doc) as f64 - parts as f64) / bytes
    };
    out.push(metric("session.self_ns_per_byte", "ns/B", session_self));

    out.extend(server_metrics(state, &traced, budget));
    out.push(metric(
        "alloc.calls_per_doc",
        "count",
        heap.calls as f64 / docs,
    ));
    out.push(metric("alloc.bytes_per_doc", "B", heap.bytes as f64 / docs));
    out.push(metric(
        "io.read_calls_per_doc",
        "count",
        traced.read_calls_per_doc,
    ));
    out.push(metric(
        "harness.uncontended_share",
        "ratio",
        traced.uncontended_share,
    ));
    out.push(metric(
        "harness.trace_overhead_pct",
        "%",
        (traced.traced_fast_ns / traced.untraced_fast_ns - 1.0) * 100.0,
    ));
    out.push(metric("harness.timer_ns", "ns", harness::timer_ns()));
    Ok(out)
}

/// The `server.*` rows: time inside `publish`, the `stats()` barrier and
/// the mailbox drain (from the traced run), the server's own counters,
/// and the same traffic through `ShardedServer::start(cfg, 1)`.
fn server_metrics(state: &mut State, traced: &Traced, budget: Budget) -> Vec<Metric> {
    let docs = state.inputs.docs.len() as f64;
    let Pipeline::Pubsub(runner) = &state.pipeline else {
        return [
            ("server.publish_call_us", "us"),
            ("server.barrier_wait_us", "us"),
            ("server.drain_us", "us"),
            ("server.churn_pair_us", "us"),
            ("server.deliveries_per_doc", "count"),
            ("server.dropped", "count"),
            ("server.compactions", "count"),
            ("server.sharded_w1_docs_per_s", "1/s"),
        ]
        .into_iter()
        .map(|(name, unit)| metric(name, unit, 0.0))
        .collect();
    };
    let stats = runner.stats();
    let per_doc_us = |name: Name| traced.product.self_of(name) as f64 / docs / 1e3;
    let pairs = traced.product.count_of(Name::ChurnPair).max(1) as f64;

    let mut sharded = PubsubRunner::start(state.inputs, state.reference, Server::sharded_w1());
    let mut series = Series::new(state.inputs.docs.len());
    let mut failed = harness::untimed_pass(&mut sharded);
    let begin = Instant::now();
    while series.pass_ns.len() < if budget.smoke { 1 } else { 3 }
        || begin.elapsed() < budget.row() * 2
    {
        series.pass(&mut sharded);
    }
    failed += series.failed;
    let conserved = sharded.finish();
    state.extra_attempted += series.attempted + state.inputs.docs.len() as u64;
    state.extra_failed += failed + u64::from(!conserved);

    vec![
        metric("server.publish_call_us", "us", per_doc_us(Name::Publish)),
        metric("server.barrier_wait_us", "us", per_doc_us(Name::Barrier)),
        metric("server.drain_us", "us", per_doc_us(Name::Drain)),
        metric(
            "server.churn_pair_us",
            "us",
            traced.product.self_of(Name::ChurnPair) as f64 / pairs / 1e3,
        ),
        metric(
            "server.deliveries_per_doc",
            "count",
            stats.deliveries as f64 / stats.documents as f64,
        ),
        metric("server.dropped", "count", stats.dropped_deliveries as f64),
        metric("server.compactions", "count", stats.compactions as f64),
        metric(
            "server.sharded_w1_docs_per_s",
            "1/s",
            docs / (harness::fast(&series.pass_ns) / 1e9),
        ),
    ]
}
