//! Metrics as `fxbench` prints and stores them, the declaration in
//! `BENCHMARK.json` they must match, and the agreement checker.
//!
//! There is no JSON crate in this offline workspace, so this file
//! carries the small reader the result files and `BENCHMARK.json` need.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one workload's run produced.
#[derive(Clone, Debug, Default)]
pub struct WorkloadResult {
    /// Documents sent during the timed rounds and checked passes.
    pub attempted: u64,
    /// Documents that failed or returned a wrong output.
    pub failed: u64,
    /// Whether every output (and, for the server, delivery
    /// conservation) matched the reference.
    pub correct: bool,
    /// End-to-end metrics (`--trace 0`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (`--trace 1`).
    pub per_layer: Vec<Metric>,
}

impl WorkloadResult {
    /// Both metric lists, end-to-end first.
    pub fn metrics(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }
}

fn metrics_object<'a>(metrics: impl Iterator<Item = (String, &'a Metric)>) -> String {
    let mut out = String::from("{");
    for (i, (key, m)) in metrics.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.value, m.unit
        )
        .expect("writing to a String");
    }
    out.push('}');
    out
}

/// The one-line result object the driver reads from the last line of
/// standard output. With one workload the keys are the metric names;
/// with several, `name@workload`.
pub fn result_line(results: &[(&str, &WorkloadResult)]) -> String {
    let single = results.len() == 1;
    let metrics = results.iter().flat_map(|(workload, r)| {
        r.metrics().map(move |m| {
            let key = if single {
                m.name.to_string()
            } else {
                format!("{}@{workload}", m.name)
            };
            (key, m)
        })
    });
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        results.iter().all(|(_, r)| r.correct),
        results.iter().map(|(_, r)| r.attempted).sum::<u64>(),
        results.iter().map(|(_, r)| r.failed).sum::<u64>(),
        metrics_object(metrics)
    )
}

/// The result file: one object per workload, in the shape of
/// [`result_line`], plus the run's parameters.
pub fn result_file(seed: u64, seconds: f64, results: &[(&str, &WorkloadResult)]) -> String {
    let mut out = format!("{{\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"claim\": null,\n  \"workloads\": {{\n");
    for (i, (workload, r)) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        writeln!(
            out,
            "    \"{workload}\": {}{sep}",
            result_line(&[(workload, r)])
        )
        .expect("writing to a String");
    }
    out.push_str("  }\n}\n");
    out
}

// ------------------------------------------------------------ JSON reader

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a whole JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Reader {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.at));
        }
        Ok(value)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object (empty otherwise).
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }

    /// The items of an array (empty otherwise).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b']') {
                        self.at += 1;
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.expect(b',')?;
                    }
                    items.push(self.value()?);
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut members = Vec::new();
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.at) == Some(&b'}') {
                        self.at += 1;
                        return Ok(Json::Obj(members));
                    }
                    if !members.is_empty() {
                        self.expect(b',')?;
                        self.skip_ws();
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    members.push((key, self.value()?));
                }
            }
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let escaped = *self.bytes.get(self.at + 1).ok_or("unterminated escape")?;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => escaped,
                        other => return Err(format!("unsupported escape `\\{}`", other as char)),
                    });
                    self.at += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
            }
        }
    }
}

// ----------------------------------------------------------- declaration

/// `BENCHMARK.json`, embedded at build time: the single declaration of
/// workloads, metric names, units, directions and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// True when higher is better.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The `end_to_end` or `per_layer` list of `BENCHMARK.json`.
pub fn declared(section: &str) -> Vec<Declared> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(section)
        .expect("BENCHMARK.json has the section")
        .items()
        .iter()
        .map(|m| Declared {
            name: m.get("name").and_then(Json::str).expect("name").to_string(),
            unit: m.get("unit").and_then(Json::str).expect("unit").to_string(),
            higher_is_better: m.get("better").and_then(Json::str) == Some("higher"),
            bound: m.get("bound").and_then(Json::num),
        })
        .collect()
}

/// The declared workloads: (name, why), in order.
pub fn declared_workloads() -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get("workloads")
        .expect("BENCHMARK.json has workloads")
        .items()
        .iter()
        .map(|w| {
            let field = |key| {
                w.get(key)
                    .and_then(Json::str)
                    .expect("name and why")
                    .to_string()
            };
            (field("name"), field("why"))
        })
        .collect()
}

/// The default measuring time, `run_seconds` of `BENCHMARK.json`.
pub fn declared_run_seconds() -> f64 {
    Json::parse(BENCHMARK_JSON)
        .expect("BENCHMARK.json is valid JSON")
        .get("run_seconds")
        .and_then(Json::num)
        .expect("run_seconds")
}

/// Checks that `emitted` is exactly the declared `section`: every name
/// once, with its declared unit, names made of `[A-Za-z0-9_.-]`.
pub fn check_against_declaration(section: &str, emitted: &[Metric]) -> Result<(), String> {
    let declared = declared(section);
    let mut seen = BTreeMap::new();
    for m in emitted {
        if !m
            .name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        {
            return Err(format!(
                "metric name `{}` has characters outside [A-Za-z0-9_.-]",
                m.name
            ));
        }
        if seen.insert(m.name, m.unit).is_some() {
            return Err(format!("metric `{}` emitted twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric `{}` is not a finite number", m.name));
        }
    }
    for d in &declared {
        match seen.remove(d.name.as_str()) {
            None => return Err(format!("declared metric `{}` was not emitted", d.name)),
            Some(unit) if unit != d.unit => {
                return Err(format!(
                    "metric `{}` emitted in `{unit}`, declared in `{}`",
                    d.name, d.unit
                ))
            }
            Some(_) => {}
        }
    }
    match seen.keys().next() {
        Some(extra) => Err(format!(
            "metric `{extra}` is emitted but not declared in {section}"
        )),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------- agree

/// `value` with six significant digits, for tables.
fn six_digits(value: f64) -> String {
    if value != 0.0 && value.abs() < 0.01 {
        format!("{value:.5e}")
    } else {
        let whole = value.abs().max(1.0).log10() as usize + 1;
        format!("{value:.*}", 6usize.saturating_sub(whole))
    }
}

/// Compares two result files metric by metric against the bounds of
/// `BENCHMARK.json`; prints one row per (metric, workload). Returns the
/// number of pairs whose gap exceeds its bound.
pub fn agree(a_text: &str, b_text: &str) -> Result<usize, String> {
    let (a, b) = (Json::parse(a_text)?, Json::parse(b_text)?);
    let workloads = a.get("workloads").ok_or("first file has no `workloads`")?;
    let mut over = 0;
    println!(
        "{:<18} {:<14} {:>16} {:>16} {:>9} {:>7}",
        "metric", "workload", "A", "B", "gap", "bound"
    );
    for d in declared("end_to_end") {
        let bound = d.bound.ok_or("end_to_end metric without a bound")?;
        for (workload, in_a) in workloads.members() {
            let value = |side: &Json, file: &str| {
                side.get("metrics")
                    .and_then(|m| m.get(&d.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::num)
                    .ok_or(format!("{file} file lacks {}@{workload}", d.name))
            };
            let in_b = b
                .get("workloads")
                .and_then(|w| w.get(workload))
                .ok_or(format!("second file lacks workload {workload}"))?;
            let (va, vb) = (value(in_a, "first")?, value(in_b, "second")?);
            // How much worse B reads than A, as a share of A.
            let worse = if d.higher_is_better { va - vb } else { vb - va } / va.abs();
            let verdict = if worse.abs() > bound { "OVER" } else { "" };
            over += usize::from(worse.abs() > bound);
            println!(
                "{:<18} {:<14} {:>16} {:>16} {:>+8.2}% {:>6.1}% {verdict}",
                d.name,
                workload,
                six_digits(va),
                six_digits(vb),
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(over)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_reader() {
        let r = WorkloadResult {
            attempted: 12,
            failed: 0,
            correct: true,
            end_to_end: vec![
                metric("mb_s", "MB/s", 63.25),
                metric("setup_s", "s", 7.5e-5),
            ],
            per_layer: vec![],
        };
        let parsed = Json::parse(&result_line(&[("xmark-single", &r)])).expect("valid JSON");
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::num), Some(12.0));
        let mb_s = parsed
            .get("metrics")
            .and_then(|m| m.get("mb_s"))
            .expect("mb_s");
        assert_eq!(mb_s.get("value").and_then(Json::num), Some(63.25));
        assert_eq!(mb_s.get("unit").and_then(Json::str), Some("MB/s"));
        // Several workloads: keys carry the workload.
        let both = Json::parse(&result_line(&[("a", &r), ("b", &r)])).expect("valid JSON");
        assert!(both.get("metrics").and_then(|m| m.get("mb_s@b")).is_some());
    }

    #[test]
    fn reader_rejects_malformed_documents() {
        assert!(Json::parse("{\"a\": [1, 2,, 3]}").is_err());
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("\"open").is_err());
        assert_eq!(
            Json::parse(" [ ] ").expect("empty array"),
            Json::Arr(vec![])
        );
    }

    #[test]
    fn declaration_is_well_formed_and_checked() {
        let end_to_end = declared("end_to_end");
        assert!(end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
        assert!(end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert_eq!(declared_workloads().len(), 6);
        let emitted = vec![metric("mb_s", "MB/s", 1.0)];
        assert!(
            check_against_declaration("end_to_end", &emitted).is_err(),
            "missing metrics must be refused"
        );
    }
}
