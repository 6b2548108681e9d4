//! Engine-vs-filter differential testing: the `Engine`/`Session`
//! surface must reproduce the bare algorithm layer exactly — same
//! verdicts *and* same peak-bit space statistics — its reader path must
//! filter large documents without buffering them, and a reused session
//! (after a good document or a failed one) must behave like a fresh one.

use frontier_xpath::prelude::*;
use frontier_xpath::workloads::{random_document, RandomDocConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Read;

mod common;
use common::{feed, run_reader_outcome, run_source_outcome, session_shapes};

/// The same query pool the legacy differential suite sweeps.
const QUERIES: &[&str] = &[
    "/a[b and c]",
    "//a[b and c]",
    "/a[b > 5]",
    "/a[b]/c",
    "//a//b",
    "/a/b/c",
    "/a[c[.//e and f] and b > 5]",
    "/a[b = \"x\"]",
    "//a[b]/c[d]",
    "/a[.//b and c]",
    "//b[a and .//c]",
    "/a/*/b",
    "//a[b > 2 and c]",
    "/x[a and b and c and d]",
    "//c[.//a]",
    "/a[contains(b, \"x\")]",
];

const LINEAR_QUERIES: &[&str] = &["/a/b", "//a//b", "/a//b/c", "//x", "/a/*/b"];

/// A fresh session fed pre-materialized events one `push` at a time.
fn push_all(engine: &Engine, events: &[Event]) -> Verdicts {
    let mut session = engine.session();
    for e in events {
        session.push(e);
    }
    session.finish().unwrap()
}

/// Verdict AND peak-bit parity between `Engine` and
/// a bare `StreamFilter` over the seeded random-document generator.
#[test]
fn frontier_backend_matches_legacy_verdicts_and_bits() {
    let mut rng = SmallRng::seed_from_u64(0xE9611E);
    let cfg = RandomDocConfig {
        max_depth: 7,
        max_children: 4,
        names: ["a", "b", "c", "d", "e", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        text_values: vec![
            String::new(),
            "1".into(),
            "3".into(),
            "6".into(),
            "x".into(),
        ],
    };
    for src in QUERIES {
        let q = parse_query(src).unwrap();
        let engine = Engine::builder().query(q.clone()).build().unwrap();
        for _ in 0..40 {
            let d = random_document(&mut rng, &cfg);
            let events = d.to_events();

            // One bare-filter pass yields both verdict and instrumented
            // stats (the filter itself is covered by `differential.rs`
            // and the proptest parity case below).
            let mut legacy = StreamFilter::new(&q).unwrap();
            let legacy_verdict = legacy.run_stream(&events).unwrap();
            let legacy_bits = legacy.stats().max_bits;

            // New: a fresh engine session over the same events.
            let verdicts = push_all(&engine, &events);
            assert_eq!(
                verdicts.matched(),
                &[legacy_verdict],
                "{src} on {}",
                d.to_xml()
            );
            assert_eq!(
                verdicts.peak_memory_bits(),
                &[legacy_bits],
                "peak bits diverged: {src} on {}",
                d.to_xml()
            );
        }
    }
}

/// The reader path (the session's own tokenizer, each event handed on
/// as it completes) agrees with the same document pushed as owned
/// events.
#[test]
fn session_reader_matches_pushed_events() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let cfg = RandomDocConfig::default();
    for src in QUERIES {
        let engine = Engine::builder().query_str(src).build().unwrap();
        for _ in 0..20 {
            let d = random_document(&mut rng, &cfg);
            let via_events = push_all(&engine, &d.to_events());
            let via_reader = engine.session().run_reader(d.to_xml().as_bytes()).unwrap();
            assert_eq!(
                via_events.matched(),
                via_reader.matched(),
                "{src} on {}",
                d.to_xml()
            );
        }
    }
}

/// Every session shape, over a seeded random corpus: the owned events
/// of `fx_xml::parse_spanned` through `push_spanned_to` and `finish`
/// read exactly like `run_reader_to` over the same bytes — verdicts,
/// peak bits, pending positions, and every match's query, ordinal and
/// span, in order.
#[test]
fn pushed_spanned_events_equal_the_reader_on_every_session_shape() {
    let mut rng = SmallRng::seed_from_u64(0x9A5E);
    let docs: Vec<String> = (0..40)
        .map(|_| random_document(&mut rng, &RandomDocConfig::default()).to_xml())
        .collect();
    let reading = |v: &Verdicts| {
        let (bits, pending) = (v.peak_memory_bits(), v.peak_pending_positions());
        (v.matched().to_vec(), bits.to_vec(), pending.to_vec())
    };
    let routed =
        |m: &[Match]| -> Vec<_> { m.iter().map(|m| (m.query, m.ordinal, m.span)).collect() };
    let mut selected = 0;
    for (label, engine) in session_shapes() {
        let (mut pushed, mut read) = (engine.session(), engine.session());
        for xml in &docs {
            let mut via_push: Vec<Match> = Vec::new();
            for (event, span) in fx_xml::parse_spanned(xml).unwrap() {
                pushed.push_spanned_to(&event, span, &mut via_push);
            }
            let want = pushed.finish().unwrap();
            let mut via_reader: Vec<Match> = Vec::new();
            let got = read.run_reader_to(xml.as_bytes(), &mut via_reader).unwrap();
            assert_eq!(reading(&got), reading(&want), "{label} on {xml}");
            assert_eq!(routed(&via_reader), routed(&via_push), "{label} on {xml}");
            selected += via_reader.len();
        }
    }
    assert!(selected > 0, "the corpus selects something");
}

/// The engine and the three automata baselines agree with the reference
/// evaluator on linear queries.
#[test]
fn all_backends_agree_with_reference_on_linear_queries() {
    let mut rng = SmallRng::seed_from_u64(0xBACE);
    let cfg = RandomDocConfig::default();
    for src in LINEAR_QUERIES {
        let q = parse_query(src).unwrap();
        let engine = Engine::builder().query(q.clone()).build().unwrap();
        for _ in 0..25 {
            let d = random_document(&mut rng, &cfg);
            let reference = bool_eval(&q, &d).unwrap();
            let events = d.to_events();
            let verdicts = [
                ("frontier", push_all(&engine, &events).any()),
                (
                    "nfa",
                    NfaFilter::new(&q).unwrap().run_stream(&events).unwrap(),
                ),
                (
                    "lazy dfa",
                    LazyDfaFilter::new(&q).unwrap().run_stream(&events).unwrap(),
                ),
                (
                    "buffering",
                    BufferingFilter::new(&q).run_stream(&events).unwrap(),
                ),
            ];
            for (label, verdict) in verdicts {
                assert_eq!(verdict, reference, "{src} via {label} on {}", d.to_xml());
            }
        }
    }
}

/// A multi-query session agrees with per-query legacy runs, including
/// the short-circuiting `MultiFilter` bank.
#[test]
fn multi_query_session_agrees_with_legacy_bank() {
    let queries: Vec<Query> = QUERIES.iter().map(|s| parse_query(s).unwrap()).collect();
    let engine = Engine::builder()
        .queries(queries.iter().cloned())
        .build()
        .unwrap();
    let mut session = engine.session();
    let mut rng = SmallRng::seed_from_u64(0xBA7C4);
    let cfg = RandomDocConfig::default();
    for _ in 0..30 {
        let d = random_document(&mut rng, &cfg);
        let events = d.to_events();
        let verdicts = session.run_reader(d.to_xml().as_bytes()).unwrap();
        let mut bank = MultiFilter::new(&queries).unwrap();
        feed(&mut bank, &events);
        for (i, q) in queries.iter().enumerate() {
            let solo = StreamFilter::new(q).unwrap().run_stream(&events).unwrap();
            assert_eq!(
                verdicts.matched()[i],
                solo,
                "session: {} on {}",
                QUERIES[i],
                d.to_xml()
            );
            assert_eq!(
                bank.results()[i],
                Some(solo),
                "bank: {} on {}",
                QUERIES[i],
                d.to_xml()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Proptest-driven parity on (query, seed) pairs.
    #[test]
    fn engine_agrees_on_proptest_pairs(qi in 0..QUERIES.len(), seed in 0u64..100_000) {
        let q = parse_query(QUERIES[qi]).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = random_document(&mut rng, &RandomDocConfig::default());
        let bare = StreamFilter::new(&q).unwrap().run_stream(&d.to_events()).unwrap();
        let engine = Engine::builder().query(q).build().unwrap();
        prop_assert_eq!(engine.run_str(&d.to_xml()).unwrap().any(), bare);
    }
}

/// A `Read` that synthesizes a huge catalog on the fly: the document
/// never exists in memory, so a bounded-memory pass over it proves the
/// engine is truly streaming end to end.
struct SyntheticCatalog {
    items: usize,
    emitted: usize,
    buffer: Vec<u8>,
    state: usize, // 0 = header, 1 = items, 2 = footer, 3 = done
}

impl SyntheticCatalog {
    fn new(items: usize) -> SyntheticCatalog {
        SyntheticCatalog {
            items,
            emitted: 0,
            buffer: Vec::new(),
            state: 0,
        }
    }
}

impl Read for SyntheticCatalog {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.buffer.is_empty() && self.state != 3 {
            match self.state {
                0 => {
                    self.buffer.extend_from_slice(b"<catalog>");
                    self.state = 1;
                }
                1 => {
                    if self.emitted < self.items {
                        let i = self.emitted;
                        self.buffer.extend_from_slice(
                            format!("<item><price>{}</price></item>", i % 500).as_bytes(),
                        );
                        self.emitted += 1;
                    } else {
                        self.state = 2;
                    }
                }
                2 => {
                    self.buffer.extend_from_slice(b"</catalog>");
                    self.state = 3;
                }
                _ => unreachable!(),
            }
        }
        let n = self.buffer.len().min(out.len());
        out[..n].copy_from_slice(&self.buffer[..n]);
        self.buffer.drain(..n);
        Ok(n)
    }
}

/// The acceptance-criteria scenario: a document far larger than any
/// buffer filters end-to-end through `run_reader` with flat peak memory
/// — no `Vec<Event>` (or the document itself) is ever materialized.
#[test]
fn event_iter_filters_large_document_without_buffering() {
    let engine = Engine::builder()
        .query_str("//item[price > 400]")
        .build()
        .unwrap();

    let run = |items| engine.session().run_reader(SyntheticCatalog::new(items));
    let (small, large) = (run(500).unwrap(), run(200_000).unwrap());
    assert!(small.any() && large.any());
    // StartDocument/EndDocument + <catalog>…</catalog> + five events per
    // item (start, start, text, end, end).
    assert_eq!(large.events(), 2 + 2 + 5 * 200_000);

    // The filter's peak state is *identical* across a 400× size increase
    // — the O(FS(Q)·log d) guarantee holds through the whole API stack.
    // (A buffering pass over the same stream pays ~megabytes.)
    assert_eq!(
        small.total_peak_bits(),
        large.total_peak_bits(),
        "streaming memory must be flat in document size"
    );
    let mut buffering = BufferingFilter::new(&parse_query("//item[price > 400]").unwrap());
    for event in EventIter::new(SyntheticCatalog::new(200_000)) {
        buffering.process(&event.unwrap());
    }
    assert_eq!(buffering.verdict(), Some(true));
    assert!(
        buffering.peak_memory_bits() > 1_000 * large.total_peak_bits(),
        "buffer-all: {} bits, frontier: {} bits",
        buffering.peak_memory_bits(),
        large.total_peak_bits()
    );
}

/// `Verdicts` are "per-query outcomes of one document": the peak
/// statistics of a reused session must be the document's own, not the
/// maximum since the session was created.
#[test]
fn reused_sessions_report_per_document_peaks() {
    let deep = "<r><a><b>1</b><a><b>2</b><a><b>9</b></a></a></a><x><b/></x></r>";
    let docs = [deep, "<r><a/></r>", "<r><a><b>7</b></a></r>", deep];
    // What a document reads: verdicts, peak bits, peak pending
    // positions, and the indexed bank's exact total.
    let reading = |session: &mut Session, doc: &str| {
        let (v, _) = run_reader_outcome(session, doc.as_bytes())
            .unwrap()
            .into_parts();
        let total = session.index_stats().map(|s| s.total_bits);
        let (bits, pending) = (
            v.peak_memory_bits().to_vec(),
            v.peak_pending_positions().to_vec(),
        );
        (v.matched().to_vec(), bits, pending, total)
    };
    for (label, engine) in session_shapes() {
        let mut reused = engine.session();
        let mut totals = Vec::new();
        for doc in docs {
            let got = reading(&mut reused, doc);
            assert_eq!(got, reading(&mut engine.session(), doc), "{label} on {doc}");
            totals.push(got.1.iter().sum::<u64>());
        }
        // Not vacuous: the small document really costs less.
        assert!(totals[1] < totals[0], "{label}: {totals:?}");
    }
}

/// ROADMAP hardening (c): whatever ends a document early — a parse
/// error in any frontend, mid-batch, after the evaluators have already
/// seen (and, selecting, reported) part of it — the next document on the
/// same session reads like one on a fresh session.
#[test]
fn error_exits_leave_every_session_shape_reusable() {
    // Long enough that whole batches reach the evaluators before the
    // fault: the failed document leaves them mid-stream.
    let prefix = "<a><b>9</b></a>".repeat(600);
    let json_prefix = r#""a":{"b":9},"#.repeat(600);
    let bad_utf8 = [format!("<r>{prefix}<a>").as_bytes(), b"\xFF</a></r>"].concat();
    let faults: [(&str, bool, Vec<u8>); 6] = [
        (
            "mismatched end tag",
            false,
            format!("<r>{prefix}<a></r>").into(),
        ),
        ("truncated input", false, format!("<r>{prefix}<a>").into()),
        ("second root", false, format!("<r>{prefix}</r><r/>").into()),
        (
            "unknown entity",
            false,
            format!("<r>{prefix}<a>&nope;</a></r>").into(),
        ),
        ("invalid UTF-8", false, bad_utf8),
        (
            "malformed JSON",
            true,
            format!("{{{json_prefix}\"a\":{{\"b\":}}}}").into(),
        ),
    ];
    // Per frontend: a document that selects (ordinal 4) and one that
    // does not.
    let good_xml = [
        "<r><a><b>1</b></a><x><a><b>7</b></a></x></r>",
        "<r><a><b>1</b></a></r>",
    ];
    let good_json = [r#"{"a":{"b":1},"x":{"a":{"b":7}}}"#, r#"{"a":{"b":1}}"#];

    for (label, engine) in session_shapes() {
        let outcome_of = |o: Outcome| {
            let ordinals: Vec<_> = (0..engine.len()).map(|q| o.ordinals(q)).collect();
            (o.verdicts().matched().to_vec(), ordinals)
        };
        for (fault, json, bad) in &faults {
            let (mut session, mut source) = (engine.session(), engine.json_source());
            let mut run = |doc: &[u8]| match json {
                true => run_source_outcome(&mut session, &mut source, doc),
                false => run_reader_outcome(&mut session, doc),
            };
            let err = run(bad).unwrap_err();
            assert!(
                matches!(err, EngineError::Parse(_)),
                "{label}/{fault}: {err}"
            );
            for good in if *json { good_json } else { good_xml } {
                let got = run(good.as_bytes()).unwrap();
                let fresh = match json {
                    true => run_source_outcome(
                        &mut engine.session(),
                        &mut engine.json_source(),
                        good.as_bytes(),
                    ),
                    false => engine.select_str(good),
                };
                let want = outcome_of(fresh.unwrap());
                assert_eq!(outcome_of(got), want, "{label} after {fault}, on {good}");
            }
        }
        // Not vacuous: the first good document does select something.
        if engine.mode() == Mode::Select {
            assert_eq!(engine.select_str(good_xml[0]).unwrap().ordinals(0), [4]);
        }
    }
}
