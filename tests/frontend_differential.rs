//! Frontend parity: the HTML-soup and streaming-JSON frontends must
//! reconstruct exactly the tree their generated **witness** spells out
//! — compared at the DOM level (`fx-dom` built from frontend events vs
//! built from the witness XML) and at the engine level (verdicts,
//! match ordinals, and source spans of `run_source` against the
//! reference evaluator on the witness DOM). Corpora come from the
//! seeded `fx-workloads` generators, whose quirks are limited to what
//! the recovery rules provably undo, plus proptest-chosen seeds
//! honoring `FX_PROPTEST_CASES`.

use frontier_xpath::html::{parse_html, HtmlParser};
use frontier_xpath::json::parse_json;
use frontier_xpath::prelude::*;
use frontier_xpath::workloads::{
    html_soup_corpus, html_soup_document, json_queries, json_record, json_records, soup_queries,
    HtmlSoupConfig, JsonRecordsConfig,
};
use frontier_xpath::xml::SymEvent;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod common;
use common::{expected_ordinals, fx_cases, run_source_outcome, session_shapes};

/// The soup parse of `html` must build the same DOM as the witness
/// `xml`, batch and chunked alike.
fn assert_html_dom_parity(html: &str, xml: &str) {
    let want = Document::from_xml(xml)
        .unwrap_or_else(|e| panic!("witness must parse: {e}\nwitness: {xml}"));
    let events = parse_html(html);
    let got = Document::from_sax(&events)
        .unwrap_or_else(|e| panic!("soup events must be well-formed: {e}\nhtml: {html}"));
    assert_eq!(got, want, "DOM mismatch\nhtml:    {html}\nwitness: {xml}");

    // Chunked parses see arbitrary token splits (multi-byte entities
    // and tags straddling boundaries) and must agree with the batch.
    for chunk in [1usize, 3, 7] {
        let mut parser = HtmlParser::new();
        let symbols = std::sync::Arc::clone(parser.symbols());
        let mut chunked = Vec::new();
        let mut push = |ev: SymEvent<'_>, _: Span| chunked.push(ev.to_owned(&symbols));
        for piece in html.as_bytes().chunks(chunk) {
            parser.feed_interned_bytes(piece, &mut push).unwrap();
        }
        parser.finish_interned(&mut push).unwrap();
        assert_eq!(chunked, events, "chunk size {chunk} diverged on {html}");
    }
}

/// The JSON parse of `json` must build the same DOM as the witness
/// `xml`.
fn assert_json_dom_parity(json: &str, xml: &str) {
    let want = Document::from_xml(xml)
        .unwrap_or_else(|e| panic!("witness must parse: {e}\nwitness: {xml}"));
    let events =
        parse_json(json).unwrap_or_else(|e| panic!("record must parse: {e}\njson: {json}"));
    let got = Document::from_sax(&events)
        .unwrap_or_else(|e| panic!("json events must be well-formed: {e}\njson: {json}"));
    assert_eq!(got, want, "DOM mismatch\njson:    {json}\nwitness: {xml}");
}

/// Engine-level parity: drive the messy source through `run_source` on
/// a selection engine and demand the reference evaluator's answers on
/// the witness DOM — verdicts, per-query ordinals, and in-bounds spans
/// that index the *messy* source bytes.
fn assert_engine_parity(
    engine: &Engine,
    session: &mut Session,
    queries: &[Query],
    source_is_html: bool,
    messy: &str,
    witness_xml: &str,
) {
    let dom = Document::from_xml(witness_xml).unwrap();
    let outcome = if source_is_html {
        run_source_outcome(session, &mut engine.html_source(), messy.as_bytes()).unwrap()
    } else {
        run_source_outcome(session, &mut engine.json_source(), messy.as_bytes()).unwrap()
    };
    for (i, q) in queries.iter().enumerate() {
        let want = expected_ordinals(q, &dom);
        assert_eq!(
            outcome.verdicts().matched()[i],
            !want.is_empty(),
            "verdict for query #{i} ({}) on {messy}",
            frontier_xpath::xpath::to_xpath(q)
        );
        assert_eq!(
            outcome.ordinals(i),
            want,
            "ordinals for query #{i} ({}) on {messy}",
            frontier_xpath::xpath::to_xpath(q)
        );
    }
    // Spans index the messy source: in bounds, on char boundaries, and
    // for HTML anchored at the matched element's start tag.
    for m in outcome.all_matches() {
        let text = m.span.slice(messy).expect("span must slice the source");
        if source_is_html {
            assert!(text.starts_with('<'), "span {} → {text:?}", m.span);
        }
    }
}

fn select_engine(srcs: &[String]) -> (Engine, Vec<Query>) {
    let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
    let engine = Engine::builder()
        .queries(queries.iter().cloned())
        .mode(Mode::Select)
        .build()
        .unwrap();
    (engine, queries)
}

#[test]
fn html_soup_corpus_builds_the_witness_dom() {
    let mut rng = SmallRng::seed_from_u64(0x50BA);
    for quirkiness in [0.0, 0.35, 0.75, 1.0] {
        let cfg = HtmlSoupConfig {
            quirkiness,
            ..HtmlSoupConfig::default()
        };
        for doc in html_soup_corpus(&mut rng, &cfg, 24) {
            assert_html_dom_parity(&doc.html, &doc.xml);
        }
    }
}

#[test]
fn json_records_build_the_witness_dom() {
    let mut rng = SmallRng::seed_from_u64(0x15AA);
    for messiness in [0.0, 0.4, 0.9] {
        let cfg = JsonRecordsConfig {
            messiness,
            ..JsonRecordsConfig::default()
        };
        for rec in json_records(&mut rng, &cfg, 32) {
            assert_json_dom_parity(&rec.json, &rec.xml);
        }
    }
}

#[test]
fn html_engine_matches_reference_eval_on_soup_corpus() {
    let (engine, queries) = select_engine(&soup_queries());
    let mut session = engine.session();
    let mut rng = SmallRng::seed_from_u64(0xE0E0);
    let cfg = HtmlSoupConfig::default();
    for doc in html_soup_corpus(&mut rng, &cfg, 32) {
        assert_engine_parity(&engine, &mut session, &queries, true, &doc.html, &doc.xml);
    }
}

#[test]
fn json_engine_matches_reference_eval_on_record_corpus() {
    let (engine, queries) = select_engine(&json_queries());
    let mut session = engine.session();
    let mut rng = SmallRng::seed_from_u64(0x1E0E);
    let cfg = JsonRecordsConfig::default();
    for rec in json_records(&mut rng, &cfg, 48) {
        assert_engine_parity(&engine, &mut session, &queries, false, &rec.json, &rec.xml);
    }
}

/// The filtering mode too: the engine's reused session over the soup
/// tokenizer agrees with the NFA baseline over the owned events of the
/// same document.
#[test]
fn nfa_backend_agrees_with_frontier_on_soup() {
    let mut rng = SmallRng::seed_from_u64(0xBAC0);
    let cfg = HtmlSoupConfig::default();
    let corpus = html_soup_corpus(&mut rng, &cfg, 12);
    for src in ["//li", "/html/div", "//section//span"] {
        let frontier = Engine::builder().query_str(src).build().unwrap();
        let mut nfa = NfaFilter::new(&parse_query(src).unwrap()).unwrap();
        let mut fs = frontier.session();
        for doc in &corpus {
            let vf = fs
                .run_source(&mut frontier.html_source(), doc.html.as_bytes())
                .unwrap();
            let vn = nfa.run_stream(&parse_html(&doc.html)).unwrap();
            assert_eq!(vf.any(), vn, "{src} on {}", doc.html);
        }
    }
}

/// An NDJSON stream with no record in it delivers no document, so the
/// evaluators still hold the stream before: the drive must read as
/// every query unmatched in no state — not the previous stream's
/// verdicts on a reused session, not `IncompleteDocument` on a fresh
/// one — on every session shape.
#[test]
fn a_record_free_ndjson_stream_matches_nothing_fresh_or_reused() {
    for (label, engine) in session_shapes() {
        let mut source = engine.ndjson_source();
        let mut reused = engine.session();
        let before = reused
            .run_source(&mut source, r#"{"a":{"b":9}}"#.as_bytes())
            .unwrap();
        assert!(before.matched()[0], "{label}: the stream before matches");
        for empty in ["", "\n\n"] {
            for (which, session) in [("reused", &mut reused), ("fresh", &mut engine.session())] {
                let ctx = format!("{label}, {which} session, stream {empty:?}");
                let outcome = run_source_outcome(session, &mut source, empty.as_bytes())
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                let verdicts = outcome.verdicts();
                assert_eq!(verdicts.len(), session.len(), "{ctx}");
                assert!(!verdicts.any(), "{ctx}: {:?}", verdicts.matched());
                assert_eq!(verdicts.total_peak_bits(), 0, "{ctx}");
                assert!(verdicts.peak_pending_positions().iter().all(|&p| p == 0));
                assert_eq!(outcome.total_matches(), 0, "{ctx}");
                let mut sunk: Vec<Match> = Vec::new();
                let streamed = session.run_source_to(&mut source, empty.as_bytes(), &mut sunk);
                assert_eq!(&streamed.unwrap(), verdicts, "{ctx}");
                assert!(sunk.is_empty(), "{ctx}");
            }
        }
        // And the session still reads the next stream like a fresh one.
        let after = reused.run_source(&mut source, r#"{"a":{"b":9}}"#.as_bytes());
        assert_eq!(after.unwrap().matched(), before.matched(), "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fx_cases(48)))]

    /// Proptest-chosen seeds and shape knobs: every generated soup
    /// document builds the witness DOM and agrees with the reference
    /// evaluator through the engine.
    #[test]
    fn soup_parity_on_proptest_seeds(seed in 0u64..1_000_000, quirk in 0u32..11) {
        let cfg = HtmlSoupConfig {
            max_depth: 4,
            max_children: 3,
            quirkiness: f64::from(quirk) / 10.0,
        };
        let doc = html_soup_document(&mut SmallRng::seed_from_u64(seed), &cfg);
        assert_html_dom_parity(&doc.html, &doc.xml);

        let (engine, queries) = select_engine(&soup_queries());
        let mut session = engine.session();
        assert_engine_parity(&engine, &mut session, &queries, true, &doc.html, &doc.xml);
    }

    /// Same for JSON records.
    #[test]
    fn json_parity_on_proptest_seeds(seed in 0u64..1_000_000, messy in 0u32..11) {
        let cfg = JsonRecordsConfig {
            max_depth: 3,
            max_members: 3,
            max_items: 3,
            messiness: f64::from(messy) / 10.0,
        };
        let rec = json_record(&mut SmallRng::seed_from_u64(seed), &cfg);
        assert_json_dom_parity(&rec.json, &rec.xml);

        let (engine, queries) = select_engine(&json_queries());
        let mut session = engine.session();
        assert_engine_parity(&engine, &mut session, &queries, false, &rec.json, &rec.xml);
    }
}
