//! Selection parity: the engine's streaming `Match` output must equal
//! the reference `FULLEVAL` (Def. 3.6) on the whole workloads corpus —
//! xmark-style auction documents, seeded random documents, and
//! proptest-chosen pairs — and matches must be *emitted incrementally*
//! (before end-of-document, in bounded memory) rather than revealed at
//! `finish()`.

use frontier_xpath::engine::{Match, Mode};
use frontier_xpath::prelude::*;
use frontier_xpath::workloads::{auction_site, random_document, RandomDocConfig, XmarkConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::io::Read;

mod common;
use common::expected_ordinals;

/// Queries with element output nodes inside the streamable fragment,
/// exercising child/descendant axes, wildcards, predicates before and
/// after the candidate, and recursion.
const SELECTION_QUERIES: &[&str] = &[
    "/a/b",
    "//a/b",
    "//a//b",
    "//a[c]/b",
    "/a/b[c]",
    "//b[a and .//c]",
    "/a/*/b",
    "//x//a[b]",
    "//a[b > 2]/c",
    "/a[x]/b",
    "//b",
    "//x/a[.//a[b]]",
    "//a/*[b and .//*[c]]",
];

fn assert_selection_agrees(engine: &Engine, queries: &[Query], d: &Document) {
    let xml = d.to_xml();
    let outcome = engine.select_str(&xml).unwrap();
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            outcome.ordinals(i),
            expected_ordinals(q, d),
            "query #{i} ({}) on {xml}",
            frontier_xpath::xpath::to_xpath(q)
        );
    }
    // Every match's span must slice the source back to the selected
    // element's own start tag.
    for m in outcome.all_matches() {
        let text = m.span.slice(&xml).expect("span in bounds");
        assert!(text.starts_with('<'), "span {} → {text:?}", m.span);
    }
}

/// Streaming selection equals the reference evaluator on seeded random
/// documents, for the full query bank at once.
#[test]
fn selection_matches_full_eval_on_random_documents() {
    let queries: Vec<Query> = SELECTION_QUERIES
        .iter()
        .map(|s| parse_query(s).unwrap())
        .collect();
    let engine = Engine::builder()
        .queries(queries.iter().cloned())
        .mode(Mode::Select)
        .build()
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(0x5E1EC7);
    let cfg = RandomDocConfig {
        max_depth: 7,
        max_children: 4,
        names: ["a", "b", "c", "x"].iter().map(|s| s.to_string()).collect(),
        text_values: vec![String::new(), "1".into(), "3".into(), "6".into()],
    };
    for _ in 0..150 {
        let d = random_document(&mut rng, &cfg);
        assert_selection_agrees(&engine, &queries, &d);
    }
}

/// Streaming selection equals the reference evaluator on the
/// xmark-style auction corpus, with realistic names and attributes.
#[test]
fn selection_matches_full_eval_on_xmark_corpus() {
    let srcs = [
        "//item[price > 300]/name",
        "/site/regions/asia/item",
        "//category//name",
        "//person[watches]/name",
    ];
    let queries: Vec<Query> = srcs.iter().map(|s| parse_query(s).unwrap()).collect();
    let engine = Engine::builder()
        .queries(queries.iter().cloned())
        .mode(Mode::Select)
        .build()
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(0xA0C710);
    for doc_id in 0..10 {
        let d = auction_site(
            &mut rng,
            &XmarkConfig {
                items: 6,
                auctions: 4,
                people: 4,
                category_depth: 2 + doc_id % 3,
            },
        );
        assert_selection_agrees(&engine, &queries, &d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Proptest-driven selection parity on (query, seed) pairs.
    #[test]
    fn selection_agrees_on_proptest_pairs(qi in 0..SELECTION_QUERIES.len(), seed in 0u64..100_000) {
        let q = parse_query(SELECTION_QUERIES[qi]).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = random_document(&mut rng, &RandomDocConfig::default());
        let engine = Engine::builder()
            .query(q.clone())
            .mode(Mode::Select)
            .build()
            .unwrap();
        let outcome = engine.select_str(&d.to_xml()).unwrap();
        prop_assert_eq!(outcome.ordinals(0), expected_ordinals(&q, &d));
        // Selection never changes the boolean verdict.
        prop_assert_eq!(outcome.verdicts().any(), bool_eval(&q, &d).unwrap());
    }
}

/// A `Read` that synthesizes its document on the fly: one early,
/// fully-resolved subtree followed by a long unresolvable tail. The
/// document never exists in memory, so this proves matches are emitted
/// (a) before end-of-document and (b) without event materialization.
struct FrontLoadedCatalog {
    tail_items: usize,
    emitted: usize,
    buffer: Vec<u8>,
    state: usize, // 0 = header + matching subtree, 1 = tail, 2 = footer, 3 = done
}

impl Read for FrontLoadedCatalog {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.buffer.is_empty() && self.state != 3 {
            match self.state {
                0 => {
                    // The subtree resolves at its own close: <x/> proves
                    // the predicate, both <b/> are genuine matches.
                    self.buffer.extend_from_slice(b"<r><a><x/><b/><b/></a>");
                    self.state = 1;
                }
                1 => {
                    if self.emitted < self.tail_items {
                        // Filler <a> subtrees without <x/>: candidates
                        // that never resolve.
                        self.buffer.extend_from_slice(b"<a><b/></a>");
                        self.emitted += 1;
                    } else {
                        self.state = 2;
                    }
                }
                2 => {
                    self.buffer.extend_from_slice(b"</r>");
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

/// The acceptance-criteria scenario: matches in an already-resolved
/// subtree are delivered while the (generated, never-materialized)
/// document is still streaming — and the unresolved-candidate buffer
/// stays bounded by the *live* candidate count, not the match count or
/// the document size.
#[test]
fn generated_reader_emits_matches_before_end_of_document() {
    let tail_items = 50_000usize;
    let engine = Engine::builder()
        .query_str("//a[x]/b")
        .mode(Mode::Select)
        .build()
        .unwrap();
    let mut session = engine.session();

    let mut arrivals: Vec<(u64, u64)> = Vec::new(); // (ordinal, events seen at arrival)
    let mut seen = 0u64;
    {
        let mut events = frontier_xpath::xml::EventIter::new(FrontLoadedCatalog {
            tail_items,
            emitted: 0,
            buffer: Vec::new(),
            state: 0,
        })
        .spanned();
        for item in &mut events {
            let (event, span) = item.unwrap();
            seen += 1;
            let mut sink = |m: Match| arrivals.push((m.ordinal, seen));
            session.push_spanned_to(&event, span, &mut sink);
        }
    }
    let verdicts = session.finish().unwrap();

    // Ordinals: r=0, a=1, x=2, b=3, b=4; the tail's b's never match.
    assert_eq!(
        arrivals.iter().map(|&(o, _)| o).collect::<Vec<_>>(),
        vec![3, 4]
    );
    // <$> <r> <a> <x/> <b/> <b/> </a> … tail … </r> </$>
    let total_events = 2 + 2 + 8 + 4 * tail_items as u64;
    assert_eq!(seen, total_events);
    for &(ordinal, at) in &arrivals {
        assert!(
            at <= 12,
            "match {ordinal} arrived after {at} of {total_events} events — not incremental"
        );
    }
    // The [5] buffering cost tracks *live unresolved candidates*: at any
    // moment at most a handful of <b> candidates are pending inside one
    // open <a>, regardless of 50k filler subtrees or the 2 real matches.
    let peak = verdicts.peak_pending_positions()[0];
    assert!(
        peak <= 4,
        "peak pending {peak} should be bounded by live candidates, not document size"
    );
    assert!(verdicts.any());
}

/// A crafted deep-unresolved-predicate document: every candidate stays
/// pending until the root's predicate resolves at the very end, so the
/// pending buffer must grow to the full candidate count — the lower
/// bound [5] makes unavoidable — while a sibling document whose
/// predicate resolves *early* pays nothing at its peak beyond the live
/// set.
#[test]
fn peak_pending_is_the_unresolved_candidate_count() {
    let n = 64usize;
    let engine = Engine::builder()
        .query_str("/a[x]/b")
        .mode(Mode::Select)
        .build()
        .unwrap();

    // Late resolution: all n candidates buffered until <x/> arrives.
    let late = format!("<a>{}<x/></a>", "<b/>".repeat(n));
    let o = engine.select_str(&late).unwrap();
    assert_eq!(o.total_matches(), n);
    assert!(o.verdicts().peak_pending_positions()[0] >= n);

    // No resolution: candidates buffered, then dropped at the root —
    // same peak, zero matches, and nothing survives to end-of-document.
    let never = format!("<a>{}</a>", "<b/>".repeat(n));
    let o = engine.select_str(&never).unwrap();
    assert_eq!(o.total_matches(), 0);
    assert!(o.verdicts().peak_pending_positions()[0] >= n);
}

/// Match spans compose with session reuse and real multi-chunk readers:
/// every span slices the original document to the matched element.
#[test]
fn spans_point_into_the_source_across_documents() {
    let engine = Engine::builder()
        .query_str("//item[price > 300]/name")
        .mode(Mode::Select)
        .build()
        .unwrap();
    let mut session = engine.session();
    let docs = [
        "<r><item><price>400</price><name>gold</name></item></r>",
        "<r><item><price>10</price><name>tin</name></item>\
         <item><name>late</name><price>999</price></item></r>",
    ];
    let expected = [vec!["<name>gold</name>"], vec!["<name>late</name>"]];
    for (xml, want) in docs.iter().zip(expected) {
        let mut sink: Vec<Match> = Vec::new();
        session.run_reader_to(xml.as_bytes(), &mut sink).unwrap();
        let got: Vec<&str> = sink.iter().map(|m| m.span.slice(xml).unwrap()).collect();
        assert_eq!(got, want, "{xml}");
    }
}
