//! Cross-crate differential testing: the streaming filter, the reference
//! evaluator, the matching engine, and (where applicable) the automata
//! baselines must agree everywhere.
//!
//! This file drives the bare `StreamFilter` (the algorithm layer) so it
//! keeps agreeing with the reference; engine-vs-filter parity lives in
//! `engine_differential.rs`, selection parity in
//! `selection_differential.rs`.

use frontier_xpath::prelude::*;
use frontier_xpath::workloads::{random_document, RandomDocConfig};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

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
    "/a[starts-with(b, \"1\")]",
    "//a/*[b and .//*[c]]",
    "//c/a[.//a[b]]/d",
];

#[test]
fn seeded_sweep_filter_vs_reference_vs_matching() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
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
            "1x".into(),
        ],
    };
    let mut total = 0usize;
    let mut matched = 0usize;
    for src in QUERIES {
        let q = parse_query(src).unwrap();
        for _ in 0..60 {
            let d = random_document(&mut rng, &cfg);
            let reference = bool_eval(&q, &d).unwrap();
            let via_matching = document_matches(&q, &d).unwrap();
            let streamed = StreamFilter::new(&q)
                .unwrap()
                .run_stream(&d.to_events())
                .unwrap();
            assert_eq!(
                reference,
                via_matching,
                "{src} (Lemma 5.10) on {}",
                d.to_xml()
            );
            assert_eq!(reference, streamed, "{src} (filter) on {}", d.to_xml());
            total += 1;
            matched += usize::from(reference);
        }
    }
    assert_eq!(total, QUERIES.len() * 60);
    // The workload must exercise both outcomes.
    assert!(matched > total / 20, "too few matches: {matched}/{total}");
    assert!(
        matched < total * 19 / 20,
        "too many matches: {matched}/{total}"
    );
}

#[test]
fn linear_queries_four_way() {
    let mut rng = SmallRng::seed_from_u64(0x11EA8);
    let cfg = RandomDocConfig::default();
    for src in ["/a/b", "//a//b", "/a//b/c", "//x", "/a/*/b"] {
        let q = parse_query(src).unwrap();
        for _ in 0..40 {
            let d = random_document(&mut rng, &cfg);
            let events = d.to_events();
            let reference = bool_eval(&q, &d).unwrap();
            let mut nfa = NfaFilter::new(&q).unwrap();
            let mut dfa = LazyDfaFilter::new(&q).unwrap();
            let mut buf = BufferingFilter::new(&q);
            assert_eq!(nfa.run_stream(&events), Some(reference), "{src}");
            assert_eq!(dfa.run_stream(&events), Some(reference), "{src}");
            assert_eq!(buf.run_stream(&events), Some(reference), "{src}");
            assert_eq!(
                StreamFilter::new(&q).unwrap().run_stream(&events).unwrap(),
                reference,
                "{src}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// XML round trip across the whole stack: parse → DOM → events →
    /// write → parse is the identity on the event stream.
    #[test]
    fn xml_stack_round_trip(seed in 0u64..10_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = random_document(&mut rng, &RandomDocConfig::default());
        let xml = d.to_xml();
        let reparsed = Document::from_xml(&xml).unwrap();
        prop_assert_eq!(&reparsed, &d);
        let events = d.to_events();
        prop_assert!(frontier_xpath::xml::is_well_formed(&events));
        prop_assert_eq!(Document::from_sax(&events).unwrap(), d);
    }

    /// Filter correctness on proptest-chosen (query, seed) pairs.
    #[test]
    fn filter_agrees(qi in 0..QUERIES.len(), seed in 0u64..100_000) {
        let q = parse_query(QUERIES[qi]).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let d = random_document(&mut rng, &RandomDocConfig::default());
        let reference = bool_eval(&q, &d).unwrap();
        prop_assert_eq!(StreamFilter::new(&q).unwrap().run_stream(&d.to_events()).unwrap(), reference);
    }

    /// Restarting a filter on a second document gives the same answer as
    /// a fresh filter (no state leaks across documents).
    #[test]
    fn no_state_leak_between_documents(qi in 0..QUERIES.len(), s1 in 0u64..1000, s2 in 0u64..1000) {
        let q = parse_query(QUERIES[qi]).unwrap();
        let mut r1 = SmallRng::seed_from_u64(s1);
        let mut r2 = SmallRng::seed_from_u64(s2);
        let d1 = random_document(&mut r1, &RandomDocConfig::default());
        let d2 = random_document(&mut r2, &RandomDocConfig::default());
        let mut reused = StreamFilter::new(&q).unwrap();
        reused.process_all(&d1.to_events());
        reused.process_all(&d2.to_events());
        let fresh = StreamFilter::new(&q).unwrap().run_stream(&d2.to_events()).unwrap();
        prop_assert_eq!(reused.result(), Some(fresh));
    }
}
