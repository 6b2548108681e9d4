//! # fx-core
//!
//! The paper's primary contribution: the Section-8 streaming XPath
//! filtering algorithm. It avoids the finite-state-automata paradigm —
//! no transition tables — and instead maintains a *frontier table* whose
//! size tracks the query frontier `FS(Q)` (for path-consistency-free
//! closure-free queries) or `|Q|·r` in general, achieving the
//! `O(|Q|·r·(log|Q| + log d + log w) + w)`-bit space bound of Theorem 8.8
//! that (almost) matches the paper's lower bounds.
//!
//! This crate is the *algorithm* layer. Three [`Evaluator`]s run it —
//! the lone [`StreamFilter`], the naive bank [`MultiFilter`] and the
//! shared-prefix bank [`IndexedBank`] — each fed one interned SAX event
//! at a time through [`Evaluator::event`], never needing the document
//! materialized; a tokenizer drives any of them through a
//! [`HorizonFeed`], which passes over what lies past the lone filter's
//! horizon. Built in *reporting* mode, an evaluator performs the paper's
//! §1 full-evaluation extension: confirmed output nodes leave as
//! [`Match`]es (document-order ordinals, source byte spans) through a
//! [`MatchSink`], buffering only the unresolved candidates whose cost
//! the follow-up work \[5\] proves unavoidable. Applications should
//! normally go through the `fx-engine` crate's `Engine`/`Session`.
//!
//! ```
//! use fx_xpath::parse_query;
//! use fx_core::StreamFilter;
//!
//! let q = parse_query("/a[c[.//e and f] and b > 5]").unwrap();
//! let mut filter = StreamFilter::new(&q).unwrap();
//! for event in &fx_xml::parse("<a><c><e/><f/></c><b>6</b></a>").unwrap() {
//!     filter.process(event); // incremental: one event at a time
//! }
//! assert_eq!(filter.result(), Some(true));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod evaluator;
pub mod filter;
pub mod indexed;
pub mod multi;
pub mod reporter;
pub mod space;
pub mod trace;

pub use evaluator::{Evaluator, HorizonFeed};
pub use filter::{CompiledQuery, FrontierRecord, StreamFilter, UnsupportedQuery};
pub use indexed::{CompiledResidual, IndexSpaceStats, IndexedBank, SubscriptionId};
pub use multi::MultiFilter;
pub use reporter::{Match, MatchSink};
pub use space::{bits_for, SpaceStats};
pub use trace::{render, trace, TraceStep, Tuple};

#[cfg(test)]
mod differential {
    use super::*;
    use fx_dom::Document;
    use fx_workloads as wl;
    use fx_xpath::{parse_query, Query};
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
        "/a[c[e and f] and b]",
        "//b[a and .//c]",
        "/a/*/b",
        "//a[b > 2 and c]",
    ];

    fn arb_query() -> impl Strategy<Value = Query> {
        prop::sample::select(QUERIES.to_vec()).prop_map(|s| parse_query(s).unwrap())
    }

    fn arb_doc() -> impl Strategy<Value = Document> {
        let leaf = (
            prop::sample::select(vec!["a", "b", "c", "d", "e", "f", "x"]),
            prop::sample::select(vec!["", "1", "3", "6", "x", "y"]),
        )
            .prop_map(|(n, t)| {
                if t.is_empty() {
                    format!("<{n}/>")
                } else {
                    format!("<{n}>{t}</{n}>")
                }
            });
        leaf.prop_recursive(5, 48, 4, move |inner| {
            (
                prop::sample::select(vec!["a", "b", "c", "x"]),
                prop::collection::vec(inner, 1..4),
            )
                .prop_map(|(n, kids)| format!("<{n}>{}</{n}>", kids.concat()))
        })
        .prop_map(|xml| Document::from_xml(&xml).unwrap())
    }

    proptest! {
        /// The core correctness property: the streaming filter agrees with
        /// the reference evaluator on every (query, document) pair.
        #[test]
        fn filter_agrees_with_reference(q in arb_query(), d in arb_doc()) {
            let expected = fx_eval::bool_eval(&q, &d).unwrap();
            let got = StreamFilter::new(&q).unwrap().run_stream(&d.to_events());
            prop_assert_eq!(got, Some(expected));
        }

        /// Space sanity: the frontier never exceeds |Q| × path recursion
        /// depth (the row bound behind Theorem 8.8).
        #[test]
        fn frontier_bounded_by_q_times_r(q in arb_query(), d in arb_doc()) {
            let mut f = StreamFilter::new(&q).unwrap();
            f.process_all(&d.to_events());
            let r = fx_analysis::path_recursion_depth(&q, &d).max(1);
            prop_assert!(f.stats().max_rows <= q.len() * r,
                "rows {} > |Q|·r = {}·{}", f.stats().max_rows, q.len(), r);
        }
    }

    /// Seeded bulk differential test over generated workloads (wider than
    /// proptest's default case count, deterministic).
    #[test]
    fn bulk_random_differential() {
        let mut rng = SmallRng::seed_from_u64(0xFACADE);
        let mut checked = 0usize;
        for src in QUERIES {
            let q = parse_query(src).unwrap();
            for _ in 0..40u64 {
                let d = wl::docs::random_document(
                    &mut rng,
                    &wl::docs::RandomDocConfig {
                        max_depth: 6,
                        max_children: 4,
                        names: wl::docs::small_alphabet(),
                        text_values: vec![
                            String::new(),
                            "1".into(),
                            "3".into(),
                            "6".into(),
                            "x".into(),
                        ],
                    },
                );
                let expected = fx_eval::bool_eval(&q, &d).unwrap();
                let got = StreamFilter::new(&q).unwrap().run_stream(&d.to_events());
                assert_eq!(got, Some(expected), "query {src} doc {}", d.to_xml());
                checked += 1;
            }
        }
        assert_eq!(checked, QUERIES.len() * 40);
    }
}
