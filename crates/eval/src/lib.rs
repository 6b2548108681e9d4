//! # fx-eval
//!
//! The reference (in-memory, non-streaming) XPath semantics of the paper:
//! `SELECT`/`PEVAL`/`FULLEVAL`/`BOOLEVAL` (§3.1.3), matchings (Def. 5.8)
//! with search/counting, truth-set membership oracles (Def. 5.6), and
//! document homomorphisms (§6.1). This crate is the ground truth that the
//! streaming filter (`fx-core`) is differentially tested against.
//!
//! ```
//! use fx_dom::Document;
//! use fx_xpath::parse_query;
//! use fx_eval::{bool_eval, document_matches};
//!
//! let q = parse_query("/a[c[.//e and f] and b > 5]").unwrap();
//! let d = Document::from_xml("<a><c><e/><f/></c><b>6</b></a>").unwrap();
//! assert!(bool_eval(&q, &d).unwrap());
//! // Lemma 5.10: equivalently, a matching exists.
//! assert!(document_matches(&q, &d).unwrap());
//! ```

#![warn(missing_docs)]

pub mod homomorphism;
pub mod matching;
pub mod select;
pub use fx_xpath::truth;

pub use homomorphism::{find_homomorphism, is_homomorphism, is_isomorphism, HomKind, NodeMap};
pub use matching::{
    count_matchings, document_matches, document_matches_structurally, find_matching,
    hybrid_matching, matches_relative, verify_matching, MatchMode, Matcher, Matching,
};
pub use select::{axis_candidates, bool_eval, full_eval, satisfies_predicate, select};
pub use truth::{constraining_predicate, is_atomic, truth_contains, TruthError};

#[cfg(test)]
mod proptests {
    use super::*;
    use fx_dom::Document;
    use fx_xpath::{parse_query, Query};
    use proptest::prelude::*;

    fn arb_conjunctive_query() -> impl Strategy<Value = Query> {
        let srcs = vec![
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
        ];
        prop::sample::select(srcs).prop_map(|s| parse_query(s).unwrap())
    }

    fn arb_doc() -> impl Strategy<Value = Document> {
        let names = prop::sample::select(vec!["a", "b", "c", "d", "e", "f"]);
        let texts = prop::sample::select(vec!["", "3", "6", "x"]);
        let leaf = (names.clone(), texts).prop_map(|(n, t)| {
            if t.is_empty() {
                format!("<{n}/>")
            } else {
                format!("<{n}>{t}</{n}>")
            }
        });
        leaf.prop_recursive(4, 40, 4, move |inner| {
            (
                prop::sample::select(vec!["a", "b", "c", "x"]),
                prop::collection::vec(inner, 1..4),
            )
                .prop_map(|(n, kids)| format!("<{n}>{}</{n}>", kids.concat()))
        })
        .prop_map(|xml| Document::from_xml(&xml).unwrap())
    }

    proptest! {
        /// Lemma 5.10: for univariate conjunctive queries, BOOLEVAL agrees
        /// with matching existence.
        #[test]
        fn lemma_5_10(q in arb_conjunctive_query(), d in arb_doc()) {
            let via_select = bool_eval(&q, &d).unwrap();
            let via_matching = document_matches(&q, &d).unwrap();
            prop_assert_eq!(via_select, via_matching);
        }

        /// A found matching always verifies.
        #[test]
        fn found_matchings_verify(q in arb_conjunctive_query(), d in arb_doc()) {
            if let Some(phi) = find_matching(&q, &d).unwrap() {
                prop_assert!(verify_matching(&q, &d, &phi, MatchMode::Full).unwrap());
            }
        }

        /// Full matchings are a subset of structural matchings.
        #[test]
        fn full_implies_structural(q in arb_conjunctive_query(), d in arb_doc()) {
            if document_matches(&q, &d).unwrap() {
                prop_assert!(document_matches_structurally(&q, &d).unwrap());
            }
        }

        /// Lemma 6.2 (spot check): structural homomorphisms transfer
        /// structural matchings — identity homomorphism case.
        #[test]
        fn identity_transfer(q in arb_conjunctive_query(), d in arb_doc()) {
            let matched = document_matches(&q, &d).unwrap();
            // Rebuilding the document (an isomorphic copy) preserves the
            // matching relation.
            let copy = Document::from_sax(&d.to_events()).unwrap();
            prop_assert_eq!(document_matches(&q, &copy).unwrap(), matched);
        }
    }
}
