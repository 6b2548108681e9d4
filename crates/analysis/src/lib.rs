//! # fx-analysis
//!
//! The query-analysis machinery of the paper: the Redundancy-free XPath
//! fragment (§5), structural query automorphisms and subsumption (§6.3),
//! symbolic truth sets with the sunflower/prefix-sunflower witnesses
//! (§5.5), the query frontier size (Def. 4.1), canonical documents (§6.4),
//! and the path-matching quantities of §8.6.
//!
//! ```
//! use fx_xpath::parse_query;
//! use fx_analysis::{frontier_size, redundancy_free, canonical_document};
//!
//! let q = parse_query("/a[c[.//e and f] and b > 5]").unwrap();
//! assert_eq!(frontier_size(&q), 3);               // Fig. 3
//! assert!(redundancy_free(&q).is_empty());        // the fragment check
//! let cd = canonical_document(&q).unwrap();       // Fig. 8
//! assert!(cd.doc.to_xml().starts_with("<a><c><Z><e/></Z><f/></c><b>"));
//! ```

#![warn(missing_docs)]

pub mod automorphism;
pub mod canonical;
pub mod fragment;
pub mod frontier;
pub mod minimize;
pub mod pathmatch;
pub mod truthset;

pub use automorphism::{dominated_leaves, structural_domination_set, AutomorphismFinder};
pub use canonical::{
    canonical_document, canonical_key, canonical_residual_key, canonical_steps,
    sharable_prefix_len, sharable_prefix_of, shared_prefix_depth, strongly_subsumption_free,
    CanonicalDocument, CanonicalForm, CanonicalStep,
};
pub use fragment::{
    closure_free, conjunctive, depth_theorem_node, leaf_only_value_restricted,
    recursive_xpath_node, star_restricted, univariate, FragmentViolation,
};
pub use frontier::{frontier, frontier_size};
pub use minimize::{eliminate_one, find_redundancy, minimize, truth_implies, Redundancy};
pub use pathmatch::{
    path_consistency_free, path_consistent, path_matches, path_recursion_depth,
    recursion_depth_wrt, text_width,
};
pub use truthset::{sample_distinct_member, sample_non_prefix, Shape, Tri, TruthSet};

use fx_xpath::Query;

/// The aggregate Redundancy-free XPath check (Definition 5.1): a query is
/// redundancy-free iff it is (1) star-restricted, (2) conjunctive,
/// (3) univariate, (4) leaf-only-value-restricted, and (5) strongly
/// subsumption-free. Returns all violations found (empty = redundancy
/// free).
pub fn redundancy_free(q: &Query) -> Vec<FragmentViolation> {
    let mut v = Vec::new();
    v.extend(fragment::star_restricted(q));
    v.extend(fragment::conjunctive(q));
    v.extend(fragment::univariate(q));
    // The later checks presume the earlier ones.
    if v.is_empty() {
        v.extend(fragment::leaf_only_value_restricted(q));
    }
    if v.is_empty() {
        v.extend(canonical::strongly_subsumption_free(q));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xpath::parse_query;

    #[test]
    fn paper_queries_are_redundancy_free() {
        for src in [
            "/a[c[.//e and f] and b > 5]",
            "//a[b and c]",
            "/a/b",
            "//d[f and a[b and c]]",
            "/a[*/b > 5 and c/b//d > 12 and .//d < 30]",
            "/a[b/c > 5 and d]",
            "/a[b[c > 5]]",
        ] {
            let q = parse_query(src).unwrap();
            assert!(
                redundancy_free(&q).is_empty(),
                "{src}: {:?}",
                redundancy_free(&q)
            );
        }
    }

    #[test]
    fn paper_counterexamples_are_rejected() {
        // Each with its §5 reason.
        let cases = [
            ("/a[b > 5 and b > 6]", "redundant predicate (sunflower)"),
            ("/a/*", "star restriction (leaf wildcard)"),
            ("//*", "star restriction (descendant wildcard)"),
            ("/a[b or c]", "disjunction"),
            ("/a[not(b)]", "negation"),
            ("/a[b > c]", "multivariate"),
            ("/a[b[c] > 5]", "value-restricted internal node"),
            (
                "/a[b[c = \"A\"] and ends-with(b, \"B\")]",
                "prefix sunflower",
            ),
            ("/r[a//*]", "star restriction (wildcard below descendant)"),
            // The Fig. 2 query *with* the output step: the predicate's
            // `b > 5` leaf and the output `b` mutually structurally
            // subsume, and TRUTH(output b) = S covers everything, so the
            // sunflower property fails — the canonical matching would not
            // be unique (both b nodes could map to <b>6</b>). The
            // lower-bound sections consistently use the query *without*
            // the trailing /b.
            (
                "/a[c[.//e and f] and b > 5]/b",
                "sunflower via output/predicate twins",
            ),
        ];
        for (src, why) in cases {
            let q = parse_query(src).unwrap();
            assert!(
                !redundancy_free(&q).is_empty(),
                "{src} should be rejected ({why})"
            );
        }
    }

    #[test]
    fn wildcard_query_from_4_1_is_rejected() {
        // Q' = /a[c[.//* and f] and b > 5]: .//* violates star restriction,
        // which is how the fragment sidesteps the FS(Q') counterexample.
        let q = parse_query("/a[c[.//* and f] and b > 5]").unwrap();
        assert!(!redundancy_free(&q).is_empty());
    }
}
