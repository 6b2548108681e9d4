//! Canonical documents (§6.4): for every redundancy-free query `Q`, a
//! document `D_c` that (a) matches `Q` via the *canonical matching*
//! `φ_c(u) = SHADOW(u)` (Lemma 6.11), and (b) admits **no other** matching
//! (Lemma 6.15). All three lower-bound constructions build on `D_c`.
//!
//! The construction follows Fig. 8: node tests become names (wildcards get
//! an auxiliary name), descendant-axis nodes are pushed `h+1` artificial
//! nodes deeper (where `h` is the longest wildcard chain), and shadow nodes
//! receive text values that belong "uniquely" to their truth sets.
//!
//! The canonical forms of **queries** themselves — [`canonical_steps`],
//! [`canonical_key`], [`CanonicalForm`], the trie keys of
//! `fx_core::IndexedBank` — read the query alone and live in
//! [`fx_xpath::canonical`]; this module re-exports them.

use crate::automorphism::dominated_leaves;
use crate::fragment::FragmentViolation;
use crate::truthset::{sample_distinct_member, sample_non_prefix, Shape, TruthSet};
use fx_dom::{Document, NodeId, NodeKind};
pub use fx_xpath::canonical::{
    canonical_key, canonical_residual_key, canonical_steps, sharable_prefix_len,
    sharable_prefix_of, shared_prefix_depth, CanonicalForm, CanonicalStep,
};
use fx_xpath::{Axis, NodeTest, Query, QueryNodeId};
use std::collections::{HashMap, HashSet};

/// A canonical document together with its shadow map and metadata.
#[derive(Debug, Clone)]
pub struct CanonicalDocument {
    /// The document `D_c`.
    pub doc: Document,
    /// `SHADOW: Q → D_c` (injective).
    pub shadow: HashMap<QueryNodeId, NodeId>,
    /// The artificial nodes (the chains inserted below descendant axes).
    pub artificial: HashSet<NodeId>,
    /// The auxiliary name used for artificial nodes and wildcard shadows.
    pub aux_name: String,
    /// `h`: the longest wildcard chain of the query.
    pub wildcard_chain: usize,
    /// The unique values assigned to shadow nodes (absent when the node
    /// needs no value).
    pub values: HashMap<QueryNodeId, String>,
}

impl CanonicalDocument {
    /// The inverse shadow map: which query node (if any) a document node
    /// shadows.
    pub fn shadow_inverse(&self) -> HashMap<NodeId, QueryNodeId> {
        self.shadow.iter().map(|(&u, &x)| (x, u)).collect()
    }

    /// The canonical matching `φ_c` (Lemma 6.11) in `fx-eval` form.
    pub fn canonical_matching(&self) -> fx_eval::Matching {
        self.shadow.clone()
    }
}

/// Returns a name from `N` that does not occur as a node test in `Q`
/// (the `getAuxiliaryName` of Fig. 8).
pub fn auxiliary_name(q: &Query) -> String {
    let used: HashSet<&str> = q
        .all_nodes()
        .filter_map(|u| match q.ntest(u) {
            Some(NodeTest::Name(n)) => Some(n.as_str()),
            _ => None,
        })
        .collect();
    if !used.contains("Z") {
        return "Z".to_string();
    }
    (0..)
        .map(|i| format!("Z{i}"))
        .find(|n| !used.contains(n.as_str()))
        .expect("names are unbounded")
}

/// Builds the canonical document of a redundancy-free query (Fig. 8).
/// Fails with a sunflower/prefix-sunflower violation when no unique value
/// exists for some node — exactly the condition under which the query is
/// not strongly subsumption-free (Def. 5.18).
pub fn canonical_document(q: &Query) -> Result<CanonicalDocument, FragmentViolation> {
    build(q, true)
}

/// The "structurally canonical" variant (§6.4.1): same tree, no text
/// values. Used for structural-matching arguments (Lemma 6.9's proof).
pub fn structurally_canonical_document(q: &Query) -> CanonicalDocument {
    build(q, false).expect("structural construction cannot fail")
}

fn build(q: &Query, with_values: bool) -> Result<CanonicalDocument, FragmentViolation> {
    let aux = auxiliary_name(q);
    let h = q.longest_wildcard_chain();
    let values = if with_values {
        unique_values(q)?
    } else {
        HashMap::new()
    };

    let mut doc = Document::empty();
    let mut shadow = HashMap::new();
    let mut artificial = HashSet::new();
    shadow.insert(q.root(), doc.root());

    let mut stack: Vec<(QueryNodeId, NodeId)> = vec![(q.root(), doc.root())];
    // Depth-first construction in the query's child order (mirrors the
    // recursion of processNode in Fig. 8).
    while let Some((u, parent_doc)) = stack.pop() {
        for child in q.children(u).to_vec() {
            let mut attach = parent_doc;
            if q.axis(child) == Some(Axis::Descendant) {
                for _ in 0..=h {
                    attach = doc.push_node(attach, NodeKind::Element, aux.clone(), "");
                    artificial.insert(attach);
                }
            }
            let name = match q.ntest(child) {
                Some(NodeTest::Name(n)) => n.clone(),
                Some(NodeTest::Wildcard) => aux.clone(),
                None => unreachable!("children have node tests"),
            };
            let node = if q.axis(child) == Some(Axis::Attribute) {
                let content = values.get(&child).cloned().unwrap_or_default();
                doc.push_node(attach, NodeKind::Attribute, name, content)
            } else {
                let elem = doc.push_node(attach, NodeKind::Element, name, "");
                if let Some(v) = values.get(&child) {
                    doc.push_node(elem, NodeKind::Text, "", v.clone());
                }
                elem
            };
            shadow.insert(child, node);
            stack.push((child, node));
        }
    }
    Ok(CanonicalDocument {
        doc,
        shadow,
        artificial,
        aux_name: aux,
        wildcard_chain: h,
        values,
    })
}

/// Computes `getUniqueValue` for every node that needs one (Fig. 8 line
/// 10, refined per §6.4.1): a leaf `u` receives `α ∈ TRUTH(u)` outside the
/// dominated leaves' truth sets; an internal `u` with a non-empty dominated
/// leaf set receives `α` that is not a prefix of any dominated value.
/// Unrestricted leaves with nothing to distinguish stay empty (matching
/// the paper's example documents, e.g. `〈e/〉`).
pub fn unique_values(q: &Query) -> Result<HashMap<QueryNodeId, String>, FragmentViolation> {
    let mut out = HashMap::new();
    for u in q.all_nodes() {
        if u == q.root() {
            continue;
        }
        let leaves = dominated_leaves(q, u);
        let avoid: Vec<TruthSet> = leaves
            .iter()
            .map(|&v| TruthSet::of(q, v))
            .collect::<Result<_, _>>()
            .map_err(FragmentViolation::from)?;
        if q.is_leaf(u) {
            let target = TruthSet::of(q, u).map_err(FragmentViolation::from)?;
            if avoid.is_empty() && target.shape == Shape::All {
                continue; // unrestricted, nothing to distinguish: 〈u/〉
            }
            let alpha = sample_distinct_member(&target, &avoid, u.0 as u64)
                .ok_or(FragmentViolation::SunflowerFails(u))?;
            out.insert(u, alpha);
        } else if !avoid.is_empty() {
            let alpha = sample_non_prefix(&avoid, u.0 as u64)
                .ok_or(FragmentViolation::PrefixSunflowerFails(u))?;
            out.insert(u, alpha);
        }
    }
    Ok(out)
}

/// Verifies the strong subsumption-freeness of `Q` (Def. 5.18) by
/// attempting the unique-value assignment: success witnesses both the
/// sunflower and prefix sunflower properties.
pub fn strongly_subsumption_free(q: &Query) -> Vec<FragmentViolation> {
    match unique_values(q) {
        Ok(_) => Vec::new(),
        Err(v) => vec![v],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_eval::{count_matchings, document_matches, verify_matching, MatchMode};
    use fx_xpath::parse_query;

    #[test]
    fn paper_canonical_document_for_fig3_query() {
        // §7.1 example: Q = /a[c[.//e and f] and b > 5] has canonical
        // document 〈a〉〈c〉〈Z〉〈e/〉〈/Z〉〈f/〉〈/c〉〈b〉6〈/b〉〈/a〉.
        let q = parse_query("/a[c[.//e and f] and b > 5]").unwrap();
        let cd = canonical_document(&q).unwrap();
        assert_eq!(cd.wildcard_chain, 0);
        assert_eq!(cd.aux_name, "Z");
        let xml = cd.doc.to_xml();
        // The b value may differ from the paper's 6, but the structure and
        // the "in (5,∞)" property must hold.
        assert!(xml.starts_with("<a><c><Z><e/></Z><f/></c><b>"), "{xml}");
        let b = q.predicate_children(q.successor(q.root()).unwrap())[1];
        let val = cd.values.get(&b).unwrap();
        assert!(val.parse::<f64>().unwrap() > 5.0);
    }

    #[test]
    fn canonical_document_matches_query() {
        // Lemma 6.11 across the paper's queries.
        for src in [
            "/a[c[.//e and f] and b > 5]",
            "//a[b and c]",
            "/a/b",
            "//d[f and a[b and c]]",
            "/a[b > 5]",
            "/a/*/b",
            "//a//b[c]//d",
            "/a[b = \"x\" and c]",
        ] {
            let q = parse_query(src).unwrap();
            let cd = canonical_document(&q).unwrap();
            assert!(document_matches(&q, &cd.doc).unwrap(), "{src}");
            assert!(
                verify_matching(&q, &cd.doc, &cd.canonical_matching(), MatchMode::Full).unwrap(),
                "canonical matching invalid for {src}"
            );
        }
    }

    #[test]
    fn canonical_matching_is_unique() {
        // Lemma 6.15 across redundancy-free queries (including ones with
        // structural subsumption, where the values do the disambiguation).
        for src in [
            "/a[c[.//e and f] and b > 5]",
            "//a[b and c]",
            "/a/b",
            "/a[*/b > 5 and c/b//d > 12 and .//d < 30]",
            "//d[f and a[b and c]]",
        ] {
            let q = parse_query(src).unwrap();
            let cd = canonical_document(&q).unwrap();
            assert_eq!(count_matchings(&q, &cd.doc, 10).unwrap(), 1, "{src}");
        }
    }

    #[test]
    fn canonical_example_from_6_4_1() {
        // Q = /a[*/b > 5 and c/b//d > 12 and .//d < 30] (Fig. 9).
        let q = parse_query("/a[*/b > 5 and c/b//d > 12 and .//d < 30]").unwrap();
        let cd = canonical_document(&q).unwrap();
        assert_eq!(cd.wildcard_chain, 1);
        let a = q.successor(q.root()).unwrap();
        let pc = q.predicate_children(a);
        let star = pc[0];
        let b1 = q.successor(star).unwrap();
        let c = pc[1];
        let b2 = q.successor(c).unwrap();
        let d1 = q.successor(b2).unwrap();
        let d2 = pc[2];
        // The wildcard's shadow carries the auxiliary name.
        assert_eq!(cd.doc.name(cd.shadow[&star]), "Z");
        // b1's value ∈ (5,∞); d1's ∈ (12,∞) \ (-∞,30) i.e. ≥ 30;
        // d2's ∈ (-∞,30).
        let vb1: f64 = cd.values[&b1].parse().unwrap();
        assert!(vb1 > 5.0);
        let vd1: f64 = cd.values[&d1].parse().unwrap();
        assert!(vd1 >= 30.0, "must lie in (12,inf) \\ (-inf,30)");
        let vd2: f64 = cd.values[&d2].parse().unwrap();
        assert!(vd2 < 30.0);
        // b2 is internal and dominates b1: it gets a non-numeric prefix
        // value ("hello" in the paper).
        let vb2 = &cd.values[&b2];
        assert!(vb2.parse::<f64>().is_err());
        // Descendant-axis nodes sit below h+1 = 2 artificial nodes.
        let d1_shadow = cd.shadow[&d1];
        let parent = cd.doc.parent(d1_shadow).unwrap();
        let grand = cd.doc.parent(parent).unwrap();
        assert!(cd.artificial.contains(&parent));
        assert!(cd.artificial.contains(&grand));
        assert_eq!(cd.doc.name(parent), "Z");
        // The whole thing matches uniquely.
        assert_eq!(count_matchings(&q, &cd.doc, 10).unwrap(), 1);
    }

    #[test]
    fn proposition_6_16_no_descendant_shadow_matches() {
        // No descendant of SHADOW(u) has a matching with u.
        let q = parse_query("//d[f and a[b and c]]").unwrap();
        let cd = canonical_document(&q).unwrap();
        let mut matcher = fx_eval::Matcher::new(&q, &cd.doc, MatchMode::Full);
        for u in q.all_nodes() {
            if u == q.root() {
                continue;
            }
            let su = cd.shadow[&u];
            for y in cd.doc.descendants(su).skip(1) {
                assert!(
                    !matcher.can_match(u, y).unwrap(),
                    "descendant {y} of shadow of {u} matches it"
                );
            }
        }
    }

    #[test]
    fn ends_with_query_is_not_strongly_subsumption_free() {
        // §5.5's counterexample: /a[b[c = "A"] and ends-with(b, "B")].
        let q = parse_query("/a[b[c = \"A\"] and ends-with(b, \"B\")]").unwrap();
        let violations = strongly_subsumption_free(&q);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, FragmentViolation::PrefixSunflowerFails(_))),
            "{violations:?}"
        );
    }

    #[test]
    fn subset_predicates_fail_sunflower() {
        // /a[b > 5 and b > 6]: the b>5 node subsumes nothing? ψ(b>6 node)
        // = b>5 node: both named b, same structure → each structurally
        // subsumes the other. TRUTH(b>6) ⊂ TRUTH(b>5) so the b>5 leaf has
        // no value outside TRUTH(b>6)… wait: b>5's witness must avoid
        // TRUTH(b>6): e.g. 5.5 works. But b>6's witness must avoid
        // TRUTH(b>5) — impossible. Sunflower fails (the paper's canonical
        // "redundant" query).
        let q = parse_query("/a[b > 5 and b > 6]").unwrap();
        let violations = strongly_subsumption_free(&q);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, FragmentViolation::SunflowerFails(_))),
            "{violations:?}"
        );
    }

    #[test]
    fn structurally_canonical_has_no_text() {
        let q = parse_query("/a[c[.//e and f] and b > 5]").unwrap();
        let cd = structurally_canonical_document(&q);
        assert!(cd
            .doc
            .all_nodes()
            .all(|n| cd.doc.kind(n) != fx_dom::NodeKind::Text));
        assert_eq!(cd.doc.to_xml(), "<a><c><Z><e/></Z><f/></c><b/></a>");
    }

    #[test]
    fn aux_name_avoids_query_names() {
        let q = parse_query("/Z/Z0[Z1]").unwrap();
        assert_eq!(auxiliary_name(&q), "Z2");
    }

    #[test]
    fn attribute_nodes_become_attributes() {
        let q = parse_query("/a[@id = 7]/b").unwrap();
        let cd = canonical_document(&q).unwrap();
        let a = q.successor(q.root()).unwrap();
        let id = q.predicate_children(a)[0];
        assert_eq!(cd.doc.kind(cd.shadow[&id]), fx_dom::NodeKind::Attribute);
        assert!(document_matches(&q, &cd.doc).unwrap());
    }
}
