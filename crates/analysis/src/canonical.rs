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
//! This module also canonicalizes **queries** themselves: the
//! [`canonical_steps`]/[`canonical_key`] forms normalize away semantics-
//! preserving surface variation (commutative-predicate ordering, duplicate
//! conjuncts, flipped constant comparisons, and the `.//`-vs-`//`
//! descendant-axis spellings), so two syntactically different but
//! equivalent queries render identically. The shared-prefix multi-query
//! index (`fx_core::IndexedBank`) keys its trie on these forms: equal
//! canonical steps land on the same trie path.

use crate::automorphism::dominated_leaves;
use crate::fragment::FragmentViolation;
use crate::truthset::{flip, sample_distinct_member, sample_non_prefix, Shape, TruthSet};
use fx_dom::{Document, NodeId, NodeKind};
use fx_xpath::value::format_number;
use fx_xpath::{Axis, Expr, NodeTest, Query, QueryNodeId, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;

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

// ---------------------------------------------------------------------------
// Canonical query forms: the normalization behind the shared-prefix index.
// ---------------------------------------------------------------------------

/// One step of a query's canonical succession chain (root → `OUT(Q)`).
///
/// Two steps compare equal iff they are semantically interchangeable as
/// trie keys: same axis, same node test, and the same canonical predicate
/// rendering (conjuncts sorted and deduplicated, descendant axes spelled
/// uniformly, constant comparisons orientation-normalized).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalStep {
    /// `AXIS(u)` of the chain node.
    pub axis: Axis,
    /// `NTEST(u)` of the chain node.
    pub ntest: NodeTest,
    /// Canonical rendering of `PREDICATE(u)`, `None` for predicate-free
    /// steps (the ones a prefix trie may share across queries).
    pub predicate: Option<String>,
}

impl fmt::Display for CanonicalStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let axis = match self.axis {
            Axis::Child => "/",
            Axis::Descendant => "//",
            Axis::Attribute => "/@",
        };
        write!(f, "{axis}{}", self.ntest)?;
        if let Some(p) = &self.predicate {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

/// The canonical succession chain of `q`: one [`CanonicalStep`] per node
/// on the root-to-`OUT(Q)` path, in order. This is the form the
/// multi-query prefix trie indexes: queries whose leading canonical steps
/// agree share those trie nodes (and thus share per-event work).
pub fn canonical_steps(q: &Query) -> Vec<CanonicalStep> {
    let mut steps = Vec::new();
    let mut cur = q.root();
    while let Some(next) = q.successor(cur) {
        steps.push(CanonicalStep {
            axis: q.axis(next).unwrap_or(Axis::Child),
            ntest: q.ntest(next).cloned().unwrap_or(NodeTest::Wildcard),
            predicate: q.predicate(next).map(|p| canonical_expr(q, p)),
        });
        cur = next;
    }
    steps
}

/// A canonical textual key for the whole query: the concatenation of its
/// canonical steps. Two queries with equal keys are semantically
/// equivalent modulo the normalizations this module performs (commutative
/// reordering and duplication of conjuncts, descendant-axis spelling,
/// constant-comparison orientation), so an indexed bank may evaluate them
/// once and fan the result out.
pub fn canonical_key(q: &Query) -> String {
    canonical_steps(q)
        .iter()
        .map(CanonicalStep::to_string)
        .collect()
}

/// A canonical textual key for the query's **residual** below a prefix of
/// `skip` chain steps: the concatenation of the canonical steps from
/// position `skip` onward. Two queries with equal residual keys have
/// semantically interchangeable remainders below their (possibly
/// different) shared prefixes — so an indexed bank may compile that
/// remainder **once** and share the compiled form across trie groups,
/// even groups that diverge from entirely different prefixes. With
/// `skip = 0` this is exactly [`canonical_key`].
pub fn canonical_residual_key(q: &Query, skip: usize) -> String {
    canonical_steps(q)
        .iter()
        .skip(skip)
        .map(CanonicalStep::to_string)
        .collect()
}

/// The number of leading canonical steps of `q` a shared-prefix trie may
/// own: maximal run of predicate-free non-attribute steps, shortened by
/// one when the step that follows it is attribute-axis (an attribute
/// resolves from its *parent's* start tag, so the parent step must stay
/// with the per-query residual).
pub fn sharable_prefix_len(q: &Query) -> usize {
    let steps = canonical_steps(q);
    sharable_prefix_of(&steps)
}

/// [`sharable_prefix_len`] over an already-computed canonical chain.
pub fn sharable_prefix_of(steps: &[CanonicalStep]) -> usize {
    let mut k = 0;
    while k < steps.len() && steps[k].predicate.is_none() && steps[k].axis != Axis::Attribute {
        k += 1;
    }
    if k < steps.len() && steps[k].axis == Axis::Attribute {
        k = k.saturating_sub(1);
    }
    k
}

/// Everything the shared-prefix index needs to place one query, derived
/// in a single chain walk: the canonical steps, the whole-query grouping
/// key, and the sharable-prefix length. The incremental subscribe path
/// of `fx_core::IndexedBank` computes this once per subscription instead
/// of re-deriving the chain for each quantity
/// ([`canonical_key`] + [`canonical_steps`] + [`sharable_prefix_of`]
/// walk it three times).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    /// The canonical succession chain ([`canonical_steps`]).
    pub steps: Vec<CanonicalStep>,
    /// The whole-query grouping key ([`canonical_key`]): queries with
    /// equal keys are semantically interchangeable and may share one
    /// evaluation.
    pub key: String,
    /// The sharable-prefix length ([`sharable_prefix_of`]): how many
    /// leading steps a prefix trie may own.
    pub sharable: usize,
}

impl CanonicalForm {
    /// Derives the full canonical form of `q` in one pass.
    pub fn of(q: &Query) -> CanonicalForm {
        let steps = canonical_steps(q);
        let sharable = sharable_prefix_of(&steps);
        let key = steps.iter().map(CanonicalStep::to_string).collect();
        CanonicalForm {
            steps,
            key,
            sharable,
        }
    }

    /// The canonical key of the residual below a prefix of `skip` steps
    /// — [`canonical_residual_key`] without re-deriving the chain. With
    /// `skip = 0` this equals [`CanonicalForm::key`].
    pub fn residual_key(&self, skip: usize) -> String {
        self.steps[skip..]
            .iter()
            .map(CanonicalStep::to_string)
            .collect()
    }
}

/// The number of leading *sharable* canonical steps `a` and `b` have in
/// common — the depth at which the two queries would share a trie path.
pub fn shared_prefix_depth(a: &Query, b: &Query) -> usize {
    let sa = canonical_steps(a);
    let sb = canonical_steps(b);
    let limit = sharable_prefix_of(&sa).min(sharable_prefix_of(&sb));
    sa.iter()
        .zip(sb.iter())
        .take(limit)
        .take_while(|(x, y)| x == y)
        .count()
}

/// Canonical rendering of a predicate expression. Not necessarily valid
/// XPath surface syntax — it is an unambiguous *key*: compound operands
/// are parenthesized, conjunctions and disjunctions are sorted and
/// deduplicated, relative descendant steps are spelled `//` exactly like
/// top-level ones, and `const op path` comparisons are flipped to
/// `path op' const`.
fn canonical_expr(q: &Query, e: &Expr) -> String {
    let conjuncts = e.conjuncts();
    if conjuncts.len() > 1 {
        let mut parts: Vec<String> = conjuncts.iter().map(|c| canonical_expr(q, c)).collect();
        parts.sort();
        parts.dedup();
        if parts.len() == 1 {
            return parts.pop().expect("non-empty");
        }
        return parts.join(" and ");
    }
    match e {
        Expr::Const(v) => canonical_value(v),
        Expr::Var(v) => canonical_rel_path(q, *v),
        Expr::Comp(op, a, b) => {
            // Orientation normalization: `5 < b` and `b > 5` are the same
            // atomic predicate; render the path side first.
            let (op, a, b) =
                if matches!(a.as_ref(), Expr::Const(_)) && !matches!(b.as_ref(), Expr::Const(_)) {
                    (flip(*op), b, a)
                } else {
                    (*op, a, b)
                };
            format!(
                "{} {op} {}",
                canonical_operand(q, a),
                canonical_operand(q, b)
            )
        }
        Expr::Arith(op, a, b) => format!(
            "({} {op} {})",
            canonical_operand(q, a),
            canonical_operand(q, b)
        ),
        Expr::Neg(a) => format!("(-{})", canonical_operand(q, a)),
        Expr::Or(..) => {
            let mut parts: Vec<String> =
                disjuncts(e).iter().map(|d| canonical_expr(q, d)).collect();
            parts.sort();
            parts.dedup();
            if parts.len() == 1 {
                parts.pop().expect("non-empty")
            } else {
                format!("({})", parts.join(" or "))
            }
        }
        Expr::Not(a) => format!("not({})", canonical_expr(q, a)),
        Expr::Call(f, args) => {
            let rendered: Vec<String> = args.iter().map(|a| canonical_expr(q, a)).collect();
            format!("{}({})", f.name(), rendered.join(", "))
        }
        Expr::And(..) => unreachable!("handled by the conjuncts branch"),
    }
}

/// Operands of comparisons/arithmetic: parenthesize anything compound so
/// the key stays unambiguous without precedence rules.
fn canonical_operand(q: &Query, e: &Expr) -> String {
    match e {
        Expr::Const(_) | Expr::Var(_) | Expr::Call(..) | Expr::Arith(..) | Expr::Neg(..) => {
            canonical_expr(q, e)
        }
        other => format!("({})", canonical_expr(q, other)),
    }
}

fn canonical_value(v: &Value) -> String {
    match v {
        Value::Number(n) => format_number(*n),
        Value::Str(s) => format!("{s:?}"),
        Value::Bool(b) => format!("{b}()"),
    }
}

/// The relative succession chain rooted at predicate child `first`, with
/// every descendant step spelled `//` — the normalization that makes the
/// predicate spelling `.//e` and a top-level `//e` step render alike.
fn canonical_rel_path(q: &Query, first: QueryNodeId) -> String {
    let mut out = String::new();
    let mut cur = first;
    let mut is_first = true;
    loop {
        let axis = match (q.axis(cur).unwrap_or(Axis::Child), is_first) {
            (Axis::Child, true) => "",
            (Axis::Child, false) => "/",
            (Axis::Descendant, _) => "//",
            (Axis::Attribute, true) => "@",
            (Axis::Attribute, false) => "/@",
        };
        out.push_str(axis);
        out.push_str(
            &q.ntest(cur)
                .cloned()
                .unwrap_or(NodeTest::Wildcard)
                .to_string(),
        );
        if let Some(p) = q.predicate(cur) {
            out.push('[');
            out.push_str(&canonical_expr(q, p));
            out.push(']');
        }
        is_first = false;
        match q.successor(cur) {
            Some(next) => cur = next,
            None => break,
        }
    }
    out
}

/// Top-level disjuncts of an `or` tree (the dual of [`Expr::conjuncts`]).
fn disjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Or(a, b) => {
            let mut out = disjuncts(a);
            out.extend(disjuncts(b));
            out
        }
        other => vec![other],
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

    // -- canonical query forms (the shared-prefix index's trie keys) -----

    fn key(src: &str) -> String {
        canonical_key(&parse_query(src).unwrap())
    }

    #[test]
    fn commutative_predicates_reorder_to_one_form() {
        // Conjunction is commutative: both spellings must land on the
        // same trie path.
        assert_eq!(key("/a[b and c]/d"), key("/a[c and b]/d"));
        assert_eq!(
            key("//item[price > 300 and shipping]/name"),
            key("//item[shipping and price > 300]/name")
        );
        // Nested predicates normalize recursively.
        assert_eq!(key("/a[b[e and f] and c]"), key("/a[c and b[f and e]]"));
        // Duplicate conjuncts collapse (existential semantics).
        assert_eq!(key("/a[b and b]"), key("/a[b]"));
        // Different predicates stay different.
        assert_ne!(key("/a[b and c]"), key("/a[b and d]"));
        assert_ne!(key("/a[b > 5]"), key("/a[b > 6]"));
    }

    #[test]
    fn descendant_axes_normalize_across_spellings() {
        // The predicate spelling `.//e` and a top-level `//e` step both
        // denote the descendant axis; the canonical form spells both
        // `//`, so a predicate subchain and a top-level chain with the
        // same semantics render alike.
        let pred = parse_query("/a[.//e]").unwrap();
        let steps = canonical_steps(&pred);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].predicate.as_deref(), Some("//e"));
        let top = parse_query("//e").unwrap();
        assert_eq!(canonical_key(&top), "//e");
        // And the chain steps themselves are spelling-independent keys:
        // parsing and re-rendering is idempotent.
        for src in ["//a//b[c]//d", "/a[.//e and f]/b", "/a/*/b"] {
            let q = parse_query(src).unwrap();
            let rendered = fx_xpath::to_xpath(&q);
            assert_eq!(
                canonical_key(&q),
                canonical_key(&parse_query(&rendered).unwrap()),
                "{src}"
            );
        }
    }

    #[test]
    fn flipped_constant_comparisons_normalize() {
        assert_eq!(key("/a[5 < b]"), key("/a[b > 5]"));
        assert_eq!(key("/a[7 >= b]"), key("/a[b <= 7]"));
        assert_eq!(key("/a[3 = b]"), key("/a[b = 3]"));
        assert_ne!(key("/a[b > 5]"), key("/a[b < 5]"));
    }

    #[test]
    fn sharable_prefix_respects_predicates_and_attributes() {
        // Predicate-free leading steps are sharable…
        assert_eq!(sharable_prefix_len(&parse_query("/a/b/c").unwrap()), 3);
        assert_eq!(sharable_prefix_len(&parse_query("/a/b[c]/d").unwrap()), 1);
        assert_eq!(sharable_prefix_len(&parse_query("/a/b/c[x]/d").unwrap()), 2);
        // …a predicate on the first step shares nothing…
        assert_eq!(sharable_prefix_len(&parse_query("/a[x]/b").unwrap()), 0);
        // …and an attribute step pins its parent to the residual (the
        // attribute resolves from the parent's start tag).
        assert_eq!(sharable_prefix_len(&parse_query("/a/b/@id").unwrap()), 1);
        assert_eq!(sharable_prefix_len(&parse_query("/a/@id").unwrap()), 0);
    }

    #[test]
    fn residual_keys_dedupe_across_prefixes() {
        // Canonically-equal remainders below *different* prefixes render
        // to one key — the shared-residual pool's dedup rule.
        let a = parse_query("/hub/asia/item[price > 5]/name").unwrap();
        let b = parse_query("/hub/europe/item[5 < price]/name").unwrap();
        let ka = canonical_residual_key(&a, sharable_prefix_len(&a));
        let kb = canonical_residual_key(&b, sharable_prefix_len(&b));
        assert_eq!(ka, kb, "{ka} vs {kb}");
        assert_eq!(ka, "/item[price > 5]/name");
        // Different remainders stay apart even under equal prefixes.
        let c = parse_query("/hub/asia/item[price > 6]/name").unwrap();
        assert_ne!(ka, canonical_residual_key(&c, sharable_prefix_len(&c)));
        // skip = 0 degenerates to the full canonical key, so a
        // document-rooted remainder can share with a trie remainder.
        let root = parse_query("//t[u]").unwrap();
        assert_eq!(canonical_residual_key(&root, 0), canonical_key(&root));
        let nested = parse_query("/hub//t[u]").unwrap();
        assert_eq!(
            canonical_residual_key(&nested, sharable_prefix_len(&nested)),
            canonical_residual_key(&root, 0)
        );
        // Past-the-end skips are empty, not a panic.
        assert_eq!(canonical_residual_key(&root, 99), "");
    }

    #[test]
    fn shared_prefix_depth_between_family_members() {
        let a = parse_query("/site/regions/asia/item[price > 5]").unwrap();
        let b = parse_query("/site/regions/asia/item[shipping]").unwrap();
        let c = parse_query("/site/regions/europe/item").unwrap();
        assert_eq!(shared_prefix_depth(&a, &b), 3);
        assert_eq!(shared_prefix_depth(&a, &c), 2);
        assert_eq!(shared_prefix_depth(&a, &parse_query("//x").unwrap()), 0);
    }
}
