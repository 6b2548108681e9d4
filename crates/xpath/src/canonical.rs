//! Canonical **query** forms: the normalization behind the shared-prefix
//! multi-query index.
//!
//! The [`canonical_steps`]/[`canonical_key`] forms normalize away
//! semantics-preserving surface variation (commutative-predicate
//! ordering, duplicate conjuncts, flipped constant comparisons, and the
//! `.//`-vs-`//` descendant-axis spellings), so two syntactically
//! different but equivalent queries render identically. The
//! shared-prefix index (`fx_core::IndexedBank`) keys its trie on these
//! forms: equal canonical steps land on the same trie path. Everything
//! here reads the query alone; the canonical *documents* of §6.4 live in
//! `fx_analysis::canonical`.

use crate::value::format_number;
use crate::{Axis, CompOp, Expr, NodeTest, Query, QueryNodeId, Value};
use std::collections::HashMap;
use std::fmt;

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

/// Builds the residual query of `q` below a sharable prefix of length
/// `skip`: the subtree rooted at chain node `u_{skip+1}`, re-rooted so
/// its first step is relative to a prefix-activation element. Its
/// [`canonical_key`] is `canonical_residual_key(q, skip)`, the key an
/// indexed bank pools the compiled remainder under.
pub fn residual_query(q: &Query, skip: usize) -> Query {
    let mut chain = Vec::new();
    let mut cur = q.root();
    while let Some(n) = q.successor(cur) {
        chain.push(n);
        cur = n;
    }
    let start = chain[skip];
    let mut rq = Query::new();
    let root = rq.root();
    let mut map: HashMap<QueryNodeId, QueryNodeId> = HashMap::new();
    copy_subtree(q, start, &mut rq, root, &mut map);
    rq.set_successor(root, map[&start]);
    rq
}

fn copy_subtree(
    q: &Query,
    u: QueryNodeId,
    rq: &mut Query,
    parent: QueryNodeId,
    map: &mut HashMap<QueryNodeId, QueryNodeId>,
) {
    let id = rq.add_node(
        parent,
        q.axis(u).unwrap_or(Axis::Child),
        q.ntest(u).cloned().unwrap_or(NodeTest::Wildcard),
    );
    map.insert(u, id);
    for c in q.children(u).to_vec() {
        copy_subtree(q, c, rq, id, map);
    }
    if let Some(s) = q.successor(u) {
        rq.set_successor(id, map[&s]);
    }
    if let Some(p) = q.predicate(u) {
        rq.set_predicate(id, p.map_vars(|v| map[&v]));
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

/// Mirrors a comparison across its operands: `a op b` ⟺ `b flip(op) a`.
/// Shared with the symbolic truth sets of `fx-analysis`, which use it to
/// read `const op var` comparisons variable-first.
pub fn flip(op: CompOp) -> CompOp {
    match op {
        CompOp::Eq => CompOp::Eq,
        CompOp::Ne => CompOp::Ne,
        CompOp::Lt => CompOp::Gt,
        CompOp::Le => CompOp::Ge,
        CompOp::Gt => CompOp::Lt,
        CompOp::Ge => CompOp::Le,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

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
            let rendered = crate::to_xpath(&q);
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
