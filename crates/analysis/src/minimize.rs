//! Redundancy elimination — the minimization the paper's §5 motivates:
//! "queries should not have redundant parts that can be eliminated without
//! changing the semantics". A predicate subtree `v` is redundant when some
//! other node `u` *subsumes* it (Def. 5.12): every document node matching
//! `u` also matches `v`, so the existential constraint `v` imposes is
//! implied and can be dropped.
//!
//! Subsumption is certified soundly (never dropping a non-redundant part)
//! by a *sibling-local* implication check: a sibling `u` of `v` whose
//! subtree embeds into `v`'s requirements with compatible axes, covering
//! node tests, and included truth sets — any document witness for `u` is
//! then a witness for `v`. The paper's example `/a[b > 5 and b > 6]`
//! minimizes to `/a[b > 6]`, and `/a[b and .//b]` to `/a[b]`.

use crate::truthset::{Shape, Tri, TruthSet};
use fx_xpath::{CompOp, Expr, Query, QueryNodeId};
use std::collections::{HashMap, HashSet};

/// Does `TRUTH(a) ⊆ TRUTH(b)` hold, decided symbolically? `Unknown` is
/// treated as "no" by the eliminator (sound: it never drops then).
pub fn truth_implies(a: &TruthSet, b: &TruthSet) -> Tri {
    use Shape::*;
    match (&a.shape, &b.shape) {
        (_, All) => Tri::Yes,
        (All, _) => Tri::No, // b ≠ All here; S ⊄ proper subsets
        (StrEq(true, s), _) => {
            // A singleton: membership is decidable exactly.
            if b.contains(s) {
                Tri::Yes
            } else {
                Tri::No
            }
        }
        (NumCmp(op1, c1), NumCmp(op2, c2)) => num_cmp_implies(*op1, *c1, *op2, *c2),
        (StartsWith(p1), StartsWith(p2)) => {
            if p1.starts_with(p2.as_str()) {
                Tri::Yes
            } else {
                Tri::No
            }
        }
        (EndsWith(s1), EndsWith(s2)) => {
            if s1.ends_with(s2.as_str()) {
                Tri::Yes
            } else {
                Tri::No
            }
        }
        (Contains(s1), Contains(s2)) => {
            if s1.contains(s2.as_str()) {
                Tri::Yes
            } else {
                Tri::No
            }
        }
        (StartsWith(p), Contains(s)) | (EndsWith(p), Contains(s)) => {
            if p.contains(s.as_str()) {
                Tri::Yes
            } else {
                Tri::Unknown
            }
        }
        _ => Tri::Unknown,
    }
}

/// Interval containment for `{x : num(x) op c}` sets. NaN never satisfies
/// a comparison, so the sets live on the extended reals.
fn num_cmp_implies(op1: CompOp, c1: f64, op2: CompOp, c2: f64) -> Tri {
    use CompOp::*;
    let yes = match (op1, op2) {
        (Eq, _) => ops_accepts(op2, c1, c2),
        (Gt, Gt) => c1 >= c2,
        (Gt, Ge) => c1 >= c2,
        (Ge, Gt) => c1 > c2,
        (Ge, Ge) => c1 >= c2,
        (Lt, Lt) => c1 <= c2,
        (Lt, Le) => c1 <= c2,
        (Le, Lt) => c1 < c2,
        (Le, Le) => c1 <= c2,
        (Gt, Ne) | (Ge, Ne) => c1 > c2 || (op1 == Gt && c1 >= c2),
        (Lt, Ne) | (Le, Ne) => c1 < c2 || (op1 == Lt && c1 <= c2),
        _ => return Tri::Unknown,
    };
    if yes {
        Tri::Yes
    } else {
        Tri::No
    }
}

fn ops_accepts(op: CompOp, value: f64, c: f64) -> bool {
    use CompOp::*;
    match op {
        Eq => value == c,
        Ne => value != c,
        Lt => value < c,
        Le => value <= c,
        Gt => value > c,
        Ge => value >= c,
    }
}

/// One redundancy found: predicate child `redundant` (with its subtree) is
/// subsumed by its sibling `witness`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Redundancy {
    /// The predicate child whose subtree can be dropped.
    pub redundant: QueryNodeId,
    /// The sibling certifying the subsumption.
    pub witness: QueryNodeId,
}

/// Finds one droppable predicate child: a non-successor child `v` of some
/// node `p` such that a *sibling* `u` (predicate child or successor)
/// implies it — any document witness for `u` is also a witness for `v`.
/// Sibling-local implication is inherently sound: it never references
/// parts of the query that dropping `v` could perturb.
pub fn find_redundancy(q: &Query) -> Option<Redundancy> {
    for p in q.all_nodes() {
        let kids = q.children(p);
        for &v in kids {
            if Some(v) == q.successor(p) {
                continue; // the output path is never dropped
            }
            for &u in kids {
                if u != v && implies_subtree(q, v, u, true) {
                    return Some(Redundancy {
                        redundant: v,
                        witness: u,
                    });
                }
            }
        }
    }
    None
}

/// Does a document witness for `u` (relative to the common parent) always
/// constitute a witness for `v`? Checks node-test coverage, axis coverage
/// (`top` pair: a child is also a descendant; nested pairs: any chain
/// below `u` stays below the witness), truth-set inclusion, and recursive
/// coverage of `v`'s children inside `u`'s subtree.
fn implies_subtree(q: &Query, v: QueryNodeId, u: QueryNodeId, top: bool) -> bool {
    use fx_xpath::Axis;
    // Node test: v must accept whatever u requires.
    match (q.ntest(v), q.ntest(u)) {
        (Some(tv), Some(tu)) => {
            let ok = tv.is_wildcard() || tv == tu;
            if !ok {
                return false;
            }
        }
        _ => return false,
    }
    // Axis coverage at the top pair (same anchor): a child-axis witness
    // also witnesses a descendant-axis constraint, never vice versa.
    if top {
        let ok = matches!(
            (q.axis(v), q.axis(u)),
            (Some(Axis::Descendant), Some(Axis::Child | Axis::Descendant))
                | (Some(Axis::Child), Some(Axis::Child))
                | (Some(Axis::Attribute), Some(Axis::Attribute))
        );
        if !ok {
            return false;
        }
    }
    // Truth inclusion: TRUTH(u) ⊆ TRUTH(v).
    let (Ok(tv), Ok(tu)) = (TruthSet::of(q, v), TruthSet::of(q, u)) else {
        return false;
    };
    if truth_implies(&tu, &tv) != Tri::Yes {
        return false;
    }
    // Children of v must be covered inside Q_u.
    for &c in q.children(v) {
        let covered = match q.axis(c) {
            Some(Axis::Child) => q
                .children(u)
                .iter()
                .any(|&t| q.axis(t) == Some(Axis::Child) && implies_subtree(q, c, t, false)),
            Some(Axis::Attribute) => q
                .children(u)
                .iter()
                .any(|&t| q.axis(t) == Some(Axis::Attribute) && implies_subtree(q, c, t, false)),
            Some(Axis::Descendant) => q
                .preorder(u)
                .into_iter()
                .filter(|&t| t != u)
                .any(|t| q.axis(t) != Some(Axis::Attribute) && implies_subtree(q, c, t, false)),
            None => false,
        };
        if !covered {
            return false;
        }
    }
    true
}

/// Removes one redundant predicate child and rebuilds the query. Returns
/// `None` when nothing is redundant.
pub fn eliminate_one(q: &Query) -> Option<Query> {
    let red = find_redundancy(q)?;
    let dropped: HashSet<QueryNodeId> = q.preorder(red.redundant).into_iter().collect();
    Some(rebuild_without(q, &dropped))
}

/// Iterates [`eliminate_one`] to a fixpoint — the minimized query.
pub fn minimize(q: &Query) -> Query {
    let mut cur = q.clone();
    while let Some(next) = eliminate_one(&cur) {
        cur = next;
    }
    cur
}

/// Rebuilds `q` without the nodes in `dropped`, remapping predicate
/// variables and pruning conjuncts that referenced dropped children.
fn rebuild_without(q: &Query, dropped: &HashSet<QueryNodeId>) -> Query {
    let mut out = Query::new();
    let mut map: HashMap<QueryNodeId, QueryNodeId> = HashMap::new();
    map.insert(q.root(), out.root());
    for old in q.all_nodes().skip(1) {
        if dropped.contains(&old) {
            continue;
        }
        let parent = q.parent(old).expect("non-root");
        let new_parent = map[&parent];
        let new = out.add_node(
            new_parent,
            q.axis(old).expect("non-root"),
            q.ntest(old).expect("non-root").clone(),
        );
        map.insert(old, new);
        if q.successor(parent) == Some(old) {
            out.set_successor(new_parent, new);
        }
    }
    for old in q.all_nodes() {
        if dropped.contains(&old) {
            continue;
        }
        if let Some(pred) = q.predicate(old) {
            let kept: Vec<Expr> = pred
                .conjuncts()
                .into_iter()
                .filter(|c| c.vars().iter().all(|v| !dropped.contains(v)))
                .map(|c| c.map_vars(|v| map[&v]))
                .collect();
            if let Some(joined) = kept.into_iter().reduce(Expr::and) {
                out.set_predicate(map[&old], joined);
            }
        }
    }
    debug_assert!(out.validate().is_ok());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xpath::{parse_query, to_xpath};

    fn minimized(src: &str) -> String {
        to_xpath(&minimize(&parse_query(src).unwrap()))
    }

    #[test]
    fn paper_redundant_interval_example() {
        // §5: "/a[b > 5 and b > 6] is not redundancy-free, because the
        // atomic predicate b > 5 is redundant."
        assert_eq!(minimized("/a[b > 5 and b > 6]"), "/a[b > 6]");
    }

    #[test]
    fn paper_subsumption_example() {
        // §5.5: in /a[b and .//b] the left b subsumes the right one.
        assert_eq!(minimized("/a[b and .//b]"), "/a[b]");
    }

    #[test]
    fn non_redundant_queries_are_fixed_points() {
        for src in [
            "/a[b and c]",
            "//a[b and c]",
            "/a[c[.//e and f] and b > 5]",
            "/a[b = 5 and .//b = 3]", // values differ: not redundant
            "/a[b > 5]/b",            // output b vs predicate b: values differ
        ] {
            assert_eq!(minimized(src), src, "{src}");
        }
    }

    #[test]
    fn subtree_subsumption() {
        // .//b[c] is implied by a child b[c].
        assert_eq!(minimized("/a[b[c] and .//b[c]]"), "/a[b[c]]");
        // …but not by a child b without the c.
        assert_eq!(minimized("/a[b and .//b[c]]"), "/a[b and .//b[c]]");
    }

    #[test]
    fn chains_collapse_stepwise() {
        // b>4, b>5, b>6: two rounds of elimination.
        assert_eq!(minimized("/a[b > 4 and b > 5 and b > 6]"), "/a[b > 6]");
    }

    #[test]
    fn string_shapes() {
        assert_eq!(
            minimized("/a[contains(b, \"xy\") and contains(b, \"x\")]"),
            "/a[contains(b, \"xy\")]"
        );
        assert_eq!(
            minimized("/a[starts-with(b, \"pre\") and starts-with(b, \"prefix\")]"),
            "/a[starts-with(b, \"prefix\")]"
        );
        // Disjoint constraints stay.
        assert_eq!(
            minimized("/a[b = \"x\" and b = \"y\"]"),
            "/a[b = \"x\" and b = \"y\"]"
        );
    }

    #[test]
    fn minimization_can_restore_redundancy_freeness() {
        let q = parse_query("/a[b > 5 and b > 6]").unwrap();
        assert!(!crate::redundancy_free(&q).is_empty());
        let min = minimize(&q);
        assert!(
            crate::redundancy_free(&min).is_empty(),
            "{}",
            to_xpath(&min)
        );
    }

    #[test]
    fn truth_implication_table() {
        let q = parse_query("/a[b > 6 and c > 5 and d = \"x\" and e < 3]").unwrap();
        let a = q.successor(q.root()).unwrap();
        let pc = q.predicate_children(a);
        let t_gt6 = TruthSet::of(&q, pc[0]).unwrap();
        let t_gt5 = TruthSet::of(&q, pc[1]).unwrap();
        let t_eqx = TruthSet::of(&q, pc[2]).unwrap();
        let t_lt3 = TruthSet::of(&q, pc[3]).unwrap();
        assert_eq!(truth_implies(&t_gt6, &t_gt5), Tri::Yes);
        assert_eq!(truth_implies(&t_gt5, &t_gt6), Tri::No);
        assert_eq!(truth_implies(&t_eqx, &t_gt5), Tri::No); // "x" is NaN
                                                            // Cross-direction intervals are not provably included; the
                                                            // eliminator only acts on Yes, so Unknown/No are both safe.
        assert_ne!(truth_implies(&t_lt3, &t_gt5), Tri::Yes);
        assert_eq!(truth_implies(&t_gt5, &t_gt5), Tri::Yes);
    }

    /// Differential: minimization never changes BOOLEVAL.
    #[test]
    fn minimization_preserves_semantics() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let sources = [
            "/a[b and .//b]",
            "/a[b > 5 and b > 6]",
            "/a[b[c] and .//b[c]]",
            "/a[b > 4 and b > 5 and c]",
            "/a[contains(b, \"xy\") and contains(b, \"x\") and c]",
            "//a[b and .//b and c]",
        ];
        let mut rng = SmallRng::seed_from_u64(0x313);
        for src in sources {
            let q = parse_query(src).unwrap();
            let min = minimize(&q);
            for _ in 0..60 {
                let cfg = RandomDocCfg;
                let d = random_doc(&mut rng, &cfg);
                let before = fx_eval::bool_eval(&q, &d).unwrap();
                let after = fx_eval::bool_eval(&min, &d).unwrap();
                assert_eq!(
                    before,
                    after,
                    "{src} → {} on {}",
                    to_xpath(&min),
                    d.to_xml()
                );
            }
        }
    }

    // Local mini doc generator (fx-analysis cannot depend on fx-workloads).
    #[derive(Default)]
    struct RandomDocCfg;
    fn random_doc(rng: &mut impl rand::Rng, _cfg: &RandomDocCfg) -> fx_dom::Document {
        fn grow(
            rng: &mut impl rand::Rng,
            doc: &mut fx_dom::Document,
            at: fx_dom::NodeId,
            depth: usize,
        ) {
            if depth >= 5 {
                return;
            }
            let n = rng.gen_range(0..4);
            for _ in 0..n {
                let names = ["a", "b", "c", "e", "f", "x"];
                let name = names[rng.gen_range(0..names.len())];
                let child = doc.push_node(at, fx_dom::NodeKind::Element, name, "");
                if rng.gen_bool(0.4) {
                    let vals = ["3", "5", "6", "7", "x", "xy", "pre", "prefix"];
                    let v = vals[rng.gen_range(0..vals.len())];
                    doc.push_node(child, fx_dom::NodeKind::Text, "", v);
                }
                grow(rng, doc, child, depth + 1);
            }
        }
        let mut doc = fx_dom::Document::empty();
        let root = doc.push_node(fx_dom::NodeId::ROOT, fx_dom::NodeKind::Element, "a", "");
        grow(rng, &mut doc, root, 1);
        doc
    }
}
