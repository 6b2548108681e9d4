//! Path matchings (Definition 8.2) and the derived quantities of §8.6:
//! path recursion depth (Def. 8.3), text width (Def. 8.4), and path
//! consistency (Defs. 8.5–8.6). These parameterize the complexity theorem
//! (Thm. 8.8) for the streaming filter.

use fx_dom::{Document, NodeId, NodeKind};
use fx_xpath::{Axis, NodeTest, Query, QueryNodeId};
use std::collections::{HashMap, HashSet};

/// For every document node, the set of query nodes it *path matches*
/// (Def. 8.2): there is a root/axis/node-test-respecting map from
/// `PATH(u)` to `PATH(x)`.
pub(crate) fn path_match_sets(q: &Query, d: &Document) -> HashMap<NodeId, HashSet<QueryNodeId>> {
    let mut sets: HashMap<NodeId, HashSet<QueryNodeId>> = HashMap::new();
    let mut anc: HashMap<NodeId, HashSet<QueryNodeId>> = HashMap::new();
    sets.insert(d.root(), HashSet::from([q.root()]));
    anc.insert(d.root(), HashSet::from([q.root()]));
    // Document order guarantees parents precede children in `all_nodes`.
    for x in d.all_nodes().skip(1) {
        if d.kind(x) == NodeKind::Text {
            continue;
        }
        let parent = d.parent(x).expect("non-root");
        if d.kind(parent) == NodeKind::Text {
            continue;
        }
        let p_set = sets.get(&parent).cloned().unwrap_or_default();
        let p_anc = anc.get(&parent).cloned().unwrap_or_default();
        let mut s = HashSet::new();
        for u in q.all_nodes().skip(1) {
            if !q.ntest(u).expect("non-root").passes(d.name(x)) {
                continue;
            }
            let qparent = q.parent(u).expect("non-root");
            let ok = match q.axis(u).expect("non-root") {
                Axis::Child => d.kind(x) == NodeKind::Element && p_set.contains(&qparent),
                Axis::Attribute => d.kind(x) == NodeKind::Attribute && p_set.contains(&qparent),
                Axis::Descendant => d.kind(x) == NodeKind::Element && p_anc.contains(&qparent),
            };
            if ok {
                s.insert(u);
            }
        }
        let mut a = p_anc;
        a.extend(s.iter().copied());
        anc.insert(x, a);
        sets.insert(x, s);
    }
    sets
}

/// Does `x` path match `u`?
pub fn path_matches(q: &Query, d: &Document, u: QueryNodeId, x: NodeId) -> bool {
    path_match_sets(q, d)
        .get(&x)
        .is_some_and(|s| s.contains(&u))
}

/// The path recursion depth of `D` w.r.t. `Q` (Def. 8.3): the longest
/// chain of nested document nodes that all path match the *same* query
/// node.
pub fn path_recursion_depth(q: &Query, d: &Document) -> usize {
    let sets = path_match_sets(q, d);
    let mut best = 0usize;
    for (&x, s) in &sets {
        for &u in s {
            if u == q.root() {
                continue;
            }
            let depth = 1 + d
                .ancestors(x)
                .filter(|z| sets.get(z).is_some_and(|zs| zs.contains(&u)))
                .count();
            best = best.max(depth);
        }
    }
    best
}

/// The recursion depth of `D` w.r.t. a query node `v` (§4.2): the longest
/// chain of nested nodes that all *match* `v` (full matchings, not just
/// path matchings). Uses the reference matcher.
pub fn recursion_depth_wrt(
    q: &Query,
    d: &Document,
    v: QueryNodeId,
) -> Result<usize, fx_eval::TruthError> {
    let mut matcher = fx_eval::Matcher::new(q, d, fx_eval::MatchMode::Full);
    // A node x "matches v" relative to the root context when some matching
    // of D with Q maps v to x; approximate per the paper's §4.2 usage with
    // subtree matchings of v at x, guarded by a path match to v.
    let sets = path_match_sets(q, d);
    let mut matching_nodes: Vec<NodeId> = Vec::new();
    for x in d.all_nodes() {
        if sets.get(&x).is_some_and(|s| s.contains(&v)) && matcher.can_match(v, x)? {
            matching_nodes.push(x);
        }
    }
    let set: HashSet<NodeId> = matching_nodes.iter().copied().collect();
    let mut best = 0usize;
    for &x in &matching_nodes {
        let depth = 1 + d.ancestors(x).filter(|z| set.contains(z)).count();
        best = best.max(depth);
    }
    Ok(best)
}

/// The text width of `D` w.r.t. `Q` (Def. 8.4): the longest string value
/// over document nodes that path match some *leaf* of `Q`.
pub fn text_width(q: &Query, d: &Document) -> usize {
    let sets = path_match_sets(q, d);
    let leaves: HashSet<QueryNodeId> = q.all_nodes().filter(|&u| q.is_leaf(u)).collect();
    sets.iter()
        .filter(|(_, s)| s.iter().any(|u| leaves.contains(u)))
        .map(|(&x, _)| d.strval(x).chars().count())
        .max()
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Path consistency
// ---------------------------------------------------------------------------

/// One step of a root-to-node query path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Step {
    axis: Axis,
    test: NodeTest,
}

fn steps_to(q: &Query, u: QueryNodeId) -> Vec<Step> {
    q.path(u)
        .into_iter()
        .skip(1) // drop the root
        .map(|n| Step {
            axis: q.axis(n).expect("non-root"),
            test: q.ntest(n).expect("non-root").clone(),
        })
        .collect()
}

fn tests_compatible(a: &NodeTest, b: &NodeTest) -> bool {
    match (a, b) {
        (NodeTest::Wildcard, _) | (_, NodeTest::Wildcard) => true,
        (NodeTest::Name(x), NodeTest::Name(y)) => x == y,
    }
}

fn is_attr(axis: Axis) -> bool {
    axis == Axis::Attribute
}

/// Definition 8.5: are `u` and `v` path consistent — is there a document
/// and a node `x` that path matches both? Decided exactly by a reachability
/// search over joint pattern states.
pub fn path_consistent(q: &Query, u: QueryNodeId, v: QueryNodeId) -> bool {
    let p = steps_to(q, u);
    let r = steps_to(q, v);
    if p.is_empty() || r.is_empty() {
        // The query root is path-matched only by the document root, which
        // path matches nothing else.
        return p.is_empty() && r.is_empty();
    }
    // State: (i, fresh_i, j, fresh_j): `i` steps of p consumed; `fresh`
    // records whether the last consumed step sits at the most recent
    // document level.
    let mut seen = HashSet::new();
    let mut stack = vec![(0usize, true, 0usize, true)];
    while let Some(state) = stack.pop() {
        if !seen.insert(state) {
            continue;
        }
        let (i, fi, j, fj) = state;
        // Try all advance combinations for the next generated level.
        for (ap, aq) in [(true, true), (true, false), (false, true), (false, false)] {
            // Validity of advancing p.
            if ap {
                if i >= p.len() {
                    continue;
                }
                let needs_fresh = p[i].axis == Axis::Child || p[i].axis == Axis::Attribute;
                if needs_fresh && !fi {
                    continue;
                }
            }
            if aq {
                if j >= r.len() {
                    continue;
                }
                let needs_fresh = r[j].axis == Axis::Child || r[j].axis == Axis::Attribute;
                if needs_fresh && !fj {
                    continue;
                }
            }
            if !ap && !aq {
                // A filler level: only useful when both next steps are
                // descendant-axis (otherwise the stale pattern dies).
                let p_survives = i >= p.len() || p[i].axis == Axis::Descendant;
                let q_survives = j >= r.len() || r[j].axis == Axis::Descendant;
                if !(p_survives && q_survives) {
                    continue;
                }
                stack.push((i, false, j, false));
                continue;
            }
            // Name/kind compatibility on the generated node.
            if ap && aq {
                if !tests_compatible(&p[i].test, &r[j].test) {
                    continue;
                }
                if is_attr(p[i].axis) != is_attr(r[j].axis) {
                    continue;
                }
            }
            let node_is_attr = (ap && is_attr(p[i].axis)) || (aq && is_attr(r[j].axis));
            let ni = if ap { i + 1 } else { i };
            let nj = if aq { j + 1 } else { j };
            // Simultaneous completion at this node = path consistency.
            if ni == p.len() && nj == r.len() && ap && aq {
                return true;
            }
            // A pattern that completes early can never end at the final
            // node; an attribute node is a leaf so nothing can continue
            // below it.
            if ni == p.len() || nj == r.len() || node_is_attr {
                continue;
            }
            // A stale pattern whose next step needs child/attribute axis
            // is dead.
            let p_alive = ap || p[ni].axis == Axis::Descendant;
            let q_alive = aq || r[nj].axis == Axis::Descendant;
            if !(p_alive && q_alive) {
                continue;
            }
            stack.push((ni, ap, nj, aq));
        }
    }
    false
}

/// Definition 8.6: no two distinct (non-root) nodes are path consistent.
pub fn path_consistency_free(q: &Query) -> bool {
    let nodes: Vec<QueryNodeId> = q.all_nodes().skip(1).collect();
    for (k, &u) in nodes.iter().enumerate() {
        for &v in &nodes[k + 1..] {
            if path_consistent(q, u, v) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_dom::Document;
    use fx_xpath::parse_query;

    fn q(s: &str) -> Query {
        parse_query(s).unwrap()
    }

    fn d(s: &str) -> Document {
        Document::from_xml(s).unwrap()
    }

    #[test]
    fn paper_path_recursion_example() {
        // §8.6: Q = //a[b], D = <a><a/></a> has path recursion depth 2
        // (both a's path match), but recursion depth 0 (neither matches).
        let query = q("//a[b]");
        let doc = d("<a><a></a></a>");
        assert_eq!(path_recursion_depth(&query, &doc), 2);
        let a_node = query.successor(query.root()).unwrap();
        assert_eq!(recursion_depth_wrt(&query, &doc, a_node).unwrap(), 0);
    }

    #[test]
    fn recursion_depth_with_matches() {
        let query = q("//a[b and c]");
        let a_node = query.successor(query.root()).unwrap();
        // Two nested matching a's.
        let doc = d("<a><b/><c/><a><b/><c/></a></a>");
        assert_eq!(recursion_depth_wrt(&query, &doc, a_node).unwrap(), 2);
        assert_eq!(path_recursion_depth(&query, &doc), 2);
    }

    #[test]
    fn paper_text_width_example() {
        // §8.6: Q = /a[b], D = <a>dear<b>sir</b>or<b>madam</b></a> has
        // text width 5 ("madam").
        let query = q("/a[b]");
        let doc = d("<a>dear<b>sir</b>or<b>madam</b></a>");
        assert_eq!(text_width(&query, &doc), 5);
    }

    #[test]
    fn paper_path_consistency_example() {
        // §8.6: in /a[.//b/c and b//c], the two c nodes are path
        // consistent.
        let query = q("/a[.//b/c and b//c]");
        let a = query.successor(query.root()).unwrap();
        let b1 = query.predicate_children(a)[0];
        let c1 = query.successor(b1).unwrap();
        let b2 = query.predicate_children(a)[1];
        let c2 = query.successor(b2).unwrap();
        assert!(path_consistent(&query, c1, c2));
        assert!(!path_consistency_free(&query));
    }

    #[test]
    fn distinct_names_are_consistency_free() {
        assert!(path_consistency_free(&q("/a[b and c]")));
        assert!(path_consistency_free(&q("/a[c[e and f] and b > 5]")));
    }

    #[test]
    fn same_name_siblings_are_consistent() {
        let query = q("/a[b = 5 and b = 3]");
        assert!(!path_consistency_free(&query));
    }

    #[test]
    fn wildcards_make_consistency() {
        let query = q("/a[* and b]");
        // The wildcard node and b are path consistent (a b child matches
        // both).
        assert!(!path_consistency_free(&query));
    }

    #[test]
    fn descendant_vs_child_same_name() {
        let query = q("/a[b and .//b]");
        assert!(!path_consistency_free(&query));
    }

    #[test]
    fn path_matching_respects_axes() {
        let query = q("/a/b");
        let doc = d("<a><x><b/></x><b/></a>");
        let b_q = query.output_node();
        let a_d = doc.children(doc.root())[0];
        let x = doc.children(a_d)[0];
        let deep_b = doc.children(x)[0];
        let shallow_b = doc.children(a_d)[1];
        assert!(!path_matches(&query, &doc, b_q, deep_b));
        assert!(path_matches(&query, &doc, b_q, shallow_b));
    }

    #[test]
    fn attribute_paths() {
        let query = q("/a[@id and b]");
        let a = query.successor(query.root()).unwrap();
        let id = query.predicate_children(a)[0];
        let b = query.predicate_children(a)[1];
        // @id and b are not path consistent (attribute vs element kinds).
        assert!(!path_consistent(&query, id, b));
        let doc = d(r#"<a id="1"><b/></a>"#);
        let a_d = doc.children(doc.root())[0];
        let id_d = doc.children(a_d)[0];
        assert!(path_matches(&query, &doc, id, id_d));
    }

    #[test]
    fn filler_levels_allow_gap_alignment() {
        // /r[.//a/x and .//b] — a/x vs b: never consistent (names differ
        // at the end). But .//a/x's x and a second .//x are consistent via
        // a filler: root … <a><x/></a>.
        let query = q("/r[.//a/x and .//x]");
        let r = query.successor(query.root()).unwrap();
        let a = query.predicate_children(r)[0];
        let x1 = query.successor(a).unwrap();
        let x2 = query.predicate_children(r)[1];
        assert!(path_consistent(&query, x1, x2));
    }
}
