//! The query frontier size `FS(Q)` (Definition 4.1) — the quantity the
//! paper's first lower bound (Theorems 4.2 / 7.1) is stated in.

use fx_xpath::{Query, QueryNodeId};

/// The frontier at `u` (Def. 4.1): `u` together with its super-siblings —
/// the siblings of `u` and of each of its ancestors.
pub fn frontier(q: &Query, u: QueryNodeId) -> Vec<QueryNodeId> {
    let mut f = vec![u];
    let mut cur = u;
    while let Some(parent) = q.parent(cur) {
        for &sib in q.children(parent) {
            if sib != cur {
                f.push(sib);
            }
        }
        cur = parent;
    }
    f
}

/// The frontier size `FS(Q)`: the size of the largest frontier over all
/// nodes of `Q`.
pub fn frontier_size(q: &Query) -> usize {
    q.all_nodes()
        .map(|u| frontier(q, u).len())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xpath::parse_query;

    #[test]
    fn fig3_frontier() {
        // Fig. 3: Q = /a[c[.//e and f] and b > 5], the frontier at e is
        // {e, f, b} and FS(Q) = 3.
        let q = parse_query("/a[c[.//e and f] and b > 5]").unwrap();
        let a = q.successor(q.root()).unwrap();
        let c = q.predicate_children(a)[0];
        let e = q.predicate_children(c)[0];
        let f = frontier(&q, e);
        assert_eq!(f.len(), 3);
        assert_eq!(frontier_size(&q), 3);
    }

    #[test]
    fn linear_paths_have_frontier_one() {
        // Along /a/b/c every node's frontier is just itself.
        let q = parse_query("/a/b/c").unwrap();
        assert_eq!(frontier_size(&q), 1);
    }

    #[test]
    fn star_queries_scale_linearly() {
        // /a[b1 and b2 and … and bk] has FS = k at each leaf... plus the
        // successor-free structure: frontier at b1 = {b1,…,bk}.
        let q = parse_query("/a[b and c and d and e]").unwrap();
        assert_eq!(frontier_size(&q), 4);
    }

    #[test]
    fn balanced_trees_are_logarithmic_in_size() {
        // A complete binary query of depth 3: FS = fan-out × depth-ish,
        // much smaller than |Q|.
        let q = parse_query("/r[a[c[g and h] and d] and b[e and f]]").unwrap();
        // |Q| = 1 + 9 = 10; frontier at g: {g, h, d, b} = 4.
        assert_eq!(q.len(), 10);
        assert_eq!(frontier_size(&q), 4);
    }

    #[test]
    fn frontier_includes_successor_siblings() {
        // In Fig. 2 (/a[c[.//e and f] and b > 5]/b), the frontier at e
        // includes the successor b as well: {e, f, b-pred, b-succ}.
        let q = parse_query("/a[c[.//e and f] and b > 5]/b").unwrap();
        assert_eq!(frontier_size(&q), 4);
    }
}
