//! Truth sets (Definition 5.6) as *membership oracles*.
//!
//! For univariate queries, every node `u` has a truth set `TRUTH(u) ⊆ S`:
//! - if `u` is a succession leaf whose succession root `v` occurs as the
//!   variable of a univariate atomic predicate `P`, then
//!   `TRUTH(u) = TRUTH(P)` — the string values that satisfy `P`;
//! - otherwise `TRUTH(u) = S`.
//!
//! Membership is decided by substituting the candidate value for the
//! variable and evaluating (a tautology check per value). The *symbolic*
//! representation used to sample distinguished values for canonical
//! documents lives in `fx-analysis`.

use crate::ops::eval_with_binding;
use crate::{EvalError, Expr, Query, QueryNodeId};

/// Locates the atomic predicate (a top-level conjunct of the parent's
/// predicate) in which the succession root of `u` occurs as a variable.
/// Returns `None` when `TRUTH(u) = S` (no constraining predicate). Returns
/// an error when the query is not univariate at this node (the variable
/// shares an atomic predicate with another variable), since truth sets are
/// then undefined.
pub fn constraining_predicate(
    q: &Query,
    u: QueryNodeId,
) -> Result<Option<(QueryNodeId, Expr)>, TruthError> {
    // Only succession leaves can be value-constrained (Def. 5.6 case 3).
    if q.successor(u).is_some() {
        return Ok(None);
    }
    let v = q.succession_root(u);
    let Some(parent) = q.parent(v) else {
        // v = ROOT(Q): TRUTH(u) = S (Def. 5.6 case 2).
        return Ok(None);
    };
    let Some(pred) = q.predicate(parent) else {
        return Ok(None);
    };
    for conjunct in pred.conjuncts() {
        let vars = conjunct.vars();
        if vars.contains(&v) {
            if vars.len() != 1 {
                return Err(TruthError::NotUnivariate { node: v });
            }
            if !is_atomic(conjunct) {
                return Err(TruthError::NotAtomic { node: v });
            }
            if matches!(conjunct, Expr::Var(_)) {
                // A bare existence test `[b]`: the pointer leaf evaluates to
                // a singleton sequence whose EBV is always true, so
                // TRUTH(u) = S (the predicate constrains existence, not the
                // value).
                return Ok(None);
            }
            return Ok(Some((v, conjunct.clone())));
        }
    }
    Ok(None)
}

/// An error while reasoning about truth sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TruthError {
    /// The atomic predicate mentioning this variable has other variables.
    NotUnivariate {
        /// The variable node.
        node: QueryNodeId,
    },
    /// The conjunct containing the variable is not an atomic predicate
    /// (e.g. contains a nested `or`/`not`).
    NotAtomic {
        /// The variable node.
        node: QueryNodeId,
    },
    /// Evaluating the predicate failed.
    Eval(EvalError),
}

impl std::fmt::Display for TruthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TruthError::NotUnivariate { node } => {
                write!(f, "atomic predicate of {node} is not univariate")
            }
            TruthError::NotAtomic { node } => {
                write!(
                    f,
                    "the conjunct containing {node} is not an atomic predicate"
                )
            }
            TruthError::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TruthError {}

impl From<EvalError> for TruthError {
    fn from(e: EvalError) -> Self {
        TruthError::Eval(e)
    }
}

/// Definition 5.3: an atomic predicate has no boolean-argument operators
/// anywhere, and no boolean-output operator except possibly at the root.
pub fn is_atomic(e: &Expr) -> bool {
    if e.is_boolean_operator() {
        return false;
    }
    fn interior_ok(e: &Expr) -> bool {
        if e.is_boolean_operator() || e.output_is_boolean() {
            return false;
        }
        children_ok(e)
    }
    fn children_ok(e: &Expr) -> bool {
        match e {
            Expr::Const(_) | Expr::Var(_) => true,
            Expr::Neg(a) | Expr::Not(a) => interior_ok(a),
            Expr::Comp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                interior_ok(a) && interior_ok(b)
            }
            Expr::Call(_, args) => args.iter().all(interior_ok),
        }
    }
    children_ok(e)
}

/// Membership test: `value ∈ TRUTH(u)` (Def. 5.6).
pub fn truth_contains(q: &Query, u: QueryNodeId, value: &str) -> Result<bool, TruthError> {
    match constraining_predicate(q, u)? {
        None => Ok(true), // TRUTH(u) = S
        Some((var, pred)) => Ok(eval_with_binding(&pred, var, value)?),
    }
}

/// True when `TRUTH(u)` is a *proper* subset of `S` syntactically — i.e.
/// the node is value-restricted (Def. 5.7). This is a syntactic check
/// (a constraining predicate exists); semantic vacuity (a predicate true of
/// every string) is handled by the symbolic layer in `fx-analysis`.
pub fn is_value_restricted(q: &Query, u: QueryNodeId) -> Result<bool, TruthError> {
    Ok(constraining_predicate(q, u)?.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    #[test]
    fn truth_sets_of_paper_example() {
        // §5.3 example: in /a[b/c > 5 and d], TRUTH is S for a, b, d and
        // (5,∞) for c.
        let q = parse_query("/a[b/c > 5 and d]").unwrap();
        let a = q.successor(q.root()).unwrap();
        let b = q.predicate_children(a)[0];
        let c = q.successor(b).unwrap();
        let d = q.predicate_children(a)[1];
        assert!(truth_contains(&q, a, "anything").unwrap());
        assert!(truth_contains(&q, d, "anything").unwrap());
        // b is not a succession leaf → unrestricted.
        assert!(!is_value_restricted(&q, b).unwrap());
        assert!(is_value_restricted(&q, c).unwrap());
        assert!(truth_contains(&q, c, "6").unwrap());
        assert!(!truth_contains(&q, c, "5").unwrap());
        assert!(!truth_contains(&q, c, "hello").unwrap());
    }

    #[test]
    fn root_chain_is_unrestricted() {
        let q = parse_query("/a/b").unwrap();
        let out = q.output_node();
        assert!(!is_value_restricted(&q, out).unwrap());
        assert!(truth_contains(&q, out, "x").unwrap());
    }

    #[test]
    fn bare_existence_predicate_is_unrestricted() {
        // /a[b]: the conjunct is the pointer leaf itself, which evaluates
        // to a singleton sequence — always a non-empty sequence, so
        // TRUTH(b) = S. Even an empty <b/> matches.
        let q = parse_query("/a[b]").unwrap();
        let a = q.successor(q.root()).unwrap();
        let b = q.predicate_children(a)[0];
        assert!(!is_value_restricted(&q, b).unwrap());
        assert!(truth_contains(&q, b, "x").unwrap());
        assert!(truth_contains(&q, b, "").unwrap());
    }

    #[test]
    fn multivariate_is_an_error() {
        let q = parse_query("/a[b > c]").unwrap();
        let a = q.successor(q.root()).unwrap();
        let b = q.predicate_children(a)[0];
        assert!(matches!(
            truth_contains(&q, b, "x"),
            Err(TruthError::NotUnivariate { .. })
        ));
    }

    #[test]
    fn atomicity_checks() {
        let q = parse_query("/a[b > 5 and c + d = 7]").unwrap();
        let a = q.successor(q.root()).unwrap();
        let pred = q.predicate(a).unwrap();
        let conjuncts = pred.conjuncts();
        assert!(is_atomic(conjuncts[0]));
        assert!(is_atomic(conjuncts[1]));
        assert!(!is_atomic(pred)); // the whole `and` is not atomic

        // 1 - (a > 5): boolean output nested under arithmetic — not atomic
        // (Def. 5.3 (2), the §5.2 example).
        let q2 = parse_query("/a[1 - (b > 5) = 0]").unwrap();
        let a2 = q2.successor(q2.root()).unwrap();
        assert!(!is_atomic(q2.predicate(a2).unwrap()));
    }

    #[test]
    fn string_predicates() {
        let q = parse_query("/a[matches(b, \"^A.*B$\")]").unwrap();
        let a = q.successor(q.root()).unwrap();
        let b = q.predicate_children(a)[0];
        assert!(truth_contains(&q, b, "AxyB").unwrap());
        assert!(!truth_contains(&q, b, "xyB").unwrap());
    }
}
