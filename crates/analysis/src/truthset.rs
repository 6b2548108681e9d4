//! Symbolic truth sets (Definition 5.6) with the two sampling operations
//! the canonical-document construction needs (§6.4.1):
//!
//! 1. `getUniqueValue` for a **leaf** `u`: a value `α ∈ TRUTH(u)` outside
//!    `TRUTH(v)` for every dominated leaf `v ∈ L_u` — exists iff the
//!    sunflower property (Def. 5.16) holds at `u`;
//! 2. `getUniqueValue` for an **internal** `u`: a value `α` that is not a
//!    *prefix* of any value in `⋃_{v∈L_u} TRUTH(v)` — exists iff the prefix
//!    sunflower property (Def. 5.17) holds at `u`.
//!
//! Membership is always decided exactly (by substituting into the atomic
//! predicate). Prefix-extendability is decided symbolically for the
//! recognized predicate shapes and conservatively (`Unknown`) otherwise.

use fx_eval::truth::{constraining_predicate, TruthError};
use fx_xpath::canonical::flip;
use fx_xpath::value::{format_number, Value};
use fx_xpath::{ops, CompOp, Expr, Func, Query, QueryNodeId};

/// A truth set, carrying both a symbolic shape (when recognized) and the
/// exact membership oracle.
#[derive(Debug, Clone)]
pub struct TruthSet {
    /// The variable node the predicate constrains (None = unconstrained).
    pub source: Option<(QueryNodeId, Expr)>,
    /// The recognized shape, for symbolic reasoning.
    pub shape: Shape,
}

/// Recognized predicate shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// `TRUTH = S` (no constraint).
    All,
    /// `{x : num(x) op c}`.
    NumCmp(CompOp, f64),
    /// `{x : x op "s"}` as strings (`=` / `!=`).
    StrEq(bool, String),
    /// `starts-with(x, p)`.
    StartsWith(String),
    /// `ends-with(x, s)`.
    EndsWith(String),
    /// `contains(x, s)`.
    Contains(String),
    /// `matches(x, re)` with the raw pattern.
    Matches(String),
    /// Anything else: membership oracle only.
    Opaque,
}

/// Three-valued answer for symbolic questions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Definitely yes.
    Yes,
    /// Definitely no.
    No,
    /// Cannot be determined symbolically.
    Unknown,
}

impl TruthSet {
    /// Builds the truth set of node `u` (Def. 5.6).
    pub fn of(q: &Query, u: QueryNodeId) -> Result<TruthSet, TruthError> {
        match constraining_predicate(q, u)? {
            None => Ok(TruthSet {
                source: None,
                shape: Shape::All,
            }),
            Some((var, pred)) => {
                let shape = recognize(&pred, var);
                Ok(TruthSet {
                    source: Some((var, pred)),
                    shape,
                })
            }
        }
    }

    /// Exact membership: `value ∈ TRUTH`.
    pub fn contains(&self, value: &str) -> bool {
        match &self.source {
            None => true,
            Some((var, pred)) => ops::eval_with_binding(pred, *var, value).unwrap_or(false),
        }
    }

    /// Is `alpha` a prefix of some member of the set? (`PREFIX(TRUTH)`
    /// membership, Def. 5.17.) `Unknown` for opaque shapes.
    pub fn extends_to_member(&self, alpha: &str) -> Tri {
        match &self.shape {
            Shape::All => Tri::Yes,
            Shape::EndsWith(_) | Shape::Contains(_) => Tri::Yes, // α ◦ s ∈ T
            Shape::StrEq(true, s) => {
                if s.starts_with(alpha) {
                    Tri::Yes
                } else {
                    Tri::No
                }
            }
            Shape::StrEq(false, _) => Tri::Yes, // α ◦ junk ≠ s for long junk
            Shape::StartsWith(p) => {
                // Members are p ◦ anything: α extends to one iff α ≤ p or
                // p ≤ α.
                if p.starts_with(alpha) || alpha.starts_with(p.as_str()) {
                    Tri::Yes
                } else {
                    Tri::No
                }
            }
            Shape::NumCmp(op, c) => num_prefix_extendable(alpha, *op, *c),
            Shape::Matches(_) | Shape::Opaque => {
                // Check a few canonical extensions; any hit is a Yes, and
                // absence is Unknown (conservative).
                let probes = ["", "0", "1", "a", "z", "99999", "aaaa"];
                for p in probes {
                    let cand = format!("{alpha}{p}");
                    if self.contains(&cand) {
                        return Tri::Yes;
                    }
                }
                Tri::Unknown
            }
        }
    }

    /// Candidate values to try when sampling a member (derived from the
    /// shape's constants).
    fn member_candidates(&self) -> Vec<String> {
        match &self.shape {
            Shape::All | Shape::Opaque => vec!["v".into(), "1".into(), "".into()],
            Shape::NumCmp(op, c) => {
                let mut v = vec![
                    *c,
                    c + 1.0,
                    c - 1.0,
                    c + 0.5,
                    c - 0.5,
                    c * 2.0,
                    0.0,
                    c + 1000.0,
                    c - 1000.0,
                ];
                if matches!(op, CompOp::Ne) {
                    v.push(c + 7.0);
                }
                v.into_iter().map(format_number).collect()
            }
            Shape::StrEq(_, s) => vec![s.clone(), format!("{s}x"), format!("x{s}"), "q".into()],
            Shape::StartsWith(p) => vec![p.clone(), format!("{p}x"), format!("{p}qq")],
            Shape::EndsWith(s) => vec![s.clone(), format!("x{s}"), format!("qq{s}")],
            Shape::Contains(s) => vec![s.clone(), format!("x{s}x")],
            Shape::Matches(_) => vec![],
        }
    }
}

fn num_prefix_extendable(alpha: &str, op: CompOp, c: f64) -> Tri {
    // Members of {x : num(x) op c} are strings parsing to suitable numbers.
    // If alpha cannot be extended to any parseable f64, the answer is No.
    let t = alpha.trim_start();
    let numeric_prefix = t.is_empty()
        || t.chars().enumerate().all(|(i, ch)| {
            ch.is_ascii_digit()
                || ch == '.'
                || ((ch == '-' || ch == '+') && i == 0)
                || matches!(ch, 'e' | 'E' | 'i' | 'n' | 'f' | 'a' | 'N' | 'I')
        });
    if !numeric_prefix {
        return Tri::No;
    }
    // Digit-only prefixes extend to arbitrarily large/precise numbers, so
    // any non-equality comparison is satisfiable; for = c it depends on c's
    // rendering. Be precise where easy, conservative otherwise.
    match op {
        CompOp::Eq => {
            let s = format_number(c);
            if s.starts_with(alpha.trim()) || alpha.trim().is_empty() {
                Tri::Yes
            } else {
                // Could still extend via exotic spellings ("6.0", "06").
                Tri::Unknown
            }
        }
        _ => Tri::Yes,
    }
}

/// Recognizes the symbolic shape of an atomic univariate predicate over
/// `var`.
fn recognize(pred: &Expr, var: QueryNodeId) -> Shape {
    match pred {
        Expr::Comp(op, a, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Var(v), Expr::Const(c)) if *v == var => num_or_str(*op, c),
            (Expr::Const(c), Expr::Var(v)) if *v == var => num_or_str(flip(*op), c),
            (Expr::Var(v), Expr::Neg(inner)) if *v == var => {
                if let Expr::Const(Value::Number(n)) = inner.as_ref() {
                    Shape::NumCmp(*op, -n)
                } else {
                    Shape::Opaque
                }
            }
            _ => Shape::Opaque,
        },
        Expr::Call(f, args) => match (f, args.as_slice()) {
            (Func::StartsWith, [Expr::Var(v), Expr::Const(Value::Str(s))]) if *v == var => {
                Shape::StartsWith(s.clone())
            }
            (Func::EndsWith, [Expr::Var(v), Expr::Const(Value::Str(s))]) if *v == var => {
                Shape::EndsWith(s.clone())
            }
            (Func::Contains, [Expr::Var(v), Expr::Const(Value::Str(s))]) if *v == var => {
                Shape::Contains(s.clone())
            }
            (Func::Matches, [Expr::Var(v), Expr::Const(Value::Str(s))]) if *v == var => {
                Shape::Matches(s.clone())
            }
            _ => Shape::Opaque,
        },
        _ => Shape::Opaque,
    }
}

fn num_or_str(op: CompOp, c: &Value) -> Shape {
    match c {
        Value::Number(n) => Shape::NumCmp(op, *n),
        Value::Str(s) => {
            if op.is_ordering() {
                // Ordering comparisons are numeric; a string constant still
                // yields a numeric comparison after conversion.
                let n = fx_xpath::value::parse_number(s);
                if n.is_nan() {
                    Shape::Opaque
                } else {
                    Shape::NumCmp(op, n)
                }
            } else {
                match op {
                    CompOp::Eq => Shape::StrEq(true, s.clone()),
                    CompOp::Ne => Shape::StrEq(false, s.clone()),
                    _ => Shape::Opaque,
                }
            }
        }
        Value::Bool(_) => Shape::Opaque,
    }
}

/// Samples a value in `target` that is in none of `avoid` — the
/// `getUniqueValue` of Fig. 8 for leaf nodes, and simultaneously a witness
/// for the sunflower property (Def. 5.16). `salt` diversifies generated
/// candidates (distinct nodes get distinct fallbacks).
pub fn sample_distinct_member(target: &TruthSet, avoid: &[TruthSet], salt: u64) -> Option<String> {
    let mut candidates = target.member_candidates();
    // Generic fallbacks unlikely to collide with constants.
    candidates.push(format!("uq{salt}"));
    candidates.push(format!("uq{salt}qq"));
    candidates.push(format!("{}", 7001 + salt * 13));
    candidates.push(format!("-{}", 9001 + salt * 17));
    candidates.push(format!("0.{}", 100 + salt));
    // Also probe near every numeric constant of the avoid sets (boundary
    // values often separate overlapping intervals).
    for av in avoid {
        if let Shape::NumCmp(_, c) = av.shape {
            for delta in [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0] {
                candidates.push(format_number(c + delta));
            }
        }
        if let Shape::StrEq(true, s) = &av.shape {
            candidates.push(format!("{s}zz"));
        }
    }
    candidates
        .into_iter()
        .find(|cand| target.contains(cand) && avoid.iter().all(|av| !av.contains(cand)))
}

/// Samples a value that is **not a prefix** of any member of any `avoid`
/// set — the `getUniqueValue` of Fig. 8 for internal nodes, and a witness
/// for the prefix sunflower property (Def. 5.17). Returns `None` when no
/// candidate can be *proved* safe (conservative).
pub fn sample_non_prefix(avoid: &[TruthSet], salt: u64) -> Option<String> {
    // Letters break numeric parses; 'q'/'z' rarely occur in constants. Try
    // several in case a string constant contains one of them.
    let candidates = [
        format!("zq{salt}zq"),
        format!("qz{salt}xw"),
        format!("wy{salt}yw"),
        format!("kj{salt}jk"),
    ];
    candidates
        .into_iter()
        .find(|cand| avoid.iter().all(|av| av.extends_to_member(cand) == Tri::No))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_xpath::parse_query;

    fn truth_of(qs: &str, pick: impl Fn(&Query) -> QueryNodeId) -> TruthSet {
        let q = parse_query(qs).unwrap();
        let u = pick(&q);
        TruthSet::of(&q, u).unwrap()
    }

    fn first_pred_child(q: &Query) -> QueryNodeId {
        let a = q.successor(q.root()).unwrap();
        q.predicate_children(a)[0]
    }

    #[test]
    fn recognizes_numeric_comparison() {
        let t = truth_of("/a[b > 5]", first_pred_child);
        assert_eq!(t.shape, Shape::NumCmp(CompOp::Gt, 5.0));
        assert!(t.contains("6"));
        assert!(!t.contains("5"));
    }

    #[test]
    fn recognizes_flipped_comparison() {
        let t = truth_of("/a[5 < b]", first_pred_child);
        assert_eq!(t.shape, Shape::NumCmp(CompOp::Gt, 5.0));
    }

    #[test]
    fn recognizes_string_shapes() {
        let t = truth_of("/a[b = \"A\"]", first_pred_child);
        assert_eq!(t.shape, Shape::StrEq(true, "A".into()));
        let t = truth_of("/a[starts-with(b, \"pre\")]", first_pred_child);
        assert_eq!(t.shape, Shape::StartsWith("pre".into()));
        let t = truth_of("/a[ends-with(b, \"B\")]", first_pred_child);
        assert_eq!(t.shape, Shape::EndsWith("B".into()));
    }

    #[test]
    fn prefix_extendability() {
        // Every string is a prefix of a member of ends-with sets — the
        // §5.5 strong-subsumption-freeness counterexample.
        let t = truth_of("/a[ends-with(b, \"B\")]", first_pred_child);
        assert_eq!(t.extends_to_member("anything"), Tri::Yes);
        // "hello" cannot extend to a number > 12.
        let t = truth_of("/a[b > 12]", first_pred_child);
        assert_eq!(t.extends_to_member("hello"), Tri::No);
        assert_eq!(t.extends_to_member("1"), Tri::Yes);
        // starts-with("pre"): "pr" extends, "xx" does not.
        let t = truth_of("/a[starts-with(b, \"pre\")]", first_pred_child);
        assert_eq!(t.extends_to_member("pr"), Tri::Yes);
        assert_eq!(t.extends_to_member("press"), Tri::Yes);
        assert_eq!(t.extends_to_member("xx"), Tri::No);
    }

    #[test]
    fn sample_distinct_separates_intervals() {
        // TRUTH(u) = (12,∞), avoid = (-∞,30): the witness must be ≥ 30.
        let target = truth_of("/a[b > 12]", first_pred_child);
        let avoid = truth_of("/a[b < 30]", first_pred_child);
        let w = sample_distinct_member(&target, std::slice::from_ref(&avoid), 0).unwrap();
        assert!(target.contains(&w));
        assert!(!avoid.contains(&w));
    }

    #[test]
    fn sample_distinct_fails_when_subset() {
        // TRUTH(u) = (5,∞) ⊆ (4,∞): no witness exists.
        let target = truth_of("/a[b > 5]", first_pred_child);
        let avoid = truth_of("/a[b > 4]", first_pred_child);
        assert!(sample_distinct_member(&target, &[avoid], 0).is_none());
    }

    #[test]
    fn sunflower_example_from_paper() {
        // §5.5: ^A.*B$ vs AB vs A.+B — none subsumes the others singly,
        // but the first is covered by the union. Check that a witness for
        // "in ^A.*B$ but not in AB-contains" does not exist, while
        // "in contains-AB but not in ^A.*B$" does (e.g. "xABx").
        let q =
            parse_query("/a[matches(b,\"^A.*B$\") and matches(b,\"AB\") and matches(b,\"A.+B\")]")
                .unwrap();
        let a = q.successor(q.root()).unwrap();
        let pc = q.predicate_children(a);
        let t1 = TruthSet::of(&q, pc[0]).unwrap();
        let t2 = TruthSet::of(&q, pc[1]).unwrap();
        assert!(t1.contains("AxB") && t1.contains("AB"));
        assert!(t2.contains("xABx") && !t1.contains("xABx"));
        let w = sample_distinct_member(&t2, std::slice::from_ref(&t1), 3);
        if let Some(w) = &w {
            assert!(t2.contains(w) && !t1.contains(w));
        }
    }

    #[test]
    fn non_prefix_sampling() {
        let gt12 = truth_of("/a[b > 12]", first_pred_child);
        let lt30 = truth_of("/a[b < 30]", first_pred_child);
        let alpha = sample_non_prefix(&[gt12.clone(), lt30.clone()], 1).unwrap();
        assert_eq!(gt12.extends_to_member(&alpha), Tri::No);
        assert_eq!(lt30.extends_to_member(&alpha), Tri::No);
        // With an ends-with set in the mix, no safe value exists.
        let ew = truth_of("/a[ends-with(b, \"B\")]", first_pred_child);
        assert!(sample_non_prefix(&[ew], 2).is_none());
    }

    #[test]
    fn unconstrained_set_is_all() {
        let t = truth_of("/a[b]/c", |q| q.output_node());
        assert_eq!(t.shape, Shape::All);
        assert!(t.contains("anything"));
        assert_eq!(t.extends_to_member("x"), Tri::Yes);
    }
}
