//! The predicate evaluation function `PEVAL` of Definition 3.5, generic over
//! how `Var` leaves resolve (the document-driven resolution lives in
//! `fx-eval`; the streaming filter substitutes a single buffered string).

use crate::ast::{ArithOp, CompOp, Expr, Func, QueryNodeId};
use crate::regexlite::Regex;
use crate::value::{compare_refs, EvalResult, Value, ValueRef};
use std::cmp::Ordering;
use std::fmt;

/// Cap on the size of the cartesian products formed by Def. 3.5 part 5, to
/// keep adversarial inputs from exhausting memory.
pub const MAX_PRODUCT: usize = 1 << 20;

/// An evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Wrong number of arguments for a function.
    Arity {
        /// The function that was called.
        func: Func,
        /// The number of arguments supplied.
        got: usize,
    },
    /// `fn:matches` received an invalid pattern.
    BadPattern(String),
    /// A cartesian product exceeded [`MAX_PRODUCT`].
    ProductTooLarge,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Arity { func, got } => {
                write!(f, "function {}() called with {got} arguments", func.name())
            }
            EvalError::BadPattern(p) => write!(f, "invalid fn:matches pattern: {p}"),
            EvalError::ProductTooLarge => write!(f, "predicate sequence product too large"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates `expr` with `resolve` supplying the value of each `Var` leaf
/// (Def. 3.5 part 2). Implements the paper's evaluation rules, including the
/// existential semantics of part 4 and the sequence-product semantics of
/// part 5.
pub fn eval_expr(
    expr: &Expr,
    resolve: &mut dyn FnMut(QueryNodeId) -> EvalResult,
) -> Result<EvalResult, EvalError> {
    match expr {
        Expr::Const(v) => Ok(EvalResult::Atomic(v.clone())),
        Expr::Var(v) => Ok(resolve(*v)),
        // Part 3: operators on boolean arguments; arguments cast via EBV.
        Expr::And(a, b) => {
            let lhs = eval_expr(a, resolve)?.ebv();
            let rhs = eval_expr(b, resolve)?.ebv();
            Ok(EvalResult::Atomic(Value::Bool(lhs && rhs)))
        }
        Expr::Or(a, b) => {
            let lhs = eval_expr(a, resolve)?.ebv();
            let rhs = eval_expr(b, resolve)?.ebv();
            Ok(EvalResult::Atomic(Value::Bool(lhs || rhs)))
        }
        Expr::Not(a) => Ok(EvalResult::Atomic(Value::Bool(
            !eval_expr(a, resolve)?.ebv(),
        ))),
        // Part 4: boolean output, non-boolean arguments — existential.
        Expr::Comp(op, a, b) => {
            let pa = eval_expr(a, resolve)?.into_sequence();
            let pb = eval_expr(b, resolve)?.into_sequence();
            check_product(&[pa.len(), pb.len()])?;
            let found = pa.iter().any(|x| pb.iter().any(|y| apply_comp(*op, x, y)));
            Ok(EvalResult::Atomic(Value::Bool(found)))
        }
        Expr::Call(f, args) if f.output_is_boolean() => {
            let (lo, hi) = f.arity();
            if args.len() < lo || args.len() > hi {
                return Err(EvalError::Arity {
                    func: *f,
                    got: args.len(),
                });
            }
            let seqs: Vec<Vec<Value>> = args
                .iter()
                .map(|a| eval_expr(a, resolve).map(EvalResult::into_sequence))
                .collect::<Result<_, _>>()?;
            check_product(&seqs.iter().map(Vec::len).collect::<Vec<_>>())?;
            let found = cartesian_any(&seqs, &mut |tuple| apply_func(*f, tuple).map(|v| v.ebv()))?;
            Ok(EvalResult::Atomic(Value::Bool(found)))
        }
        // Part 5: non-boolean output — the full product sequence, in
        // lexicographic order of argument indices.
        Expr::Arith(op, a, b) => {
            let pa = eval_expr(a, resolve)?.into_sequence();
            let pb = eval_expr(b, resolve)?.into_sequence();
            check_product(&[pa.len(), pb.len()])?;
            let mut out = Vec::with_capacity(pa.len() * pb.len());
            for x in &pa {
                for y in &pb {
                    out.push(apply_arith(*op, x, y));
                }
            }
            Ok(singleton_or_sequence(out))
        }
        Expr::Neg(a) => {
            let pa = eval_expr(a, resolve)?.into_sequence();
            let out: Vec<Value> = pa.iter().map(|x| Value::Number(-x.to_number())).collect();
            Ok(singleton_or_sequence(out))
        }
        Expr::Call(f, args) => {
            let (lo, hi) = f.arity();
            if args.len() < lo || args.len() > hi {
                return Err(EvalError::Arity {
                    func: *f,
                    got: args.len(),
                });
            }
            let seqs: Vec<Vec<Value>> = args
                .iter()
                .map(|a| eval_expr(a, resolve).map(EvalResult::into_sequence))
                .collect::<Result<_, _>>()?;
            check_product(&seqs.iter().map(Vec::len).collect::<Vec<_>>())?;
            let mut out = Vec::new();
            cartesian_each(&seqs, &mut |tuple| {
                out.push(apply_func(*f, tuple)?);
                Ok(())
            })?;
            Ok(singleton_or_sequence(out))
        }
    }
}

/// Wraps a product result: a single value stays atomic (so that, e.g.,
/// `2 + 3` is an atomic `5`), anything else is a sequence.
fn singleton_or_sequence(mut values: Vec<Value>) -> EvalResult {
    if values.len() == 1 {
        EvalResult::Atomic(values.pop().expect("len checked"))
    } else {
        EvalResult::Sequence(values)
    }
}

fn check_product(lens: &[usize]) -> Result<(), EvalError> {
    let mut total = 1usize;
    for &l in lens {
        total = total.saturating_mul(l.max(1));
        if total > MAX_PRODUCT {
            return Err(EvalError::ProductTooLarge);
        }
    }
    Ok(())
}

/// Iterates the cartesian product, short-circuiting on the first `true`.
fn cartesian_any(
    seqs: &[Vec<Value>],
    f: &mut dyn FnMut(&[Value]) -> Result<bool, EvalError>,
) -> Result<bool, EvalError> {
    let mut hit = false;
    cartesian_each(seqs, &mut |tuple| {
        if !hit && f(tuple)? {
            hit = true;
        }
        Ok(())
    })?;
    Ok(hit)
}

fn cartesian_each(
    seqs: &[Vec<Value>],
    f: &mut dyn FnMut(&[Value]) -> Result<(), EvalError>,
) -> Result<(), EvalError> {
    if seqs.iter().any(Vec::is_empty) {
        return Ok(());
    }
    let mut idx = vec![0usize; seqs.len()];
    let mut tuple: Vec<Value> = seqs.iter().map(|s| s[0].clone()).collect();
    loop {
        f(&tuple)?;
        // Lexicographic increment, last index fastest.
        let mut i = seqs.len();
        loop {
            if i == 0 {
                return Ok(());
            }
            i -= 1;
            idx[i] += 1;
            if idx[i] < seqs[i].len() {
                tuple[i] = seqs[i][idx[i]].clone();
                break;
            }
            idx[i] = 0;
            tuple[i] = seqs[i][0].clone();
        }
    }
}

/// Applies a comparison operator to two atomic values with the standard
/// conversions. Ordering operators compare numerically; `=`/`!=` compare
/// numerically when either side is a number (or both parse as numbers),
/// otherwise as strings. Comparisons involving NaN are false.
pub fn apply_comp(op: CompOp, a: &Value, b: &Value) -> bool {
    apply_comp_refs(op, a.into(), b.into())
}

fn apply_comp_refs(op: CompOp, a: ValueRef<'_>, b: ValueRef<'_>) -> bool {
    let ord = compare_refs(a, b, op.is_ordering());
    match (op, ord) {
        (_, None) => false,
        (CompOp::Eq, Some(o)) => o == Ordering::Equal,
        (CompOp::Ne, Some(o)) => o != Ordering::Equal,
        (CompOp::Lt, Some(o)) => o == Ordering::Less,
        (CompOp::Le, Some(o)) => o != Ordering::Greater,
        (CompOp::Gt, Some(o)) => o == Ordering::Greater,
        (CompOp::Ge, Some(o)) => o != Ordering::Less,
    }
}

/// Applies an arithmetic operator (always numeric; NaN propagates).
pub fn apply_arith(op: ArithOp, a: &Value, b: &Value) -> Value {
    let x = a.to_number();
    let y = b.to_number();
    Value::Number(match op {
        ArithOp::Add => x + y,
        ArithOp::Sub => x - y,
        ArithOp::Mul => x * y,
        ArithOp::Div => x / y,
        ArithOp::IDiv => (x / y).trunc(),
        ArithOp::Mod => {
            // XPath `mod`: result has the sign of the dividend.
            let r = x % y;
            if r.is_nan() {
                f64::NAN
            } else {
                r
            }
        }
    })
}

/// Applies a function to already-atomized arguments.
pub fn apply_func(f: Func, args: &[Value]) -> Result<Value, EvalError> {
    let s = |i: usize| args[i].to_str();
    let n = |i: usize| args[i].to_number();
    Ok(match f {
        Func::Contains => Value::Bool(s(0).contains(&s(1))),
        Func::StartsWith => Value::Bool(s(0).starts_with(&s(1))),
        Func::EndsWith => Value::Bool(s(0).ends_with(&s(1))),
        Func::Matches => {
            let re = Regex::new(&s(1)).map_err(|e| EvalError::BadPattern(e.to_string()))?;
            Value::Bool(re.is_match(&s(0)))
        }
        Func::StringLength => Value::Number(s(0).chars().count() as f64),
        Func::Concat => Value::Str(args.iter().map(Value::to_str).collect()),
        Func::Substring => {
            // 1-based `start`, optional `len`, per F&O (rounded).
            let text: Vec<char> = s(0).chars().collect();
            let start = n(1).round();
            let end = if args.len() == 3 {
                start + n(2).round()
            } else {
                f64::INFINITY
            };
            let mut out = String::new();
            for (i, c) in text.iter().enumerate() {
                let pos = (i + 1) as f64;
                if pos >= start && pos < end {
                    out.push(*c);
                }
            }
            Value::Str(out)
        }
        Func::Number => Value::Number(args[0].to_number()),
        Func::StringFn => Value::Str(args[0].to_str()),
        Func::Floor => Value::Number(n(0).floor()),
        Func::Ceiling => Value::Number(n(0).ceil()),
        Func::Round => Value::Number((n(0) + 0.5).floor()),
        Func::Abs => Value::Number(n(0).abs()),
        Func::UpperCase => Value::Str(s(0).to_uppercase()),
        Func::LowerCase => Value::Str(s(0).to_lowercase()),
        Func::NormalizeSpace => Value::Str(s(0).split_whitespace().collect::<Vec<_>>().join(" ")),
        Func::True => Value::Bool(true),
        Func::False => Value::Bool(false),
    })
}

/// Evaluates a *univariate* predicate expression with its single variable
/// bound to one string value, returning the EBV. This is exactly the
/// `evalPredicate` subroutine of the §8 algorithm: membership of
/// `STRVAL(x)` in `TRUTH(u)`.
///
/// The variable is bound as a *singleton sequence*, matching Def. 3.5
/// part 2 (a pointer leaf always evaluates to a sequence). This matters for
/// bare existence predicates like `[b]`: the EBV of the singleton sequence
/// is true even when the candidate's string value is empty.
pub fn eval_with_binding(expr: &Expr, var: QueryNodeId, value: &str) -> Result<bool, EvalError> {
    // One comparison of the variable against a constant — the shape of
    // nearly every value-restricted leaf (`price > 300`) — is decided on
    // the borrowed string: the existential rule over two singleton
    // sequences is the comparison itself. This runs once per leaf
    // candidacy on the streaming hot path, where the general evaluator's
    // sequences would cost three allocations a time.
    let check = |v: QueryNodeId| {
        debug_assert_eq!(
            v, var,
            "univariate predicate resolved an unexpected variable"
        )
    };
    if let Expr::Comp(op, a, b) = expr {
        match (&**a, &**b) {
            (Expr::Var(v), Expr::Const(c)) => {
                check(*v);
                return Ok(apply_comp_refs(*op, ValueRef::Str(value), c.into()));
            }
            (Expr::Const(c), Expr::Var(v)) => {
                check(*v);
                return Ok(apply_comp_refs(*op, c.into(), ValueRef::Str(value)));
            }
            _ => {}
        }
    }
    let mut resolve = |v: QueryNodeId| {
        check(v);
        EvalResult::Sequence(vec![Value::str(value)])
    };
    Ok(eval_expr(expr, &mut resolve)?.ebv())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value as V;

    fn var() -> QueryNodeId {
        QueryNodeId(1)
    }

    fn eval_bound(expr: &Expr, value: &str) -> bool {
        eval_with_binding(expr, var(), value).unwrap()
    }

    #[test]
    fn comparison_with_conversion() {
        let gt5 = Expr::comp(CompOp::Gt, Expr::Var(var()), Expr::Const(V::Number(5.0)));
        assert!(eval_bound(&gt5, "6"));
        assert!(!eval_bound(&gt5, "5"));
        assert!(!eval_bound(&gt5, "hello")); // NaN comparisons are false
    }

    #[test]
    fn string_equality() {
        let eq = Expr::comp(CompOp::Eq, Expr::Var(var()), Expr::Const(V::str("A")));
        assert!(eval_bound(&eq, "A"));
        assert!(!eval_bound(&eq, "B"));
    }

    #[test]
    fn paper_remark_example_existential_plus() {
        // Q = /a[b + 2 = 5], D = <a><b>0</b><b>3</b></a>.
        // Under the paper's semantics the predicate is true because the
        // existential rule applies to the whole comparison.
        let expr = Expr::comp(
            CompOp::Eq,
            Expr::Arith(
                ArithOp::Add,
                Box::new(Expr::Var(var())),
                Box::new(Expr::Const(V::Number(2.0))),
            ),
            Expr::Const(V::Number(5.0)),
        );
        let mut resolve = |_| EvalResult::Sequence(vec![V::str("0"), V::str("3")]);
        let out = eval_expr(&expr, &mut resolve).unwrap();
        assert_eq!(out, EvalResult::Atomic(V::Bool(true)));
    }

    #[test]
    fn arithmetic_product_is_lexicographic() {
        // (1,2) + (10,20) = (11,21,12,22) per Def. 3.5 part 5.
        let expr = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::Var(QueryNodeId(1))),
            Box::new(Expr::Var(QueryNodeId(2))),
        );
        let mut resolve = |v: QueryNodeId| {
            if v == QueryNodeId(1) {
                EvalResult::Sequence(vec![V::Number(1.0), V::Number(2.0)])
            } else {
                EvalResult::Sequence(vec![V::Number(10.0), V::Number(20.0)])
            }
        };
        let out = eval_expr(&expr, &mut resolve).unwrap();
        assert_eq!(
            out,
            EvalResult::Sequence(vec![
                V::Number(11.0),
                V::Number(21.0),
                V::Number(12.0),
                V::Number(22.0)
            ])
        );
    }

    #[test]
    fn logical_ops_use_ebv() {
        let t = Expr::Const(V::str("x"));
        let f = Expr::Const(V::str(""));
        assert!(eval_bound(&Expr::and(t.clone(), t.clone()), ""));
        assert!(!eval_bound(&Expr::and(t.clone(), f.clone()), ""));
        assert!(eval_bound(
            &Expr::Or(Box::new(f.clone()), Box::new(t.clone())),
            ""
        ));
        assert!(eval_bound(&Expr::Not(Box::new(f)), ""));
    }

    #[test]
    fn empty_sequence_comparison_is_false() {
        let expr = Expr::comp(CompOp::Eq, Expr::Var(var()), Expr::Const(V::Number(1.0)));
        let mut resolve = |_| EvalResult::Sequence(vec![]);
        assert_eq!(
            eval_expr(&expr, &mut resolve).unwrap(),
            EvalResult::Atomic(V::Bool(false))
        );
    }

    #[test]
    fn boolean_functions_existential() {
        let expr = Expr::Call(
            Func::StartsWith,
            vec![Expr::Var(var()), Expr::Const(V::str("ab"))],
        );
        let mut resolve = |_| EvalResult::Sequence(vec![V::str("xy"), V::str("abz")]);
        assert_eq!(
            eval_expr(&expr, &mut resolve).unwrap(),
            EvalResult::Atomic(V::Bool(true))
        );
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            apply_func(Func::Concat, &[V::str("a"), V::str("b"), V::str("c")]).unwrap(),
            V::str("abc")
        );
        assert_eq!(
            apply_func(Func::StringLength, &[V::str("héllo")]).unwrap(),
            V::Number(5.0)
        );
        assert_eq!(
            apply_func(
                Func::Substring,
                &[V::str("hello"), V::Number(2.0), V::Number(3.0)]
            )
            .unwrap(),
            V::str("ell")
        );
        assert_eq!(
            apply_func(Func::Substring, &[V::str("hello"), V::Number(3.0)]).unwrap(),
            V::str("llo")
        );
        assert_eq!(
            apply_func(Func::NormalizeSpace, &[V::str("  a  b ")]).unwrap(),
            V::str("a b")
        );
        assert_eq!(
            apply_func(Func::UpperCase, &[V::str("ab")]).unwrap(),
            V::str("AB")
        );
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(
            apply_func(Func::Floor, &[V::Number(2.7)]).unwrap(),
            V::Number(2.0)
        );
        assert_eq!(
            apply_func(Func::Ceiling, &[V::Number(2.1)]).unwrap(),
            V::Number(3.0)
        );
        assert_eq!(
            apply_func(Func::Round, &[V::Number(2.5)]).unwrap(),
            V::Number(3.0)
        );
        assert_eq!(
            apply_func(Func::Round, &[V::Number(-2.5)]).unwrap(),
            V::Number(-2.0)
        );
        assert_eq!(
            apply_func(Func::Abs, &[V::Number(-3.0)]).unwrap(),
            V::Number(3.0)
        );
    }

    #[test]
    fn arith_ops() {
        assert_eq!(
            apply_arith(ArithOp::Add, &V::str("2"), &V::Number(3.0)),
            V::Number(5.0)
        );
        assert_eq!(
            apply_arith(ArithOp::IDiv, &V::Number(7.0), &V::Number(2.0)),
            V::Number(3.0)
        );
        assert_eq!(
            apply_arith(ArithOp::Mod, &V::Number(7.0), &V::Number(2.0)),
            V::Number(1.0)
        );
        assert_eq!(
            apply_arith(ArithOp::Mod, &V::Number(-7.0), &V::Number(2.0)),
            V::Number(-1.0)
        );
        assert!(apply_arith(ArithOp::Div, &V::str("x"), &V::Number(2.0))
            .to_number()
            .is_nan());
    }

    #[test]
    fn matches_function() {
        let expr = Expr::Call(
            Func::Matches,
            vec![Expr::Var(var()), Expr::Const(V::str("^A.*B$"))],
        );
        assert!(eval_bound(&expr, "AxB"));
        assert!(!eval_bound(&expr, "AxC"));
        let bad = Expr::Call(
            Func::Matches,
            vec![Expr::Var(var()), Expr::Const(V::str("("))],
        );
        assert!(matches!(
            eval_with_binding(&bad, var(), "x"),
            Err(EvalError::BadPattern(_))
        ));
    }

    #[test]
    fn arity_errors() {
        let e = Expr::Call(Func::Contains, vec![Expr::Const(V::str("a"))]);
        assert!(matches!(
            eval_with_binding(&e, var(), ""),
            Err(EvalError::Arity { .. })
        ));
    }
}
