//! The atomic value model `V` of §3.1.1 and the Effective Boolean Value
//! function of §3.1.3.

use std::cmp::Ordering;
use std::fmt;

/// An atomic XPath value: number, string, or boolean.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A double-precision number (XPath's `xs:double`).
    Number(f64),
    /// A string from `S`.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Constructs a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Casts to a number (`fn:number` semantics): booleans map to 0/1,
    /// non-numeric strings to NaN.
    pub fn to_number(&self) -> f64 {
        match self {
            Value::Number(n) => *n,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Str(s) => parse_number(s),
        }
    }

    /// Casts to a string (`fn:string` semantics).
    pub fn to_str(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Number(n) => format_number(*n),
            Value::Bool(b) => b.to_string(),
        }
    }

    /// The Effective Boolean Value of a *single* value: booleans are
    /// themselves, numbers are true iff non-zero and non-NaN, strings are
    /// true iff non-empty.
    pub fn ebv(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_str())
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Number(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// Parses a string as an XPath number; whitespace-trimmed, NaN on failure.
pub fn parse_number(s: &str) -> f64 {
    s.trim().parse::<f64>().unwrap_or(f64::NAN)
}

/// Formats a number the XPath way: integers without a trailing `.0`.
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".to_string()
        } else {
            "-Infinity".to_string()
        }
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// The result of evaluating a predicate-tree node (Def. 3.5): either an
/// atomic value or a sequence of atomic values.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalResult {
    /// A single atomic value.
    Atomic(Value),
    /// A (possibly empty) sequence of atomic values.
    Sequence(Vec<Value>),
}

impl EvalResult {
    /// The Effective Boolean Value (§3.1.3): a sequence is true iff
    /// non-empty; an atomic value uses [`Value::ebv`].
    pub fn ebv(&self) -> bool {
        match self {
            EvalResult::Atomic(v) => v.ebv(),
            EvalResult::Sequence(s) => !s.is_empty(),
        }
    }

    /// Flattens to the sequence `P_i` used in Def. 3.5 parts 4–5: an atomic
    /// value becomes a singleton sequence.
    pub fn into_sequence(self) -> Vec<Value> {
        match self {
            EvalResult::Atomic(v) => vec![v],
            EvalResult::Sequence(s) => s,
        }
    }

    /// Borrowing variant of [`EvalResult::into_sequence`].
    pub fn as_sequence(&self) -> Vec<Value> {
        self.clone().into_sequence()
    }
}

impl From<Value> for EvalResult {
    fn from(v: Value) -> Self {
        EvalResult::Atomic(v)
    }
}

/// A borrowed view of an atomic value, so the comparison rules have one
/// implementation for owned [`Value`]s and for a string value the
/// streaming filter holds in its buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueRef<'a> {
    Number(f64),
    Str(&'a str),
    Bool(bool),
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Number(n) => ValueRef::Number(*n),
            Value::Str(s) => ValueRef::Str(s),
            Value::Bool(b) => ValueRef::Bool(*b),
        }
    }
}

impl ValueRef<'_> {
    /// [`Value::to_number`].
    fn to_number(self) -> f64 {
        match self {
            ValueRef::Number(n) => n,
            ValueRef::Bool(b) => f64::from(u8::from(b)),
            ValueRef::Str(s) => parse_number(s),
        }
    }

    /// [`Value::to_str`] of a string or boolean, borrowed.
    /// [`compare_refs`] compares numerically whenever a number is
    /// involved, so it never asks for a number's spelling.
    fn as_str(&self) -> &str {
        match self {
            ValueRef::Str(s) => s,
            ValueRef::Bool(true) => "true",
            ValueRef::Bool(false) => "false",
            ValueRef::Number(_) => unreachable!("numbers compare numerically"),
        }
    }
}

/// Numeric-aware comparison used by the comparison operators: both operands
/// are compared as numbers when the operator is an ordering operator, or
/// when both parse as numbers; otherwise as strings. Returns `None` when a
/// numeric comparison involves NaN.
pub fn compare_values(a: &Value, b: &Value, force_numeric: bool) -> Option<Ordering> {
    compare_refs(a.into(), b.into(), force_numeric)
}

/// [`compare_values`] on borrowed views; allocates nothing.
pub(crate) fn compare_refs(
    a: ValueRef<'_>,
    b: ValueRef<'_>,
    force_numeric: bool,
) -> Option<Ordering> {
    let both_numeric = force_numeric
        || matches!((a, b), (ValueRef::Number(_), _) | (_, ValueRef::Number(_)))
        || (!a.to_number().is_nan() && !b.to_number().is_nan());
    if both_numeric {
        a.to_number().partial_cmp(&b.to_number())
    } else {
        Some(a.as_str().cmp(b.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_casts() {
        assert_eq!(Value::str("42").to_number(), 42.0);
        assert_eq!(Value::str(" 3.5 ").to_number(), 3.5);
        assert!(Value::str("abc").to_number().is_nan());
        assert_eq!(Value::Bool(true).to_number(), 1.0);
    }

    #[test]
    fn string_casts() {
        assert_eq!(Value::Number(6.0).to_str(), "6");
        assert_eq!(Value::Number(2.5).to_str(), "2.5");
        assert_eq!(Value::Bool(false).to_str(), "false");
    }

    #[test]
    fn ebv_rules() {
        assert!(Value::Bool(true).ebv());
        assert!(!Value::Number(0.0).ebv());
        assert!(!Value::Number(f64::NAN).ebv());
        assert!(Value::Number(-1.0).ebv());
        assert!(!Value::str("").ebv());
        assert!(Value::str("x").ebv());
    }

    #[test]
    fn sequence_ebv_is_nonemptiness() {
        // "When the operand of EBV is a sequence, it returns true if the
        // sequence is not empty" (§3.1.3) — even for a singleton false-y
        // value.
        assert!(!EvalResult::Sequence(vec![]).ebv());
        assert!(EvalResult::Sequence(vec![Value::str("")]).ebv());
        assert!(EvalResult::Sequence(vec![Value::Number(0.0)]).ebv());
    }

    #[test]
    fn comparisons_prefer_numeric() {
        use Ordering::*;
        assert_eq!(
            compare_values(&Value::str("10"), &Value::str("9"), false),
            Some(Greater)
        );
        assert_eq!(
            compare_values(&Value::str("abc"), &Value::str("abd"), false),
            Some(Less)
        );
        assert_eq!(
            compare_values(&Value::Number(5.0), &Value::str("5"), false),
            Some(Equal)
        );
        assert_eq!(
            compare_values(&Value::str("abc"), &Value::str("1"), true),
            None
        );
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(6.0), "6");
        assert_eq!(format_number(-3.0), "-3");
        assert_eq!(format_number(0.5), "0.5");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
    }
}
