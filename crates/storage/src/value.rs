//! SQL values and value types.
//!
//! [`Value`] carries a **total** order (`Ord`) used for canonical
//! serialization, digesting, and `BTreeSet`-based result deduplication. SQL's
//! three-valued comparison semantics (where `NULL` compares as *unknown*) are
//! implemented separately in the SQL evaluator; this order is purely
//! structural: `Null < Bool < Int/Float (numeric order) < Str`.

use std::cmp::Ordering;
use std::fmt;

/// The type of a [`Value`] (excluding `NULL`, which inhabits every type).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValueType {
    /// Boolean (`TRUE` / `FALSE`).
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
}

impl ValueType {
    /// Keyword used in `CREATE TABLE` DDL for this type.
    pub fn keyword(self) -> &'static str {
        match self {
            ValueType::Bool => "BOOLEAN",
            ValueType::Int => "INTEGER",
            ValueType::Float => "FLOAT",
            ValueType::Str => "VARCHAR",
        }
    }

    /// Whether a value of type `from` is acceptable where `self` is expected.
    ///
    /// Integers are accepted in float columns (the only implicit widening the
    /// SQL subset performs).
    pub fn accepts(self, from: ValueType) -> bool {
        self == from || (self == ValueType::Float && from == ValueType::Int)
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A single SQL value.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL `NULL`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float. `NaN` is permitted and ordered via `f64::total_cmp`.
    Float(f64),
    /// String.
    Str(String),
}

impl Value {
    /// A string value from anything string-like.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// The value's type, or `None` for `NULL`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ValueType::Bool),
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Str(_) => Some(ValueType::Str),
        }
    }

    /// True iff this is `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, widening `Int` to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// SQL comparison: `None` when either side is `NULL` (*unknown*), or when
    /// the operands are of incomparable types.
    ///
    /// Numeric values compare across `Int`/`Float`.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y),
                _ => None,
            },
        }
    }

    /// Discriminant rank for the structural total order.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            // Mixed numerics order numerically, breaking exact ties by
            // putting Int first so Int(1) != Float(1.0) structurally.
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b).then(Ordering::Less),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)).then(Ordering::Greater),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    /// Renders as a SQL literal (strings quoted with `'`, quotes doubled).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(true) => f.write_str("TRUE"),
            Value::Bool(false) => f.write_str("FALSE"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_types() {
        assert_eq!(Value::Null.value_type(), None);
        assert_eq!(Value::Int(3).value_type(), Some(ValueType::Int));
        assert_eq!(Value::from("x").value_type(), Some(ValueType::Str));
        assert_eq!(Value::Bool(true).value_type(), Some(ValueType::Bool));
        assert_eq!(Value::Float(1.5).value_type(), Some(ValueType::Float));
    }

    #[test]
    fn accepts_widening() {
        assert!(ValueType::Float.accepts(ValueType::Int));
        assert!(!ValueType::Int.accepts(ValueType::Float));
        assert!(ValueType::Str.accepts(ValueType::Str));
        assert!(!ValueType::Bool.accepts(ValueType::Int));
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_numeric_cross_type() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn sql_cmp_incomparable_types() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::from("1")), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_ranks() {
        let mut vs = vec![
            Value::from("a"),
            Value::Int(0),
            Value::Null,
            Value::Bool(false),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Int(0),
                Value::from("a")
            ]
        );
    }

    #[test]
    fn total_order_distinguishes_int_and_float() {
        // Structurally distinct even though SQL-equal.
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.0)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn nan_is_ordered() {
        // total_cmp puts NaN above all other floats; order must be total.
        let a = Value::Float(f64::NAN);
        let b = Value::Float(1.0);
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn display_sql_literals() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "TRUE");
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::from("it's").to_string(), "'it''s'");
    }
}
