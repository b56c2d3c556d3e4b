//! Tuple identity and rows.

use std::fmt;

use crate::value::Value;

/// Stable identity of a tuple, unique within a [`crate::Database`].
///
/// Net-effect composition (\[WF90\]) is defined *per tuple*: "if a tuple is
/// updated several times, only the composite update is considered", etc.
/// That notion requires tuples to keep their identity across updates, which
/// `TupleId` provides. Ids are never reused, even after deletion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TupleId(pub u64);

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A row of values, positionally matching a table schema.
pub type Row = Vec<Value>;

/// A tuple: identity plus current values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tuple {
    /// Stable identity.
    pub id: TupleId,
    /// Current values, positionally matching the table schema.
    pub values: Row,
}

impl Tuple {
    /// Builds a tuple.
    pub fn new(id: TupleId, values: Row) -> Self {
        Tuple { id, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_id_display_and_order() {
        assert_eq!(TupleId(7).to_string(), "#7");
        assert!(TupleId(1) < TupleId(2));
    }

    #[test]
    fn tuple_construction() {
        let t = Tuple::new(TupleId(1), vec![Value::Int(5)]);
        assert_eq!(t.id, TupleId(1));
        assert_eq!(t.values, vec![Value::Int(5)]);
    }
}
