//! The operation alphabet `O` of paper Section 3.
//!
//! `O = {(I,t) | t ∈ T} ∪ {(D,t) | t ∈ T} ∪ {(U,t.c) | t.c ∈ C}` — the
//! vocabulary shared by `Triggered-By`, `Performs`, `Can-Untrigger`, and the
//! triggering relation. It names *kinds* of modifications, not concrete
//! tuple-level changes (those live in the engine's operation log).

use std::fmt;

use crate::schema::{Catalog, ColRef};

/// One element of the operation set `O`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// `(I, t)` — insertion into table `t`.
    Insert(String),
    /// `(D, t)` — deletion from table `t`.
    Delete(String),
    /// `(U, t.c)` — update of column `c` of table `t`.
    Update(ColRef),
}

impl Op {
    /// `(U, t.c)` from table and column names.
    pub fn update(table: impl Into<String>, column: impl Into<String>) -> Self {
        Op::Update(ColRef::new(table, column))
    }

    /// The table this operation touches.
    pub fn table(&self) -> &str {
        match self {
            Op::Insert(t) | Op::Delete(t) => t,
            Op::Update(c) => &c.table,
        }
    }

    /// Whether this is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, Op::Insert(_))
    }

    /// Whether this is a deletion.
    pub fn is_delete(&self) -> bool {
        matches!(self, Op::Delete(_))
    }

    /// Enumerates the full alphabet `O` for a catalog: every `(I,t)`,
    /// `(D,t)`, and `(U,t.c)`.
    pub fn alphabet(catalog: &Catalog) -> Vec<Op> {
        let mut out = Vec::new();
        for t in catalog.tables() {
            out.push(Op::Insert(t.name.clone()));
            out.push(Op::Delete(t.name.clone()));
            for c in &t.columns {
                out.push(Op::update(t.name.clone(), c.name.clone()));
            }
        }
        out
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Insert(t) => write!(f, "(I, {t})"),
            Op::Delete(t) => write!(f, "(D, {t})"),
            Op::Update(c) => write!(f, "(U, {c})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::ValueType;

    #[test]
    fn table_accessor() {
        assert_eq!(Op::Insert("t".into()).table(), "t");
        assert_eq!(Op::Delete("t".into()).table(), "t");
        assert_eq!(Op::update("t", "c").table(), "t");
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Op::Insert("emp".into()).to_string(), "(I, emp)");
        assert_eq!(Op::Delete("emp".into()).to_string(), "(D, emp)");
        assert_eq!(Op::update("emp", "sal").to_string(), "(U, emp.sal)");
    }

    #[test]
    fn alphabet_size() {
        let mut cat = Catalog::new();
        cat.add_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a", ValueType::Int),
                    ColumnDef::new("b", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        // (I,t), (D,t), (U,t.a), (U,t.b)
        assert_eq!(Op::alphabet(&cat).len(), 4);
    }
}
