//! Catalog: table schemas, column definitions, and column references.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::StorageError;
use crate::value::{Value, ValueType};

/// A column definition within a table schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (lowercased by the parser; storage is case-preserving).
    pub name: String,
    /// Declared type.
    pub ty: ValueType,
    /// Whether `NULL` is permitted.
    pub nullable: bool,
}

impl ColumnDef {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, ty: ValueType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            nullable: true,
        }
    }

    /// Checks a value against this column's type and nullability.
    pub fn check(&self, table: &str, value: &Value) -> Result<(), StorageError> {
        match value.value_type() {
            None if self.nullable => Ok(()),
            None => Err(StorageError::NullViolation {
                table: table.to_owned(),
                column: self.name.clone(),
            }),
            Some(t) if self.ty.accepts(t) => Ok(()),
            Some(t) => Err(StorageError::TypeMismatch {
                table: table.to_owned(),
                column: self.name.clone(),
                expected: self.ty,
                found: t,
            }),
        }
    }
}

/// Schema of a single table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Builds a schema, rejecting duplicate column names.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Result<Self, StorageError> {
        let name = name.into();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(StorageError::DuplicateColumn {
                    table: name,
                    column: c.name.clone(),
                });
            }
        }
        Ok(TableSchema { name, columns })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == column)
    }

    /// Column definition by name.
    pub fn column(&self, column: &str) -> Option<&ColumnDef> {
        self.columns.iter().find(|c| c.name == column)
    }

    /// All column names, in declaration order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }

    /// Type-checks an entire row against the schema.
    pub fn check_row(&self, row: &[Value]) -> Result<(), StorageError> {
        if row.len() != self.columns.len() {
            return Err(StorageError::ArityMismatch {
                table: self.name.clone(),
                expected: self.columns.len(),
                found: row.len(),
            });
        }
        for (col, v) in self.columns.iter().zip(row) {
            col.check(&self.name, v)?;
        }
        Ok(())
    }
}

/// A fully qualified column reference `table.column`.
///
/// This is the currency of the paper's `Reads` definition and of the
/// update-operation set `(U, t.c)` (Section 3).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColRef {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// Builds a column reference.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColRef {
            table: table.into(),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// The database catalog: the set `T` of tables and `C` of columns from
/// Section 3 of the paper.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Catalog {
    tables: BTreeMap<String, TableSchema>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table schema, rejecting duplicates.
    pub fn add_table(&mut self, schema: TableSchema) -> Result<(), StorageError> {
        if self.tables.contains_key(&schema.name) {
            return Err(StorageError::DuplicateTable(schema.name));
        }
        self.tables.insert(schema.name.clone(), schema);
        Ok(())
    }

    /// Looks up a table schema.
    pub fn table(&self, name: &str) -> Result<&TableSchema, StorageError> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    /// Whether the catalog contains `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// All table schemas, ordered by name.
    pub fn tables(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp() -> TableSchema {
        TableSchema::new(
            "emp",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("name", ValueType::Str),
                ColumnDef::nullable("salary", ValueType::Float),
            ],
        )
        .unwrap()
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ValueType::Int),
                ColumnDef::new("a", ValueType::Int),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::DuplicateColumn { .. }));
    }

    #[test]
    fn column_lookup() {
        let s = emp();
        assert_eq!(s.column_index("salary"), Some(2));
        assert_eq!(s.column_index("nope"), None);
        assert_eq!(s.column("name").unwrap().ty, ValueType::Str);
    }

    #[test]
    fn check_row_arity_and_types() {
        let s = emp();
        assert!(s
            .check_row(&[Value::Int(1), Value::from("a"), Value::Float(9.0)])
            .is_ok());
        // Int widens into Float column.
        assert!(s
            .check_row(&[Value::Int(1), Value::from("a"), Value::Int(9)])
            .is_ok());
        // Nullable column accepts NULL.
        assert!(s
            .check_row(&[Value::Int(1), Value::from("a"), Value::Null])
            .is_ok());
        assert!(matches!(
            s.check_row(&[Value::Int(1), Value::from("a")]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.check_row(&[Value::Null, Value::from("a"), Value::Null]),
            Err(StorageError::NullViolation { .. })
        ));
        assert!(matches!(
            s.check_row(&[Value::from("x"), Value::from("a"), Value::Null]),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn catalog_add_and_lookup() {
        let mut c = Catalog::new();
        c.add_table(emp()).unwrap();
        assert!(c.contains("emp"));
        assert!(c.table("emp").is_ok());
        assert!(matches!(
            c.table("dept"),
            Err(StorageError::UnknownTable(_))
        ));
        assert!(matches!(
            c.add_table(emp()),
            Err(StorageError::DuplicateTable(_))
        ));
    }

    #[test]
    fn colref_display() {
        assert_eq!(ColRef::new("emp", "salary").to_string(), "emp.salary");
    }
}
