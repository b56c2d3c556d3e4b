//! The database: catalog plus table contents plus tuple-id allocation.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::digest::{CanonicalDigest, Fnv64};
use crate::error::StorageError;
use crate::fault::{FaultOpKind, FaultPlan, FaultState};
use crate::schema::{Catalog, TableSchema};
use crate::table::Table;
use crate::tuple::{Row, TupleId};
use crate::value::Value;

/// A complete database state: the `D` component of an execution-graph state
/// `S = (D, TR)` (paper Section 4).
///
/// `Database` is `Clone`; the execution-graph explorer snapshots states
/// freely, and `ROLLBACK` restores the assertion-point snapshot.
///
/// An optional [`FaultPlan`] can be installed for robustness testing; its
/// state is shared across clones (a snapshot and the live database count
/// operations against the same plan) and is excluded from equality and
/// digests.
///
/// # Copy-on-write snapshots
///
/// Both the catalog and the table map live behind `Arc`s, and each
/// [`Table`] shares its chunked row storage the same way, so `clone()` is a
/// few refcount bumps regardless of database size. The first mutation
/// through a shared handle re-shares: it clones the table *map* (cheap —
/// each entry is itself a shared handle), then the touched table's vector
/// of chunk pointers, then the one chunk the write lands in. Observable
/// behavior is identical to a deep clone (property-tested).
#[derive(Clone, Debug)]
pub struct Database {
    catalog: Arc<Catalog>,
    tables: Arc<BTreeMap<String, Table>>,
    next_tuple_id: u64,
    fault: Option<Arc<FaultState>>,
}

impl Eq for Database {}

impl PartialEq for Database {
    /// Equality over contents only: an installed fault plan is test
    /// scaffolding, not database state.
    fn eq(&self, other: &Self) -> bool {
        self.catalog == other.catalog
            && self.tables == other.tables
            && self.next_tuple_id == other.next_tuple_id
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database {
            catalog: Arc::new(Catalog::new()),
            tables: Arc::new(BTreeMap::new()),
            next_tuple_id: 1,
            fault: None,
        }
    }

    /// Installs a fault plan with fresh counters. All subsequent clones
    /// (snapshots) share the plan's state; see [`crate::fault`].
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultState::new(plan));
    }

    /// Re-attaches an existing (possibly shared) fault state to this
    /// handle — used when a handle is replaced wholesale (e.g. restoring a
    /// durable base) but must keep observing the same plan and counters.
    pub fn set_fault_state(&mut self, state: Option<Arc<FaultState>>) {
        self.fault = state;
    }

    /// The installed fault injector state, if any.
    pub fn fault_state(&self) -> Option<&Arc<FaultState>> {
        self.fault.as_ref()
    }

    /// Consults the fault plan before a mutating operation.
    fn check_fault(&self, op: FaultOpKind, table: &str) -> Result<(), StorageError> {
        if let Some(state) = &self.fault {
            if let Some(op_index) = state.observe(op, table) {
                return Err(StorageError::Injected {
                    op_index,
                    op,
                    table: table.to_owned(),
                });
            }
        }
        Ok(())
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The catalog as a shared handle: a rule body validated against it
    /// memoizes its signature under this handle, which the next rule-set
    /// compile adopts.
    pub fn shared_catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Creates a table from a schema.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), StorageError> {
        Arc::make_mut(&mut self.catalog).add_table(schema.clone())?;
        Arc::make_mut(&mut self.tables).insert(schema.name.clone(), Table::new(schema));
        Ok(())
    }

    /// A table by name.
    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, StorageError> {
        // Unshares only the *map of handles*; each untouched table keeps
        // sharing its row storage with every snapshot.
        Arc::make_mut(&mut self.tables)
            .get_mut(name)
            .ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    }

    /// All tables, ordered by name.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Whether this handle still shares its table map with `other`
    /// (diagnostic; used by the CoW tests).
    pub fn shares_tables_with(&self, other: &Database) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }

    /// The id the allocator will hand out next. Part of full-state equality
    /// (`PartialEq`), so the durability layer persists and restores it.
    pub fn next_tuple_id(&self) -> u64 {
        self.next_tuple_id
    }

    /// Forces the allocator position. Recovery only: replaying a logged
    /// commit delta must reproduce the exact allocator state, not just the
    /// lower bound [`Database::insert_with_id`] maintains.
    pub fn set_next_tuple_id(&mut self, next: u64) {
        self.next_tuple_id = next;
    }

    /// Allocates a fresh tuple id. Ids are global across tables and never
    /// reused.
    pub fn allocate_tuple_id(&mut self) -> TupleId {
        let id = TupleId(self.next_tuple_id);
        self.next_tuple_id += 1;
        id
    }

    /// Inserts a row, allocating a fresh tuple id. Returns the id.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<TupleId, StorageError> {
        self.check_fault(FaultOpKind::Insert, table)?;
        // Check before allocating so a failed insert does not burn an id
        // (keeps digests of equivalent states identical) — once: the
        // table-level insert below does not walk the row again.
        self.table(table)?.schema().check_row(&row)?;
        let id = self.allocate_tuple_id();
        self.table_mut(table)?.insert_checked(id, row)?;
        Ok(id)
    }

    /// Inserts a row under a specific id (used when replaying logged
    /// operations onto a snapshot).
    pub fn insert_with_id(
        &mut self,
        table: &str,
        id: TupleId,
        row: Row,
    ) -> Result<(), StorageError> {
        self.check_fault(FaultOpKind::Insert, table)?;
        self.table_mut(table)?.insert(id, row)?;
        self.next_tuple_id = self.next_tuple_id.max(id.0 + 1);
        Ok(())
    }

    /// Deletes a tuple, returning its final values.
    pub fn delete(&mut self, table: &str, id: TupleId) -> Result<Row, StorageError> {
        self.check_fault(FaultOpKind::Delete, table)?;
        self.table_mut(table)?.delete(id)
    }

    /// Replaces a tuple's values, returning the old values.
    pub fn update(&mut self, table: &str, id: TupleId, row: Row) -> Result<Row, StorageError> {
        self.check_fault(FaultOpKind::Update, table)?;
        self.table_mut(table)?.update(id, row)
    }

    /// Updates a single column, returning the previous full row.
    pub fn update_column(
        &mut self,
        table: &str,
        id: TupleId,
        column: &str,
        value: Value,
    ) -> Result<Row, StorageError> {
        self.check_fault(FaultOpKind::Update, table)?;
        self.table_mut(table)?.update_column(id, column, value)
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }

    /// Canonical digest of the entire database state.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.digest_into(&mut h);
        h.finish()
    }

    /// Canonical digest of a subset of tables (used for partial-confluence
    /// checks: "the tables in T' are identical in D1 and D2", Section 7).
    ///
    /// Unknown names are ignored; the subset is digested in sorted order so
    /// the caller's ordering does not matter.
    pub fn digest_of_tables(&self, names: &[&str]) -> u64 {
        let mut sorted: Vec<&str> = names.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut h = Fnv64::new();
        for name in sorted {
            if let Some(t) = self.tables.get(name) {
                t.digest_into(&mut h);
            }
        }
        h.finish()
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl CanonicalDigest for Database {
    fn digest_into(&self, h: &mut Fnv64) {
        h.write_usize(self.tables.len());
        for t in self.tables.values() {
            t.digest_into(h);
        }
        // next_tuple_id intentionally excluded: two states with identical
        // contents are the same state even if they allocated ids differently.
    }
}

impl fmt::Display for Database {
    /// Debug-friendly dump: one line per tuple, tables in name order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in self.tables.values() {
            writeln!(f, "{} ({} rows)", t.name(), t.len())?;
            for (id, row) in t.iter() {
                let vals: Vec<String> = row.iter().map(Value::to_string).collect();
                writeln!(f, "  {id}: [{}]", vals.join(", "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;

    fn db() -> Database {
        let mut d = Database::new();
        d.create_table(
            TableSchema::new(
                "emp",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("salary", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        d
    }

    #[test]
    fn insert_allocates_monotonic_ids() {
        let mut d = db();
        let a = d
            .insert("emp", vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        let b = d
            .insert("emp", vec![Value::Int(2), Value::Int(200)])
            .unwrap();
        assert!(b > a);
        assert_eq!(d.table("emp").unwrap().len(), 2);
    }

    #[test]
    fn failed_insert_does_not_burn_id() {
        let mut d = db();
        let before = d.clone();
        assert!(d.insert("emp", vec![Value::Int(1)]).is_err());
        assert_eq!(d.state_digest(), before.state_digest());
        // Next successful insert in both copies yields identical states.
        let mut d2 = before;
        d.insert("emp", vec![Value::Int(1), Value::Int(1)]).unwrap();
        d2.insert("emp", vec![Value::Int(1), Value::Int(1)])
            .unwrap();
        assert_eq!(d.state_digest(), d2.state_digest());
    }

    #[test]
    fn snapshot_and_restore() {
        let mut d = db();
        d.insert("emp", vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        let snap = d.clone();
        d.insert("emp", vec![Value::Int(2), Value::Int(200)])
            .unwrap();
        assert_ne!(d.state_digest(), snap.state_digest());
        let d = snap; // rollback
        assert_eq!(d.table("emp").unwrap().len(), 1);
    }

    #[test]
    fn update_and_delete_through_db() {
        let mut d = db();
        let id = d
            .insert("emp", vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        d.update_column("emp", id, "salary", Value::Int(150))
            .unwrap();
        assert_eq!(d.table("emp").unwrap().get(id).unwrap()[1], Value::Int(150));
        let old = d.delete("emp", id).unwrap();
        assert_eq!(old[1], Value::Int(150));
    }

    #[test]
    fn digest_ignores_id_counter() {
        let mut d1 = db();
        let mut d2 = db();
        // Burn an id in d2 via insert+delete of the same content later
        // replayed with explicit ids — contents equal, digests equal.
        let id = d2
            .insert("emp", vec![Value::Int(9), Value::Int(9)])
            .unwrap();
        d2.delete("emp", id).unwrap();
        assert_eq!(d1.state_digest(), d2.state_digest());
        d1.insert_with_id("emp", TupleId(50), vec![Value::Int(1), Value::Int(1)])
            .unwrap();
        d2.insert_with_id("emp", TupleId(50), vec![Value::Int(1), Value::Int(1)])
            .unwrap();
        assert_eq!(d1.state_digest(), d2.state_digest());
    }

    #[test]
    fn insert_with_id_advances_allocator() {
        let mut d = db();
        d.insert_with_id("emp", TupleId(10), vec![Value::Int(1), Value::Int(1)])
            .unwrap();
        let next = d.insert("emp", vec![Value::Int(2), Value::Int(2)]).unwrap();
        assert!(next.0 > 10);
    }

    #[test]
    fn unknown_table_errors() {
        let mut d = db();
        assert!(matches!(
            d.insert("nope", vec![]),
            Err(StorageError::UnknownTable(_))
        ));
        assert!(matches!(
            d.table("nope"),
            Err(StorageError::UnknownTable(_))
        ));
    }

    #[test]
    fn digest_of_tables_isolates_subsets() {
        let mut d1 = db();
        d1.create_table(
            TableSchema::new("log", vec![ColumnDef::new("m", ValueType::Int)]).unwrap(),
        )
        .unwrap();
        let mut d2 = d1.clone();
        d1.insert("log", vec![Value::Int(1)]).unwrap();
        // Full digests differ; the `emp`-only digests agree.
        assert_ne!(d1.state_digest(), d2.state_digest());
        assert_eq!(d1.digest_of_tables(&["emp"]), d2.digest_of_tables(&["emp"]));
        assert_ne!(d1.digest_of_tables(&["log"]), d2.digest_of_tables(&["log"]));
        // Order and duplicates in the name list are irrelevant.
        assert_eq!(
            d1.digest_of_tables(&["log", "emp"]),
            d1.digest_of_tables(&["emp", "log", "emp"])
        );
        // Unknown names are ignored.
        assert_eq!(
            d1.digest_of_tables(&["emp", "nope"]),
            d1.digest_of_tables(&["emp"])
        );
        // And a divergent emp shows through the subset digest.
        d2.insert("emp", vec![Value::Int(9), Value::Int(9)])
            .unwrap();
        assert_ne!(d1.digest_of_tables(&["emp"]), d2.digest_of_tables(&["emp"]));
    }

    #[test]
    fn fault_plan_kills_nth_matching_op() {
        use crate::fault::{FaultOpKind, FaultPlan, FaultSpec};
        let mut d = db();
        d.install_fault_plan(FaultPlan::single(
            FaultSpec::nth(1)
                .on_table("emp")
                .on_kind(FaultOpKind::Insert),
        ));
        d.insert("emp", vec![Value::Int(1), Value::Int(1)]).unwrap();
        let err = d
            .insert("emp", vec![Value::Int(2), Value::Int(2)])
            .unwrap_err();
        assert!(err.is_injected());
        assert!(matches!(
            err,
            StorageError::Injected {
                op_index: 1,
                op: FaultOpKind::Insert,
                ..
            }
        ));
        // Injected failure leaves contents untouched and the fault is
        // one-shot: the retry succeeds.
        assert_eq!(d.table("emp").unwrap().len(), 1);
        d.insert("emp", vec![Value::Int(2), Value::Int(2)]).unwrap();
    }

    #[test]
    fn fault_state_is_shared_with_snapshots() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut d = db();
        d.install_fault_plan(FaultPlan::single(FaultSpec::nth(1)));
        let mut snap = d.clone();
        // Op #0 on the live db passes; op #1 — issued on the *snapshot* —
        // trips the shared counter.
        d.insert("emp", vec![Value::Int(1), Value::Int(1)]).unwrap();
        assert!(snap
            .insert("emp", vec![Value::Int(1), Value::Int(1)])
            .unwrap_err()
            .is_injected());
        assert_eq!(d.fault_state().unwrap().ops_observed(), 2);
    }

    #[test]
    fn fault_plan_invisible_to_equality_and_digest() {
        use crate::fault::{FaultPlan, FaultSpec};
        let d1 = db();
        let mut d2 = db();
        d2.install_fault_plan(FaultPlan::single(FaultSpec::nth(99)));
        assert_eq!(d1, d2);
        assert_eq!(d1.state_digest(), d2.state_digest());
        d2.set_fault_state(None);
        assert!(d2.fault_state().is_none());
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut d = db();
        d.create_table(TableSchema::new("log", vec![ColumnDef::new("m", ValueType::Int)]).unwrap())
            .unwrap();
        d.insert("emp", vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        let snap = d.clone();
        assert!(d.shares_tables_with(&snap));
        // Mutating `log` unshares the map of handles but leaves `emp`'s row
        // storage shared between the live database and the snapshot.
        d.insert("log", vec![Value::Int(7)]).unwrap();
        assert!(!d.shares_tables_with(&snap));
        assert!(d
            .table("emp")
            .unwrap()
            .shares_storage_with(snap.table("emp").unwrap()));
        assert!(!d
            .table("log")
            .unwrap()
            .shares_storage_with(snap.table("log").unwrap()));
        // The snapshot is untouched by the divergent mutation.
        assert_eq!(snap.table("log").unwrap().len(), 0);
        assert_eq!(d.table("log").unwrap().len(), 1);
    }

    #[test]
    fn display_dump() {
        let mut d = db();
        d.insert("emp", vec![Value::Int(1), Value::Int(100)])
            .unwrap();
        let s = d.to_string();
        assert!(s.contains("emp (1 rows)"));
        assert!(s.contains("#1: [1, 100]"));
    }
}
