//! Tuple-level operations and the net-effect algebra of \[WF90\].
//!
//! A *transition* is a database state change resulting from a sequence of
//! operations; rules consider only its **net effect** (paper Section 2):
//!
//! 1. update ∘ update  → the composite update;
//! 2. update ∘ delete  → deletion of the *original* tuple;
//! 3. insert ∘ update  → insertion of the *updated* tuple;
//! 4. insert ∘ delete  → nothing at all.
//!
//! [`NetEffect`] maintains this composition incrementally: absorbing each
//! [`TupleOp`] in chronological order yields exactly the net effect of the
//! whole sequence (associativity is property-tested).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use starling_sql::eval::TransitionBinding;
use starling_storage::digest::mix64;
use starling_storage::{CanonicalDigest, Fnv64, Op, Row, TupleId};

/// The operation log's entry type is the SQL executor's: an executed
/// statement's effects are absorbed as they are.
pub use starling_sql::eval::TupleOp;

/// The net change to a single tuple over a transition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetChange {
    /// The tuple was (net) inserted with these values.
    Inserted(Row),
    /// The tuple was (net) deleted; values are those at the transition
    /// start (rule 2: update-then-delete nets to deleting the original).
    Deleted(Row),
    /// The tuple was (net) updated.
    Updated {
        /// Values at the transition start.
        old: Row,
        /// Current values.
        new: Row,
        /// Union of all assigned columns across the composed updates.
        cols: BTreeSet<String>,
    },
}

/// A value with its digest cached beside it. The cache is computed on first
/// use and cleared by the only path to a `&mut` of the value; it is not part
/// of the value, so a clone (made to be changed) starts without one and
/// equality ignores it.
#[derive(Debug, Default)]
pub(crate) struct Digested<T> {
    value: T,
    digest: OnceLock<u64>,
}

impl<T> Digested<T> {
    pub(crate) fn get_mut(&mut self) -> &mut T {
        self.digest.take();
        &mut self.value
    }

    /// The cached digest, or `compute`'s result, which is then cached.
    pub(crate) fn digest(&self, compute: impl FnOnce(&T) -> u64) -> u64 {
        *self.digest.get_or_init(|| compute(&self.value))
    }
}

impl<T> std::ops::Deref for Digested<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Clone> Clone for Digested<T> {
    fn clone(&self) -> Self {
        Digested {
            value: self.value.clone(),
            digest: OnceLock::new(),
        }
    }
}

impl<T: PartialEq> PartialEq for Digested<T> {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
    }
}

// `Eq` also gives `Arc<Digested<T>>` its pointer-equality shortcut.
impl<T: Eq> Eq for Digested<T> {}

/// One table's share of a net effect: shared between the net effects that
/// agree on it, and hashed once (with the table's name — every net effect
/// sharing these changes files them under the same one).
type TableChanges = Digested<BTreeMap<TupleId, NetChange>>;

fn table_digest(table: &str, rows: &BTreeMap<TupleId, NetChange>) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(table);
    h.write_usize(rows.len());
    for (id, change) in rows {
        h.write_u64(id.0);
        match change {
            NetChange::Inserted(row) => {
                h.write(&[1]);
                row.digest_into(&mut h);
            }
            NetChange::Deleted(row) => {
                h.write(&[2]);
                row.digest_into(&mut h);
            }
            NetChange::Updated { old, new, cols } => {
                h.write(&[3]);
                old.digest_into(&mut h);
                new.digest_into(&mut h);
                h.write_usize(cols.len());
                for c in cols {
                    h.write_str(c);
                }
            }
        }
    }
    h.finish()
}

/// Composes `change` — a later operation on tuple `id`, or the net effect
/// of several — onto the tuple's net change so far.
fn compose(rows: &mut BTreeMap<TupleId, NetChange>, id: TupleId, change: NetChange) {
    let mut cur = match rows.entry(id) {
        Entry::Vacant(v) => {
            v.insert(change);
            return;
        }
        Entry::Occupied(o) => o,
    };
    match (cur.get_mut(), change) {
        // Tuple ids are never reused, so an insert always creates a fresh
        // entry.
        (_, change @ NetChange::Inserted(_)) => {
            debug_assert!(false, "tuple id {id} reused within a transition");
            cur.insert(change);
        }
        // Rule 3: insert then update = insert of updated tuple.
        (NetChange::Inserted(row), NetChange::Updated { new, .. }) => *row = new,
        // Rule 1: update then update = composite update.
        (
            NetChange::Updated {
                new: cur_new,
                cols: cur_cols,
                ..
            },
            NetChange::Updated { new, cols, .. },
        ) => {
            *cur_new = new;
            cur_cols.extend(cols);
        }
        (NetChange::Deleted(_), NetChange::Updated { .. }) => {
            debug_assert!(false, "update of deleted tuple {id}")
        }
        // Rule 4: insert then delete = nothing at all.
        (NetChange::Inserted(_), NetChange::Deleted(_)) => {
            cur.remove();
        }
        // Rule 2: update then delete = delete the original.
        (NetChange::Updated { old, .. }, NetChange::Deleted(_)) => {
            let orig = std::mem::take(old);
            cur.insert(NetChange::Deleted(orig));
        }
        (NetChange::Deleted(_), change @ NetChange::Deleted(_)) => {
            debug_assert!(false, "double delete of tuple {id}");
            cur.insert(change);
        }
    }
}

/// The net effect of a transition: per table, per tuple, the composed
/// change. This is the `TR`-side payload of an execution-graph state and the
/// source of transition-table contents.
///
/// Structurally shared: a clone is one map of refcounted handles, and a
/// write unshares only the table it touches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetEffect {
    /// No table maps to an empty set of changes, so equal net effects are
    /// equal maps.
    changes: BTreeMap<Arc<str>, Arc<TableChanges>>,
}

impl NetEffect {
    /// The empty transition.
    pub const fn new() -> Self {
        NetEffect {
            changes: BTreeMap::new(),
        }
    }

    /// Net effect of a whole operation sequence.
    pub fn from_ops<'a>(ops: impl IntoIterator<Item = &'a TupleOp>) -> Self {
        let mut n = NetEffect::new();
        for op in ops {
            n.absorb(op);
        }
        n
    }

    /// Whether the transition has no net changes.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Total number of net tuple changes.
    pub fn len(&self) -> usize {
        self.changes.values().map(|t| t.len()).sum()
    }

    /// Composes one more operation into the net effect.
    pub fn absorb(&mut self, op: &TupleOp) {
        let change = match op {
            TupleOp::Insert { row, .. } => NetChange::Inserted(row.clone()),
            TupleOp::Delete { old, .. } => NetChange::Deleted(old.clone()),
            TupleOp::Update { old, new, cols, .. } => NetChange::Updated {
                old: old.clone(),
                new: new.clone(),
                cols: cols.iter().cloned().collect(),
            },
        };
        let table = op.table();
        match self.changes.get_mut(table) {
            Some(mine) => {
                let rows = Arc::make_mut(mine).get_mut();
                compose(rows, op.tuple_id(), change);
                if rows.is_empty() {
                    self.changes.remove(table);
                }
            }
            None => {
                let mut first = TableChanges::default();
                first.get_mut().insert(op.tuple_id(), change);
                self.changes.insert(table.into(), Arc::new(first));
            }
        }
    }

    /// Composes a sequence of operations.
    pub fn absorb_all<'a>(&mut self, ops: impl IntoIterator<Item = &'a TupleOp>) {
        for op in ops {
            self.absorb(op);
        }
    }

    /// Composes a later transition's net effect onto this one: what
    /// absorbing that transition's operations one by one would leave. A
    /// table this one has not touched takes `later`'s changes by reference.
    pub(crate) fn compose(&mut self, later: &NetEffect) {
        for (table, theirs) in &later.changes {
            match self.changes.get_mut(table) {
                Some(mine) => {
                    let rows = Arc::make_mut(mine).get_mut();
                    for (id, change) in theirs.iter() {
                        compose(rows, *id, change.clone());
                    }
                    if rows.is_empty() {
                        self.changes.remove(table);
                    }
                }
                None => {
                    self.changes.insert(table.clone(), theirs.clone());
                }
            }
        }
    }

    /// Whether the net effect contains an occurrence of the abstract
    /// operation `op` — the triggering test.
    pub fn contains_op(&self, op: &Op) -> bool {
        let Some(per_table) = self.changes.get(op.table()) else {
            return false;
        };
        per_table.values().any(|c| match (op, c) {
            (Op::Insert(_), NetChange::Inserted(_)) => true,
            (Op::Delete(_), NetChange::Deleted(_)) => true,
            (Op::Update(colref), NetChange::Updated { cols, .. }) => cols.contains(&colref.column),
            _ => false,
        })
    }

    /// Whether any operation in `triggered_by` occurs in the net effect
    /// (i.e., whether a rule with that transition predicate is triggered).
    pub fn triggers(&self, triggered_by: &BTreeSet<Op>) -> bool {
        triggered_by.iter().any(|op| self.contains_op(op))
    }

    /// Builds the four transition tables for a rule on `table` (paper
    /// Section 2), in deterministic tuple-id order.
    pub fn transition_binding(&self, table: &str) -> TransitionBinding {
        let mut b = TransitionBinding::empty(table);
        if let Some(per_table) = self.changes.get(table) {
            for c in per_table.values() {
                match c {
                    NetChange::Inserted(row) => b.inserted.push(row.clone()),
                    NetChange::Deleted(row) => b.deleted.push(row.clone()),
                    NetChange::Updated { old, new, .. } => {
                        b.old_updated.push(old.clone());
                        b.new_updated.push(new.clone());
                    }
                }
            }
        }
        b
    }

    /// Iterates `(table, tuple id, net change)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, TupleId, &NetChange)> {
        self.changes
            .iter()
            .flat_map(|(t, m)| m.iter().map(move |(id, c)| (&**t, *id, c)))
    }
}

impl CanonicalDigest for NetEffect {
    fn digest_into(&self, h: &mut Fnv64) {
        // Tables are distinct, so their digests combine as a set: a sum of
        // mixed words, as for a table's rows.
        let mut sum = 0u64;
        for (table, changes) in &self.changes {
            let digest = changes.digest(|rows| table_digest(table, rows));
            sum = sum.wrapping_add(mix64(digest));
        }
        h.write_usize(self.changes.len());
        h.write_u64(sum);
    }
}

#[cfg(test)]
mod tests {
    use starling_storage::Value;

    use super::*;

    fn ins(id: u64, v: i64) -> TupleOp {
        TupleOp::Insert {
            table: "t".into(),
            id: TupleId(id),
            row: vec![Value::Int(v)],
        }
    }

    fn del(id: u64, v: i64) -> TupleOp {
        TupleOp::Delete {
            table: "t".into(),
            id: TupleId(id),
            old: vec![Value::Int(v)],
        }
    }

    fn upd(id: u64, old: i64, new: i64) -> TupleOp {
        TupleOp::Update {
            table: "t".into(),
            id: TupleId(id),
            old: vec![Value::Int(old)],
            new: vec![Value::Int(new)],
            cols: vec!["a".to_owned()],
        }
    }

    #[test]
    fn rule1_update_update_composes() {
        let n = NetEffect::from_ops(&[upd(1, 10, 20), upd(1, 20, 30)]);
        let (_, _, c) = n.iter().next().unwrap();
        assert_eq!(
            c,
            &NetChange::Updated {
                old: vec![Value::Int(10)],
                new: vec![Value::Int(30)],
                cols: std::iter::once("a".to_owned()).collect(),
            }
        );
    }

    #[test]
    fn rule2_update_delete_deletes_original() {
        let n = NetEffect::from_ops(&[upd(1, 10, 20), del(1, 20)]);
        let (_, _, c) = n.iter().next().unwrap();
        assert_eq!(c, &NetChange::Deleted(vec![Value::Int(10)]));
    }

    #[test]
    fn rule3_insert_update_inserts_updated() {
        let n = NetEffect::from_ops(&[ins(1, 10), upd(1, 10, 20)]);
        let (_, _, c) = n.iter().next().unwrap();
        assert_eq!(c, &NetChange::Inserted(vec![Value::Int(20)]));
    }

    #[test]
    fn rule4_insert_delete_annihilates() {
        let n = NetEffect::from_ops(&[ins(1, 10), del(1, 10)]);
        assert!(n.is_empty());
        assert_eq!(n.len(), 0);
        // Nothing at all: not even an emptied entry for the table, which
        // `==` would see and the digest would not.
        assert_eq!(n.digest(), NetEffect::new().digest());
        assert_eq!(n, NetEffect::new());
    }

    #[test]
    fn insert_update_delete_also_annihilates() {
        let n = NetEffect::from_ops(&[ins(1, 10), upd(1, 10, 20), del(1, 20)]);
        assert!(n.is_empty());
    }

    #[test]
    fn triggering_checks() {
        let n = NetEffect::from_ops(&[ins(1, 10), upd(2, 5, 6), del(3, 9)]);
        assert!(n.contains_op(&Op::Insert("t".into())));
        assert!(n.contains_op(&Op::Delete("t".into())));
        assert!(n.contains_op(&Op::update("t", "a")));
        assert!(!n.contains_op(&Op::update("t", "b")));
        assert!(!n.contains_op(&Op::Insert("u".into())));

        let tb: BTreeSet<Op> = std::iter::once(Op::update("t", "b")).collect();
        assert!(!n.triggers(&tb));
        let tb: BTreeSet<Op> = std::iter::once(Op::Delete("t".into())).collect();
        assert!(n.triggers(&tb));
    }

    #[test]
    fn insert_then_update_is_not_an_update_for_triggering() {
        // Rule 3 means updated-triggered rules do NOT see insert∘update.
        let n = NetEffect::from_ops(&[ins(1, 10), upd(1, 10, 20)]);
        assert!(!n.contains_op(&Op::update("t", "a")));
        assert!(n.contains_op(&Op::Insert("t".into())));
    }

    #[test]
    fn transition_binding_contents() {
        let n = NetEffect::from_ops(&[ins(1, 10), upd(2, 5, 6), del(3, 9)]);
        let b = n.transition_binding("t");
        assert_eq!(b.inserted, vec![vec![Value::Int(10)]]);
        assert_eq!(b.deleted, vec![vec![Value::Int(9)]]);
        assert_eq!(b.old_updated, vec![vec![Value::Int(5)]]);
        assert_eq!(b.new_updated, vec![vec![Value::Int(6)]]);
        // Other tables yield empty bindings.
        let b = n.transition_binding("u");
        assert!(b.inserted.is_empty() && b.deleted.is_empty());
    }

    #[test]
    fn incremental_equals_batch() {
        let ops = vec![
            ins(1, 10),
            upd(1, 10, 20),
            upd(2, 1, 2),
            del(2, 2),
            ins(3, 7),
        ];
        let batch = NetEffect::from_ops(&ops);
        let mut inc = NetEffect::new();
        inc.absorb_all(&ops[..2]);
        inc.absorb_all(&ops[2..]);
        assert_eq!(batch, inc);
        assert_eq!(batch.digest(), inc.digest());
    }

    #[test]
    fn compose_equals_absorbing_the_operations() {
        let earlier = [ins(1, 10), upd(2, 1, 2), upd(3, 5, 6), ins(4, 0)];
        let later = [
            upd(1, 10, 20),
            del(2, 2),
            upd(3, 6, 7),
            del(4, 0),
            del(5, 9),
        ];
        let mut composed = NetEffect::from_ops(&earlier);
        let shared = composed.clone();
        // Warm the cached digests, which the write must then clear.
        assert_eq!(composed.digest(), shared.digest());
        composed.compose(&NetEffect::from_ops(&later));
        let whole = NetEffect::from_ops(earlier.iter().chain(&later));
        assert_eq!(composed, whole);
        assert_eq!(composed.digest(), whole.digest());
        // The clone it was sharing storage with is untouched.
        assert_eq!(shared, NetEffect::from_ops(&earlier));
        assert_eq!(shared.digest(), NetEffect::from_ops(&earlier).digest());
    }

    #[test]
    fn digest_distinguishes() {
        let a = NetEffect::from_ops(&[ins(1, 10)]);
        let b = NetEffect::from_ops(&[ins(1, 11)]);
        let c = NetEffect::from_ops(&[del(1, 10)]);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(NetEffect::new().digest(), NetEffect::new().digest());
    }

    #[test]
    fn update_cols_union() {
        let mut u1 = upd(1, 10, 20);
        if let TupleOp::Update { cols, .. } = &mut u1 {
            *cols = vec!["a".to_owned()];
        }
        let mut u2 = upd(1, 20, 30);
        if let TupleOp::Update { cols, .. } = &mut u2 {
            *cols = vec!["b".to_owned()];
        }
        let n = NetEffect::from_ops(&[u1, u2]);
        assert!(n.contains_op(&Op::update("t", "a")));
        assert!(n.contains_op(&Op::update("t", "b")));
    }
}
