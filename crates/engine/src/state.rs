//! Execution states `S = (D, TR)` (paper Section 4).
//!
//! `D` is the database; `TR` is represented as one pending [`NetEffect`] per
//! rule — the net effect of the composite transition since the rule was last
//! considered (or since the assertion point). The pending net effect
//! determines *both* whether the rule is triggered *and* the contents of its
//! transition tables, exactly the "triggered rule and its associated
//! transition tables" of the paper.
//!
//! Rules last considered at the same point have the same pending
//! transition, so they hold one shared handle to it (\[WCL91\]'s log cursor):
//! a state is `n_rules` refcounted pointers, and new operations compose once
//! per distinct handle, not once per rule.

use std::sync::Arc;

use starling_sql::eval::TransitionBinding;
use starling_storage::{CanonicalDigest, Database, Fnv64};

use crate::ops::{Digested, NetEffect, TupleOp};
use crate::ruleset::{RuleId, RuleSet};

/// A rule's pending transition: `None` is the empty one, and an empty one is
/// never `Some`, so equal transitions are equal handles.
type Handle = Option<Arc<Digested<NetEffect>>>;

/// What [`ExecState::pending`] hands out for a rule with nothing pending.
static EMPTY: NetEffect = NetEffect::new();

/// A rule-processing state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecState {
    /// Current database state `D`.
    pub db: Database,
    /// Per-rule pending transition (indexed by [`RuleId`]).
    pending: Vec<Handle>,
}

impl ExecState {
    /// A state at the start of rule processing: database after the initial
    /// transition, with every rule's pending transition set to the initial
    /// operations.
    pub fn new(db: Database, n_rules: usize, initial_ops: &[TupleOp]) -> Self {
        let mut state = ExecState {
            db,
            pending: vec![None; n_rules],
        };
        state.absorb(initial_ops);
        state
    }

    /// The pending transition of one rule.
    pub fn pending(&self, id: RuleId) -> &NetEffect {
        match &self.pending[id.0] {
            Some(pending) => pending,
            None => &EMPTY,
        }
    }

    /// Absorbs newly executed operations into **every** rule's pending
    /// transition (rules see operations executed after their last
    /// consideration as part of their next triggering transition).
    pub fn absorb(&mut self, ops: &[TupleOp]) {
        let delta = NetEffect::from_ops(ops);
        if delta.is_empty() {
            return;
        }
        // Move the handles out of their slots, keeping one per distinct
        // pending transition: one that no other state shares is then
        // uniquely owned, and `make_mut` composes onto it in place.
        let ptr = |handle: &Handle| handle.as_ref().map(Arc::as_ptr);
        let mut distinct: Vec<Handle> = Vec::new();
        let mut which = Vec::with_capacity(self.pending.len());
        for slot in &mut self.pending {
            let old = slot.take();
            let seen = distinct.iter().position(|d| ptr(d) == ptr(&old));
            which.push(seen.unwrap_or_else(|| {
                distinct.push(old);
                distinct.len() - 1
            }));
        }
        for handle in &mut distinct {
            let pending = Arc::make_mut(handle.get_or_insert_with(Arc::default)).get_mut();
            pending.compose(&delta);
            if pending.is_empty() {
                *handle = None;
            }
        }
        for (slot, d) in self.pending.iter_mut().zip(which) {
            *slot = distinct[d].clone();
        }
    }

    /// Resets one rule's pending transition (the rule has been considered).
    pub fn reset_pending(&mut self, id: RuleId) {
        self.pending[id.0] = None;
    }

    /// Clears all pending transitions (rollback).
    pub fn clear_pending(&mut self) {
        self.pending.fill(None);
    }

    /// The set of triggered rules: those whose pending transition's net
    /// effect contains one of their triggering operations.
    pub fn triggered(&self, rules: &RuleSet) -> Vec<RuleId> {
        rules
            .rules()
            .iter()
            .filter(|r| self.pending(r.id).triggers(&r.sig.triggered_by))
            .map(|r| r.id)
            .collect()
    }

    /// Whether a specific rule is triggered.
    pub fn is_triggered(&self, rules: &RuleSet, id: RuleId) -> bool {
        self.pending(id).triggers(&rules.get(id).sig.triggered_by)
    }

    /// Transition tables for a rule at consideration time.
    pub fn transition_binding(&self, rules: &RuleSet, id: RuleId) -> TransitionBinding {
        self.pending(id)
            .transition_binding(&rules.get(id).sig.table)
    }

    /// Canonical digest of the full state `(D, TR)` — used by the
    /// execution-graph explorer to deduplicate states and detect cycles.
    pub fn digest(&self) -> u64 {
        self.digests().1
    }

    /// The database's digest (`Database::state_digest`) and the full
    /// state's ([`Self::digest`]) from one pass over the database: the
    /// state digest continues the hasher the database digest stops at.
    pub fn digests(&self) -> (u64, u64) {
        let mut h = Fnv64::new();
        self.db.digest_into(&mut h);
        let db = h.finish();
        h.write_usize(self.pending.len());
        let empty = EMPTY.digest();
        for p in &self.pending {
            h.write_u64(match p {
                Some(p) => p.digest(NetEffect::digest),
                None => empty,
            });
        }
        (db, h.finish())
    }

    /// Digest of the state *as the paper defines state identity* (Section
    /// 4): the database contents plus the set `TR` of **triggered** rules
    /// with the contents of their transition tables — with no dependence on
    /// tuple ids.
    ///
    /// Two deliberate coarsenings relative to [`Self::digest`]:
    ///
    /// * tuple ids are ignored (two executions inserting the same rows
    ///   under different ids are the same paper-state);
    /// * an **untriggered** rule's partially accumulated transition window
    ///   is ignored, because the paper's `TR` only contains triggered
    ///   rules. This is a real abstraction leak in the paper (documented in
    ///   `EXPERIMENTS.md` as the *masking* finding): operationally, an
    ///   insert sitting in an untriggered rule's window can annihilate a
    ///   future delete (net-effect rule 4) and change whether the rule ever
    ///   triggers — a distinction the Section 4 model, and therefore Lemma
    ///   6.1, does not see. The Figure 1 commutativity diamond must be
    ///   checked at the paper's granularity, so this digest is what the E1
    ///   experiment compares.
    pub fn semantic_digest(&self, rules: &RuleSet) -> u64 {
        let mut h = Fnv64::new();
        self.db.digest_into(&mut h);
        for r in rules.rules() {
            let triggered = self.is_triggered(rules, r.id);
            h.write(&[u8::from(triggered)]);
            if !triggered {
                continue;
            }
            let b = self.transition_binding(rules, r.id);
            for rows in [&b.inserted, &b.deleted, &b.new_updated, &b.old_updated] {
                let mut sorted: Vec<_> = rows.iter().collect();
                sorted.sort_unstable();
                h.write_usize(sorted.len());
                for row in sorted {
                    row.as_slice().digest_into(&mut h);
                }
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use starling_sql::ast::Statement;
    use starling_sql::parse_script;
    use starling_storage::{ColumnDef, TableSchema, TupleId, Value, ValueType};

    use super::*;

    fn setup() -> (Database, RuleSet) {
        let mut db = Database::new();
        db.create_table(TableSchema::new("t", vec![ColumnDef::new("a", ValueType::Int)]).unwrap())
            .unwrap();
        let defs: Vec<_> = parse_script(
            "create rule on_ins on t when inserted then delete from t end;
             create rule on_del on t when deleted then update t set a = 0 end;",
        )
        .unwrap()
        .into_iter()
        .filter_map(|s| match s {
            Statement::CreateRule(r) => Some(r),
            _ => None,
        })
        .collect();
        let rs = RuleSet::compile(&defs, db.catalog()).unwrap();
        (db, rs)
    }

    fn ins_op(id: u64, v: i64) -> TupleOp {
        TupleOp::Insert {
            table: "t".into(),
            id: TupleId(id),
            row: vec![Value::Int(v)],
        }
    }

    #[test]
    fn initial_triggering() {
        let (db, rs) = setup();
        let st = ExecState::new(db, rs.len(), &[ins_op(1, 5)]);
        let triggered = st.triggered(&rs);
        assert_eq!(triggered, vec![RuleId(0)]); // only on_ins
    }

    #[test]
    fn absorb_extends_all_pendings() {
        let (db, rs) = setup();
        let mut st = ExecState::new(db, rs.len(), &[]);
        assert!(st.triggered(&rs).is_empty());
        st.absorb(&[TupleOp::Delete {
            table: "t".into(),
            id: TupleId(9),
            old: vec![Value::Int(1)],
        }]);
        assert_eq!(st.triggered(&rs), vec![RuleId(1)]);
    }

    #[test]
    fn reset_untrigggers_one_rule() {
        let (db, rs) = setup();
        let mut st = ExecState::new(db, rs.len(), &[ins_op(1, 5)]);
        st.reset_pending(RuleId(0));
        assert!(st.triggered(&rs).is_empty());
        // New ops re-trigger.
        st.absorb(&[ins_op(2, 6)]);
        assert_eq!(st.triggered(&rs), vec![RuleId(0)]);
    }

    #[test]
    fn untriggering_via_net_effect() {
        // A rule triggered by an insert becomes untriggered when another
        // rule deletes the inserted tuple (insert∘delete annihilates).
        let (db, rs) = setup();
        let mut st = ExecState::new(db, rs.len(), &[ins_op(1, 5)]);
        assert!(st.is_triggered(&rs, RuleId(0)));
        st.absorb(&[TupleOp::Delete {
            table: "t".into(),
            id: TupleId(1),
            old: vec![Value::Int(5)],
        }]);
        assert!(!st.is_triggered(&rs, RuleId(0)));
        // Rule (4) of net effects: insert∘delete is "not considered at
        // all" — the deletion of a same-transition insert does not trigger
        // deleted-rules either.
        assert!(!st.is_triggered(&rs, RuleId(1)));
        // Deleting a tuple that existed before the transition does.
        st.absorb(&[TupleOp::Delete {
            table: "t".into(),
            id: TupleId(99),
            old: vec![Value::Int(7)],
        }]);
        assert!(st.is_triggered(&rs, RuleId(1)));
    }

    #[test]
    fn annihilated_pending_equals_never_pending() {
        // insert∘delete leaves nothing, in whatever order the state got
        // there: `==` and the digest agree that these are one state.
        let (db, rs) = setup();
        let mut st = ExecState::new(db.clone(), rs.len(), &[ins_op(1, 5)]);
        st.absorb(&[TupleOp::Delete {
            table: "t".into(),
            id: TupleId(1),
            old: vec![Value::Int(5)],
        }]);
        let never = ExecState::new(db, rs.len(), &[]);
        assert!(st.pending(RuleId(0)).is_empty());
        assert_eq!(st.digest(), never.digest());
        assert_eq!(st, never);
    }

    #[test]
    fn binding_reflects_pending() {
        let (db, rs) = setup();
        let st = ExecState::new(db, rs.len(), &[ins_op(1, 5)]);
        let b = st.transition_binding(&rs, RuleId(0));
        assert_eq!(b.inserted, vec![vec![Value::Int(5)]]);
        assert!(b.deleted.is_empty());
    }

    #[test]
    fn digest_captures_pending_differences() {
        let (db, rs) = setup();
        let a = ExecState::new(db.clone(), rs.len(), &[ins_op(1, 5)]);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.reset_pending(RuleId(0));
        // Same database, different TR — different state.
        assert_eq!(a.db.state_digest(), b.db.state_digest());
        assert_ne!(a.digest(), b.digest());
    }
}
