//! The rule-processing loop (paper Section 2 semantics).
//!
//! At an assertion point the initial (user-generated) transition triggers
//! some rules; the processor repeatedly picks an eligible triggered rule,
//! checks its condition against its triggering transition, executes its
//! action, and re-derives the triggered set — until no rules are triggered
//! (*quiescence*), a rollback occurs, or the consideration limit is hit
//! (possible nontermination).

use starling_sql::ast::Action;
use starling_sql::eval::{exec_action, ActionOutcome, TransitionBinding};
use starling_sql::plan::{compile_action, eval_condition, execute_action, ActionPlan, PlanMode};
use starling_sql::SqlError;
use starling_storage::Database;

use crate::budget::{Budget, TruncationReason};
use crate::error::EngineError;
use crate::observable::{ObservableEvent, ObservableKind};
use crate::ruleset::{RuleId, RuleSet};
use crate::state::ExecState;
use crate::strategy::ChoiceStrategy;

/// How a processor evaluates rule conditions and actions.
///
/// An argument, not a setting: every mode computes the same semantics, so
/// the only reason to pick one is to compare them, and the differential
/// suites, the fuzz oracle and the benchmark's twins pass it in code.
/// Nothing selects it globally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvalMode {
    /// Compiled physical plans executed batch-at-a-time: base-table scans
    /// borrow cached columnar views, vectorizable filters run as
    /// whole-column kernels over selection bitmaps, and non-vectorizable
    /// units fall back to row-at-a-time plan execution per statement (the
    /// fast path, and the default).
    #[default]
    Columnar,
    /// Compiled physical plans executed row-at-a-time (the PR-3 engine) —
    /// kept as the differential oracle for the columnar kernels.
    Plan,
    /// The AST interpreter for everything — the differential oracle used to
    /// cross-check the plan layer.
    Interp,
}

impl EvalMode {
    /// Whether this mode uses compiled plans.
    pub fn uses_plans(self) -> bool {
        matches!(self, EvalMode::Plan | EvalMode::Columnar)
    }

    /// The plan-execution strategy this mode selects (meaningful only when
    /// [`Self::uses_plans`]).
    pub fn plan_mode(self) -> PlanMode {
        match self {
            EvalMode::Columnar => PlanMode::Columnar,
            _ => PlanMode::Row,
        }
    }
}

/// Executes one statement under `mode` — the engine's only statement
/// executor, for user statements and rule actions alike, and the one place
/// that chooses between compiled plans and the interpreter.
///
/// A rule action arrives with the `plan` its rule built on its first
/// consideration; a user statement arrives with `None` and is compiled
/// here, each time it runs, outside any rule (a statement the validator
/// would refuse, such as a transition-table reference, is refused here
/// with the validator's error). Under [`EvalMode::Interp`] nothing is
/// compiled — no statement and no rule plan — and no plan code runs.
pub(crate) fn execute_statement(
    action: &Action,
    plan: Option<&ActionPlan>,
    db: &mut Database,
    transitions: Option<&TransitionBinding>,
    mode: EvalMode,
) -> Result<ActionOutcome, SqlError> {
    if !mode.uses_plans() {
        return exec_action(action, db, transitions);
    }
    let compiled;
    let plan = match plan {
        Some(plan) => plan,
        None => {
            compiled = compile_action(action, db.catalog(), None)?;
            &compiled
        }
    };
    execute_action(plan, db, transitions, mode.plan_mode())
}

/// Record of one rule consideration.
#[derive(Clone, Debug, PartialEq)]
pub struct Consideration {
    /// The rule considered.
    pub rule: RuleId,
    /// Whether its condition held and its action executed.
    pub fired: bool,
}

/// How a rule-processing run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// No rules triggered: normal termination.
    Quiescent,
    /// A rule action rolled the transaction back.
    RolledBack,
    /// A resource budget was exhausted (see [`RunResult::truncation`] for
    /// which) — rule processing may not terminate.
    LimitExceeded,
    /// An engine error occurred mid-run; the transaction was aborted
    /// crash-consistently (the state was restored to the transaction
    /// snapshot). [`RunResult::error`] carries the cause.
    Aborted,
}

/// The result of running rule processing at an assertion point.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Every consideration, in order.
    pub considerations: Vec<Consideration>,
    /// Observable events, in order of occurrence.
    pub observables: Vec<ObservableEvent>,
    /// How the run ended.
    pub outcome: Outcome,
    /// Which budget was exhausted; `Some` iff the outcome is
    /// [`Outcome::LimitExceeded`].
    pub truncation: Option<TruncationReason>,
    /// The error that aborted the run; `Some` iff the outcome is
    /// [`Outcome::Aborted`].
    pub error: Option<EngineError>,
}

impl RunResult {
    /// Number of rules that actually fired.
    pub fn fired_count(&self) -> usize {
        self.considerations.iter().filter(|c| c.fired).count()
    }
}

/// The outcome of considering a single rule from a state.
#[derive(Clone, Debug)]
pub struct StepOutcome {
    /// Whether the condition held and the action ran.
    pub fired: bool,
    /// Whether the action rolled back.
    pub rolled_back: bool,
    /// Observable events emitted by the action.
    pub observables: Vec<ObservableEvent>,
    /// The abstract operations `O'` executed by the action (Lemma 4.1) —
    /// one entry per touched tuple-operation kind, deduplicated.
    pub ops: std::collections::BTreeSet<starling_storage::Op>,
}

/// Whether rule `id`'s condition holds in `state` against its current
/// pending transition — **without mutating anything**.
///
/// This is the condition check of [`consider_rule`] factored out so the
/// execution-graph explorer can decide whether an edge fires *before*
/// cloning the source state: a non-firing consideration changes nothing but
/// the rule's pending transition, so its successor can be built by a cheap
/// copy-on-write clone plus [`ExecState::reset_pending`], skipping the
/// action machinery entirely.
pub fn rule_fires(
    rules: &RuleSet,
    state: &ExecState,
    id: RuleId,
    mode: EvalMode,
) -> Result<bool, EngineError> {
    let rule = rules.get(id);
    let Some(cond) = &rule.def.condition else {
        return Ok(true);
    };
    let binding = state.transition_binding(rules, id);
    // Only a plan-evaluating mode reads (and so builds) the rule's plans.
    let plan = if mode.uses_plans() {
        rule.plan.condition.as_ref()
    } else {
        None
    };
    let v = match plan {
        Some(plan) => eval_condition(plan, &state.db, Some(&binding), mode.plan_mode())?,
        None => {
            let ctx = starling_sql::eval::EvalCtx {
                db: &state.db,
                transitions: Some(&binding),
            };
            let mut env = starling_sql::eval::Env::new(&ctx);
            starling_sql::eval::expr::eval_bool(cond, &mut env)?
        }
    };
    Ok(starling_sql::eval::expr::is_true(&v))
}

/// Considers rule `id` from `state`, mutating it in place: the edge
/// relation of the execution-graph model (Lemma 4.1), shared by the
/// [`Processor`] and the [`crate::exec_graph`] explorer.
///
/// Semantics:
/// 1. the rule's transition tables are fixed from its pending transition;
/// 2. its pending transition resets (it has now "processed" it);
/// 3. if the condition holds, actions execute in order, their effects
///    absorbed into **every** rule's pending transition (including this
///    rule's fresh one);
/// 4. `ROLLBACK` restores `txn_snapshot` and clears all pending transitions.
pub fn consider_rule(
    rules: &RuleSet,
    state: &mut ExecState,
    id: RuleId,
    txn_snapshot: &Database,
    mode: EvalMode,
) -> Result<StepOutcome, EngineError> {
    if rule_fires(rules, state, id, mode)? {
        consider_fired_rule(rules, state, id, txn_snapshot, mode)
    } else {
        state.reset_pending(id);
        Ok(StepOutcome::unfired())
    }
}

/// Replays a fixed sequence of rule considerations from `state`, exactly as
/// the execution-graph explorer expands edges: each step checks the
/// condition, then either runs the fired consideration or resets the
/// pending transition. `txn_snapshot` is the transaction-start database
/// (the rollback target), as in exploration.
///
/// This is the provenance subsystem's cross-check primitive: a divergence
/// witness is only reported after both of its firing sequences replay here
/// to the claimed (distinct) final digests.
pub fn replay_rule_sequence(
    rules: &RuleSet,
    state: &mut ExecState,
    txn_snapshot: &Database,
    seq: &[RuleId],
    mode: EvalMode,
) -> Result<Vec<StepOutcome>, EngineError> {
    let mut steps = Vec::with_capacity(seq.len());
    for &id in seq {
        steps.push(consider_rule(rules, state, id, txn_snapshot, mode)?);
    }
    Ok(steps)
}

impl StepOutcome {
    /// The outcome of a consideration whose condition was false: nothing
    /// executed, nothing observed.
    pub fn unfired() -> Self {
        StepOutcome {
            fired: false,
            rolled_back: false,
            observables: Vec::new(),
            ops: std::collections::BTreeSet::new(),
        }
    }
}

/// Considers rule `id` assuming its condition has already been checked and
/// holds (see [`rule_fires`]): fixes the transition tables, resets the
/// pending transition, and executes the actions.
pub fn consider_fired_rule(
    rules: &RuleSet,
    state: &mut ExecState,
    id: RuleId,
    txn_snapshot: &Database,
    mode: EvalMode,
) -> Result<StepOutcome, EngineError> {
    let rule = rules.get(id);
    let binding = state.transition_binding(rules, id);
    state.reset_pending(id);

    let mut outcome = StepOutcome {
        fired: true,
        ..StepOutcome::unfired()
    };

    let plans = mode.uses_plans().then(|| &rule.plan.actions);
    for (i, action) in rule.def.actions.iter().enumerate() {
        let plan = plans.map(|plans| &plans[i]);
        match execute_statement(action, plan, &mut state.db, Some(&binding), mode)? {
            ActionOutcome::Effects(fx) => {
                // Every effect of one statement is the same kind of
                // operation on the same table and columns.
                if let Some(first) = fx.first() {
                    let ops = first.abstract_ops();
                    debug_assert!(fx.iter().all(|op| op.abstract_ops() == ops));
                    outcome.ops.extend(ops);
                }
                state.absorb(&fx);
            }
            ActionOutcome::Rows(rs) => {
                outcome.observables.push(ObservableEvent {
                    rule: id,
                    kind: ObservableKind::Rows(rs),
                });
            }
            ActionOutcome::Rollback => {
                outcome.observables.push(ObservableEvent {
                    rule: id,
                    kind: ObservableKind::Rollback,
                });
                outcome.rolled_back = true;
                state.db = txn_snapshot.clone();
                state.clear_pending();
                return Ok(outcome);
            }
        }
    }
    Ok(outcome)
}

/// The rule processor.
#[derive(Clone, Copy, Debug)]
pub struct Processor<'r> {
    rules: &'r RuleSet,
    /// Bounds on a run: `max_considerations` before declaring
    /// [`Outcome::LimitExceeded`], and the optional wall-clock `deadline`.
    pub budget: Budget,
    /// How conditions and actions are evaluated. Per-processor, so
    /// concurrent sessions can never flip each other's evaluation path.
    pub eval_mode: EvalMode,
}

impl<'r> Processor<'r> {
    /// A processor over a rule set with the default [`Budget`] (10 000
    /// considerations, no deadline) and the default [`EvalMode`].
    pub fn new(rules: &'r RuleSet) -> Self {
        Processor {
            rules,
            budget: Budget::default(),
            eval_mode: EvalMode::default(),
        }
    }

    /// Sets the consideration limit.
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.budget.max_considerations = limit;
        self
    }

    /// Sets the evaluation mode.
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.eval_mode = mode;
        self
    }

    /// Sets the run's bounds.
    pub fn with_budget(mut self, budget: &Budget) -> Self {
        self.budget = *budget;
        self
    }

    /// Runs rule processing from `state` to quiescence (or rollback /
    /// budget exhaustion / abort). `txn_snapshot` is the database at
    /// transaction start, restored on rollback — and on abort.
    ///
    /// **Crash consistency**: if considering a rule fails with an
    /// [`EngineError`] (including injected storage faults), the run does
    /// *not* leave `state` mid-mutation. The database is restored to
    /// `txn_snapshot`, all pending transitions are cleared, and the result
    /// carries [`Outcome::Aborted`] with the error in
    /// [`RunResult::error`]. The `Result` wrapper is reserved for future
    /// setup-level failures; run-level errors surface through the outcome.
    pub fn run(
        &self,
        state: &mut ExecState,
        txn_snapshot: &Database,
        strategy: &mut dyn ChoiceStrategy,
    ) -> Result<RunResult, EngineError> {
        let clock = self.budget.start_clock();
        let mut result = RunResult {
            considerations: Vec::new(),
            observables: Vec::new(),
            outcome: Outcome::Quiescent,
            truncation: None,
            error: None,
        };
        loop {
            let triggered = state.triggered(self.rules);
            if triggered.is_empty() {
                result.outcome = Outcome::Quiescent;
                return Ok(result);
            }
            if result.considerations.len() >= self.budget.max_considerations {
                result.outcome = Outcome::LimitExceeded;
                result.truncation = Some(TruncationReason::Considerations);
                return Ok(result);
            }
            if clock.expired() {
                result.outcome = Outcome::LimitExceeded;
                result.truncation = Some(TruncationReason::Deadline);
                return Ok(result);
            }
            let eligible = self.rules.priority().choose(&triggered);
            debug_assert!(!eligible.is_empty());
            let picked = strategy.choose(&eligible);
            let step = match consider_rule(self.rules, state, picked, txn_snapshot, self.eval_mode)
            {
                Ok(step) => step,
                Err(e) => {
                    // Crash-consistent abort: the failed consideration may
                    // have partially executed its actions. Discard every
                    // effect since transaction start.
                    state.db = txn_snapshot.clone();
                    state.clear_pending();
                    result.outcome = Outcome::Aborted;
                    result.error = Some(e);
                    return Ok(result);
                }
            };
            result.considerations.push(Consideration {
                rule: picked,
                fired: step.fired,
            });
            result.observables.extend(step.observables);
            if step.rolled_back {
                result.outcome = Outcome::RolledBack;
                return Ok(result);
            }
            if state.db.total_rows() > self.budget.max_rows {
                result.outcome = Outcome::LimitExceeded;
                result.truncation = Some(TruncationReason::Rows);
                return Ok(result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use starling_sql::ast::Statement;
    use starling_sql::parse_script;
    use starling_storage::{ColumnDef, TableSchema, Value, ValueType};

    use crate::ops::TupleOp;
    use crate::strategy::{FirstEligible, LastEligible};

    use super::*;

    fn db_with(tables: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new();
        for (name, cols) in tables {
            db.create_table(
                TableSchema::new(
                    *name,
                    cols.iter()
                        .map(|c| ColumnDef::new(*c, ValueType::Int))
                        .collect(),
                )
                .unwrap(),
            )
            .unwrap();
        }
        db
    }

    fn rules(db: &Database, src: &str) -> RuleSet {
        let defs: Vec<_> = parse_script(src)
            .unwrap()
            .into_iter()
            .filter_map(|s| match s {
                Statement::CreateRule(r) => Some(r),
                _ => None,
            })
            .collect();
        RuleSet::compile(&defs, db.catalog()).unwrap()
    }

    fn ins(db: &mut Database, table: &str, vals: &[i64]) -> TupleOp {
        let row: Vec<Value> = vals.iter().map(|v| Value::Int(*v)).collect();
        let id = db.insert(table, row.clone()).unwrap();
        TupleOp::Insert {
            table: table.into(),
            id,
            row,
        }
    }

    /// Cascade: insert into t triggers a rule copying into u; the copy
    /// triggers a second rule updating u.
    #[test]
    fn cascading_rules_run_to_quiescence() {
        let mut db = db_with(&[("t", &["a"]), ("u", &["b", "seen"])]);
        let rs = rules(
            &db,
            "create rule copy on t when inserted then \
               insert into u select a, 0 from inserted end;
             create rule mark on u when inserted then \
               update u set seen = 1 where seen = 0 end;",
        );
        let snapshot = db.clone();
        let op = ins(&mut db, "t", &[7]);
        let mut st = ExecState::new(db, rs.len(), &[op]);
        let res = Processor::new(&rs)
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::Quiescent);
        // copy fired, mark fired (update u does not retrigger mark: it's
        // insert-triggered, and u's update is an update).
        assert_eq!(res.fired_count(), 2);
        let u = st.db.table("u").unwrap();
        assert_eq!(u.len(), 1);
        let (_, row) = u.iter().next().unwrap();
        assert_eq!(row, &vec![Value::Int(7), Value::Int(1)]);
    }

    /// An obviously nonterminating rule set hits the limit.
    #[test]
    fn ping_pong_hits_limit() {
        let mut db = db_with(&[("t", &["a"]), ("u", &["b"])]);
        let rs = rules(
            &db,
            "create rule ping on t when inserted then insert into u values (1) end;
             create rule pong on u when inserted then insert into t values (1) end;",
        );
        let snapshot = db.clone();
        let op = ins(&mut db, "t", &[1]);
        let mut st = ExecState::new(db, rs.len(), &[op]);
        let res = Processor::new(&rs)
            .with_limit(50)
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::LimitExceeded);
        assert_eq!(res.considerations.len(), 50);
        assert_eq!(res.truncation, Some(TruncationReason::Considerations));
        assert!(res.error.is_none());
    }

    /// A table-doubling rule stops at the row budget, not after the
    /// consideration budget has let the table grow exponentially.
    #[test]
    fn row_budget_bounds_a_run() {
        let mut db = db_with(&[("t", &["x"])]);
        let rs = rules(
            &db,
            "create rule grow on t when inserted then insert into t select x + 1 from t end",
        );
        let snapshot = db.clone();
        let op = ins(&mut db, "t", &[1]);
        let mut st = ExecState::new(db, rs.len(), &[op]);
        let budget = Budget::default()
            .with_max_considerations(16)
            .with_max_rows(100);
        let res = Processor::new(&rs)
            .with_budget(&budget)
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::LimitExceeded);
        assert_eq!(res.truncation, Some(TruncationReason::Rows));
        // One consideration past the cap: 64 rows, then 128.
        assert_eq!(st.db.total_rows(), 128);
        assert_eq!(res.considerations.len(), 7);
    }

    /// A zero wall-clock deadline stops the run before any consideration
    /// and names the deadline as the exhausted budget.
    #[test]
    fn zero_deadline_reports_deadline_truncation() {
        let mut db = db_with(&[("t", &["a"]), ("u", &["b"])]);
        let rs = rules(
            &db,
            "create rule ping on t when inserted then insert into u values (1) end;
             create rule pong on u when inserted then insert into t values (1) end;",
        );
        let snapshot = db.clone();
        let op = ins(&mut db, "t", &[1]);
        let mut st = ExecState::new(db, rs.len(), &[op]);
        let res = Processor::new(&rs)
            .with_budget(&Budget::default().with_deadline(std::time::Duration::ZERO))
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::LimitExceeded);
        assert_eq!(res.truncation, Some(TruncationReason::Deadline));
        assert!(res.considerations.is_empty());
    }

    /// An injected storage fault mid-run aborts crash-consistently: the
    /// state is exactly the transaction snapshot, nothing in between.
    #[test]
    fn injected_fault_aborts_crash_consistently() {
        use starling_storage::{FaultPlan, FaultSpec, StorageError};
        let mut db = db_with(&[("t", &["a"]), ("u", &["b"])]);
        let rs = rules(
            &db,
            "create rule copy on t when inserted then \
               insert into u select a from inserted end",
        );
        let snapshot = db.clone();
        let op = ins(&mut db, "t", &[7]);
        // Kill the rule action's insert into u.
        db.install_fault_plan(FaultPlan::single(FaultSpec::nth(0).on_table("u")));
        let mut st = ExecState::new(db, rs.len(), &[op]);
        let res = Processor::new(&rs)
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::Aborted);
        let err = res.error.as_ref().expect("abort carries its cause");
        assert!(err.is_injected_fault(), "{err}");
        assert!(matches!(
            err.storage_cause(),
            Some(StorageError::Injected { .. })
        ));
        // The database is the snapshot — the user's insert into t is gone
        // too, not just the rule's half-done work.
        assert_eq!(st.db.state_digest(), snapshot.state_digest());
        assert!(st.triggered(&rs).is_empty());
    }

    /// A false condition means the rule is considered but does not fire, and
    /// its transition is consumed.
    #[test]
    fn false_condition_consumes_transition() {
        let mut db = db_with(&[("t", &["a"])]);
        let rs = rules(
            &db,
            "create rule r on t when inserted \
             if exists (select * from inserted where a > 100) \
             then delete from t end",
        );
        let snapshot = db.clone();
        let op = ins(&mut db, "t", &[5]);
        let mut st = ExecState::new(db, rs.len(), &[op]);
        let res = Processor::new(&rs)
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::Quiescent);
        assert_eq!(res.considerations.len(), 1);
        assert!(!res.considerations[0].fired);
        assert_eq!(st.db.table("t").unwrap().len(), 1);
    }

    /// Rollback restores the transaction snapshot.
    #[test]
    fn rollback_restores_snapshot() {
        let mut db = db_with(&[("t", &["a"])]);
        let rs = rules(
            &db,
            "create rule guard on t when inserted \
             if exists (select * from inserted where a < 0) \
             then rollback end",
        );
        let snapshot = db.clone();
        let op = ins(&mut db, "t", &[-1]);
        let mut st = ExecState::new(db, rs.len(), &[op]);
        let res = Processor::new(&rs)
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::RolledBack);
        assert!(st.db.table("t").unwrap().is_empty());
        assert_eq!(res.observables.len(), 1);
        assert!(matches!(res.observables[0].kind, ObservableKind::Rollback));
    }

    /// Priorities decide which of two triggered rules runs first.
    #[test]
    fn priority_respected() {
        let mut db = db_with(&[("t", &["a"]), ("log", &["who"])]);
        let rs = rules(
            &db,
            "create rule second on t when inserted then \
               insert into log values (2) follows first end;
             create rule first on t when inserted then \
               insert into log values (1) end;",
        );
        let snapshot = db.clone();
        let op = ins(&mut db, "t", &[1]);
        let mut st = ExecState::new(db, rs.len(), &[op]);
        // Even an adversarial strategy cannot run `second` first: it is not
        // eligible while `first` is triggered.
        let res = Processor::new(&rs)
            .run(&mut st, &snapshot, &mut LastEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::Quiescent);
        let who: Vec<i64> = st
            .db
            .table("log")
            .unwrap()
            .iter()
            .map(|(_, r)| match r[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(who, vec![1, 2]);
    }

    /// A rule that triggers itself via a bounded condition terminates
    /// (the paper's "monotonic update" special case).
    #[test]
    fn self_triggering_with_bounded_condition_terminates() {
        let mut db = db_with(&[("t", &["a"])]);
        let rs = rules(
            &db,
            "create rule inc on t when inserted, updated(a) \
             if exists (select * from t where a < 3) \
             then update t set a = a + 1 where a < 3 end",
        );
        let snapshot = db.clone();
        let op = ins(&mut db, "t", &[0]);
        let mut st = ExecState::new(db, rs.len(), &[op]);
        let res = Processor::new(&rs)
            .with_limit(100)
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::Quiescent);
        let (_, row) = st.db.table("t").unwrap().iter().next().unwrap();
        assert_eq!(row[0], Value::Int(3));
    }

    /// Select actions surface as observable row events.
    #[test]
    fn select_action_is_observable() {
        let mut db = db_with(&[("t", &["a"])]);
        let rs = rules(
            &db,
            "create rule peek on t when inserted then select a from inserted end",
        );
        let snapshot = db.clone();
        let op = ins(&mut db, "t", &[42]);
        let mut st = ExecState::new(db, rs.len(), &[op]);
        let res = Processor::new(&rs)
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.observables.len(), 1);
        let ObservableKind::Rows(rs_out) = &res.observables[0].kind else {
            panic!()
        };
        assert_eq!(rs_out.rows, vec![vec![Value::Int(42)]]);
    }

    /// Transition tables see the *net* composite transition: a tuple
    /// inserted then deleted by an earlier rule is invisible.
    #[test]
    fn net_effect_untriggers() {
        let mut db = db_with(&[("t", &["a"]), ("audit", &["a"])]);
        let rs = rules(
            &db,
            // `purge` runs first (priority) and deletes the inserted tuple;
            // `audit_ins` is then no longer triggered.
            "create rule purge on t when inserted then \
               delete from t where a < 0 precedes audit_ins end;
             create rule audit_ins on t when inserted then \
               insert into audit select a from inserted end;",
        );
        let snapshot = db.clone();
        let op = ins(&mut db, "t", &[-5]);
        let mut st = ExecState::new(db, rs.len(), &[op]);
        let res = Processor::new(&rs)
            .run(&mut st, &snapshot, &mut FirstEligible)
            .unwrap();
        assert_eq!(res.outcome, Outcome::Quiescent);
        // audit_ins was untriggered by purge's delete (insert∘delete = ∅):
        // only purge was considered.
        assert_eq!(res.considerations.len(), 1);
        assert!(st.db.table("audit").unwrap().is_empty());
    }
}
