//! A small interactive front end: executes scripts (DDL, DML, rule
//! definitions, certification directives), accumulates the user transition,
//! and runs rule processing at assertion points.
//!
//! This is the runtime counterpart of the paper's "rule assertion points":
//! user statements build up a transition; [`Session::assert_rules`] processes
//! rules against it; [`Session::commit`] ends the transaction.

use std::sync::Arc;

use starling_sql::ast::{Directive, Statement};
use starling_sql::eval::{ActionOutcome, ResultSet};
use starling_sql::parse_script;
use starling_sql::validate::validate_dml;
use starling_storage::wal::{SyncPolicy, WalStore};
use starling_storage::Database;

use crate::budget::Budget;
use crate::durability::Durability;
use crate::error::EngineError;
use crate::ops::TupleOp;
use crate::processor::{execute_statement, EvalMode, Outcome, Processor, RunResult};
use crate::program::RuleProgram;
use crate::ruleset::RuleSet;
use crate::state::ExecState;
use crate::strategy::ChoiceStrategy;

/// Output of executing one script statement.
#[derive(Clone, Debug, PartialEq)]
pub enum ScriptOutput {
    /// A table was created.
    TableCreated(String),
    /// A rule was defined.
    RuleCreated(String),
    /// A rule was dropped.
    RuleDropped(String),
    /// A rule's orderings were amended.
    RuleAltered(String),
    /// DML executed, touching this many tuples.
    Modified(usize),
    /// A query returned rows.
    Rows(ResultSet),
    /// A certification directive was recorded.
    DirectiveRecorded,
    /// The user rolled the transaction back.
    RolledBack,
}

/// Everything a session rolls back to: the database (copy-on-write), the
/// rule program and its compilation, each behind a refcount — so taking one
/// ([`Session::state`]) and keeping it (the server's per-request
/// checkpoint, the WAL attachment's acknowledged base) costs three
/// refcount bumps, never a copy of a table or a rule.
#[derive(Clone, Debug, Default)]
pub struct SessionState {
    /// The database.
    pub db: Database,
    /// The rule definitions and directives.
    pub program: Arc<RuleProgram>,
    /// `program` compiled against `db`'s catalog, if it has been since
    /// either last changed (`None` recompiles lazily).
    pub compiled: Option<Arc<RuleSet>>,
}

/// An interactive session: database + rule program + pending user
/// transition.
pub struct Session {
    state: SessionState,
    txn_snapshot: Option<Database>,
    pending_ops: Vec<TupleOp>,
    durability: Option<Durability>,
    /// Bounds on each assertion point's rule processing (the consideration
    /// limit and the optional wall-clock deadline).
    pub budget: Budget,
    /// How this session's rule processing evaluates conditions and actions.
    /// Per-session state: concurrent sessions cannot affect each other.
    pub eval_mode: EvalMode,
}

impl Session {
    /// An empty session.
    pub fn new() -> Self {
        Session {
            state: SessionState::default(),
            txn_snapshot: None,
            pending_ops: Vec::new(),
            durability: None,
            budget: Budget::default(),
            eval_mode: EvalMode::default(),
        }
    }

    /// A session restored from pre-built parts: a database snapshot
    /// (copy-on-write, so this is cheap), rule definitions, an optional
    /// already-compiled rule set (shared via `Arc` — N sessions of the same
    /// rule program compile once), and recorded directives.
    pub fn restore(
        db: Database,
        defs: Vec<starling_sql::RuleDef>,
        compiled: Option<Arc<RuleSet>>,
        directives: Vec<Directive>,
    ) -> Self {
        let mut s = Session::new();
        let program = Arc::new(RuleProgram { defs, directives });
        s.reset_to(SessionState {
            db,
            program,
            compiled,
        });
        s
    }

    /// The session's restorable state, as of now.
    pub fn state(&self) -> SessionState {
        self.state.clone()
    }

    /// Rolls the session back (or forward) to `state`, discarding any open
    /// transaction. Everything that is not state — evaluation mode, limits,
    /// the durable attachment — is kept.
    pub fn reset_to(&mut self, state: SessionState) {
        self.state = state;
        self.txn_snapshot = None;
        self.pending_ops.clear();
    }

    /// Opens (or creates) the durable store at `dir` and builds a session
    /// from its recovered state: latest valid snapshot, WAL tail replayed
    /// with torn records truncated, digests verified, and the rule program
    /// re-parsed and re-validated against the recovered catalog.
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        sync: SyncPolicy,
    ) -> Result<Session, EngineError> {
        let (store, recovered) = WalStore::open(dir, sync)?;
        let program = RuleProgram::parse(&recovered.rules_text)?;
        // Validated through the bodies' memos: the first compile adopts
        // this catalog handle and derives no signature again.
        let catalog = Arc::new(recovered.db.catalog().clone());
        for def in &program.defs {
            def.signature(&catalog)?;
        }
        let mut s = Session::new();
        s.state.db = recovered.db;
        s.state.program = Arc::new(program);
        s.durability = Some(Durability::new(store, s.state()));
        Ok(s)
    }

    /// Attaches durability to this in-memory session, persisting its entire
    /// current state as the first logged commit. The store at `dir` must be
    /// empty (use [`Session::open_durable`] to resume an existing store —
    /// silently shadowing persisted state with in-memory state would lose
    /// it). On failure the session is as it was: in memory, unattached.
    pub fn persist_to(
        &mut self,
        dir: impl AsRef<std::path::Path>,
        sync: SyncPolicy,
    ) -> Result<(), EngineError> {
        let dir = dir.as_ref();
        let (mut store, recovered) = WalStore::open(dir, sync)?;
        if !recovered.is_empty() {
            return Err(EngineError::InvalidStatement(format!(
                "durable store at `{}` already holds state; attach to it instead of re-initializing",
                dir.display()
            )));
        }
        store.set_fault_state(self.state.db.fault_state().cloned());
        let mut dur = Durability::new(store, SessionState::default());
        dur.persist(&self.state)?;
        self.durability = Some(dur);
        Ok(())
    }

    /// Whether a durable store is attached.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable attachment's last acknowledged state, if attached: what
    /// recovering the store right now would yield.
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// Detaches the durable store, if any, after a final best-effort
    /// snapshot (every acknowledged commit is already in the WAL, so a
    /// failed snapshot loses nothing). The session carries on in memory.
    pub fn detach_durable(&mut self) {
        if let Some(mut dur) = self.durability.take() {
            let _ = dur.snapshot();
        }
    }

    /// Sets how many commits accumulate before the log rotates into a
    /// snapshot (default 64; tests lower it to exercise rotation).
    pub fn set_snapshot_every(&mut self, commits: u64) {
        if let Some(dur) = &mut self.durability {
            dur.snapshot_every = commits.max(1);
        }
    }

    /// Persists any un-acknowledged difference between the session state
    /// and the durable base as one commit record — called by
    /// [`Session::commit`] at acknowledged outcomes, and directly by the
    /// server after `certify`/`order` refinements (which change the rule
    /// program without an assertion point).
    ///
    /// **Failure model**: if the append fails (I/O, or an injected
    /// `WalAppend`/`WalSync` fault), the in-memory state is rolled back to
    /// the durable base before the error returns, so memory and disk agree
    /// that the commit did not happen.
    pub fn persist_changes(&mut self) -> Result<(), EngineError> {
        let Some(dur) = &mut self.durability else {
            return Ok(());
        };
        if let Err(e) = dur.persist(&self.state) {
            // Restore the acknowledged base, but keep observing the same
            // fault plan and counters: the base was captured before the
            // plan was installed, and a fired one-shot must stay fired.
            let fault = self.state.db.fault_state().cloned();
            let base = dur.base.clone();
            self.reset_to(base);
            self.state.db.set_fault_state(fault);
            return Err(e.into());
        }
        Ok(())
    }

    /// Forces a full snapshot + log truncation of the acknowledged state.
    /// No-op without an attachment.
    pub fn durable_snapshot(&mut self) -> Result<(), EngineError> {
        if let Some(dur) = &mut self.durability {
            dur.snapshot()?;
        }
        Ok(())
    }

    /// The current database.
    pub fn db(&self) -> &Database {
        &self.state.db
    }

    /// The pending user transition: the effects of the open transaction's
    /// statements, in execution order.
    pub fn pending_ops(&self) -> &[TupleOp] {
        &self.pending_ops
    }

    /// Installs a storage fault plan on the session's database (robustness
    /// testing; see [`starling_storage::fault`]). Snapshots taken after
    /// installation share the plan's counters, so an already-fired fault
    /// stays fired across rollback — and the durable store (if attached)
    /// observes the same plan for its WAL/snapshot operations.
    pub fn install_fault_plan(&mut self, plan: starling_storage::FaultPlan) {
        self.state.db.install_fault_plan(plan);
        if let Some(dur) = &mut self.durability {
            dur.store
                .set_fault_state(self.state.db.fault_state().cloned());
        }
    }

    /// The rule definitions, in creation order.
    pub fn rule_defs(&self) -> &[starling_sql::RuleDef] {
        &self.state.program.defs
    }

    /// Recorded certification directives (`declare commute`, `declare
    /// terminates`).
    pub fn directives(&self) -> &[Directive] {
        &self.state.program.directives
    }

    /// The compiled rule set (compiling lazily after changes).
    pub fn ruleset(&mut self) -> Result<&RuleSet, EngineError> {
        Ok(self.ruleset_arc()?.as_ref())
    }

    /// The compiled rule set as a shared handle (compiling lazily after
    /// changes). Cloning the returned `Arc` is a refcount bump, so callers
    /// that need the rules to outlive a `&mut self` borrow (e.g. assertion
    /// points, server analyses) pay no deep copy.
    pub fn ruleset_arc(&mut self) -> Result<&Arc<RuleSet>, EngineError> {
        let st = &mut self.state;
        if st.compiled.is_none() {
            let rules = RuleSet::compile(&st.program.defs, st.db.catalog())?;
            st.compiled = Some(Arc::new(rules));
        }
        Ok(st.compiled.as_ref().expect("just compiled"))
    }

    /// Parses and executes a script, one statement at a time. DML
    /// accumulates into the pending user transition; rules are processed
    /// only at [`Session::assert_rules`] / [`Session::commit`].
    ///
    /// **Failure model**: a parse error executes nothing. If a statement
    /// fails mid-script, the enclosing transaction is aborted — the
    /// database is restored to the transaction snapshot and the pending
    /// transition is discarded — before the error is returned. Outputs of
    /// the statements that ran before the failure are not returned; their
    /// effects are rolled back with everything else.
    pub fn execute_script(&mut self, src: &str) -> Result<Vec<ScriptOutput>, EngineError> {
        let stmts = parse_script(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match self.execute(&s) {
                Ok(o) => out.push(o),
                Err(e) => {
                    self.rollback();
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Executes one statement.
    pub fn execute(&mut self, stmt: &Statement) -> Result<ScriptOutput, EngineError> {
        match stmt {
            Statement::CreateTable(ct) => {
                self.state.db.create_table(ct.schema.clone())?;
                self.state.compiled = None;
                Ok(ScriptOutput::TableCreated(ct.schema.name.clone()))
            }
            Statement::CreateRule(def) => {
                // Validate eagerly so errors surface at definition time,
                // through the body's signature memo: the next compile
                // against this catalog reuses the signature.
                def.body().signature(self.state.db.shared_catalog())?;
                self.edit_rules().create_rule(def.clone())?;
                Ok(ScriptOutput::RuleCreated(def.name.clone()))
            }
            Statement::DropRule(name) => {
                self.edit_rules().drop_rule(name)?;
                Ok(ScriptOutput::RuleDropped(name.clone()))
            }
            Statement::AlterRule {
                name,
                precedes,
                follows,
            } => {
                self.edit_rules().alter_rule(name, precedes, follows)?;
                Ok(ScriptOutput::RuleAltered(name.clone()))
            }
            Statement::Directive(d) => {
                // Directives inform the analyses only: the compiled rule
                // set stays valid.
                Arc::make_mut(&mut self.state.program).declare(d.clone());
                Ok(ScriptOutput::DirectiveRecorded)
            }
            Statement::Dml(action) => {
                validate_dml(action, self.state.db.catalog())?;
                self.ensure_txn();
                // A failing DML statement (e.g. an injected storage fault)
                // may have partially mutated the database. Statement-level
                // atomicity is transaction-level here: abort to the
                // snapshot rather than expose a half-applied statement.
                let db = &mut self.state.db;
                let outcome = match execute_statement(action, None, db, None, self.eval_mode) {
                    Ok(o) => o,
                    Err(e) => {
                        self.rollback();
                        return Err(e.into());
                    }
                };
                match outcome {
                    ActionOutcome::Effects(fx) => {
                        let n = fx.len();
                        self.pending_ops.extend(fx);
                        Ok(ScriptOutput::Modified(n))
                    }
                    ActionOutcome::Rows(rs) => Ok(ScriptOutput::Rows(rs)),
                    ActionOutcome::Rollback => {
                        self.rollback();
                        Ok(ScriptOutput::RolledBack)
                    }
                }
            }
        }
    }

    /// The rule program, for a rule-DDL edit: unshared from any checkpoint
    /// or durable base still holding it, with the compilation invalidated.
    fn edit_rules(&mut self) -> &mut RuleProgram {
        self.state.compiled = None;
        Arc::make_mut(&mut self.state.program)
    }

    fn ensure_txn(&mut self) {
        if self.txn_snapshot.is_none() {
            self.txn_snapshot = Some(self.state.db.clone());
        }
    }

    /// Aborts the current transaction with `error`: restores the snapshot,
    /// discards the pending transition, and packages the cause as an
    /// [`Outcome::Aborted`] result.
    fn abort_txn(&mut self, error: EngineError) -> RunResult {
        self.rollback();
        RunResult {
            considerations: Vec::new(),
            observables: Vec::new(),
            outcome: Outcome::Aborted,
            truncation: None,
            error: Some(error),
        }
    }

    /// Runs rule processing at an assertion point over the pending user
    /// transition. The pending transition is consumed.
    ///
    /// **Failure model**: any error at the assertion point — rule-set
    /// compilation (e.g. a priority cycle introduced by `alter rule`) or a
    /// failure while considering a rule — aborts the transaction
    /// crash-consistently: the database is restored to the transaction
    /// snapshot, the pending transition is discarded (never silently lost
    /// with the mutated state kept, as older versions did), and the result
    /// carries [`Outcome::Aborted`] with the cause in
    /// [`RunResult::error`]. The `Err` arm is reserved for future
    /// setup-level failures that do not touch the transaction.
    pub fn assert_rules(
        &mut self,
        strategy: &mut dyn ChoiceStrategy,
    ) -> Result<RunResult, EngineError> {
        self.ensure_txn();
        let snapshot = self.txn_snapshot.clone().expect("txn exists");
        // Compile before consuming the pending transition, and abort (not
        // just error) if the rule set is unusable: the user transition
        // cannot be processed, so it must not survive half-applied.
        let rules = match self.ruleset_arc() {
            Ok(r) => Arc::clone(r),
            Err(e) => return Ok(self.abort_txn(e)),
        };
        let ops = std::mem::take(&mut self.pending_ops);
        let mut state = ExecState::new(self.state.db.clone(), rules.len(), &ops);
        let processor = Processor::new(&rules)
            .with_budget(&self.budget)
            .with_eval_mode(self.eval_mode);
        let result = match processor.run(&mut state, &snapshot, strategy) {
            Ok(r) => r,
            Err(e) => return Ok(self.abort_txn(e)),
        };
        self.state.db = state.db;
        match result.outcome {
            // The processor already restored the snapshot into `state.db`;
            // both ends of the transaction are closed out here.
            Outcome::RolledBack | Outcome::Aborted => {
                self.txn_snapshot = None;
            }
            Outcome::Quiescent | Outcome::LimitExceeded => {}
        }
        Ok(result)
    }

    /// Commits the transaction: runs an assertion point, then clears the
    /// snapshot. With a durable store attached, acknowledged outcomes
    /// (`Quiescent` — and `RolledBack`, which may still carry DDL executed
    /// outside the transaction snapshot) are persisted before returning;
    /// `Aborted` and `LimitExceeded` are not acknowledged and leave the
    /// durable state untouched, matching the server's checkpoint-restore of
    /// those outcomes.
    pub fn commit(&mut self, strategy: &mut dyn ChoiceStrategy) -> Result<RunResult, EngineError> {
        let result = self.assert_rules(strategy)?;
        self.txn_snapshot = None;
        match result.outcome {
            Outcome::Quiescent | Outcome::RolledBack => {
                if let Err(e) = self.persist_changes() {
                    // The commit could not be made durable: in-memory state
                    // was rolled back to the durable base, and the outcome
                    // reports the abort with its cause.
                    return Ok(self.abort_txn(e));
                }
            }
            Outcome::Aborted | Outcome::LimitExceeded => {}
        }
        Ok(result)
    }

    /// Rolls the transaction back manually.
    pub fn rollback(&mut self) {
        if let Some(snap) = self.txn_snapshot.take() {
            self.state.db = snap;
        }
        self.pending_ops.clear();
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

#[cfg(test)]
mod tests {
    use starling_sql::SqlError;
    use starling_storage::Value;

    use crate::strategy::FirstEligible;

    use super::*;

    /// `execute` validates a rule through its body's signature memo,
    /// against the database's own catalog handle, so the compile that
    /// follows adopts that handle and derives no signature again.
    #[test]
    fn a_defined_rule_is_signed_once() {
        let mut s = Session::new();
        s.execute_script(
            "create table t (x int);
             create table u (x int);
             create rule a on t when inserted then insert into u select x from inserted end;
             create rule b on u when inserted then delete from t where x > 1 end;",
        )
        .unwrap();
        let memos: Vec<_> = s
            .rule_defs()
            .iter()
            .map(|d| {
                let signed = d.signed_catalog().expect("signed where it was defined");
                assert!(Arc::ptr_eq(&signed, s.db().shared_catalog()));
                d.signature(&signed).unwrap()
            })
            .collect();
        let rules = s.ruleset().unwrap();
        assert_eq!(rules.len(), 2);
        for (rule, memo) in rules.rules().iter().zip(&memos) {
            assert!(
                Arc::ptr_eq(&rule.sig, memo),
                "`{}` signed twice",
                rule.body.name
            );
        }
        // A refused rule still fails where it is defined, with the same
        // message.
        let err = s
            .execute_script("create rule r on t when updated(nope) then delete from t end")
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("rule `r`: `updated(nope)` names no column of `t`"),
            "{err}"
        );
        assert_eq!(s.rule_defs().len(), 2);
    }

    #[test]
    fn script_end_to_end() {
        let mut s = Session::new();
        let out = s
            .execute_script(
                "create table emp (id int, salary int);
                 create rule cap on emp when inserted, updated(salary) \
                   if exists (select * from emp where salary > 100) \
                   then update emp set salary = 100 where salary > 100 end;
                 insert into emp values (1, 250);
                 insert into emp values (2, 50);",
            )
            .unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], ScriptOutput::TableCreated("emp".into()));
        assert_eq!(out[1], ScriptOutput::RuleCreated("cap".into()));
        assert_eq!(out[2], ScriptOutput::Modified(1));

        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, crate::processor::Outcome::Quiescent);
        let salaries: Vec<Value> = s
            .db()
            .table("emp")
            .unwrap()
            .iter()
            .map(|(_, r)| r[1].clone())
            .collect();
        assert_eq!(salaries, vec![Value::Int(100), Value::Int(50)]);
    }

    #[test]
    fn user_rollback_restores() {
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.execute_script("insert into t values (1)").unwrap();
        s.commit(&mut FirstEligible).unwrap();
        let out = s
            .execute_script("insert into t values (2); rollback")
            .unwrap();
        assert_eq!(out[1], ScriptOutput::RolledBack);
        assert_eq!(s.db().table("t").unwrap().len(), 1);
    }

    #[test]
    fn duplicate_rule_rejected() {
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.execute_script("create rule r on t when inserted then delete from t end")
            .unwrap();
        let err = s
            .execute_script("create rule r on t when deleted then delete from t end")
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateRule(_)));
    }

    /// A rule whose `updated(c)` names no column of its table is refused
    /// when it is defined, not at the next commit.
    #[test]
    fn unknown_updated_column_refused_at_definition() {
        let mut s = Session::new();
        s.execute_script("create table emp (id int)").unwrap();
        let err = s
            .execute_script("create rule r on emp when updated(nope) then delete from emp end")
            .unwrap_err();
        assert!(err.to_string().contains("`updated(nope)`"), "{err}");
        assert!(s.rule_defs().is_empty());
    }

    /// A grouped select that reads a column outside `GROUP BY` and outside
    /// every aggregate is refused when its rule is defined, not at every
    /// commit that fires the rule; the session is left as it was.
    #[test]
    fn misplaced_grouped_column_refused_at_definition() {
        let mut s = Session::new();
        s.execute_script("create table t (x int); create table u (x int, n int)")
            .unwrap();
        let err = s
            .execute_script(
                "create rule r on t when inserted \
                 then insert into u select x, count(*) from t end",
            )
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("column `x` must appear in GROUP BY or inside an aggregate"),
            "{err}"
        );
        assert!(s.rule_defs().is_empty());
        s.execute_script("insert into t values (1)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Quiescent);
        assert_eq!(s.db().table("u").unwrap().len(), 0);
    }

    /// A rule that is ill-typed, so that every firing would abort its
    /// commit, is refused when it is defined with the validator's error;
    /// the session keeps no rule and its database.
    #[test]
    fn ill_typed_rules_refused_at_definition() {
        for (rule, why) in [
            (
                "then insert into u values ('x')",
                "type mismatch for `u.x`: expected INTEGER, found VARCHAR",
            ),
            (
                "then update t set a = 'x'",
                "type mismatch for `t.a`: expected INTEGER, found VARCHAR",
            ),
            (
                "if exists (select * from t where a = 'x') then delete from u",
                "cannot compare INTEGER with VARCHAR",
            ),
            (
                "then insert into u select a + 'x' from inserted",
                "arithmetic on non-numeric values INTEGER and VARCHAR",
            ),
            (
                "if exists (select * from t where a) then delete from u",
                "expected boolean, got INTEGER",
            ),
            (
                "then insert into u values (null)",
                "NULL written to non-nullable column `u.x`",
            ),
        ] {
            let mut s = Session::new();
            s.execute_script(
                "create table t (a int); create table u (x int); insert into t values (1)",
            )
            .unwrap();
            s.commit(&mut FirstEligible).unwrap();
            let err = s
                .execute_script(&format!("create rule r on t when inserted {rule} end"))
                .unwrap_err();
            let EngineError::Sql(SqlError::Validate(msg)) = &err else {
                panic!("{rule}: {err}");
            };
            assert!(msg.ends_with(why), "{rule}: {msg}");
            assert!(s.rule_defs().is_empty());
            assert_eq!(s.db().table("t").unwrap().len(), 1);
        }
    }

    #[test]
    fn directives_recorded() {
        let mut s = Session::new();
        s.execute_script("declare commute a, b; declare terminates x 'why'")
            .unwrap();
        assert_eq!(s.directives().len(), 2);
    }

    #[test]
    fn queries_do_not_join_transition() {
        let mut s = Session::new();
        s.execute_script("create table t (a int); insert into t values (3)")
            .unwrap();
        let out = s.execute_script("select a from t").unwrap();
        let ScriptOutput::Rows(rs) = &out[0] else {
            panic!()
        };
        assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn drop_and_alter_rule() {
        let mut s = Session::new();
        s.execute_script(
            "create table t (a int);
             create rule a on t when inserted then update t set a = 1 end;
             create rule b on t when inserted then update t set a = 2 end;",
        )
        .unwrap();
        assert_eq!(s.ruleset().unwrap().len(), 2);

        // Order them via ALTER; the compiled set reflects it.
        s.execute_script("alter rule a precedes b").unwrap();
        let rs = s.ruleset().unwrap();
        let (a, b) = (rs.by_name("a").unwrap().id, rs.by_name("b").unwrap().id);
        assert!(rs.priority().gt(a, b));

        // Dropping `b` also scrubs the ordering reference from `a`.
        s.execute_script("drop rule b").unwrap();
        let rs = s.ruleset().unwrap();
        assert_eq!(rs.len(), 1);
        assert!(s.rule_defs()[0].precedes.is_empty());

        assert!(s.execute_script("drop rule zz").is_err());
        assert!(s.execute_script("alter rule zz precedes a").is_err());
    }

    #[test]
    fn mid_script_error_aborts_transaction() {
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.execute_script("insert into t values (1)").unwrap();
        s.commit(&mut FirstEligible).unwrap();
        // Second statement fails: the first one's effect must not survive.
        let err = s
            .execute_script("insert into t values (2); insert into nope values (3)")
            .unwrap_err();
        assert!(matches!(err, EngineError::Sql(_)));
        assert_eq!(s.db().table("t").unwrap().len(), 1);
        // The session is usable afterwards: a fresh transaction commits.
        s.execute_script("insert into t values (4)").unwrap();
        s.commit(&mut FirstEligible).unwrap();
        assert_eq!(s.db().table("t").unwrap().len(), 2);
    }

    #[test]
    fn injected_fault_at_assertion_point_aborts() {
        use starling_storage::{FaultPlan, FaultSpec};
        let mut s = Session::new();
        s.execute_script(
            "create table t (a int);
             create table log (a int);
             create rule audit on t when inserted then \
               insert into log select a from inserted end;",
        )
        .unwrap();
        // Kill the rule's insert into log. The user's insert into t lands
        // first (op #0 is on t; the spec only matches log).
        s.install_fault_plan(FaultPlan::single(FaultSpec::nth(0).on_table("log")));
        s.execute_script("insert into t values (1)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Aborted);
        assert!(
            run.error
                .as_ref()
                .is_some_and(EngineError::is_injected_fault),
            "{:?}",
            run.error
        );
        // Crash-consistent: the whole transaction is gone, not just the
        // rule's half — and the pending transition was discarded.
        assert!(s.db().table("t").unwrap().is_empty());
        assert!(s.db().table("log").unwrap().is_empty());
        // The fault is one-shot, so the retry commits cleanly.
        s.execute_script("insert into t values (1)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Quiescent);
        assert_eq!(s.db().table("t").unwrap().len(), 1);
        assert_eq!(s.db().table("log").unwrap().len(), 1);
    }

    #[test]
    fn ruleset_compile_error_at_assertion_point_aborts() {
        let mut s = Session::new();
        s.execute_script(
            "create table t (a int);
             create rule a on t when inserted then update t set a = 1 end;
             create rule b on t when inserted then update t set a = 2 end;",
        )
        .unwrap();
        // Introduce a priority cycle, then try to commit a pending insert.
        s.execute_script("alter rule a precedes b; alter rule b precedes a")
            .unwrap();
        s.execute_script("insert into t values (9)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Aborted);
        assert!(matches!(run.error, Some(EngineError::PriorityCycle(_))));
        // The pending insert was aborted, not silently kept.
        assert!(s.db().table("t").unwrap().is_empty());
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "starling-session-dur-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_commit_recovers_identically() {
        let dir = durable_dir("roundtrip");
        {
            let mut s = Session::new();
            s.execute_script(
                "create table t (a int);
                 create rule echo on t when inserted then \
                   update t set a = a where a < 0 end;
                 declare terminates echo 'no-op';",
            )
            .unwrap();
            s.persist_to(&dir, SyncPolicy::Always).unwrap();
            s.execute_script("insert into t values (1); insert into t values (2)")
                .unwrap();
            s.commit(&mut FirstEligible).unwrap();
            // DDL after attachment is captured by the next commit's diff.
            s.execute_script("create table u (b int); insert into u values (7)")
                .unwrap();
            s.commit(&mut FirstEligible).unwrap();

            let r = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
            assert_eq!(r.db(), s.db());
            assert_eq!(r.db().next_tuple_id(), s.db().next_tuple_id());
            assert_eq!(r.rule_defs(), s.rule_defs());
            assert_eq!(r.directives(), s.directives());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One flipped byte in the middle record of a three-commit log: the
    /// store's refusal reaches the caller instead of a session that lost
    /// two acknowledged commits.
    #[test]
    fn open_durable_refuses_a_damaged_middle_commit() {
        let dir = durable_dir("midflip");
        let wal = dir.join("wal.log");
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.persist_to(&dir, SyncPolicy::Always).unwrap();
        s.execute_script("insert into t values (1)").unwrap();
        s.commit(&mut FirstEligible).unwrap();
        let second_ends = std::fs::metadata(&wal).unwrap().len() as usize;
        s.execute_script("insert into t values (2)").unwrap();
        s.commit(&mut FirstEligible).unwrap();
        drop(s);
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes[second_ends - 1] ^= 0xff;
        std::fs::write(&wal, &bytes).unwrap();
        match Session::open_durable(&dir, SyncPolicy::Always) {
            Err(EngineError::Storage(starling_storage::StorageError::Wal(msg))) => {
                assert!(msg.contains("corrupt record"), "{msg}")
            }
            other => panic!(
                "expected a wal error, got {:?}",
                other.map(|s| s.db().clone())
            ),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_to_refuses_nonempty_store() {
        let dir = durable_dir("nonempty");
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.persist_to(&dir, SyncPolicy::Always).unwrap();
        let mut other = Session::new();
        assert!(matches!(
            other.persist_to(&dir, SyncPolicy::Always),
            Err(EngineError::InvalidStatement(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed first append leaves the session in memory, unattached:
    /// later commits must not reach a store the caller gave up on.
    #[test]
    fn failed_persist_to_leaves_session_unattached() {
        use starling_storage::{FaultOpKind, FaultPlan, FaultSpec};
        let dir = durable_dir("attachfail");
        let mut s = Session::new();
        s.execute_script("create table u (a int)").unwrap();
        s.install_fault_plan(FaultPlan::single(
            FaultSpec::nth(0).on_kind(FaultOpKind::WalAppend),
        ));
        assert!(s.persist_to(&dir, SyncPolicy::Always).is_err());
        assert!(!s.is_durable() && s.db().table("u").is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unacknowledged_outcomes_leave_durable_state_untouched() {
        let dir = durable_dir("abort");
        let mut s = Session::new();
        s.execute_script(
            "create table t (a int);
             create table log (a int);
             create rule audit on t when inserted then \
               insert into log select a from inserted end;",
        )
        .unwrap();
        s.persist_to(&dir, SyncPolicy::Always).unwrap();
        let acked = s.durability().unwrap().base_db().clone();
        // Kill the rule's action: the commit aborts and must not be logged.
        s.install_fault_plan(starling_storage::FaultPlan::single(
            starling_storage::FaultSpec::nth(0).on_table("log"),
        ));
        s.execute_script("insert into t values (1)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Aborted);
        assert_eq!(*s.durability().unwrap().base_db(), acked);
        let r = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(*r.db(), acked);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed append rolls memory back to the durable base through the
    /// same `reset_to` a caller's checkpoint uses; either way the session
    /// keeps its mode, limits and store attachment.
    #[test]
    fn failed_wal_append_rolls_back_to_durable_base() {
        use starling_storage::{FaultOpKind, FaultPlan, FaultSpec};
        let dir = durable_dir("walfail");
        let mut s = Session::new();
        s.execute_script(
            "create table t (a int);
             create rule a on t when inserted then update t set a = a where a < 0 end;
             create rule b on t when deleted then update t set a = a where a < 0 end;",
        )
        .unwrap();
        s.persist_to(&dir, SyncPolicy::Always).unwrap();
        (s.eval_mode, s.budget.max_considerations) = (EvalMode::Interp, 77);
        let acked = s.state();
        s.install_fault_plan(FaultPlan::single(
            FaultSpec::nth(0).on_kind(FaultOpKind::WalAppend),
        ));
        let edit = "alter rule a precedes b; declare commute a, b; insert into t values (1)";
        s.execute_script(edit).unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Aborted);
        assert!(run
            .error
            .as_ref()
            .is_some_and(EngineError::is_injected_fault));
        // Memory agrees with disk that the commit did not happen...
        assert_eq!((s.db(), &s.state().program), (&acked.db, &acked.program));
        let r = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
        assert_eq!((r.db(), &r.state().program), (&acked.db, &acked.program));
        // ...a caller's checkpoint undoes rule DDL and DML the same way...
        s.execute_script("drop rule b; insert into t values (3)")
            .unwrap();
        s.reset_to(acked.clone());
        assert_eq!(s.db().state_digest(), acked.db.state_digest());
        assert_eq!(s.state().program, acked.program);
        assert_eq!(s.ruleset().unwrap().len(), 2);
        // ...and neither loses the mode, the limits or the attachment: the
        // one-shot fault lets the retry land durably.
        assert_eq!(
            (s.eval_mode, s.budget.max_considerations),
            (EvalMode::Interp, 77)
        );
        s.execute_script(edit).unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Quiescent);
        let r = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
        assert_eq!((r.db(), r.state().program), (s.db(), s.state().program));
        assert_eq!(r.rule_defs()[0].precedes, ["b"]);
        // A commit that changes no rule logs a frame without the rules text.
        let logged = std::fs::read(dir.join("wal.log")).unwrap().len();
        s.execute_script("insert into t values (2)").unwrap();
        s.commit(&mut FirstEligible).unwrap();
        let log = std::fs::read(dir.join("wal.log")).unwrap();
        assert!(log.len() > logged);
        assert!(!log[logged..].windows(11).any(|w| w == b"create rule"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_rotation_preserves_recovery() {
        let dir = durable_dir("rotate");
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.persist_to(&dir, SyncPolicy::Batch).unwrap();
        s.set_snapshot_every(2);
        for i in 0..5 {
            s.execute_script(&format!("insert into t values ({i})"))
                .unwrap();
            s.commit(&mut FirstEligible).unwrap();
        }
        s.durable_snapshot().unwrap();
        let r = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(r.db(), s.db());
        assert_eq!(r.db().total_rows(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rule_rollback_aborts_transaction() {
        let mut s = Session::new();
        s.execute_script(
            "create table t (a int);
             create rule nope on t when inserted then rollback end;",
        )
        .unwrap();
        s.execute_script("insert into t values (1)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, crate::processor::Outcome::RolledBack);
        assert!(s.db().table("t").unwrap().is_empty());
    }
}
