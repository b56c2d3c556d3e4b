//! Fault-sweep harness: exhaustive atomicity checking under injected
//! storage faults.
//!
//! For a generated workload, the sweep first runs the user transition with
//! no faults to learn `N`, the number of mutating storage operations the
//! transaction performs (user DML plus every rule action). It then replays
//! the transaction `N + 1` times, injecting a one-shot storage fault before
//! op `k` for each `k = 0..N` (the extra run at `k = N` is a control whose
//! fault never fires), and checks the paper's §2 atomicity promise at every
//! index:
//!
//! * a run whose fault fired must end **aborted** with the database equal
//!   to the pre-transaction snapshot — the user's own statements included;
//! * a run whose fault never fired must be **indistinguishable from the
//!   fault-free run** (same outcome, same final database);
//! * nothing in between: a database that is neither the snapshot nor the
//!   committed state is a crash-consistency violation.
//!
//! Violations are collected, not panicked, so property tests can report
//! every broken index of a sweep at once.

use starling_engine::{FirstEligible, Outcome, Session};
use starling_sql::ast::Statement;
use starling_storage::{FaultPlan, FaultSpec};

use crate::random::GeneratedWorkload;

/// Result of one fault sweep over a workload's user transition.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Mutating storage ops in the fault-free run (the sweep's `N`).
    pub mutating_ops: u64,
    /// Outcome of the fault-free run (`Quiescent`, or `LimitExceeded` for
    /// non-terminating rule sets — both are legal reference points).
    pub clean_outcome: Outcome,
    /// Runs that aborted back to the snapshot (expected: one per `k < N`).
    pub aborted: usize,
    /// Runs indistinguishable from the fault-free run (expected: the
    /// control run at `k = N`).
    pub committed: usize,
    /// Human-readable atomicity violations. Empty iff the property holds.
    pub violations: Vec<String>,
}

impl SweepReport {
    /// True iff every swept index was snapshot-or-committed.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// DDL + deterministic seed rows for the workload's catalog, as a script.
/// (Seeds go through the session like everything else, so the sweep
/// exercises exactly the code paths a user would.)
fn setup_script(w: &GeneratedWorkload) -> String {
    let mut s = String::new();
    for t in w.catalog.tables() {
        let cols: Vec<String> = t
            .columns
            .iter()
            .map(|c| format!("{} int", c.name))
            .collect();
        s.push_str(&format!("create table {} ({});\n", t.name, cols.join(", ")));
    }
    for t in w.catalog.tables() {
        for row in 0..w.config.rows_per_table {
            let vals: Vec<String> = (0..t.arity())
                .map(|c| ((row + c) % 10).to_string())
                .collect();
            s.push_str(&format!(
                "insert into {} values ({});\n",
                t.name,
                vals.join(", ")
            ));
        }
    }
    s
}

/// A session with the workload's tables and seed data committed and its
/// rules defined, poised before the user transition.
fn build_session(w: &GeneratedWorkload, limit: usize) -> Session {
    let mut s = Session::new();
    s.budget.max_considerations = limit;
    s.execute_script(&setup_script(w)).expect("setup script");
    // No rules exist yet, so the seed commit quiesces trivially.
    let seeded = s.commit(&mut FirstEligible).expect("seed commit");
    assert_eq!(
        seeded.outcome,
        Outcome::Quiescent,
        "seed commit is rule-free"
    );
    s.execute_script(&w.script()).expect("rule definitions");
    s
}

/// Executes the user transition (salted as in
/// [`GeneratedWorkload::user_transition`]) and commits. Errors surface from
/// the statement that hit them; the session has already rolled back.
fn drive(
    s: &mut Session,
    w: &GeneratedWorkload,
    salt: u64,
) -> Result<Outcome, starling_engine::EngineError> {
    for a in w.user_transition(salt) {
        s.execute(&Statement::Dml(a))?;
    }
    Ok(s.commit(&mut FirstEligible)?.outcome)
}

/// Sweeps one workload: injects a storage fault at every mutating-op index
/// of the transaction and checks snapshot-or-committed at each.
///
/// `limit` bounds rule processing per run (non-terminating rule sets stop
/// at [`Outcome::LimitExceeded`], which is still a deterministic reference
/// state for the unfired-fault runs).
pub fn fault_sweep(w: &GeneratedWorkload, salt: u64, limit: usize) -> SweepReport {
    // Reference run: an empty fault plan fires nothing but counts ops.
    let mut clean = build_session(w, limit);
    let pre_digest = clean.db().state_digest();
    clean.install_fault_plan(FaultPlan::new());
    let clean_outcome = drive(&mut clean, w, salt).expect("fault-free run");
    let clean_digest = clean.db().state_digest();
    let mutating_ops = clean
        .db()
        .fault_state()
        .map(|f| f.ops_observed())
        .unwrap_or(0);

    let mut report = SweepReport {
        mutating_ops,
        clean_outcome,
        aborted: 0,
        committed: 0,
        violations: Vec::new(),
    };

    // `k = mutating_ops` is the control: its fault never fires.
    for k in 0..=mutating_ops {
        let mut s = build_session(w, limit);
        s.install_fault_plan(FaultPlan::single(FaultSpec::nth(k)));
        let res = drive(&mut s, w, salt);
        let fired = s.db().fault_state().is_some_and(|f| f.any_fired());
        let digest = s.db().state_digest();

        let aborted = match res {
            Err(_) => true,
            Ok(Outcome::Aborted) => true,
            Ok(_) => false,
        };
        if fired != aborted {
            report
                .violations
                .push(format!("k={k}: fault fired={fired} but aborted={aborted}"));
        }
        if aborted {
            report.aborted += 1;
            if digest != pre_digest {
                report.violations.push(format!(
                    "k={k}: aborted run left a database differing from the \
                     pre-transaction snapshot"
                ));
            }
        } else {
            report.committed += 1;
            if digest != clean_digest {
                report.violations.push(format!(
                    "k={k}: unfired-fault run diverged from the fault-free \
                     final state"
                ));
            }
            if let Ok(outcome) = res {
                if outcome != clean_outcome {
                    report.violations.push(format!(
                        "k={k}: unfired-fault run ended {outcome:?}, \
                         fault-free run ended {clean_outcome:?}"
                    ));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use crate::random::{generate, RandomConfig};

    use super::*;

    fn small(seed: u64) -> RandomConfig {
        RandomConfig {
            n_tables: 3,
            n_cols: 2,
            n_rules: 3,
            max_actions: 2,
            rows_per_table: 2,
            seed,
            ..RandomConfig::default()
        }
    }

    #[test]
    fn sweep_holds_on_sampled_workloads() {
        for seed in 0..8 {
            let w = generate(&small(seed));
            let report = fault_sweep(&w, 17, 40);
            assert!(report.holds(), "seed {seed}: {:#?}", report.violations);
            // Every fault index before N fires and aborts; the control
            // commits identically to the fault-free run.
            assert_eq!(report.aborted as u64, report.mutating_ops, "seed {seed}");
            assert_eq!(report.committed, 1, "seed {seed}");
        }
    }

    #[test]
    fn sweep_counts_user_dml_and_rule_actions() {
        // At least the user's own mutating statements are observed.
        let w = generate(&small(3));
        let report = fault_sweep(&w, 17, 40);
        assert!(report.mutating_ops > 0, "{report:?}");
    }
}
