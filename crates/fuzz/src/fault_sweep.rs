//! Fault-sweep harness: exhaustive atomicity checking under injected
//! storage faults.
//!
//! For a generated case, the sweep first runs its user transition with
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

use starling_engine::{Budget, FirstEligible, Outcome, Session};
use starling_sql::ast::Statement;
use starling_storage::{FaultPlan, FaultSpec};

use crate::gen::FuzzCase;

/// Result of one fault sweep over a case's user transition.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Mutating storage ops in the fault-free run (the sweep's `N`).
    pub mutating_ops: u64,
    /// Outcome of the fault-free run (`Quiescent`, `RolledBack`, or
    /// `LimitExceeded` when the budget ran out — all are legal reference
    /// points).
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

/// A session with the case's tables and seed rows committed and its rules
/// defined, poised before the user transition. Setup goes through the
/// session like everything else, so the sweep exercises exactly the code
/// paths a user would.
fn build_session(case: &FuzzCase, budget: &Budget) -> Session {
    let setup = FuzzCase {
        defs: Vec::new(),
        user_actions: Vec::new(),
        ..case.clone()
    };
    let mut s = Session::new();
    s.budget = *budget;
    s.execute_script(&setup.script()).expect("setup script");
    // No rules exist yet, so the seed commit quiesces trivially.
    let seeded = s.commit(&mut FirstEligible).expect("seed commit");
    assert_eq!(
        seeded.outcome,
        Outcome::Quiescent,
        "seed commit is rule-free"
    );
    let rules: String = case.defs.iter().map(|d| format!("{d};\n")).collect();
    s.execute_script(&rules).expect("rule definitions");
    s
}

/// Executes the case's user transition and commits. Errors surface from
/// the statement that hit them; the session has already rolled back.
fn drive(s: &mut Session, case: &FuzzCase) -> Result<Outcome, starling_engine::EngineError> {
    for a in &case.user_actions {
        s.execute(&Statement::Dml(a.clone()))?;
    }
    Ok(s.commit(&mut FirstEligible)?.outcome)
}

/// Sweeps one case: injects a storage fault at every mutating-op index of
/// its user transition and checks snapshot-or-committed at each.
///
/// `budget` bounds rule processing per run (non-terminating or
/// table-doubling rule sets stop at [`Outcome::LimitExceeded`], which is
/// still a deterministic reference state for the unfired-fault runs).
pub fn fault_sweep(case: &FuzzCase, budget: &Budget) -> SweepReport {
    // Reference run: an empty fault plan fires nothing but counts ops.
    let mut clean = build_session(case, budget);
    let pre_digest = clean.db().state_digest();
    clean.install_fault_plan(FaultPlan::new());
    let clean_outcome = drive(&mut clean, case).expect("fault-free run");
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
        let mut s = build_session(case, budget);
        s.install_fault_plan(FaultPlan::single(FaultSpec::nth(k)));
        let res = drive(&mut s, case);
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
    use crate::gen::{generate, GenConfig};

    use super::*;

    const SMALL: GenConfig = GenConfig {
        max_tables: 3,
        max_rules: 3,
        min_rules: 3,
        p_order: 0.2,
        p_observable: 0.15,
        ..GenConfig::CORPUS
    };

    fn budget() -> Budget {
        Budget::default()
            .with_max_considerations(40)
            .with_max_rows(100)
    }

    #[test]
    fn sweep_holds_on_sampled_cases() {
        for seed in 0..8 {
            let report = fault_sweep(&generate(seed, &SMALL), &budget());
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
        let report = fault_sweep(&generate(3, &SMALL), &budget());
        assert!(report.mutating_ops > 0, "{report:?}");
    }
}
