//! # starling-workloads
//!
//! Workload generators and case studies for the Starling experiments.
//!
//! * [`random`] — a seeded, parameterized generator of *valid* rule sets,
//!   initial databases, and user transitions. Every experiment that
//!   compares static verdicts against the execution-graph oracle draws its
//!   corpus from here, reproducibly.
//! * [`power_network`] — a reconstruction of the power-network design
//!   application of \[CW90\], the paper's Section 5 termination case study:
//!   a cascade of deletions whose triggering cycle is discharged by
//!   delete-only certificates.
//! * [`constraints`] — integrity-constraint maintenance and derived-data
//!   rules (the \[CW90\]/\[WF90\] motivating workload): referential
//!   integrity, salary caps, materialized per-department totals. Used for
//!   the Section 6.4 iterative-confluence case study.
//! * [`audit`] — observable audit rules (`SELECT`/`ROLLBACK` actions) for
//!   the Section 8 experiments.
//! * [`versioning`] — append-only document versioning (another of the
//!   introduction's motivating applications).
//! * [`mod@corpus`] — small named rule sets with known ground-truth properties,
//!   shared by tests and benches.
//! * [`cond_stress`] — condition-heavy rule programs (joins and filters
//!   over a reference table of any size), the evaluation-mode
//!   differentials' input.
//! * [`mod@fault_sweep`] — exhaustive atomicity checking under injected storage
//!   faults: replay a transaction with a fault at every mutating-op index
//!   and verify the database is always snapshot-or-committed.
//! * [`chase`] — chase-style linear existential rules (Calautti et al.):
//!   weakly acyclic, non-terminating, and order-sensitive TGD sets whose
//!   fresh-label arithmetic imports the chase's termination and confluence
//!   regimes into the analyzers and the `explain` path.

pub mod audit;
pub mod chase;
pub mod cond_stress;
pub mod constraints;
pub mod corpus;
pub mod fault_sweep;
pub mod power_network;
pub mod random;
pub mod versioning;

pub use corpus::{corpus, CorpusEntry};
pub use fault_sweep::{fault_sweep, SweepReport};
pub use random::{GeneratedWorkload, RandomConfig};

use starling_engine::RuleSet;
use starling_sql::ast::Statement;
use starling_sql::parse_script;
use starling_sql::RuleDef;
use starling_storage::Database;

/// A self-contained workload: schema + data script, rule definitions, and
/// user transitions to probe with.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Human-readable name.
    pub name: &'static str,
    /// Script creating tables and seeding initial data.
    pub setup: String,
    /// Script defining the rules (and any `declare` directives).
    pub rules: String,
    /// User statements forming the initial transition for oracle runs.
    pub user_transition: String,
}

impl Workload {
    /// Materializes the workload: executes `setup`, parses `rules`, and
    /// returns the seeded database plus rule definitions and directives.
    pub fn build(
        &self,
    ) -> Result<
        (Database, Vec<RuleDef>, Vec<starling_sql::ast::Directive>),
        starling_engine::EngineError,
    > {
        let mut session = starling_engine::Session::new();
        session.execute_script(&self.setup)?;
        session.commit(&mut starling_engine::FirstEligible)?;
        let program = starling_engine::RuleProgram::parse(&self.rules)?;
        Ok((session.db().clone(), program.defs, program.directives))
    }

    /// Compiles the rule set against the built database's catalog.
    pub fn compile(&self) -> Result<(Database, RuleSet), starling_engine::EngineError> {
        let (db, defs, _) = self.build()?;
        let rs = RuleSet::compile(&defs, db.catalog())?;
        Ok((db, rs))
    }

    /// The user transition as parsed actions.
    pub fn user_actions(&self) -> Result<Vec<starling_sql::ast::Action>, starling_sql::SqlError> {
        Ok(parse_script(&self.user_transition)?
            .into_iter()
            .filter_map(|s| match s {
                Statement::Dml(a) => Some(a),
                _ => None,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_case_studies_build_and_compile() {
        for w in [
            power_network::workload(),
            constraints::workload(),
            audit::workload(),
            versioning::workload(),
            chase::terminating(),
            chase::nonterminating(),
            chase::order_sensitive(),
        ] {
            let (db, rs) = w
                .compile()
                .unwrap_or_else(|e| panic!("workload `{}` failed to compile: {e}", w.name));
            assert!(!rs.is_empty(), "{}", w.name);
            assert!(!db.catalog().is_empty(), "{}", w.name);
            assert!(!w.user_actions().unwrap().is_empty(), "{}", w.name);
        }
    }
}
