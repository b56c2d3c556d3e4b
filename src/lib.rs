//! # Starling
//!
//! A from-scratch reproduction of
//!
//! > A. Aiken, J. Widom, J. M. Hellerstein. *Behavior of Database Production
//! > Rules: Termination, Confluence, and Observable Determinism.* SIGMOD
//! > 1992.
//!
//! Starling contains a complete Starburst-style production rule system —
//! SQL subset, in-memory relational storage, net-effect transition
//! semantics, rule processor — plus the paper's static analyses and an
//! exhaustive execution-graph oracle that validates them.
//!
//! ## Crate map
//!
//! | Facade module | Crate | Contents |
//! |---|---|---|
//! | [`storage`] | `starling-storage` | catalog, tuples, databases, digests |
//! | [`sql`] | `starling-sql` | lexer, parser, validator, evaluator |
//! | [`engine`] | `starling-engine` | net effects, priorities, processor, oracle |
//! | [`analysis`] | `starling-analysis` | the paper's analyses (Sections 3–8) |
//! | [`provenance`] | `starling-provenance` | decision traces, divergence witnesses |
//! | [`baselines`] | `starling-baselines` | HH91/ZH90/Ras90-analog comparators |
//! | [`workloads`] | `starling-workloads` | case studies (random programs come from `starling-fuzz`) |
//!
//! ## Quickstart
//!
//! ```
//! use starling::prelude::*;
//!
//! // A schema and two rules that race on `u.x`.
//! let script = "
//!     create table t (x int);
//!     create table u (x int);
//!     create rule a on t when inserted then update u set x = 1 end;
//!     create rule b on t when inserted then update u set x = 2 end;
//! ";
//! let mut session = Session::new();
//! session.execute_script(script).unwrap();
//! let defs = session.rule_defs().to_vec();
//! let rules = RuleSet::compile(&defs, session.db().catalog()).unwrap();
//!
//! let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
//! let report = AnalysisReport::run(&ctx, &[]);
//! assert!(!report.confluence.requirement_holds()); // a and b do not commute
//! ```

pub use starling_analysis as analysis;
pub use starling_baselines as baselines;
pub use starling_engine as engine;
pub use starling_provenance as provenance;
pub use starling_sql as sql;
pub use starling_storage as storage;
pub use starling_workloads as workloads;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use starling_analysis::{
        AnalysisContext, AnalysisReport, Certifications, InteractiveSession,
    };
    pub use starling_engine::{
        explore, ExecState, ExploreConfig, FirstEligible, Outcome, Processor, RuleSet, Session,
    };
    pub use starling_sql::{parse_script, parse_statement};
    pub use starling_storage::{Catalog, Database, Value};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_compiles_and_links() {
        let mut s = Session::new();
        s.execute_script("create table t (x int); insert into t values (1)")
            .unwrap();
        assert_eq!(s.db().table("t").unwrap().len(), 1);
    }
}
