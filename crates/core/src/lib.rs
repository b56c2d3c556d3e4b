//! # starling-analysis
//!
//! Static analysis of database production rules, implementing
//!
//! > A. Aiken, J. Widom, J. M. Hellerstein. *Behavior of Database Production
//! > Rules: Termination, Confluence, and Observable Determinism.* SIGMOD
//! > 1992.
//!
//! Given an arbitrary rule set `R`, the analyses answer — **conservatively**
//! — three questions:
//!
//! * [`termination`] — is rule processing guaranteed to terminate after any
//!   set of changes in any database state? (Theorem 5.1: acyclic triggering
//!   graph.)
//! * [`confluence`] — can the choice among unordered triggered rules affect
//!   the final database state? (Definition 6.5's Confluence Requirement +
//!   Theorem 6.7, built on the commutativity conditions of Lemma 6.1.)
//!   [`partial`] relaxes this to a subset of tables `T'` via the
//!   significant-rule set `Sig(T')` (Definition 7.1, Theorem 7.2).
//! * [`observable`] — can that choice affect the order or appearance of
//!   observable actions? (Theorem 8.1: partial confluence with respect to a
//!   fictional `Obs` table.)
//!
//! "Conservative" means: a **guaranteed** verdict is sound (property-tested
//! against the exhaustive execution-graph oracle in `starling-engine`); a
//! **may-not** verdict isolates the responsible rules and states criteria
//! that, if certified by the user ([`certifications`]), discharge the
//! warning — the basis of the interactive development environment of the
//! paper's introduction, implemented in [`interactive`] and [`report`].
//!
//! Extensions from the paper's Section 9 future work are also implemented:
//! automatic special-case cycle certificates ([`termination::auto_certify`]),
//! analysis under restricted user operations ([`restricted`]), and
//! partitioned/incremental analysis ([`partition`]).

//! ```
//! use starling_analysis::{AnalysisContext, AnalysisReport, Certifications};
//! use starling_engine::{RuleSet, Session};
//!
//! let mut session = Session::new();
//! session.execute_script("
//!     create table t (x int);
//!     create table u (x int);
//!     create rule a on t when inserted then update u set x = 1 end;
//!     create rule b on t when inserted then update u set x = 2 end;
//! ").unwrap();
//! let rules = RuleSet::compile(session.rule_defs(), session.db().catalog()).unwrap();
//! let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
//! let report = AnalysisReport::run(&ctx, &[]);
//!
//! // a and b race on u.x (Lemma 6.1, condition 5): may not be confluent.
//! assert!(!report.confluence.requirement_holds());
//! assert!(report.termination.is_guaranteed());
//!
//! // The paper's remedy: certify or order. Certifying makes it pass.
//! let mut certs = Certifications::new();
//! certs.certify_commute("a", "b");
//! let ctx = AnalysisContext::from_ruleset(&rules, certs);
//! assert!(AnalysisReport::run(&ctx, &[]).all_guaranteed());
//! ```

pub mod certifications;
pub mod commutativity;
mod conflict_index;
pub mod confluence;
pub mod context;
pub mod incremental;
pub mod interactive;
pub mod loader;
pub mod observable;
pub mod pair_store;
pub mod partial;
pub mod partition;
pub mod refine;
pub mod report;
pub mod restricted;
pub mod termination;
pub mod triggering_graph;

pub use certifications::Certifications;
pub use commutativity::{
    commutes, commutes_idx, may_not_commute, may_not_commute_lemma61, noncommutativity_reasons,
    noncommutativity_reasons_idx, noncommutativity_reasons_lemma61, prewarm_pairs,
    NoncommutativityReason,
};
pub use confluence::{ConfluenceAnalysis, ConfluenceVerdict, ConfluenceViolation};
pub use context::AnalysisContext;
pub use incremental::{IncrementalAnalysis, IncrementalStats};
pub use interactive::InteractiveSession;
pub use loader::{load_script, LoadedScript};
pub use observable::{ObservableAnalysis, OBS_TABLE};
pub use pair_store::{BindOutcome, PairStore, PairStoreStats};
pub use partial::{check_protected_tables, significant_rules, PartialConfluenceAnalysis};
pub use refine::{predicates_disjoint, refine_reasons};
pub use report::explore_json;
pub use report::AnalysisReport;
pub use termination::{CycleCertificate, TerminationAnalysis, TerminationVerdict};
pub use triggering_graph::TriggeringGraph;
