//! Corpus builders for the `experiments` binary (see `EXPERIMENTS.md` at
//! the repository root for the experiment index E1–E13).

use starling_analysis::certifications::Certifications;
use starling_analysis::context::AnalysisContext;
use starling_engine::RuleSet;
use starling_workloads::random::{generate, GeneratedWorkload, RandomConfig};

/// The standard experiment corpus configuration (matches the calibration
/// used by the integration tests: a healthy mix of accepted and rejected
/// rule sets).
pub fn corpus_config(seed: u64) -> RandomConfig {
    RandomConfig {
        n_tables: 4,
        n_cols: 2,
        n_rules: 4,
        max_actions: 2,
        p_condition: 0.5,
        p_observable: 0.2,
        p_priority: 0.4,
        rows_per_table: 2,
        seed,
    }
}

/// A scalability-sweep configuration with `n_rules` rules over
/// proportionally many tables (keeps triggering density roughly constant
/// as size grows).
pub fn scale_config(n_rules: usize, seed: u64) -> RandomConfig {
    RandomConfig {
        n_tables: (n_rules / 2).max(2),
        n_cols: 3,
        n_rules,
        max_actions: 2,
        p_condition: 0.5,
        p_observable: 0.1,
        p_priority: 0.3,
        rows_per_table: 2,
        seed,
    }
}

/// Generates and compiles a workload, returning everything the analyses
/// need.
pub fn build(cfg: &RandomConfig) -> (GeneratedWorkload, RuleSet, AnalysisContext) {
    let w = generate(cfg);
    let rules = w.compile();
    let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
    (w, rules, ctx)
}
