//! Correctness of partitioned analysis (paper §9): analyzing each
//! independent partition separately must agree with whole-set analysis —
//! "although rules from different partitions are processed at the same time
//! and their execution may be interleaved, they have no effect on each
//! other".

use starling::analysis::certifications::Certifications;
use starling::analysis::confluence::analyze_confluence;
use starling::analysis::context::AnalysisContext;
use starling::analysis::partition::{partition_rules, IncrementalAnalyzer};
use starling::analysis::termination::analyze_termination;
use starling::engine::RuleSet;
use starling::workloads::random::partitioned;

fn partitioned_context(k: usize) -> AnalysisContext {
    let (catalog, defs) = partitioned(k);
    let rules = RuleSet::compile(&defs, &catalog).unwrap();
    AnalysisContext::from_ruleset(&rules, Certifications::new())
}

#[test]
fn partitioned_verdicts_equal_whole_set_verdicts() {
    for k in [2usize, 4, 6] {
        let ctx = partitioned_context(k);
        let whole_term = analyze_termination(&ctx);
        let whole_conf = analyze_confluence(&ctx);

        let mut inc = IncrementalAnalyzer::new();
        let parts = inc.analyze(&ctx);
        assert_eq!(parts.len(), k);

        // Every cycle the whole-set analysis finds lives in exactly one
        // partition, and vice versa.
        let whole_cycles: std::collections::BTreeSet<Vec<String>> =
            whole_term.cycles.iter().map(|c| c.rules.clone()).collect();
        let part_cycles: std::collections::BTreeSet<Vec<String>> = parts
            .iter()
            .flat_map(|p| p.termination.cycles.iter().map(|c| c.rules.clone()))
            .collect();
        assert_eq!(whole_cycles, part_cycles, "k = {k}");

        // Confluence violations likewise.
        let whole_viol: std::collections::BTreeSet<(String, String)> = whole_conf
            .violations
            .iter()
            .map(|v| v.conflict.clone())
            .collect();
        let part_viol: std::collections::BTreeSet<(String, String)> = parts
            .iter()
            .flat_map(|p| p.confluence.violations.iter().map(|v| v.conflict.clone()))
            .collect();
        assert_eq!(whole_viol, part_viol, "k = {k}");

        // Aggregate verdicts agree.
        assert_eq!(
            whole_term.is_guaranteed(),
            parts.iter().all(|p| p.termination.is_guaranteed()),
            "k = {k}"
        );
        assert_eq!(
            whole_conf.requirement_holds(),
            parts.iter().all(|p| p.confluence.requirement_holds()),
            "k = {k}"
        );
    }
}

#[test]
fn partition_count_and_cache_behavior() {
    let ctx = partitioned_context(5);
    let parts = partition_rules(&ctx);
    assert_eq!(parts.len(), 5);
    // Partitions are a disjoint cover.
    let mut seen = std::collections::BTreeSet::new();
    for g in &parts {
        for &i in g {
            assert!(seen.insert(i), "rule {i} in two partitions");
        }
    }
    assert_eq!(seen.len(), ctx.len());
}
