//! Partitioned analysis (paper §9), both halves of its promise.
//!
//! "Analysis can be applied separately to each partition": analyzing each
//! independent partition separately must agree with whole-set analysis —
//! "although rules from different partitions are processed at the same time
//! and their execution may be interleaved, they have no effect on each
//! other". "… and it needs to be repeated for a partition only when rules
//! in that partition change": the incremental analyzer that ships rechecks
//! nothing outside the partitions a refinement step changed. The renamer
//! that builds the partitions also gives the first metamorphic relation:
//! renaming every table and rule changes no verdict.

mod walk;

use std::collections::BTreeSet;

use starling::analysis::certifications::Certifications;
use starling::analysis::confluence::analyze_confluence;
use starling::analysis::context::AnalysisContext;
use starling::analysis::partition::partition_rules;
use starling::analysis::termination::analyze_termination;
use starling::analysis::IncrementalAnalysis;
use starling::engine::{explore, Budget, RuleSet};
use starling_fuzz::gen::{namespace_tokens, partitioned};
use starling_fuzz::{generate, GenConfig};

fn partitioned_rules(k: usize) -> RuleSet {
    let (catalog, defs) = partitioned(k);
    RuleSet::compile(&defs, &catalog).unwrap()
}

/// The position in `parts` of the partition holding rule `i`.
fn component(parts: &[Vec<usize>], i: usize) -> usize {
    parts.iter().position(|g| g.contains(&i)).unwrap()
}

#[test]
fn partitioned_verdicts_equal_whole_set_verdicts() {
    for k in [2usize, 4, 6] {
        let (catalog, defs) = partitioned(k);
        let rules = RuleSet::compile(&defs, &catalog).unwrap();
        let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
        let whole_term = analyze_termination(&ctx);
        let whole_conf = analyze_confluence(&ctx);

        // "Analysis can be applied separately to each partition": each one
        // compiled and analyzed as a rule set of its own.
        let groups = partition_rules(&ctx);
        assert_eq!(groups.len(), k);
        let parts: Vec<_> = groups
            .iter()
            .map(|group| {
                let own: Vec<_> = group.iter().map(|&i| defs[i].clone()).collect();
                let rules = RuleSet::compile(&own, &catalog).unwrap();
                let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
                (analyze_termination(&ctx), analyze_confluence(&ctx))
            })
            .collect();

        // Every cycle the whole-set analysis finds lives in exactly one
        // partition, and vice versa.
        let whole_cycles: BTreeSet<Vec<String>> =
            whole_term.cycles.iter().map(|c| c.rules.clone()).collect();
        let part_cycles: BTreeSet<Vec<String>> = parts
            .iter()
            .flat_map(|(t, _)| t.cycles.iter().map(|c| c.rules.clone()))
            .collect();
        assert_eq!(whole_cycles, part_cycles, "k = {k}");

        // Confluence violations likewise.
        let whole_viol: BTreeSet<(String, String)> = whole_conf
            .violations
            .iter()
            .map(|v| v.conflict.clone())
            .collect();
        let part_viol: BTreeSet<(String, String)> = parts
            .iter()
            .flat_map(|(_, c)| c.violations.iter().map(|v| v.conflict.clone()))
            .collect();
        assert_eq!(whole_viol, part_viol, "k = {k}");

        // Aggregate verdicts agree.
        assert_eq!(
            whole_term.is_guaranteed(),
            parts.iter().all(|(t, _)| t.is_guaranteed()),
            "k = {k}"
        );
        assert_eq!(
            whole_conf.requirement_holds(),
            parts.iter().all(|(_, c)| c.requirement_holds()),
            "k = {k}"
        );
    }
}

#[test]
fn partition_count_and_cache_behavior() {
    let rules = partitioned_rules(5);
    let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
    let parts = partition_rules(&ctx);
    assert_eq!(parts.len(), 5);
    // Partitions are a disjoint cover.
    let mut seen = BTreeSet::new();
    for g in &parts {
        for &i in g {
            assert!(seen.insert(i), "rule {i} in two partitions");
        }
    }
    assert_eq!(seen.len(), ctx.len());

    // The cache is the incremental analyzer's: cold, every partition is
    // swept; an unchanged set rechecks nothing; certifying one flagged pair
    // rechecks pairs of that pair's partition alone.
    let touched = |inc: &IncrementalAnalysis| -> BTreeSet<usize> {
        let pairs = inc.last_rechecked().iter();
        pairs
            .flat_map(|&(i, j)| [component(&parts, i), component(&parts, j)])
            .collect()
    };
    let mut inc = IncrementalAnalysis::new();
    let mut certs = Certifications::new();
    let cold = inc.analyze(&rules, &certs, false, &[]);
    assert_eq!(touched(&inc).len(), 5);
    inc.analyze(&rules, &certs, false, &[]);
    assert!(inc.last_rechecked().is_empty());
    let (a, b) = cold.confluence.violations[0].conflict.clone();
    certs.certify_commute(&a, &b);
    let warm = inc.analyze(&rules, &certs, false, &[]);
    assert_eq!(
        warm.confluence.violations.len() + 1,
        cold.confluence.violations.len()
    );
    assert!(!inc.last_rechecked().is_empty());
    assert_eq!(
        touched(&inc),
        BTreeSet::from([component(&parts, ctx.index_of(&a).unwrap())])
    );
}

/// After every step of a refinement walk — certify, order, add, drop,
/// redefine — the analyzer's report is byte-identical to a from-scratch and
/// a dense one, every pair it rechecked lies inside one partition, and an
/// incremental step's pairs lie inside the partitions the step changed
/// (`walk::session` asserts all of it). On `partitioned(k)` most steps leave
/// whole partitions out of reach, so the last property has teeth.
#[test]
fn warm_steps_recheck_only_the_partitions_that_changed() {
    for k in [2usize, 4, 6, 8] {
        let (catalog, defs) = partitioned(k);
        let protect = vec![vec!["p0_t0".to_owned()]];
        let walk = walk::session(k as u64, &catalog, defs, &protect, 16, 0);
        assert!(
            walk.local_steps >= 2,
            "k = {k}: {} of {} incremental steps left a partition alone",
            walk.local_steps,
            walk.incremental_steps
        );
    }
    // One connected program of the fuzz generator's benchmark shape, where
    // the partitions are whatever the conflicts make them.
    let case = generate(35, &GenConfig::scaled(200));
    let protect = vec![vec![case.tables[0].name.clone()]];
    let walk = walk::session(35, &case.catalog(), case.defs, &protect, 8, 0);
    assert!(walk.incremental_steps >= 2);
}

/// α-renaming is invisible to the analyzer and the oracle: prefixing every
/// table and rule of a generated script changes its `analyze --json` report
/// only by that prefix, and its explored graph not at all (states, edges,
/// final states, verdicts).
#[test]
fn renaming_tables_and_rules_changes_no_verdict() {
    let budget = Budget::default()
        .with_max_states(300)
        .with_max_paths(2_000)
        .with_max_rows(2_000);
    let mut explored = 0;
    for seed in 0..200 {
        let script = generate(seed, &GenConfig::default()).script();
        let renamed = namespace_tokens(&script, 7);
        assert_ne!(renamed, script, "seed {seed}: nothing renamed");
        let analyze = |src: &str| starling_cli::cmd_analyze(src, &[], false, true);
        let (Ok(report), Ok(renamed_report)) = (analyze(&script), analyze(&renamed)) else {
            panic!("seed {seed}: one side of the renaming failed to analyze\n{script}");
        };
        assert_eq!(
            renamed_report.replace("p7_", ""),
            report,
            "seed {seed}\n{script}"
        );

        let graph = |src: &str| {
            let s = starling::analysis::load_script(src).unwrap();
            let g = explore(&s.rules, &s.db, &s.user_actions, &budget).ok()?;
            Some((
                g.states.len(),
                g.edges.len(),
                g.final_dbs.len(),
                g.verdicts(&budget),
            ))
        };
        let original = graph(&script);
        assert_eq!(graph(&renamed), original, "seed {seed}\n{script}");
        explored += usize::from(original.is_some());
    }
    assert!(
        explored > 150,
        "only {explored} of 200 transitions explored"
    );
}
