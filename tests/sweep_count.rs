//! What an analyze costs, as a count rather than a clock: the pairs a cold
//! sweep visits and the Lemma 6.1 derivations it makes follow the program's
//! conflicts — rules that share a table, closures that can take a step —
//! not its pair space. Tripling the rules of the benchmark's program must
//! not triple either count. And a warm step follows one rule's conflicts,
//! not its row of the pair space, and rebuilds the program index only when
//! a rule changed.

use starling_analysis::confluence::pair_closure;
use starling_analysis::{AnalysisContext, Certifications, IncrementalAnalysis};
use starling_engine::RuleSet;
use starling_fuzz::{generate, GenConfig};

/// Pairs visited and pair-store misses of one cold sequential analyze of
/// the seed-42 program with `rules` rules.
fn cold_counts(rules: usize) -> (u64, u64) {
    let case = generate(42, &GenConfig::scaled(rules));
    let rs = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
    let certs = Certifications::new();
    let mut analysis = IncrementalAnalysis::sequential();
    let report = analysis.analyze(&rs, &certs, false, &[]);
    let stats = analysis.stats();
    assert_eq!(stats.full_sweeps, 1);
    let triangle = rules * (rules - 1) / 2;
    assert!(
        report.confluence.pairs_checked > triangle * 9 / 10,
        "`pairs_checked` is what the requirement covers, not what was visited"
    );

    // A visited pair asks for each verdict of its closure product once:
    // nothing else may miss. The store keeps verdicts only; a violation's
    // reasons are derived when a report shows them.
    let ctx = AnalysisContext::from_ruleset(&rs, certs);
    let candidates = ctx.candidate_pairs();
    assert_eq!(stats.last_rechecked_pairs, candidates.len() as u64);
    let products: usize = candidates
        .iter()
        .map(|&(i, j)| {
            let closure = pair_closure(&ctx, i, j);
            closure.r1.len() * closure.r2.len()
        })
        .sum();
    let bound = products as u64;
    assert!(
        stats.pair.misses <= bound,
        "{rules} rules: {} misses, bound {bound}",
        stats.pair.misses
    );
    (stats.last_rechecked_pairs, stats.pair.misses)
}

#[test]
fn a_cold_sweep_visits_the_conflicts_not_the_pair_space() {
    let (visited_1k, misses_1k) = cold_counts(1000);
    let (visited_3k, misses_3k) = cold_counts(3000);
    // Measured 81 873 of 499 500 and 95 278 of 4 498 500.
    assert!(visited_1k <= 90_000, "1000 rules: visited {visited_1k}");
    assert!(visited_3k <= 110_000, "3000 rules: visited {visited_3k}");
    assert!(visited_3k < 2 * visited_1k && misses_3k < 2 * misses_1k);
}

#[test]
fn a_warm_certify_step_rechecks_the_rules_partners_not_its_row() {
    let case = generate(42, &GenConfig::scaled(1000));
    let rs = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
    let mut certs = Certifications::new();
    let mut analysis = IncrementalAnalysis::sequential();
    analysis.analyze(&rs, &certs, false, &[]);
    // The benchmark's certify step: a seeded rule and its successor.
    certs.certify_commute(&case.defs[500].name, &case.defs[501].name);
    analysis.analyze(&rs, &certs, false, &[]);
    let stats = analysis.stats();
    assert_eq!((stats.full_sweeps, stats.incremental_sweeps), (1, 1));
    // Measured 58; the rule's row of the pair space is 999.
    let rechecked = stats.last_rechecked_pairs;
    assert!((1..400).contains(&rechecked), "rechecked {rechecked} pairs");
}

/// A warm step rebuilds the program index — the `Triggers` adjacency, its
/// predecessor map, the conflict index's table map and the termination
/// analysis — only when a rule was added, dropped or changed: the
/// benchmark's certify step builds none, nor does its `order` step on a
/// recompiled rule set, and its add/drop step builds one.
#[test]
fn only_an_add_or_drop_step_builds_the_program_index() {
    let case = generate(42, &GenConfig::scaled(1000));
    let catalog = case.catalog();
    let mut defs = case.defs.clone();
    // As in the benchmark, no rule names the last one, which the add/drop
    // step parks.
    let last = defs.last().unwrap().name.clone();
    for d in &mut defs {
        d.precedes.retain(|p| p != &last);
        d.follows.retain(|f| f != &last);
    }
    let rs = RuleSet::compile(&defs, &catalog).unwrap();
    let mut certs = Certifications::new();
    let mut analysis = IncrementalAnalysis::sequential();
    analysis.analyze(&rs, &certs, false, &[]);
    assert_eq!(analysis.stats().index_builds, 1);
    let builds = |analysis: &mut IncrementalAnalysis, rs: &RuleSet, certs: &Certifications| {
        let before = analysis.stats().index_builds;
        analysis.analyze(rs, certs, false, &[]);
        analysis.stats().index_builds - before
    };

    certs.certify_commute(&defs[500].name, &defs[501].name);
    assert_eq!(builds(&mut analysis, &rs, &certs), 0, "certify");

    let next = defs[501].name.clone();
    defs[500].precedes.push(next);
    let ordered = RuleSet::compile(&defs, &catalog).unwrap();
    assert_eq!(builds(&mut analysis, &ordered, &certs), 0, "order");

    let parked = defs.pop().unwrap();
    let dropped = RuleSet::compile(&defs, &catalog).unwrap();
    assert_eq!(builds(&mut analysis, &dropped, &certs), 1, "drop");
    defs.push(parked);
    let added = RuleSet::compile(&defs, &catalog).unwrap();
    assert_eq!(builds(&mut analysis, &added, &certs), 1, "add");
    assert_eq!(analysis.stats().full_sweeps, 1);
}
