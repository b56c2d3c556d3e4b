//! What one warm §6.4 step costs, as a count rather than a clock. On the
//! benchmark's 1000-rule program, after the bulk refinement that certifies
//! every conflict a first analyze flags, one more certification, the
//! re-analyze, the report's JSON and its text allocate for what the step
//! changed plus the report itself: the context shares the rule set's
//! signatures and definitions, a toggle copies one rule's certified set,
//! and the report's 9 522 lint lines are shared with the analyzer's memo.
//! Binding a context allocates per rule at most, not per AST node.
//! Compiling the program builds no physical plan, and neither does any
//! analysis step: a plan waits for its rule's first consideration.

// The shared `big` table goes unused: this test measures no table.
#[allow(dead_code)]
mod counting;

use std::sync::Arc;

use counting::heap_of;
use starling_analysis::{AnalysisContext, Certifications, IncrementalAnalysis, PairStore};
use starling_engine::RuleSet;
use starling_fuzz::{generate, FuzzCase, GenConfig};

/// The seed-42 1000-rule program of `sweep_count`, compiled, with every
/// conflict a first analyze flags certified: the state the §6.4 loop
/// iterates on.
fn refined() -> (FuzzCase, RuleSet, Certifications) {
    let case = generate(42, &GenConfig::scaled(1000));
    let rs = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
    let first = IncrementalAnalysis::sequential().analyze(&rs, &Certifications::new(), false, &[]);
    let mut certs = Certifications::new();
    for v in &first.confluence.violations {
        certs.certify_commute(&v.conflict.0, &v.conflict.1);
    }
    (case, rs, certs)
}

/// The first pair of neighbours from rule 500 on that is not certified yet.
fn uncertified(case: &FuzzCase, certs: &Certifications) -> (String, String) {
    (500..)
        .map(|i| (case.defs[i].name.clone(), case.defs[i + 1].name.clone()))
        .find(|(a, b)| !certs.commute_certified(a, b))
        .unwrap()
}

#[test]
fn a_warm_certify_step_allocates_for_what_changed() {
    let (case, rs, mut certs) = refined();
    let mut analysis = IncrementalAnalysis::sequential();
    let warm = analysis.analyze(&rs, &certs, false, &[]);
    assert!(warm.confluence.violations.is_empty());
    assert_eq!(warm.corollary_failures.len(), 9522);

    let (a, b) = uncertified(&case, &certs);
    let (heap, text) = heap_of(|| {
        certs.certify_commute(&a, &b);
        let report = analysis.analyze(&rs, &certs, false, &[]);
        report.to_json().to_string()
    });
    assert_eq!(analysis.stats().incremental_sweeps, 1);
    assert_eq!(text.len(), 728_946);
    // Measured 112 918 blocks while the context copied the program, a
    // toggle copied every certified set and the report copied every lint
    // line; 26 336 since. Most of the rest is the report's JSON tree, which
    // holds one string per line.
    assert!(
        heap.allocated <= 28_970,
        "a warm certify step allocated {} blocks",
        heap.allocated
    );
}

#[test]
fn binding_a_context_allocates_per_rule_not_per_ast_node() {
    let (case, rs, mut certs) = refined();
    let rules = rs.len() as isize;
    let store = Arc::new(PairStore::new());
    // The first bind interns every rule's name.
    let (first, _) = heap_of(|| AnalysisContext::bound_to_store(&rs, certs.clone(), false, &store));
    let (a, b) = uncertified(&case, &certs);
    certs.certify_commute(&a, &b);
    // A rebind after a certification: the same rule set, one toggled pair.
    let (warm, _) = heap_of(|| AnalysisContext::bound_to_store(&rs, certs.clone(), false, &store));
    // A rebind of a recompiled rule set: new handles, equal signatures.
    let recompiled = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
    let (fresh, (_, outcome)) =
        heap_of(|| AnalysisContext::bound_to_store(&recompiled, certs.clone(), false, &store));
    assert!(outcome.changed_rules.is_empty() && outcome.added_rules.is_empty());
    // Measured 40 351 / 40 273 / 40 271 blocks while the context copied
    // every signature, AST and the catalog; 1 093 / 15 / 13 since: one
    // interned name per rule, then a handful of vectors.
    assert!(
        first.allocated <= rules + rules / 5,
        "first bind: {}",
        first.allocated
    );
    assert!(warm.allocated <= 20, "warm rebind: {}", warm.allocated);
    assert!(
        fresh.allocated <= 20,
        "recompiled rebind: {}",
        fresh.allocated
    );
}

/// The §6.4 loop reads signatures only, so neither compiling the program
/// nor analyzing it builds a rule's physical plans: that waits for the
/// rule's first consideration.
#[test]
fn compiling_and_analyzing_build_no_plan() {
    let (case, rs, mut certs) = refined();
    let catalog = case.catalog();
    let (compiled, _) = heap_of(|| RuleSet::compile(&case.defs, &catalog).unwrap());
    // Measured 110 200 blocks while compiling built every rule's plans and
    // copied every name for the priority closure's error; 56 148 since:
    // each rule's signature and its definition's copy.
    assert!(
        compiled.allocated <= 58_000,
        "compiling allocated {} blocks",
        compiled.allocated
    );

    let mut analysis = IncrementalAnalysis::sequential();
    analysis.analyze(&rs, &certs, false, &[]);
    // A certify step, then an order step: `a precedes` its successor
    // (generated priority edges run low to high index, so no cycle).
    let (a, b) = uncertified(&case, &certs);
    certs.certify_commute(&a, &b);
    analysis.analyze(&rs, &certs, false, &[]);
    let mut defs = case.defs.clone();
    let next = defs[501].name.clone();
    defs[500].precedes.push(next);
    let ordered = RuleSet::compile(&defs, &catalog).unwrap();
    analysis.analyze(&ordered, &certs, false, &[]);
    assert_eq!(analysis.stats().incremental_sweeps, 2);
    for set in [&rs, &ordered] {
        assert!(set.rules().iter().all(|r| r.plan.get().is_none()));
    }
}
