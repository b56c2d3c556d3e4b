//! What one warm §6.4 step costs, as a count rather than a clock. On the
//! benchmark's 1000-rule program, after the bulk refinement that certifies
//! every conflict a first analyze flags, one more certification, the
//! re-analyze, the report's JSON and its text allocate for what the step
//! changed plus the report itself: the context shares the rule set's
//! signatures and bodies, and a toggle copies one rule's certified
//! set. Through `InteractiveSession` the step records the one appended
//! directive, not the 9.5 k certifications again.
//! Neither a certify step nor an `order` step on a recompiled rule set
//! rebuilds the triggering graph, the conflict index or the termination
//! analysis: no rule changed.
//! Binding a context allocates per rule at most, not per AST node, and so
//! does recompiling the unchanged program: the rule set shares the
//! definitions' bodies and each body memoizes its signature, so an `order`
//! step through `InteractiveSession` (alter, recompile, analyze) costs
//! what the analyze costs plus a few blocks per rule.
//! Compiling the program builds no physical plan, and neither does any
//! analysis step: a plan waits for its rule's first consideration.
//! A protected table's §7 requirement filters the step's confluence
//! analysis rather than sweeping its significant rules again.

// The shared `big` table goes unused: this test measures no table.
#[allow(dead_code)]
mod counting;

use std::sync::Arc;

use counting::heap_of;
use starling_analysis::{
    AnalysisContext, Certifications, IncrementalAnalysis, InteractiveSession, PairStore,
};
use starling_engine::{RuleSet, Session};
use starling_fuzz::{generate, FuzzCase, GenConfig};
use starling_sql::ast::Directive;
use starling_sql::RuleDef;

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

/// `defs` with each body copied (`body_mut` unshares it and empties its
/// memo), so compiling these derives every signature.
fn unmemoized(defs: &[RuleDef]) -> Vec<RuleDef> {
    let mut defs = defs.to_vec();
    for d in &mut defs {
        d.body_mut();
    }
    defs
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

    let (a, b) = uncertified(&case, &certs);
    let (heap, text) = heap_of(|| {
        certs.certify_commute(&a, &b);
        let report = analysis.analyze(&rs, &certs, false, &[]);
        report.to_json().to_string()
    });
    assert_eq!(analysis.stats().incremental_sweeps, 1);
    assert_eq!(text.len(), 7_251);
    // Measured 112 918 blocks while the context copied the program, a
    // toggle copied every certified set and the report copied every lint
    // line; 26 336 while each step rebuilt the triggering graph, the
    // conflict index and the termination analysis; 11 977 while the report
    // carried 9 522 Corollary 6.10 lines restating the certifications (and
    // its JSON 728 946 bytes); 2 399 while violations stored their
    // reasons; 2 392 since.
    assert!(
        heap.allocated <= 2_640,
        "a warm certify step allocated {} blocks",
        heap.allocated
    );
}

/// A certify step with one protected table whose `Sig` holds every rule,
/// on the program before the bulk certification (which leaves no table's
/// `Sig` above 33 rules): §7's requirement over `Sig(T')` is a filter of
/// the confluence analysis the step assembles, not a sweep of its own.
#[test]
fn a_warm_certify_step_with_a_protected_table_sweeps_nothing_more() {
    let case = generate(42, &GenConfig::scaled(1000));
    let rs = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
    let mut certs = Certifications::new();
    let mut analysis = IncrementalAnalysis::sequential();
    let protect = [vec![case.tables[0].name.clone()]];
    let cold = analysis.analyze(&rs, &certs, false, &protect);
    assert_eq!(cold.partial[0].significant.len(), rs.len());

    let (a, b) = uncertified(&case, &certs);
    let (heap, report) = heap_of(|| {
        certs.certify_commute(&a, &b);
        analysis.analyze(&rs, &certs, false, &protect)
    });
    assert_eq!(analysis.stats().incremental_sweeps, 1);
    assert_eq!(report.to_json().to_string().len(), 31_546_803);
    // Measured 1 090 320 blocks while §7 swept `Sig(T')`'s 1 000 rules
    // again, building every candidate's closure; 835 019 while each
    // violation stored its Lemma 6.1 reasons (copied out of the pair
    // store's memo, then again into the §7 section); 294 245 since a
    // violation holds its names and two signature handles.
    assert!(
        heap.allocated <= 323_700,
        "a warm certify step with a protected table allocated {} blocks",
        heap.allocated
    );
}

/// The same certify step through [`InteractiveSession`], the §6.4 loop of the
/// server and the CLI: the certification is a `declare` appended to the
/// session's program, and the analyze records that directive alone.
#[test]
fn a_warm_certify_step_through_the_session_records_one_directive() {
    let (case, rs, certs) = refined();
    let directives = certs
        .commute_pairs()
        .map(|(a, b)| Directive::Commute(a.to_owned(), b.to_owned()))
        .collect();
    let session = Session::restore(
        case.database(),
        case.defs.clone(),
        Some(Arc::new(rs)),
        directives,
    );
    let mut interactive = InteractiveSession::new(session);
    interactive.analyze(false, &[]).unwrap();

    let (a, b) = uncertified(&case, &certs);
    let (heap, text) = heap_of(|| {
        interactive.certify(Directive::Commute(a, b)).unwrap();
        let report = interactive.analyze(false, &[]).unwrap();
        report.to_json().to_string()
    });
    assert_eq!(interactive.analysis_stats().incremental_sweeps, 1);
    assert!(!text.is_empty());
    // Measured 2 436 blocks while violations stored their reasons; 2 429
    // since.
    assert!(
        heap.allocated <= 2_680,
        "a warm certify step through InteractiveSession allocated {} blocks",
        heap.allocated
    );
}

/// The benchmark's `order` step: one more `precedes` edge, the program
/// recompiled, the re-analyze and the report's JSON text. The recompiled
/// rules share the previous set's bodies, so the step rebuilds no program
/// index and reruns no termination analysis.
#[test]
fn a_warm_order_step_on_a_recompiled_set_allocates_for_what_changed() {
    let (case, rs, certs) = refined();
    let mut analysis = IncrementalAnalysis::sequential();
    analysis.analyze(&rs, &certs, false, &[]);
    let mut defs = case.defs.clone();
    let next = defs[501].name.clone();
    defs[500].precedes.push(next);
    let ordered = RuleSet::compile(&defs, &case.catalog()).unwrap();

    let (heap, text) = heap_of(|| {
        let report = analysis.analyze(&ordered, &certs, false, &[]);
        report.to_json().to_string()
    });
    let stats = analysis.stats();
    assert_eq!((stats.incremental_sweeps, stats.index_builds), (1, 1));
    assert!(!text.is_empty());
    // Measured 11 624 blocks with the Corollary 6.10 lines, 2 080 while
    // violations stored their reasons, 2 074 since.
    assert!(
        heap.allocated <= 2_290,
        "a warm order step allocated {} blocks",
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
    // A rebind of a recompiled rule set: the same body handles.
    let recompiled = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
    let (fresh, (_, outcome)) =
        heap_of(|| AnalysisContext::bound_to_store(&recompiled, certs.clone(), false, &store));
    assert!(outcome.changed_rules.is_empty() && outcome.added_rules.is_empty());
    // Measured 40 351 / 40 273 / 40 271 blocks while the context copied
    // every signature, AST and the catalog; 1 093 / 15 / 13 since: one
    // interned name per rule, then a handful of vectors; 1 102 / 16 / 14
    // since the store keeps each rule's body handle in one vector.
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
    // A cold compile: bodies of their own, with no signature memoized.
    let cold = unmemoized(&case.defs);
    let (compiled, _) = heap_of(|| RuleSet::compile(&cold, &catalog).unwrap());
    // Measured 110 200 blocks while compiling built every rule's plans and
    // copied every name for the priority closure's error; 56 148 since:
    // each rule's signature and its definition's copy; 52 719 once a scope
    // binding held its schema, not a copy of the table's name; 27 491
    // since the rule set shares the definitions' bodies instead of copying
    // each AST.
    assert!(
        compiled.allocated <= 30_240,
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

/// Recompiling the unchanged program — what the session does after an
/// `order` or a `declare terminates` — derives no signature: every body
/// memoized its own against the catalog handle the set adopts. It
/// allocates the rule set's own vectors and name map, per rule, not per
/// AST node.
#[test]
fn recompiling_an_unchanged_program_allocates_per_rule() {
    let (case, rs, _) = refined();
    let catalog = case.catalog();
    let rules = rs.len() as isize;
    let (recompiled, again) = heap_of(|| RuleSet::compile(&case.defs, &catalog).unwrap());
    assert!(Arc::ptr_eq(again.shared_catalog(), rs.shared_catalog()));
    assert!(again
        .rules()
        .iter()
        .zip(rs.rules())
        .all(|(a, b)| Arc::ptr_eq(&a.body, &b.body) && Arc::ptr_eq(&a.sig, &b.sig)));
    // Measured 52 719 blocks while each compile derived every signature
    // and copied every AST; 2 738 since.
    assert!(
        recompiled.allocated <= 3 * rules,
        "recompiling allocated {} blocks",
        recompiled.allocated
    );
}

/// The §6.4 `order` step as the server and the CLI take it: an
/// `alter rule` through [`InteractiveSession::order`], the program
/// recompiled, the re-analyze and the report's JSON text.
#[test]
fn a_warm_order_step_through_the_session_is_bounded() {
    let (case, rs, certs) = refined();
    let directives = certs
        .commute_pairs()
        .map(|(a, b)| Directive::Commute(a.to_owned(), b.to_owned()))
        .collect();
    let session = Session::restore(
        case.database(),
        case.defs.clone(),
        Some(Arc::new(rs)),
        directives,
    );
    let mut interactive = InteractiveSession::new(session);
    interactive.analyze(false, &[]).unwrap();

    let (a, b) = (case.defs[500].name.clone(), case.defs[501].name.clone());
    let (heap, text) = heap_of(|| {
        interactive.order(&a, &b).unwrap();
        let report = interactive.analyze(false, &[]).unwrap();
        report.to_json().to_string()
    });
    assert_eq!(interactive.analysis_stats().index_builds, 1);
    assert!(!text.is_empty());
    // Measured 54 806 blocks while the recompile derived every signature
    // and copied every AST; 4 822 while violations stored their reasons;
    // 4 819 since.
    assert!(
        heap.allocated <= 5_300,
        "a warm order step through InteractiveSession allocated {} blocks",
        heap.allocated
    );
}
