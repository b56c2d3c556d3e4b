//! Metamorphic relations of the static analysis: edits to a program whose
//! effect on the report is known without knowing the report.
//!
//! Certification monotonicity: a `declare commute` only makes Lemma 6.1
//! answer "commutes" more often, and neither termination nor a Def 6.5
//! closure reads it. So certifying a pair never turns a guaranteed
//! termination, Confluence Requirement, observable determinism or partial
//! confluence verdict into "may not", and never adds a violation. Checked
//! on the from-scratch [`AnalysisReport::run`] and on a warm
//! [`IncrementalAnalysis`], for a flagged conflict (what a §6.4 user
//! certifies) and for a random pair.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starling_analysis::{
    AnalysisContext, AnalysisReport, Certifications, ConfluenceViolation, IncrementalAnalysis,
};
use starling_engine::RuleSet;
use starling_fuzz::{generate, GenConfig};

/// The report's verdicts, each `true` for "guaranteed" / "holds": termination,
/// the Confluence Requirement, observable determinism, then one per
/// protected table set.
fn verdicts(r: &AnalysisReport) -> Vec<bool> {
    let mut v = vec![
        r.termination.is_guaranteed(),
        r.confluence.requirement_holds(),
        r.observable.is_guaranteed(),
    ];
    v.extend(r.partial.iter().map(|p| p.is_guaranteed()));
    v
}

/// Every violation list the report holds: the whole set's, the §8 `Obs`
/// requirement's, and each protected set's.
fn violations(r: &AnalysisReport) -> Vec<&[ConfluenceViolation]> {
    let mut v = vec![
        &r.confluence.violations[..],
        &r.observable.partial.confluence.violations[..],
    ];
    v.extend(r.partial.iter().map(|p| &p.confluence.violations[..]));
    v
}

/// `after` is `before` with one more certification: no verdict got worse
/// and every violation of `after` is one of `before`.
fn assert_monotone(before: &AnalysisReport, after: &AnalysisReport, what: &str) {
    for (k, (was, is)) in verdicts(before)
        .into_iter()
        .zip(verdicts(after))
        .enumerate()
    {
        assert!(
            !was || is,
            "{what}: verdict {k} went from guaranteed to may not"
        );
    }
    for (was, is) in violations(before).into_iter().zip(violations(after)) {
        for v in is {
            assert!(was.contains(v), "{what}: new violation {v:?}");
        }
    }
}

#[test]
fn certifying_a_pair_never_weakens_a_verdict() {
    let mut rng = StdRng::seed_from_u64(0x6d65_7461);
    let (mut certified, mut removed) = (0, 0);
    for seed in 0..200u64 {
        let case = generate(seed, &GenConfig::CORPUS);
        let rs = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
        let protect = vec![vec![case.tables[0].name.clone()]];
        let scratch = |certs: &Certifications| {
            let ctx = AnalysisContext::from_ruleset(&rs, certs.clone());
            AnalysisReport::run(&ctx, &protect)
        };
        let none = Certifications::new();
        let before = scratch(&none);
        let mut warm = IncrementalAnalysis::sequential();
        let warm_before = warm.analyze(&rs, &none, false, &protect);

        let names: Vec<&str> = case.defs.iter().map(|d| d.name.as_str()).collect();
        let i = rng.gen_range(0..names.len());
        let j = (i + rng.gen_range(1..names.len())) % names.len();
        let random = (names[i].to_owned(), names[j].to_owned());
        let flagged = before.confluence.violations.first();
        let pairs = flagged
            .map(|v| v.conflict.clone())
            .into_iter()
            .chain([random]);
        for (a, b) in pairs {
            let mut certs = Certifications::new();
            certs.certify_commute(&a, &b);
            let what = format!("seed {seed}, declare commute {a}, {b}");
            let after = scratch(&certs);
            assert_monotone(&before, &after, &what);
            let warm_after = warm.analyze(&rs, &certs, false, &protect);
            assert_monotone(&warm_before, &warm_after, &format!("{what} (warm)"));
            certified += 1;
            removed += before.confluence.violations.len() - after.confluence.violations.len();
        }
    }
    // The flagged certifications must bite, or the relation says nothing.
    assert!(certified > 200, "{certified} certifications");
    assert!(removed > 50, "{removed} violations removed");
}
