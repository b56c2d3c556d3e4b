//! Equivalence properties for the incremental analyzer (§6.4 loop).
//!
//! Drives fuzz-generated rule programs through random refinement
//! sessions — certify/revoke, order/unorder, drop/re-add, refinement
//! toggles — and after **every** step checks that
//!
//! 1. the incremental report is byte-identical (JSON and Display) to a
//!    from-scratch [`AnalysisReport::run`] on the same inputs, and
//! 2. the parallel analyzer ([`IncrementalAnalysis::new`]) and the
//!    sequential one ([`IncrementalAnalysis::sequential`]) agree, so
//!    thread scheduling cannot leak into reports, and
//! 3. that from-scratch report — whose sweeps visit only the conflict
//!    index's candidate pairs — is byte-identical to the one the dense
//!    triangle produces ([`AnalysisContext::with_dense_sweep`]).
//!
//! A direct property backs the third check: every pair the dense triangle
//! finds anything on is a candidate.
//!
//! Seeds are pinned: failures reproduce exactly in CI.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starling_analysis::confluence::{check_pair, corollary_pair};
use starling_analysis::context::AnalysisContext;
use starling_analysis::observable::extend_with_obs;
use starling_analysis::report::AnalysisReport;
use starling_analysis::{Certifications, IncrementalAnalysis};
use starling_engine::RuleSet;
use starling_fuzz::{generate, GenConfig};
use starling_sql::RuleDef;
use starling_storage::Catalog;

fn scratch_ctx(
    cat: &Catalog,
    defs: &[RuleDef],
    certs: &Certifications,
    refine: bool,
) -> AnalysisContext {
    let rs = RuleSet::compile(defs, cat).unwrap();
    let ctx = AnalysisContext::from_ruleset(&rs, certs.clone());
    if refine {
        ctx.with_refinement()
    } else {
        ctx
    }
}

fn scratch(
    cat: &Catalog,
    defs: &[RuleDef],
    certs: &Certifications,
    refine: bool,
    protect: &[Vec<String>],
) -> AnalysisReport {
    AnalysisReport::run(&scratch_ctx(cat, defs, certs, refine), protect)
}

/// One random mutation of the editing state. Returns a label for failure
/// messages; mutations that would not compile (priority cycles) are
/// reverted, which keeps the walk deterministic per seed.
#[allow(clippy::too_many_arguments)]
fn mutate(
    rng: &mut StdRng,
    defs: &mut Vec<RuleDef>,
    cat: &Catalog,
    certs: &mut Certifications,
    refine: &mut bool,
    certified: &mut Vec<(String, String)>,
    dropped: &mut Vec<RuleDef>,
    last: &AnalysisReport,
) -> String {
    match rng.gen_range(0..6u32) {
        0 => {
            // Certify: prefer a real outstanding conflict, like a §6.4 user.
            let (a, b) = match last.confluence.violations.first() {
                Some(v) => v.conflict.clone(),
                None => {
                    let i = rng.gen_range(0..defs.len());
                    let j = rng.gen_range(0..defs.len());
                    (defs[i].name.clone(), defs[j].name.clone())
                }
            };
            certs.certify_commute(&a, &b);
            certified.push((a.clone(), b.clone()));
            format!("certify {a}~{b}")
        }
        1 => match certified.pop() {
            Some((a, b)) => {
                certs.revoke_commute(&a, &b);
                format!("revoke {a}~{b}")
            }
            None => "revoke (nothing certified)".to_owned(),
        },
        2 => {
            // Order: a fresh low→high precedes edge can never close a cycle
            // on its own, but the generated program already has edges, so
            // compile-check and revert if one forms.
            let i = rng.gen_range(0..defs.len().saturating_sub(1));
            let j = rng.gen_range(i + 1..defs.len());
            let target = defs[j].name.clone();
            if defs[i].precedes.contains(&target) {
                return "order (edge existed)".to_owned();
            }
            defs[i].precedes.push(target.clone());
            if RuleSet::compile(defs, cat).is_err() {
                defs[i].precedes.pop();
                return "order (reverted, cycle)".to_owned();
            }
            format!("order {} > {target}", defs[i].name)
        }
        3 => {
            let candidates: Vec<usize> = (0..defs.len())
                .filter(|&i| !defs[i].precedes.is_empty())
                .collect();
            match candidates.first() {
                Some(&i) => {
                    let gone = defs[i].precedes.pop().unwrap();
                    format!("unorder {} > {gone}", defs[i].name)
                }
                None => "unorder (no edges)".to_owned(),
            }
        }
        4 if defs.len() > 2 => {
            // Drop a random rule, stripping dangling ordering references.
            let i = rng.gen_range(0..defs.len());
            let victim = defs.remove(i);
            for d in defs.iter_mut() {
                d.precedes.retain(|n| n != &victim.name);
                d.follows.retain(|n| n != &victim.name);
            }
            let label = format!("drop {}", victim.name);
            dropped.push(victim);
            label
        }
        5 => match dropped.pop() {
            Some(mut back) => {
                // Its own ordering lists may name since-dropped rules.
                let known: Vec<String> = defs.iter().map(|d| d.name.clone()).collect();
                back.precedes.retain(|n| known.contains(n));
                back.follows.retain(|n| known.contains(n));
                let label = format!("re-add {}", back.name);
                defs.push(back);
                if RuleSet::compile(defs, cat).is_err() {
                    dropped.push(defs.pop().unwrap());
                    return "re-add (reverted, cycle)".to_owned();
                }
                label
            }
            None => {
                *refine = !*refine;
                format!("toggle refine -> {refine}")
            }
        },
        _ => {
            *refine = !*refine;
            format!("toggle refine -> {refine}")
        }
    }
}

/// Runs one seeded refinement session over `cfg`, checking all three
/// analyzers against each other after every step. The cold sweep must visit
/// at least `cold_pairs` pairs.
fn session(seed: u64, cfg: &GenConfig, steps: usize, cold_pairs: u64) {
    let case = generate(seed, cfg);
    let cat = case.catalog();
    let mut defs = case.defs;
    let mut certs = Certifications::new();
    let mut refine = false;
    let protect = vec![vec![case.tables[0].name.clone()]];
    let mut certified = Vec::new();
    let mut dropped = Vec::new();
    let mut par = IncrementalAnalysis::new();
    let mut seq = IncrementalAnalysis::sequential();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);

    let mut last = scratch(&cat, &defs, &certs, refine, &protect);
    for step in 0..=steps {
        let label = if step == 0 {
            "initial".to_owned()
        } else {
            mutate(
                &mut rng,
                &mut defs,
                &cat,
                &mut certs,
                &mut refine,
                &mut certified,
                &mut dropped,
                &last,
            )
        };
        let rs = RuleSet::compile(&defs, &cat).unwrap();
        let got_par = par.analyze(&rs, &certs, refine, &protect);
        let got_seq = seq.analyze(&rs, &certs, refine, &protect);
        if step == 0 {
            let visited = par.stats().last_rechecked_pairs;
            assert!(
                visited >= cold_pairs,
                "seed {seed}: cold sweep of {visited}"
            );
        }
        let want = scratch(&cat, &defs, &certs, refine, &protect);
        let ctx = format!("seed {seed} step {step} ({label})");
        assert_eq!(
            got_par.to_json().to_string(),
            want.to_json().to_string(),
            "incremental(parallel) != from-scratch json at {ctx}"
        );
        assert_eq!(
            got_par.to_string(),
            want.to_string(),
            "incremental(parallel) != from-scratch display at {ctx}"
        );
        assert_eq!(
            got_seq.to_json().to_string(),
            want.to_json().to_string(),
            "incremental(sequential) != from-scratch json at {ctx}"
        );
        let dense = scratch_ctx(&cat, &defs, &certs, refine).with_dense_sweep();
        let dense = AnalysisReport::run(&dense, &protect);
        assert_eq!(
            want.to_json().to_string(),
            dense.to_json().to_string(),
            "candidate sweep != dense sweep json at {ctx}"
        );
        assert_eq!(
            want.to_string(),
            dense.to_string(),
            "candidate sweep != dense sweep display at {ctx}"
        );
        last = want;
    }
    // The walk must actually have exercised the incremental path — a
    // suite where every step falls back to a full sweep proves nothing.
    assert!(
        par.stats().incremental_sweeps >= 2,
        "seed {seed}: walk never went incremental: {:?}",
        par.stats()
    );
}

/// Dense-priority programs (≤ 64 rules draw the exhaustive ordering pass):
/// observables, rollbacks, and conditions all enabled.
#[test]
fn incremental_matches_scratch_dense_programs() {
    let cfg = GenConfig {
        max_rules: 30,
        min_rules: 30,
        // Plenty of tables: at 30 rules on few tables the triggering graph
        // is near-complete and termination's cycle enumeration, not the
        // code under test, dominates the suite's runtime.
        max_tables: 15,
        max_rows: 0,
        ..GenConfig::default()
    };
    for seed in [11, 13, 14] {
        session(seed, &cfg, 12, 0);
    }
}

/// Sparse-priority programs above the dense-ordering limit, big enough
/// (≥ 4096 candidate pairs) that the parallel
/// analyzer's cold prewarm actually spawns threads — this is the
/// parallel ≡ sequential determinism check.
#[test]
fn incremental_matches_scratch_sparse_programs() {
    let cfg = GenConfig::scaled(250);
    for seed in [22, 27] {
        session(seed, &cfg, 8, 1 << 12);
    }
}

/// Every unordered pair the dense triangle finds anything on — a violation,
/// a closure member beyond the pair, or a corollary lint — must be one of
/// the conflict index's candidates. Returns how many such pairs there were.
fn assert_candidates_cover(ctx: &AnalysisContext, what: &str) -> usize {
    let all: Vec<usize> = (0..ctx.len()).collect();
    let candidates = ctx.candidate_pairs(&all);
    assert!(candidates.windows(2).all(|w| w[0] < w[1]), "{what}: order");
    let mut flagged = 0;
    for (i, j) in ctx.dense_pairs(&all) {
        let (closure, violations) = check_pair(ctx, i, j);
        let extras = closure.r1.len() + closure.r2.len() > 2;
        if violations.is_empty() && !extras && corollary_pair(ctx, i, j).is_empty() {
            continue;
        }
        flagged += 1;
        assert!(
            candidates.binary_search(&(i, j)).is_ok(),
            "{what}: pair ({}, {}) is flagged but not a candidate",
            ctx.name(i),
            ctx.name(j)
        );
    }
    flagged
}

/// The superset property, on small dense programs and on 200-rule sparse
/// ones with observable rules: refinement on and off, with and without
/// certifications, and over the §8 `Obs`-extended signatures too.
#[test]
fn candidate_pairs_cover_every_flagged_pair() {
    let observable = GenConfig {
        p_observable: 0.1,
        ..GenConfig::scaled(200)
    };
    let cases = (0..40u64)
        .map(|seed| (seed, GenConfig::default()))
        .chain([31, 32, 33].map(|seed| (seed, observable)));
    let mut flagged = 0;
    let mut observables = 0;
    for (seed, cfg) in cases {
        let case = generate(seed, &cfg);
        let cat = case.catalog();
        let plain = scratch(&cat, &case.defs, &Certifications::new(), false, &[]);
        let mut certified = Certifications::new();
        for v in plain.confluence.violations.iter().step_by(2) {
            certified.certify_commute(&v.conflict.0, &v.conflict.1);
        }
        for certs in [Certifications::new(), certified] {
            for refine in [false, true] {
                let ctx = scratch_ctx(&cat, &case.defs, &certs, refine);
                let what = format!("seed {seed}, {} rules, refine {refine}", ctx.len());
                flagged += assert_candidates_cover(&ctx, &what);
                flagged += assert_candidates_cover(&extend_with_obs(&ctx), &what);
                observables += ctx.sigs.iter().filter(|s| s.observable).count();
            }
        }
    }
    assert!(flagged > 1000, "the property was vacuous: {flagged} pairs");
    assert!(observables > 0, "no program had an observable rule");
}
