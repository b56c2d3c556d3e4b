//! Equivalence properties for the incremental analyzer (§6.4 loop).
//!
//! Drives fuzz-generated rule programs through random refinement
//! sessions — certify/revoke, order/unorder, drop/re-add, redefine,
//! refinement toggles, termination certificates, a `WHERE` constant
//! changed and changed back — and after **every** step checks that
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
//! finds anything on is a candidate. And the walks check the §9 partition
//! property of what each step rechecked (`walk::session`).
//!
//! Seeds are pinned: failures reproduce exactly in CI.

mod obs_log;
mod walk;

use starling_analysis::confluence::check_pair;
use starling_analysis::context::AnalysisContext;
use starling_analysis::Certifications;
use starling_fuzz::{generate, GenConfig};
use walk::{scratch, scratch_ctx};

/// One walk over the fuzz generator's seed-`seed` program of shape `cfg`,
/// protecting its first table. It must actually exercise the incremental
/// path — a suite where every step falls back to a full sweep proves
/// nothing.
fn session(seed: u64, cfg: &GenConfig, steps: usize, cold_pairs: u64) {
    let case = generate(seed, cfg);
    let protect = vec![vec![case.tables[0].name.clone()]];
    let walk = walk::session(
        seed,
        &case.catalog(),
        case.defs,
        &protect,
        steps,
        cold_pairs,
    );
    assert!(
        walk.incremental_steps >= 2,
        "seed {seed}: walk never went incremental"
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
        session(seed, &cfg, 18, 0);
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
        session(seed, &cfg, 12, 1 << 12);
    }
}

/// Every unordered pair the dense triangle finds anything on — a violation
/// or a closure member beyond the pair — must be one of
/// the conflict index's candidates. Returns how many such pairs there were.
fn assert_candidates_cover(ctx: &AnalysisContext, what: &str) -> usize {
    let all: Vec<usize> = (0..ctx.len()).collect();
    let candidates = ctx.candidate_pairs();
    assert!(candidates.windows(2).all(|w| w[0] < w[1]), "{what}: order");
    let mut flagged = 0;
    for (i, j) in ctx.dense_pairs(&all) {
        let (closure, violations) = check_pair(ctx, i, j);
        let extras = closure.r1.len() + closure.r2.len() > 2;
        if violations.is_empty() && !extras {
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
/// certifications, and over Theorem 8.1's construction done literally
/// (`obs_log/mod.rs`) too.
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
                let logged = obs_log::obs_log_ctx(&cat, &case.defs, &certs, refine);
                flagged += assert_candidates_cover(&logged, &what);
                observables += ctx.sigs.iter().filter(|s| s.observable).count();
            }
        }
    }
    assert!(flagged > 1000, "the property was vacuous: {flagged} pairs");
    assert!(observables > 0, "no program had an observable rule");
}
