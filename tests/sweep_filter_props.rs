//! Subset sweep ≡ filter: §7, restricted analysis and §8 read their
//! Confluence Requirement off the whole rule set's sweep, and must find
//! exactly what sweeping the subset's own pairs finds
//! (`subset_sweep/mod.rs`).
//!
//! - **§7**: `Sig(t)` of each single table and of one random pair of
//!   tables — the same violations in the same order, and `pairs_checked`
//!   the subset's unordered pairs.
//! - **Restricted**: each table's insert and each table's delete as the
//!   allowed operation — the same for the reachable rules, and §8 over
//!   them.
//! - **§8**: the three-part test against the cells of every closure of
//!   `Sig(Obs)`'s pairs, the observable rules logging.
//!
//! Programs: the fuzz generator's `GenConfig::CORPUS` seeds 0..500 and
//! `GenConfig::default()` seeds 0..300, each with and without random
//! `commute` certifications, with the predicate-level refinement off and
//! on; and two hand-built closures that hold one observable rule on both
//! sides, and two distinct ones on opposite sides.

mod subset_sweep;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starling_analysis::confluence::{analyze_confluence, pair_closure, ConfluenceAnalysis};
use starling_analysis::observable::{observable_determinism, ObservableAnalysis};
use starling_analysis::partial::{analyze_partial_confluence, significant_rules};
use starling_analysis::restricted::{analyze_restricted, reachable_rules};
use starling_analysis::{load_script, AnalysisContext, Certifications};
use starling_engine::RuleSet;
use starling_fuzz::{generate, FuzzCase, GenConfig};
use starling_storage::Op;

/// The filtered analysis of `subset` against a sweep of its own pairs.
fn assert_filter(ctx: &AnalysisContext, subset: &[usize], got: &ConfluenceAnalysis, what: &str) {
    assert_eq!(
        got.violations,
        subset_sweep::violations(ctx, subset),
        "{what}"
    );
    assert_eq!(got.pairs_checked, ctx.dense_pairs(subset).len(), "{what}");
    assert_eq!(got.requirement_holds(), got.violations.is_empty(), "{what}");
}

/// §8's answer against the reference cells over its `Sig(Obs)`; returns
/// whether the requirement holds.
fn assert_observable(ctx: &AnalysisContext, got: &ObservableAnalysis, what: &str) -> bool {
    let sig: Vec<usize> = got.significant.iter().map(|r| index(ctx, r)).collect();
    let want = subset_sweep::observable_requirement(ctx, &sig);
    assert_eq!(got.requirement_holds, want, "{what}: §8");
    want
}

fn index(ctx: &AnalysisContext, rule: &str) -> usize {
    ctx.index_of(rule).unwrap()
}

#[derive(Default)]
struct Tally {
    contexts: usize,
    partial: usize,
    partial_violated: usize,
    restricted: usize,
    restricted_violated: usize,
    observable: usize,
    observable_fails: usize,
    /// §8 failures with no unordered observable pair and no violation in
    /// `Sig(Obs)²`: the observable split alone decided them.
    split_only: usize,
}

/// Up to two random `declare commute` pairs.
fn random_certs(rng: &mut StdRng, case: &FuzzCase) -> Certifications {
    let names: Vec<&str> = case.defs.iter().map(|d| d.name.as_str()).collect();
    let mut certs = Certifications::new();
    for _ in 0..rng.gen_range(1..=2) {
        let (a, b) = (rng.gen_range(0..names.len()), rng.gen_range(0..names.len()));
        if a != b {
            certs.certify_commute(names[a], names[b]);
        }
    }
    certs
}

fn check(case: &FuzzCase, rng: &mut StdRng, what: &str, tally: &mut Tally) {
    let cat = case.catalog();
    let rs = RuleSet::compile(&case.defs, &cat).unwrap();
    let tables: Vec<&str> = case.tables.iter().map(|t| t.name.as_str()).collect();
    let certified = random_certs(rng, case);
    let pair = [
        tables[rng.gen_range(0..tables.len())],
        tables[rng.gen_range(0..tables.len())],
    ];
    for certs in [Certifications::new(), certified] {
        for refine in [false, true] {
            let what = format!("{what}, {certs:?}, refine {refine}");
            let ctx = AnalysisContext::from_ruleset(&rs, certs.clone());
            let ctx = if refine { ctx.with_refinement() } else { ctx };
            let confluence = analyze_confluence(&ctx);
            tally.contexts += 1;

            let singles = tables.iter().map(std::slice::from_ref);
            for protect in singles.chain([&pair[..]]) {
                let sig = significant_rules(&ctx, protect);
                let got = analyze_partial_confluence(&ctx, &confluence, protect).confluence;
                assert_filter(&ctx, &sig, &got, &format!("{what}, Sig({protect:?})"));
                tally.partial += 1;
                tally.partial_violated += usize::from(!got.violations.is_empty());
            }

            let ops = tables
                .iter()
                .flat_map(|&t| [Op::Insert(t.into()), Op::Delete(t.into())]);
            for op in ops {
                let what = format!("{what}, restricted to {op}");
                let reach = reachable_rules(&ctx, std::slice::from_ref(&op));
                let got = analyze_restricted(&ctx, &confluence, std::slice::from_ref(&op));
                assert_filter(&ctx, &reach, &got.confluence, &what);
                assert_observable(&ctx, &got.observable, &what);
                tally.restricted += 1;
                tally.restricted_violated += usize::from(!got.confluence.violations.is_empty());
            }

            let got = observable_determinism(&ctx, &confluence);
            let holds = assert_observable(&ctx, &got, &what);
            if !got.observable_rules.is_empty() {
                tally.observable += 1;
                tally.observable_fails += usize::from(!holds);
                let observable: Vec<usize> = got
                    .observable_rules
                    .iter()
                    .map(|r| index(&ctx, r))
                    .collect();
                let sig: Vec<usize> = got.significant.iter().map(|r| index(&ctx, r)).collect();
                let unordered = !ctx.dense_pairs(&observable).is_empty();
                let violated = !subset_sweep::violations(&ctx, &sig).is_empty();
                tally.split_only += usize::from(!holds && !unordered && !violated);
            }
        }
    }
}

#[test]
fn subset_sweeps_equal_filters_of_the_whole_sweep() {
    let mut rng = StdRng::seed_from_u64(0x5ee9_f117);
    let mut tally = Tally::default();
    for (cfg, seeds, label) in [
        (GenConfig::CORPUS, 0..500u64, "corpus"),
        (GenConfig::default(), 0..300u64, "default"),
    ] {
        for seed in seeds {
            let case = generate(seed, &cfg);
            check(&case, &mut rng, &format!("{label} seed {seed}"), &mut tally);
        }
    }
    assert_eq!(tally.contexts, 3_200);
    // Every filter must be seen keeping violations, and §8 failing.
    let Tally {
        partial,
        partial_violated,
        restricted,
        restricted_violated,
        observable,
        observable_fails,
        split_only,
        ..
    } = tally;
    assert!(partial_violated > 1_000, "{partial_violated} of {partial}");
    assert!(
        restricted_violated > 500,
        "{restricted_violated} of {restricted}"
    );
    assert!(observable_fails > 500, "{observable_fails} of {observable}");
    eprintln!(
        "§7 {partial_violated}/{partial} violated, restricted \
         {restricted_violated}/{restricted}, §8 {observable_fails}/{observable} \
         failing ({split_only} on an observable split alone)"
    );
}

/// Tables `t`, `u`, `v`, `w`: `ri` and `rj` are unordered and
/// non-observable, on `t`; the rest of the rules are ordered.
const TABLES: &str = "create table t (x int);
    create table u (x int);
    create table v (x int);
    create table w (x int, y int);";

fn context(rules: &str) -> AnalysisContext {
    load_script(&format!("{TABLES}\n{rules}"))
        .unwrap()
        .context()
}

/// Both `ri` and `rj` trigger the observable `h`, which has priority over
/// both, so `h` joins `R1` and `R2` of their pair. The cell `(h, h)`
/// commutes, with the observations logged or not: §8 holds, as it did
/// when it swept `Sig(Obs)` cell by cell. Certifying `h` against each
/// side leaves the other cells commuting, and `o` (observable, ordered
/// last) reads what `ri` and `rj` write, so the pair lies in `Sig(Obs)²`.
#[test]
fn one_observable_rule_on_both_sides_of_a_closure_commutes_with_itself() {
    let ctx = context(
        "create rule ri on t when inserted
             then insert into u values (1); update w set x = 1 precedes o end;
         create rule rj on t when inserted
             then insert into u values (2); update w set y = 1 precedes o end;
         create rule h on u when inserted then select x from t precedes ri, rj, o end;
         create rule o on t when deleted then select x, y from w end;
         declare commute ri, h;
         declare commute rj, h;",
    );
    let [ri, rj, h] = ["ri", "rj", "h"].map(|r| index(&ctx, r));
    let cl = pair_closure(&ctx, ri, rj);
    assert_eq!((&cl.r1[..], &cl.r2[..]), (&[ri, h][..], &[rj, h][..]));
    assert!(!cl.splits_observables(&ctx));

    let confluence = analyze_confluence(&ctx);
    assert!(confluence.requirement_holds(), "{confluence:?}");
    let got = observable_determinism(&ctx, &confluence);
    assert_eq!(got.significant, ["ri", "rj", "h", "o"]);
    assert!(got.requirement_holds);
    assert!(assert_observable(&ctx, &got, "h on both sides"));
    assert!(got.is_guaranteed());
}

/// `ri` triggers the observable `h1` and `rj` the observable `h2`, each
/// with priority over both, so `h1 ∈ R1` and `h2 ∈ R2`. Every cell commutes
/// in the base world and `h1 > h2` orders the observables, but logged, the
/// two observations do not commute: §8 fails on the split alone.
#[test]
fn two_observable_rules_split_by_a_closure_fail_observable_determinism() {
    let ctx = context(
        "create rule ri on t when inserted then insert into u values (1) end;
         create rule rj on t when inserted then insert into v values (1) end;
         create rule h1 on u when inserted then select x from t precedes ri, rj, h2 end;
         create rule h2 on v when inserted then select x from t precedes ri, rj end;",
    );
    let [ri, rj, h1, h2] = ["ri", "rj", "h1", "h2"].map(|r| index(&ctx, r));
    let cl = pair_closure(&ctx, ri, rj);
    assert_eq!((&cl.r1[..], &cl.r2[..]), (&[ri, h1][..], &[rj, h2][..]));
    assert!(cl.splits_observables(&ctx));

    let confluence = analyze_confluence(&ctx);
    assert!(confluence.requirement_holds(), "{confluence:?}");
    let got = observable_determinism(&ctx, &confluence);
    assert_eq!(got.significant, ["ri", "rj", "h1", "h2"]);
    assert!(got.termination.is_guaranteed());
    assert!(!got.requirement_holds);
    assert!(!assert_observable(&ctx, &got, "h1, h2 split"));
}
