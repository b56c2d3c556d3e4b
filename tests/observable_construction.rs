//! Theorem 8.1's construction as the oracle of observable determinism.
//!
//! The paper reduces observable determinism to partial confluence with
//! respect to a fictional `Obs` table that every observable rule logs into
//! and reads. `obs_log/mod.rs` builds that table and those rules in SQL;
//! partial confluence with respect to `obs_log` over them must give
//! exactly what [`observable_determinism`] gives on the original rules:
//! the same significant rules, termination verdict and cycles, and
//! Confluence Requirement verdict. The same holds restricted to the rules
//! reachable from a set of user operations ([`analyze_restricted`]), the
//! construction then built over those rules alone, in the whole set's
//! priority order.
//!
//! The literal side's requirement is swept over `Sig(obs_log)`'s own
//! candidates (`subset_sweep/mod.rs`), not filtered from a whole-program
//! sweep as the closed form is: the oracle does not run the code it
//! checks.
//!
//! Programs: the fuzz generator's `GenConfig::CORPUS` seeds 0..3000 and
//! `GenConfig::default()` seeds 0..1500, each with and without random
//! `commute` / `terminates` certifications, with the predicate-level
//! refinement off and on.

mod obs_log;
mod subset_sweep;

use obs_log::{obs_log_ctx, OBS_LOG};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starling_analysis::confluence::analyze_confluence;
use starling_analysis::observable::{observable_determinism, ObservableAnalysis};
use starling_analysis::partial::analyze_partial_confluence;
use starling_analysis::restricted::{analyze_restricted, reachable_rules};
use starling_analysis::termination::{TerminationAnalysis, TerminationVerdict};
use starling_analysis::{AnalysisContext, Certifications};
use starling_engine::RuleSet;
use starling_fuzz::{generate, FuzzCase, GenConfig};
use starling_sql::RuleDef;
use starling_storage::Op;

/// What §8 answers: Sig(Obs), termination of Sig(Obs) with its cycles
/// (rules and whether discharged), and the Confluence Requirement verdict.
#[derive(Debug, PartialEq)]
struct Answer {
    significant: Vec<String>,
    termination: TerminationVerdict,
    cycles: Vec<(Vec<String>, bool)>,
    requirement: bool,
}

fn cycles(t: &TerminationAnalysis) -> Vec<(Vec<String>, bool)> {
    t.cycles
        .iter()
        .map(|c| (c.rules.clone(), c.discharged))
        .collect()
}

fn observable(o: &ObservableAnalysis) -> Answer {
    Answer {
        significant: o.significant.clone(),
        termination: o.termination.verdict,
        cycles: cycles(&o.termination),
        requirement: o.requirement_holds,
    }
}

/// Partial confluence with respect to `obs_log` in the construction's
/// context: `Sig(obs_log)` and its termination as §7 derives them, the
/// requirement by sweeping `Sig(obs_log)` itself.
fn literal(ctx: &AnalysisContext) -> Answer {
    let p = analyze_partial_confluence(ctx, &analyze_confluence(ctx), &[OBS_LOG]);
    let sig: Vec<usize> = p
        .significant
        .iter()
        .map(|r| ctx.index_of(r).unwrap())
        .collect();
    Answer {
        requirement: subset_sweep::violations(ctx, &sig).is_empty(),
        significant: p.significant,
        termination: p.termination.verdict,
        cycles: cycles(&p.termination),
    }
}

/// Up to two random `declare commute` pairs and one random
/// `declare terminates`.
fn random_certs(rng: &mut StdRng, case: &FuzzCase) -> Certifications {
    let names: Vec<&str> = case.defs.iter().map(|d| d.name.as_str()).collect();
    let mut certs = Certifications::new();
    for _ in 0..rng.gen_range(1..=2) {
        let (a, b) = (rng.gen_range(0..names.len()), rng.gen_range(0..names.len()));
        if a != b {
            certs.certify_commute(names[a], names[b]);
        }
    }
    if rng.gen_bool(0.5) {
        certs.certify_terminates(names[rng.gen_range(0..names.len())], "bounded");
    }
    certs
}

/// User operations allowed by the restricted arm: an insert into one
/// random table and a delete from another.
fn random_ops(rng: &mut StdRng, case: &FuzzCase) -> Vec<Op> {
    let mut table = || {
        case.tables[rng.gen_range(0..case.tables.len())]
            .name
            .clone()
    };
    vec![Op::Insert(table()), Op::Delete(table())]
}

#[derive(Default)]
struct Tally {
    contexts: usize,
    with_observables: usize,
    requirement_fails: usize,
    termination_fails: usize,
}

/// The rules of `subset` alone, the rest gone: each precedes the rules of
/// `subset` it has priority over in `ctx`, the whole set's order
/// restricted to them.
fn only(ctx: &AnalysisContext, defs: &[RuleDef], subset: &[usize]) -> Vec<RuleDef> {
    let def = |i: usize| {
        let mut d = defs[i].clone();
        d.precedes = subset
            .iter()
            .filter(|&&j| ctx.gt(i, j))
            .map(|&j| defs[j].name.clone())
            .collect();
        d.follows.clear();
        d
    };
    subset.iter().map(|&i| def(i)).collect()
}

fn check(case: &FuzzCase, rng: &mut StdRng, what: &str, tally: &mut Tally) {
    let cat = case.catalog();
    let rs = RuleSet::compile(&case.defs, &cat).unwrap();
    let certified = random_certs(rng, case);
    let allowed = random_ops(rng, case);
    for certs in [Certifications::new(), certified] {
        for refine in [false, true] {
            let what = format!("{what}, {certs:?}, refine {refine}");
            let ctx = AnalysisContext::from_ruleset(&rs, certs.clone());
            let ctx = if refine { ctx.with_refinement() } else { ctx };
            let literal_ctx = |defs: &[RuleDef]| obs_log_ctx(&cat, defs, &certs, refine);

            let confluence = analyze_confluence(&ctx);
            let got = observable(&observable_determinism(&ctx, &confluence));
            let want = literal(&literal_ctx(&case.defs));
            assert_eq!(got, want, "{what}");

            let reach = reachable_rules(&ctx, &allowed);
            let got = observable(&analyze_restricted(&ctx, &confluence, &allowed).observable);
            let want = literal(&literal_ctx(&only(&ctx, &case.defs, &reach)));
            assert_eq!(got, want, "{what}, restricted to {allowed:?}");

            tally.contexts += 1;
            if ctx.sigs.iter().any(|s| s.observable) {
                tally.with_observables += 1;
                tally.requirement_fails += usize::from(!want.requirement);
                tally.termination_fails +=
                    usize::from(want.termination == TerminationVerdict::MayNotTerminate);
            }
        }
    }
}

#[test]
fn observable_determinism_is_partial_confluence_over_an_obs_log_table() {
    let mut rng = StdRng::seed_from_u64(0x0b5_1096);
    let mut tally = Tally::default();
    for (cfg, seeds, label) in [
        (GenConfig::CORPUS, 0..3000u64, "corpus"),
        (GenConfig::default(), 0..1500u64, "default"),
    ] {
        for seed in seeds {
            let case = generate(seed, &cfg);
            check(&case, &mut rng, &format!("{label} seed {seed}"), &mut tally);
        }
    }
    assert_eq!(tally.contexts, 18_000);
    // The comparison must see both verdicts of both premises.
    assert!(
        tally.with_observables > 10_000,
        "{}",
        tally.with_observables
    );
    assert!(
        tally.requirement_fails > 1_000,
        "{}",
        tally.requirement_fails
    );
    assert!(tally.termination_fails > 100, "{}", tally.termination_fails);
}
