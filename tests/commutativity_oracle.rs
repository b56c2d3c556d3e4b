//! Lemma 6.1 soundness (experiment E1): statically-commuting rule pairs
//! really produce the Figure 1 diamond.
//!
//! For generated workloads, every pair the analysis declares commutative
//! (no Lemma 6.1 condition fires) is executed both ways — consider `r_i`
//! then `r_j`, and `r_j` then `r_i` — from states where both rules are
//! triggered. The resulting paper-states `(D, TR)` must be identical
//! (compared by [`ExecState::semantic_digest`], which is tuple-id-free),
//! and so must the emitted observable events.

use starling::analysis::certifications::Certifications;
use starling::analysis::commutativity::{
    may_not_commute, may_not_commute_lemma61, noncommutativity_reasons,
    noncommutativity_reasons_lemma61,
};
use starling::engine::{consider_rule, EvalMode, ExecState, RuleId};
use starling::workloads::random::{generate, RandomConfig};

fn config(seed: u64) -> RandomConfig {
    RandomConfig {
        n_tables: 3,
        n_cols: 2,
        n_rules: 6,
        max_actions: 2,
        p_condition: 0.6,
        p_observable: 0.3,
        p_priority: 0.0, // priorities are irrelevant to the diamond
        rows_per_table: 2,
        seed,
    }
}

#[test]
fn statically_commuting_pairs_form_diamonds() {
    let _ = Certifications::new(); // no certifications in this experiment
    let mut pairs_checked = 0usize;
    let mut states_checked = 0usize;

    for seed in 0..80 {
        let w = generate(&config(seed));
        let rules = w.compile();
        let base_db = w.seed_database();

        // Commuting pairs per Lemma 6.1.
        let mut commuting: Vec<(usize, usize)> = Vec::new();
        for i in 0..rules.len() {
            for j in (i + 1)..rules.len() {
                if noncommutativity_reasons(&rules.rules()[i].sig, &rules.rules()[j].sig).is_empty()
                {
                    commuting.push((i, j));
                }
            }
        }
        if commuting.is_empty() {
            continue;
        }

        for salt in 0..8u64 {
            let actions = w.user_transition(salt + 100);
            let mut working = base_db.clone();
            let Ok(ops) = starling::engine::exec_graph::apply_user_actions(&mut working, &actions)
            else {
                continue;
            };
            let state = ExecState::new(working, rules.len(), &ops);

            for &(i, j) in &commuting {
                let (ri, rj) = (RuleId(i), RuleId(j));
                if !state.is_triggered(&rules, ri) || !state.is_triggered(&rules, rj) {
                    continue;
                }
                pairs_checked += 1;
                states_checked += 1;

                let mut s1 = state.clone();
                let a1 = consider_rule(&rules, &mut s1, ri, &base_db, EvalMode::default()).unwrap();
                let b1 = consider_rule(&rules, &mut s1, rj, &base_db, EvalMode::default()).unwrap();

                let mut s2 = state.clone();
                let a2 = consider_rule(&rules, &mut s2, rj, &base_db, EvalMode::default()).unwrap();
                let b2 = consider_rule(&rules, &mut s2, ri, &base_db, EvalMode::default()).unwrap();

                assert_eq!(
                    s1.semantic_digest(&rules),
                    s2.semantic_digest(&rules),
                    "seed {seed} salt {salt}: rules {} and {} declared commutative \
                     but orders diverge\n{}",
                    rules.rules()[i].name(),
                    rules.rules()[j].name(),
                    w.script()
                );

                // Observable multiset must match too (order may differ —
                // that is observable *non*determinism, which commutativity
                // does not promise to fix).
                let mut d1: Vec<u64> = a1
                    .observables
                    .iter()
                    .chain(&b1.observables)
                    .map(|e| e.digest())
                    .collect();
                let mut d2: Vec<u64> = a2
                    .observables
                    .iter()
                    .chain(&b2.observables)
                    .map(|e| e.digest())
                    .collect();
                d1.sort_unstable();
                d2.sort_unstable();
                assert_eq!(d1, d2, "seed {seed}: observable multiset diverges");
            }
        }
    }
    assert!(
        pairs_checked > 20,
        "corpus too thin: only {pairs_checked} diamond checks ran ({states_checked} states)"
    );
}

/// The flip side: for pairs flagged noncommutative, a diamond violation is
/// actually *findable* in the corpus (the conditions are not vacuous).
#[test]
fn noncommutativity_flags_are_not_vacuous() {
    let mut divergence_found = false;
    'outer: for seed in 0..30 {
        let w = generate(&config(seed));
        let rules = w.compile();
        let base_db = w.seed_database();
        for salt in 0..4u64 {
            let actions = w.user_transition(salt + 100);
            let mut working = base_db.clone();
            let Ok(ops) = starling::engine::exec_graph::apply_user_actions(&mut working, &actions)
            else {
                continue;
            };
            let state = ExecState::new(working, rules.len(), &ops);
            for i in 0..rules.len() {
                for j in (i + 1)..rules.len() {
                    if noncommutativity_reasons(&rules.rules()[i].sig, &rules.rules()[j].sig)
                        .is_empty()
                    {
                        continue;
                    }
                    let (ri, rj) = (RuleId(i), RuleId(j));
                    if !state.is_triggered(&rules, ri) || !state.is_triggered(&rules, rj) {
                        continue;
                    }
                    let mut s1 = state.clone();
                    consider_rule(&rules, &mut s1, ri, &base_db, EvalMode::default()).unwrap();
                    consider_rule(&rules, &mut s1, rj, &base_db, EvalMode::default()).unwrap();
                    let mut s2 = state.clone();
                    consider_rule(&rules, &mut s2, rj, &base_db, EvalMode::default()).unwrap();
                    consider_rule(&rules, &mut s2, ri, &base_db, EvalMode::default()).unwrap();
                    if s1.semantic_digest(&rules) != s2.semantic_digest(&rules) {
                        divergence_found = true;
                        break 'outer;
                    }
                }
            }
        }
    }
    assert!(
        divergence_found,
        "no flagged pair ever diverged — conditions may be vacuous"
    );
}

/// The boolean verdict and the reason list are two consumers of one Lemma
/// 6.1 body: over every ordered pair of fuzz-generated signatures (self
/// pairs included), the verdict is exactly "some reason is reported", with
/// condition 2′ and without.
#[test]
fn boolean_verdict_matches_the_reason_list() {
    use starling_fuzz::GenConfig;
    let observable = GenConfig {
        p_observable: 0.1,
        ..GenConfig::scaled(60)
    };
    let cases = (0..60u64)
        .map(|seed| (seed, GenConfig::default()))
        .chain([(7, observable), (8, observable)]);
    let (mut conflicting, mut masked) = (0usize, 0usize);
    for (seed, cfg) in cases {
        let case = starling_fuzz::generate(seed, &cfg);
        let rules = starling::engine::RuleSet::compile(&case.defs, &case.catalog()).unwrap();
        for a in rules.rules() {
            for b in rules.rules() {
                let reasons = noncommutativity_reasons(&a.sig, &b.sig);
                let published = noncommutativity_reasons_lemma61(&a.sig, &b.sig);
                let pair = format!("seed {seed}: {} / {}", a.sig.name, b.sig.name);
                assert_eq!(
                    may_not_commute(&a.sig, &b.sig),
                    !reasons.is_empty(),
                    "{pair}"
                );
                assert_eq!(
                    may_not_commute_lemma61(&a.sig, &b.sig),
                    !published.is_empty(),
                    "{pair} (lemma61)"
                );
                conflicting += usize::from(!reasons.is_empty());
                masked += usize::from(reasons.len() > published.len());
            }
        }
    }
    assert!(conflicting > 1000, "only {conflicting} conflicting pairs");
    assert!(masked > 0, "condition 2′ never fired");
}
