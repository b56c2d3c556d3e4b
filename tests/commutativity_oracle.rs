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
use starling::engine::{consider_rule, EvalMode, ExecState, RuleId, RuleSet};
use starling_fuzz::{generate, FuzzCase, GenConfig};

const CONFIG: GenConfig = GenConfig {
    max_tables: 3,
    max_rules: 6,
    min_rules: 6,
    p_condition: 0.6,
    p_order: 0.0, // priorities are irrelevant to the diamond
    p_observable: 0.3,
    ..GenConfig::CORPUS
};

fn build(seed: u64) -> (FuzzCase, RuleSet) {
    let case = generate(seed, &CONFIG);
    let rules = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
    (case, rules)
}

/// One side of the diamond from `state`: consider `first`, then `second`,
/// and return the final paper-state digest, the sorted digests of the
/// observable events, and whether a rollback ended processing. A rollback
/// ends processing as it does in the processor and the explorer, so
/// `second` is then never considered.
fn path(
    rules: &RuleSet,
    state: &ExecState,
    base_db: &starling::storage::Database,
    first: RuleId,
    second: RuleId,
) -> (u64, Vec<u64>, bool) {
    let mut s = state.clone();
    let mut events = Vec::new();
    let mut rolled_back = false;
    for r in [first, second] {
        let step = consider_rule(rules, &mut s, r, base_db, EvalMode::default()).unwrap();
        events.extend(step.observables.iter().map(|e| e.digest()));
        if step.rolled_back {
            rolled_back = true;
            break;
        }
    }
    events.sort_unstable();
    (s.semantic_digest(rules), events, rolled_back)
}

#[test]
fn statically_commuting_pairs_form_diamonds() {
    let _ = Certifications::new(); // no certifications in this experiment
    let mut pairs_checked = 0usize;
    let mut states_checked = 0usize;

    for seed in 0..80 {
        let (case, rules) = build(seed);
        let base_db = case.database();

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
            let actions = case.transition(seed ^ (salt + 100), &CONFIG);
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

                let (s1, d1, rb1) = path(&rules, &state, &base_db, ri, rj);
                let (s2, d2, rb2) = path(&rules, &state, &base_db, rj, ri);
                assert_eq!(
                    s1,
                    s2,
                    "seed {seed} salt {salt}: rules {} and {} declared commutative \
                     but orders diverge\n{}",
                    rules.rules()[i].name(),
                    rules.rules()[j].name(),
                    case.script()
                );

                // Observable multiset must match too (order may differ —
                // that is observable *non*determinism, which commutativity
                // does not promise to fix) when both orders ran both rules.
                // After a rollback the two orders ran different rule
                // sequences, and only their final states compare.
                if !(rb1 || rb2) {
                    assert_eq!(d1, d2, "seed {seed}: observable multiset diverges");
                }
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
        let (case, rules) = build(seed);
        let base_db = case.database();
        for salt in 0..4u64 {
            let actions = case.transition(seed ^ (salt + 100), &CONFIG);
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
                    let (s1, ..) = path(&rules, &state, &base_db, ri, rj);
                    let (s2, ..) = path(&rules, &state, &base_db, rj, ri);
                    if s1 != s2 {
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
    let observable = GenConfig {
        p_observable: 0.1,
        ..GenConfig::scaled(60)
    };
    let cases = (0..60u64)
        .map(|seed| (seed, GenConfig::default()))
        .chain([(7, observable), (8, observable)]);
    let (mut conflicting, mut masked) = (0usize, 0usize);
    for (seed, cfg) in cases {
        let case = generate(seed, &cfg);
        let rules = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
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
