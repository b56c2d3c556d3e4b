//! Soundness of the static analyses against the execution-graph oracle
//! (experiments E2, E3, E5 of `EXPERIMENTS.md`).
//!
//! The analyses are conservative: a **guaranteed** verdict must hold on
//! every concrete execution. The oracle exhaustively explores all
//! scheduling choices for sampled initial states, so:
//!
//! * static `termination: Guaranteed` ⇒ no sampled graph may have a cycle;
//! * static confluence (requirement + termination) ⇒ no sampled graph may
//!   have two distinct final database states;
//! * static observable determinism ⇒ no sampled graph may have two
//!   distinct observable streams;
//! * static partial confluence with respect to `{t}` (Theorem 7.2) ⇒ no
//!   sampled graph may have two final states that differ on `t`.
//!
//! The converse direction (conservatism) is *measured*, not asserted — see
//! the benches.

use starling::analysis::certifications::Certifications;
use starling::analysis::confluence::analyze_confluence;
use starling::analysis::context::AnalysisContext;
use starling::analysis::observable::analyze_observable_determinism;
use starling::analysis::partial::analyze_partial_confluence;
use starling::analysis::termination::{analyze_termination, TerminationVerdict};
use starling::engine::{explore_from_ops, ExploreConfig, RuleSet, Verdict};
use starling_fuzz::{generate, FuzzCase, GenConfig};

fn build(seed: u64) -> (FuzzCase, RuleSet) {
    let case = generate(seed, &GenConfig::CORPUS);
    let rules = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
    (case, rules)
}

/// The oracle's budget. A generated `insert … select` from its own table
/// doubles it on every firing, so the row cap bounds each state.
fn budget() -> ExploreConfig {
    ExploreConfig::default()
        .with_max_states(2_000)
        .with_max_paths(20_000)
        .with_max_rows(200)
}

struct Stats {
    term_guaranteed: usize,
    conf_guaranteed: usize,
    obs_guaranteed: usize,
    /// (program, table) pairs with partial confluence guaranteed.
    partial_guaranteed: usize,
    graphs: usize,
    truncated: usize,
}

#[test]
fn static_guarantees_hold_on_the_oracle() {
    let cfg = budget();
    let mut stats = Stats {
        term_guaranteed: 0,
        conf_guaranteed: 0,
        obs_guaranteed: 0,
        partial_guaranteed: 0,
        graphs: 0,
        truncated: 0,
    };

    for seed in 0..60 {
        let (case, rules) = build(seed);
        let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());

        let term = analyze_termination(&ctx);
        let conf = analyze_confluence(&ctx);
        let obs = analyze_observable_determinism(&ctx);
        let term_ok = term.verdict == TerminationVerdict::Guaranteed;
        let conf_ok = conf.requirement_holds() && term.is_guaranteed();
        let obs_ok = obs.is_guaranteed();
        stats.term_guaranteed += usize::from(term_ok);
        stats.conf_guaranteed += usize::from(conf_ok);
        stats.obs_guaranteed += usize::from(obs_ok);
        let partial_ok: Vec<&str> = case
            .tables
            .iter()
            .map(|t| t.name.as_str())
            .filter(|t| analyze_partial_confluence(&ctx, &[t]).is_guaranteed())
            .collect();
        stats.partial_guaranteed += partial_ok.len();

        // Nothing guaranteed means nothing to refute: skip the (possibly
        // expensive, nonterminating) exploration.
        if !(term_ok || conf_ok || obs_ok || !partial_ok.is_empty()) {
            continue;
        }

        let base_db = case.database();
        for salt in 0..3u64 {
            let actions =
                case.transition(seed ^ (salt.wrapping_mul(0x9e37) + 1), &GenConfig::CORPUS);
            let mut working = base_db.clone();
            let Ok(ops) = starling::engine::exec_graph::apply_user_actions(&mut working, &actions)
            else {
                continue; // e.g. transition violates a NOT NULL — skip probe
            };
            let g =
                explore_from_ops(&rules, &base_db, working, &ops, &cfg).expect("exploration runs");
            stats.graphs += 1;
            if g.truncated() {
                stats.truncated += 1;
            }

            if term_ok {
                assert_ne!(
                    g.terminates(),
                    Some(false),
                    "seed {seed} salt {salt}: static termination refuted by oracle\n{}",
                    case.script()
                );
            }
            if conf_ok {
                assert_ne!(
                    g.confluent(),
                    Some(false),
                    "seed {seed} salt {salt}: static confluence refuted by oracle\n{}",
                    case.script()
                );
            }
            for t in &partial_ok {
                assert_ne!(
                    g.partial_confluence_verdict(&[t]),
                    Verdict::Fails,
                    "seed {seed} salt {salt}: static partial confluence on `{t}` refuted\n{}",
                    case.script()
                );
            }
            if obs_ok && term_ok {
                assert_ne!(
                    g.observably_deterministic(&cfg),
                    Some(false),
                    "seed {seed} salt {salt}: static observable determinism refuted\n{}",
                    case.script()
                );
            }
        }
    }

    // Sanity: the corpus is not vacuous — some rule sets are accepted by
    // each analysis and most explorations complete.
    assert!(stats.term_guaranteed > 3, "{}", stats.term_guaranteed);
    assert!(stats.conf_guaranteed > 0, "{}", stats.conf_guaranteed);
    assert!(stats.obs_guaranteed > 0, "{}", stats.obs_guaranteed);
    assert!(stats.partial_guaranteed > 0, "{}", stats.partial_guaranteed);
    assert!(stats.graphs > 60, "{}", stats.graphs);
    assert!(
        stats.truncated * 2 < stats.graphs,
        "too many truncated explorations: {}/{}",
        stats.truncated,
        stats.graphs
    );
}

/// Conservatism exists and is visible: some rule set is rejected statically
/// yet behaves fine on a sampled state (the price of decidability).
#[test]
fn conservatism_is_observable_in_the_corpus() {
    let cfg = budget();
    let mut found = false;
    for seed in 0..120 {
        let (case, rules) = build(seed);
        let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
        let conf = analyze_confluence(&ctx);
        let term = analyze_termination(&ctx);
        if conf.requirement_holds() || !term.is_guaranteed() {
            continue;
        }
        let base_db = case.database();
        let actions = case.transition(seed ^ 7, &GenConfig::CORPUS);
        let mut working = base_db.clone();
        let Ok(ops) = starling::engine::exec_graph::apply_user_actions(&mut working, &actions)
        else {
            continue;
        };
        let g = explore_from_ops(&rules, &base_db, working, &ops, &cfg).unwrap();
        if g.confluent() == Some(true) {
            found = true;
            break;
        }
    }
    assert!(
        found,
        "expected at least one statically-rejected but concretely-confluent case"
    );
}
