//! Validation of Lemma 4.1 (Properties of Execution Graphs) on concretely
//! explored graphs.
//!
//! For any edge `(D1, TR1) --r--> (D2, TR2)` the lemma states:
//!
//! 1. `r ∈ Choose(TR1)` — the considered rule was triggered and maximal
//!    under the priority order;
//! 2. `O' ⊆ Performs(r)` — everything executed was statically predicted;
//!    if the condition was false, `O' = ∅`;
//! 3. `TR2` derives from `TR1` by removing `r`, removing a subset of
//!    `Can-Untrigger(O')`, and adding rules with `O' ∩ Triggered-By ≠ ∅`:
//!    * every rule newly triggered (in `TR2 \ TR1`) has
//!      `O' ∩ Triggered-By(r') ≠ ∅`;
//!    * every rule dropped (in `TR1 \ TR2`) is `r` itself or in
//!      `Can-Untrigger(O')`.
//!
//! These are checked on every edge of every explored graph over a seeded
//! corpus — a mechanized version of the paper's "follows directly from the
//! semantics" claim.

use std::collections::BTreeSet;

use starling::analysis::certifications::Certifications;
use starling::analysis::context::AnalysisContext;
use starling::engine::{explore_from_ops, ExploreConfig, RuleId, RuleSet};
use starling_fuzz::{generate, GenConfig};

#[test]
fn lemma_4_1_holds_on_every_explored_edge() {
    let cfg = ExploreConfig::default()
        .with_max_states(800)
        .with_max_paths(1)
        // A generated `insert … select` from its own table doubles it on
        // every firing.
        .with_max_rows(200);
    let mut edges_checked = 0usize;

    for seed in 0..50u64 {
        let case = generate(seed, &GenConfig::CORPUS);
        let rules = RuleSet::compile(&case.defs, &case.catalog()).unwrap();
        let ctx = AnalysisContext::from_ruleset(&rules, Certifications::new());
        let base_db = case.database();
        let actions = case.transition(seed ^ 13, &GenConfig::CORPUS);
        let mut working = base_db.clone();
        let Ok(ops) = starling::engine::exec_graph::apply_user_actions(&mut working, &actions)
        else {
            continue;
        };
        let g = explore_from_ops(&rules, &base_db, working, &ops, &cfg).unwrap();

        for edge in &g.edges {
            edges_checked += 1;
            let tr1: BTreeSet<RuleId> = g.states[edge.from].triggered.iter().copied().collect();
            let tr2: BTreeSet<RuleId> = g.states[edge.to].triggered.iter().copied().collect();
            let r = edge.rule;
            let sig = &rules.get(r).sig;

            // Property 1: r ∈ Choose(TR1).
            let triggered_vec: Vec<RuleId> = tr1.iter().copied().collect();
            let eligible = rules.priority().choose(&triggered_vec);
            assert!(
                eligible.contains(&r),
                "seed {seed}: considered rule {r} not in Choose(TR1)\n{}",
                case.script()
            );

            // Property 2: O' ⊆ Performs(r); empty if the condition failed.
            if !edge.fired {
                assert!(
                    edge.ops.is_empty(),
                    "seed {seed}: unfired rule executed ops"
                );
            }
            for op in &edge.ops {
                assert!(
                    sig.performs.contains(op),
                    "seed {seed}: executed {op} not in Performs({})",
                    sig.name
                );
            }

            // Rollback edges clear TR wholesale; the TR2-derivation clauses
            // do not apply.
            if edge.rolled_back {
                assert!(tr2.is_empty(), "seed {seed}: rollback left triggered rules");
                continue;
            }

            // Property 3a: newly triggered rules are explained by O'.
            for &added in tr2.difference(&tr1) {
                let tb = &rules.get(added).sig.triggered_by;
                assert!(
                    edge.ops.iter().any(|op| tb.contains(op)),
                    "seed {seed}: rule {added} appeared in TR2 without a triggering op in O'"
                );
            }
            // ... and r itself, if re-triggered, is explained by O'.
            if tr2.contains(&r) {
                assert!(
                    edge.ops.iter().any(|op| sig.triggered_by.contains(op)),
                    "seed {seed}: {r} re-triggered without its op in O'"
                );
            }

            // Property 3b: dropped rules are r or untriggerable by O'.
            let can_untrigger: Vec<usize> = ctx.can_untrigger(edge.ops.iter());
            for &dropped in tr1.difference(&tr2) {
                assert!(
                    dropped == r || can_untrigger.contains(&dropped.0),
                    "seed {seed}: rule {dropped} vanished from TR without being \
                     considered or untriggerable by O' = {:?}",
                    edge.ops
                );
            }
        }
    }
    assert!(
        edges_checked > 300,
        "corpus too thin: only {edges_checked} edges checked"
    );
}
