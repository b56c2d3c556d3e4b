//! # starling-provenance
//!
//! Why-provenance for rule-processing outcomes, in the sense of
//! Hellerstein's *determination provenance*: when the execution-graph
//! oracle enumerates multiple final states, this crate answers *why* —
//! which choice points and rule orderings produced each outcome — and
//! compresses the answer into a replayable **divergence witness**.
//!
//! The pipeline:
//!
//! 1. **Explore** — [`starling_engine::explore`] builds the execution
//!    graph. Its choice points are the states with more than one out-edge
//!    ([`ExecGraph::choice_points`]); deterministic programs have none.
//! 2. **Explain** — given two final database digests, [`witness::extract`]
//!    walks canonical decision traces back to the latest common ancestor,
//!    takes the divergence frontier (the first choice point where the
//!    paths split, and the non-commuting rule pair chosen there), then
//!    greedily minimizes it by reverse breadth-first search to the
//!    globally shortest witness: a pair of rule-firing sequences from one
//!    common state that reach the two distinct outcomes.
//! 3. **Verify** — [`witness::verify`] replays both sequences through the
//!    engine ([`starling_engine::replay_rule_sequence`]) and asserts the
//!    divergent digests, so a reported witness is never a conjecture.
//!
//! [`explain_divergence`] bundles the three steps behind one call; the
//! CLI `starling explain`, the server `explain` op, and the fuzz harness
//! all go through it.

pub mod counters;
pub mod render;
pub mod witness;

pub use counters::ProvCounters;
pub use render::{explanation_json, witness_compact, witness_json, witness_text};
pub use witness::{extract, verify, Witness};

use starling_engine::{explore, EngineError, ExecGraph, ExploreConfig, RuleSet};
use starling_sql::ast::Action;
use starling_storage::Database;

/// The result of an exploration plus divergence explanation.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The explored graph.
    pub graph: ExecGraph,
    /// The minimized, replay-verified witness — `None` iff the explored
    /// graph has at most one final database digest (confluent as far as
    /// the budget could see).
    pub witness: Option<Witness>,
}

/// Explores `rules` from the initial transition `actions` and — if the
/// oracle finds more than one final database state — extracts, minimizes,
/// and replay-verifies a divergence witness.
pub fn explain_divergence(
    rules: &RuleSet,
    base_db: &Database,
    actions: &[Action],
    cfg: &ExploreConfig,
) -> Result<Explanation, EngineError> {
    let graph = explore(rules, base_db, actions, cfg)?;
    let witness = match witness::extract(rules, &graph) {
        Some(mut w) => {
            w.replay_verified = witness::verify(rules, base_db, actions, &w)?;
            Some(w)
        }
        None => None,
    };
    Ok(Explanation { graph, witness })
}
