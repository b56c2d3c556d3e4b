//! Divergence-witness extraction, minimization, and replay verification.
//!
//! A witness is the provenance answer to "why is this program not
//! confluent here?": one common state plus two rule-firing sequences that
//! provably reach different final database states. Extraction works on
//! the completed execution graph:
//!
//! * the **baseline** witness walks the canonical decision trace of one
//!   final state per divergent digest back to their latest common
//!   ancestor — the divergence frontier of the graph's choice points;
//! * **minimization** then runs a reverse breadth-first search from each
//!   digest's final states, computing for every state its shortest
//!   distance to each outcome, and picks the state minimizing the summed
//!   branch lengths — the globally shortest witness, found greedily in
//!   `O(states + edges)` with deterministic tie-breaks (smallest state
//!   index, first matching out-edge).
//!
//! At the minimizing state the two shortest branches necessarily diverge
//! on their first step (a shared first edge would yield a strictly
//! shorter witness one step deeper), so `left[0]` / `right[0]` is the
//! non-commuting rule pair of the frontier.

use starling_analysis::{noncommutativity_reasons, AnalysisContext, Certifications};
use starling_engine::exec_graph::apply_user_actions;
use starling_engine::{
    replay_rule_sequence, EngineError, EvalMode, ExecGraph, ExecState, RuleId, RuleSet,
};
use starling_sql::ast::Action;
use starling_storage::Database;

/// A minimized divergence witness: from the state reached by firing
/// `prefix` from the initial state, the `left` and `right` sequences reach
/// final database states with distinct digests.
#[derive(Clone, Debug, PartialEq)]
pub struct Witness {
    /// Index of the divergence state in the execution graph.
    pub state: usize,
    /// Canonical `(D, TR)` digest of the divergence state.
    pub state_digest: u64,
    /// Firing sequence from the initial state to the divergence state.
    pub prefix: Vec<RuleId>,
    /// First branch: firing sequence to a final state with `left_digest`.
    pub left: Vec<RuleId>,
    /// Second branch: firing sequence to a final state with `right_digest`.
    pub right: Vec<RuleId>,
    /// Final database digest reached by `prefix ++ left`.
    pub left_digest: u64,
    /// Final database digest reached by `prefix ++ right`.
    pub right_digest: u64,
    /// The non-commuting pair at the frontier: `(left[0], right[0])`.
    pub pair: (RuleId, RuleId),
    /// Lemma 6.1 reasons why the pair may not commute (empty when static
    /// analysis sees no conflict — the divergence is then purely dynamic).
    pub reasons: Vec<String>,
    /// `|left| + |right|` of the unminimized latest-common-ancestor
    /// witness.
    pub baseline_len: usize,
    /// Steps shaved off the baseline by minimization.
    pub minimization_steps: usize,
    /// Whether [`verify`] reproduced both digests by engine replay.
    pub replay_verified: bool,
}

impl Witness {
    /// Total branch length of the minimized witness.
    pub fn len(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Whether both branches are empty (never produced by [`extract`]).
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }
}

/// Canonical parent edge per state: the edge that first discovered it.
/// Edges are pushed in discovery order, so the first in-edge of a state is
/// its breadth-first discovery edge and the resulting parent chain is a
/// shortest path from the initial state.
fn canonical_parents(g: &ExecGraph) -> Vec<Option<usize>> {
    let mut parent = vec![None; g.states.len()];
    for (e, edge) in g.edges.iter().enumerate() {
        if edge.to != 0 && parent[edge.to].is_none() {
            parent[edge.to] = Some(e);
        }
    }
    parent
}

/// The canonical decision trace of `state`: `(state chain, rule chain)`
/// from the initial state, with `states.len() == rules.len() + 1`.
fn canonical_trace(
    g: &ExecGraph,
    parent: &[Option<usize>],
    state: usize,
) -> (Vec<usize>, Vec<RuleId>) {
    let mut states = vec![state];
    let mut rules = Vec::new();
    let mut cur = state;
    while let Some(e) = parent[cur] {
        rules.push(g.edges[e].rule);
        cur = g.edges[e].from;
        states.push(cur);
    }
    states.reverse();
    rules.reverse();
    (states, rules)
}

/// Multi-source reverse BFS: shortest distance from every state to a final
/// state carrying database digest `digest` (`usize::MAX` if unreachable).
fn dist_to_digest(g: &ExecGraph, rev: &[Vec<usize>], digest: u64) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.states.len()];
    let mut queue = std::collections::VecDeque::new();
    for &f in &g.final_states {
        if g.states[f].db_digest == digest {
            dist[f] = 0;
            queue.push_back(f);
        }
    }
    while let Some(s) = queue.pop_front() {
        for &p in &rev[s] {
            if dist[p] == usize::MAX {
                dist[p] = dist[s] + 1;
                queue.push_back(p);
            }
        }
    }
    dist
}

/// Greedy shortest-path reconstruction: from `state`, repeatedly take the
/// first out-edge whose target is one step closer to the digest's finals.
fn shortest_branch(g: &ExecGraph, dist: &[usize], mut state: usize) -> Vec<RuleId> {
    let mut seq = Vec::with_capacity(dist[state]);
    while dist[state] > 0 {
        let e = g.states[state]
            .out_edges
            .iter()
            .copied()
            .find(|&e| dist[g.edges[e].to] == dist[state] - 1)
            .expect("BFS distance must decrease along some out-edge");
        seq.push(g.edges[e].rule);
        state = g.edges[e].to;
    }
    seq
}

/// Extracts a minimized (but not yet replay-verified) divergence witness
/// from an explored graph, or `None` if the graph has fewer than two
/// distinct final database digests.
///
/// Deterministic: the two smallest divergent digests are explained, and
/// every tie inside extraction breaks on the smallest state index or the
/// first matching out-edge.
pub fn extract(rules: &RuleSet, g: &ExecGraph) -> Option<Witness> {
    let digests = g.final_db_digests();
    if digests.len() < 2 {
        return None;
    }
    let mut it = digests.iter();
    let d1 = *it.next().expect("len >= 2");
    let d2 = *it.next().expect("len >= 2");

    // Baseline: latest common ancestor of the canonical decision traces of
    // the first final state per digest.
    let parent = canonical_parents(g);
    let f1 = *g
        .final_states
        .iter()
        .find(|&&f| g.states[f].db_digest == d1)
        .expect("digest came from a final state");
    let f2 = *g
        .final_states
        .iter()
        .find(|&&f| g.states[f].db_digest == d2)
        .expect("digest came from a final state");
    let (chain1, rules1) = canonical_trace(g, &parent, f1);
    let (chain2, rules2) = canonical_trace(g, &parent, f2);
    let mut lca = 0;
    while lca + 1 < chain1.len() && lca + 1 < chain2.len() && chain1[lca + 1] == chain2[lca + 1] {
        lca += 1;
    }
    let baseline_len = (rules1.len() - lca) + (rules2.len() - lca);

    // Minimization: the state with the smallest summed distance to both
    // outcomes is the shortest witness's divergence state.
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); g.states.len()];
    for edge in &g.edges {
        rev[edge.to].push(edge.from);
    }
    let dist1 = dist_to_digest(g, &rev, d1);
    let dist2 = dist_to_digest(g, &rev, d2);
    let state = (0..g.states.len())
        .filter(|&s| dist1[s] != usize::MAX && dist2[s] != usize::MAX)
        .min_by_key(|&s| (dist1[s] + dist2[s], s))?;
    let left = shortest_branch(g, &dist1, state);
    let right = shortest_branch(g, &dist2, state);
    let (_, prefix) = canonical_trace(g, &parent, state);
    let pair = (left[0], right[0]);

    let ctx = AnalysisContext::from_ruleset(rules, Certifications::new());
    let reasons = noncommutativity_reasons(&ctx.sigs[pair.0 .0], &ctx.sigs[pair.1 .0])
        .iter()
        .map(ToString::to_string)
        .collect();

    let minimized = left.len() + right.len();
    Some(Witness {
        state,
        state_digest: g.states[state].digest,
        prefix,
        left,
        right,
        left_digest: d1,
        right_digest: d2,
        pair,
        reasons,
        baseline_len,
        minimization_steps: baseline_len.saturating_sub(minimized),
        replay_verified: false,
    })
}

/// Replays both witness branches through the engine — exactly as the
/// explorer expands edges — and checks that they reproduce the claimed,
/// distinct final database digests.
pub fn verify(
    rules: &RuleSet,
    base_db: &Database,
    actions: &[Action],
    w: &Witness,
) -> Result<bool, EngineError> {
    let mut db = base_db.clone();
    let ops = apply_user_actions(&mut db, actions)?;
    let replay = |branch: &[RuleId]| -> Result<u64, EngineError> {
        let mut st = ExecState::new(db.clone(), rules.len(), &ops);
        let seq: Vec<RuleId> = w.prefix.iter().chain(branch.iter()).copied().collect();
        replay_rule_sequence(rules, &mut st, base_db, &seq, EvalMode::default())?;
        Ok(st.db.state_digest())
    };
    let l = replay(&w.left)?;
    let r = replay(&w.right)?;
    Ok(l == w.left_digest && r == w.right_digest && l != r)
}

#[cfg(test)]
mod tests {
    use starling_analysis::load_script;
    use starling_engine::Budget;

    use crate::explain_divergence;

    /// Two unordered rules racing on `u.x`: the canonical non-confluent
    /// program (Lemma 6.1, condition 5).
    const RACE: &str = "
        create table t (x int);
        create table u (x int);
        insert into u values (0);
        create rule a on t when inserted then update u set x = 1 end;
        create rule b on t when inserted then update u set x = 2 end;
        insert into t values (1);
    ";

    const CONFLUENT: &str = "
        create table t (x int);
        create table u (x int);
        insert into u values (0);
        create rule a on t when inserted then update u set x = 1 end;
        insert into t values (1);
    ";

    #[test]
    fn race_yields_minimal_verified_witness() {
        let s = load_script(RACE).unwrap();
        let cfg = Budget::default();
        let ex = explain_divergence(&s.rules, &s.db, &s.user_actions, &cfg).unwrap();
        let w = ex.witness.expect("two final digests -> witness");
        assert!(w.replay_verified, "replay must reproduce both digests");
        assert_ne!(w.left_digest, w.right_digest);
        assert_ne!(w.pair.0, w.pair.1);
        // a then b vs b then a: each branch needs at most two firings.
        assert!(w.left.len() + w.right.len() <= 4, "witness not minimal");
        assert!(
            !w.reasons.is_empty(),
            "update/update conflict has a Lemma 6.1 reason"
        );
        // The race is ambiguous at the root.
        assert!(ex.graph.choice_points() >= 1);
    }

    #[test]
    fn confluent_program_has_no_witness() {
        let s = load_script(CONFLUENT).unwrap();
        let cfg = Budget::default();
        let ex = explain_divergence(&s.rules, &s.db, &s.user_actions, &cfg).unwrap();
        assert!(ex.witness.is_none());
        assert_eq!(ex.graph.choice_points(), 0, "single eligible rule");
    }
}
