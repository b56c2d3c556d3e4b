//! The execution-graph model of paper Section 4, built exhaustively.
//!
//! The paper uses execution graphs as a *proof device*; we also build them
//! concretely (for small rule programs) as a **ground-truth oracle**:
//!
//! * **termination** — the explored graph is finite and acyclic iff every
//!   execution sequence from this initial state terminates;
//! * **confluence** — at most one final database state iff the final state
//!   cannot depend on choice order (for this initial state);
//! * **observable determinism** — all root-to-final paths carry the same
//!   observable stream.
//!
//! States are deduplicated by canonical digest of `(D, TR)`; every eligible
//! rule choice is explored from every state. The oracle is *per initial
//! state*: static analysis quantifies over all databases and all user
//! transitions, the oracle checks one — so oracle violations refute a static
//! "guaranteed" verdict, never the converse.

use std::collections::{BTreeSet, HashMap, VecDeque};

use starling_sql::ast::Action;
use starling_sql::eval::ActionOutcome;
use starling_storage::Database;

use crate::budget::{Budget, TruncationReason, Verdict};
use crate::error::EngineError;
use crate::observable::{stream_digest, ObservableEvent};
use crate::ops::TupleOp;
use crate::processor::{consider_fired_rule, execute_statement, rule_fires, EvalMode, StepOutcome};
use crate::ruleset::{RuleId, RuleSet};
use crate::state::ExecState;

/// Exploration bounds: the oracle reads `max_states`, `max_paths`, and
/// `deadline` from a shared [`Budget`].
pub type ExploreConfig = Budget;

/// One node of the execution graph.
#[derive(Clone, Debug, PartialEq)]
pub struct StateNode {
    /// Canonical digest of `(D, TR)`.
    pub digest: u64,
    /// Digest of the database component alone.
    pub db_digest: u64,
    /// Rules triggered in this state.
    pub triggered: Vec<RuleId>,
    /// Outgoing edge indices.
    pub out_edges: Vec<usize>,
    /// Whether this is a final state (no triggered rules).
    pub is_final: bool,
}

/// One edge: the consideration of a rule.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeInfo {
    /// Source state index.
    pub from: usize,
    /// Target state index.
    pub to: usize,
    /// The rule considered.
    pub rule: RuleId,
    /// Whether its condition held and its action ran.
    pub fired: bool,
    /// Whether the action rolled back.
    pub rolled_back: bool,
    /// Observable events emitted along this edge.
    pub observables: Vec<ObservableEvent>,
    /// The abstract operations `O'` executed along this edge (Lemma 4.1).
    pub ops: std::collections::BTreeSet<starling_storage::Op>,
}

/// A fully explored execution graph.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecGraph {
    /// States, index 0 is the initial state.
    pub states: Vec<StateNode>,
    /// Edges.
    pub edges: Vec<EdgeInfo>,
    /// Indices of final states.
    pub final_states: Vec<usize>,
    /// Final database states (one per final state index). These are
    /// copy-on-write handles: keeping every final database alive costs
    /// refcounts, not copies.
    pub final_dbs: Vec<(usize, Database)>,
    /// `Some` when exploration stopped early (state budget or deadline);
    /// the graph is then a partial prefix and all oracle verdicts become
    /// inconclusive, carrying this reason.
    pub truncation: Option<TruncationReason>,
}

/// The oracle's three answers about one explored graph
/// ([`ExecGraph::verdicts`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdicts {
    /// Does every execution sequence terminate?
    pub termination: Verdict,
    /// Is the final database state unique?
    pub confluence: Verdict,
    /// Do all root-to-final paths carry the same observable stream?
    pub observable_determinism: Verdict,
}

impl Verdicts {
    /// The budget that ran out before some verdict could be decided, if
    /// one did: the CLI's exit 3 and the server's `inconclusive` error. A
    /// truncated graph leaves all three undecided for the truncation's
    /// reason; a complete one can still exhaust the path budget.
    pub fn inconclusive(&self) -> Option<TruncationReason> {
        [
            self.termination,
            self.confluence,
            self.observable_determinism,
        ]
        .into_iter()
        .find_map(|v| match v {
            Verdict::Inconclusive(reason) => Some(reason),
            _ => None,
        })
    }
}

/// A property that presumes termination (confluence, Section 6; observable
/// determinism, Section 8): `decide` runs only when every path terminates.
/// On a cycle the property is undefined; on a truncated graph it is as
/// undecided as termination is.
fn presuming(termination: Verdict, decide: impl FnOnce() -> Verdict) -> Verdict {
    match termination {
        Verdict::Holds => decide(),
        Verdict::Fails => Verdict::NotApplicable,
        undecided => undecided,
    }
}

fn at_most_one(distinct: usize) -> Verdict {
    if distinct <= 1 {
        Verdict::Holds
    } else {
        Verdict::Fails
    }
}

impl ExecGraph {
    /// Whether exploration stopped before exhausting the state space.
    pub fn truncated(&self) -> bool {
        self.truncation.is_some()
    }

    /// The number of choice points: states with two or more out-edges,
    /// where more than one rule was eligible and the processor's `Choose`
    /// was a genuine decision.
    pub fn choice_points(&self) -> usize {
        self.states
            .iter()
            .filter(|s| s.out_edges.len() >= 2)
            .count()
    }

    /// Whether the graph contains a directed cycle (⇒ an infinite execution
    /// path exists ⇒ nontermination is possible).
    pub fn has_cycle(&self) -> bool {
        // Iterative three-color DFS.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color = vec![Color::White; self.states.len()];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in 0..self.states.len() {
            if color[root] != Color::White {
                continue;
            }
            color[root] = Color::Gray;
            stack.push((root, 0));
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < self.states[node].out_edges.len() {
                    let e = self.states[node].out_edges[*next];
                    *next += 1;
                    let to = self.edges[e].to;
                    match color[to] {
                        Color::Gray => return true,
                        Color::White => {
                            color[to] = Color::Gray;
                            stack.push((to, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[node] = Color::Black;
                    stack.pop();
                }
            }
        }
        false
    }

    /// Reason-carrying oracle verdict: does every execution sequence
    /// terminate? [`Verdict::Inconclusive`] when exploration was truncated.
    pub fn termination_verdict(&self) -> Verdict {
        match self.truncation {
            Some(r) => Verdict::Inconclusive(r),
            None if self.has_cycle() => Verdict::Fails,
            None => Verdict::Holds,
        }
    }

    /// Oracle verdict: does every execution sequence terminate?
    /// `None` when the exploration was truncated (see
    /// [`Self::termination_verdict`] for the reason).
    pub fn terminates(&self) -> Option<bool> {
        self.termination_verdict().to_option()
    }

    /// Distinct final database digests.
    ///
    /// Reads the `db_digest` cached on each [`StateNode`] at discovery
    /// time — no database is re-hashed.
    pub fn final_db_digests(&self) -> BTreeSet<u64> {
        self.final_states
            .iter()
            .map(|&i| self.states[i].db_digest)
            .collect()
    }

    /// Distinct digests of a *subset* of tables in final states (partial
    /// confluence, Section 7).
    ///
    /// Combines the per-table digest caches maintained by the storage
    /// layer: O(subset size) per final state, independent of row counts.
    pub fn final_table_digests(&self, tables: &[&str]) -> BTreeSet<u64> {
        self.final_dbs
            .iter()
            .map(|(_, db)| db.digest_of_tables(tables))
            .collect()
    }

    /// Reason-carrying verdict: is this execution confluent (unique final
    /// database state)? [`Verdict::NotApplicable`] when some path does not
    /// terminate (confluence per the paper presumes termination);
    /// [`Verdict::Inconclusive`] when exploration was truncated.
    pub fn confluence_verdict(&self) -> Verdict {
        self.confluence_given(self.termination_verdict())
    }

    fn confluence_given(&self, termination: Verdict) -> Verdict {
        presuming(termination, || at_most_one(self.final_db_digests().len()))
    }

    /// Oracle verdict: is this execution confluent (unique final database
    /// state)? `None` when truncated or when some path does not terminate
    /// (see [`Self::confluence_verdict`] to tell those apart).
    pub fn confluent(&self) -> Option<bool> {
        self.confluence_verdict().to_option()
    }

    /// Reason-carrying verdict for partial confluence with respect to
    /// `tables` (Section 7).
    pub fn partial_confluence_verdict(&self, tables: &[&str]) -> Verdict {
        presuming(self.termination_verdict(), || {
            at_most_one(self.final_table_digests(tables).len())
        })
    }

    /// Oracle verdict for partial confluence with respect to `tables`.
    pub fn partially_confluent(&self, tables: &[&str]) -> Option<bool> {
        self.partial_confluence_verdict(tables).to_option()
    }

    /// The distinct observable streams over the root-to-final paths of a
    /// complete, acyclic graph, as order-sensitive digests; `None` when
    /// there are more paths than the budget allows.
    fn enumerate_streams(&self, cfg: &ExploreConfig) -> Option<BTreeSet<u64>> {
        let mut streams = BTreeSet::new();
        let mut paths = 0usize;
        // DFS over paths, carrying the stream so far.
        let mut stack: Vec<(usize, Vec<ObservableEvent>)> = vec![(0, Vec::new())];
        while let Some((node, stream)) = stack.pop() {
            if self.states[node].is_final {
                paths += 1;
                if paths > cfg.max_paths {
                    return None;
                }
                streams.insert(stream_digest(&stream));
                continue;
            }
            for &e in &self.states[node].out_edges {
                let edge = &self.edges[e];
                let mut s = stream.clone();
                s.extend(edge.observables.iter().cloned());
                stack.push((edge.to, s));
            }
        }
        Some(streams)
    }

    /// All distinct observable streams over root-to-final paths, as
    /// order-sensitive digests. `None` if the graph has a cycle, was
    /// truncated, or the path bound was exceeded (see
    /// [`Self::observable_determinism_verdict`] for which).
    pub fn observable_streams(&self, cfg: &ExploreConfig) -> Option<BTreeSet<u64>> {
        match self.termination_verdict() {
            Verdict::Holds => self.enumerate_streams(cfg),
            _ => None,
        }
    }

    /// Reason-carrying verdict: observably deterministic?
    pub fn observable_determinism_verdict(&self, cfg: &ExploreConfig) -> Verdict {
        self.observable_determinism_given(self.termination_verdict(), cfg)
    }

    fn observable_determinism_given(&self, termination: Verdict, cfg: &ExploreConfig) -> Verdict {
        presuming(termination, || match self.enumerate_streams(cfg) {
            Some(streams) => at_most_one(streams.len()),
            None => Verdict::Inconclusive(TruncationReason::Paths),
        })
    }

    /// Oracle verdict: observably deterministic? `None` under the same
    /// conditions as [`Self::observable_streams`].
    pub fn observably_deterministic(&self, cfg: &ExploreConfig) -> Option<bool> {
        self.observable_determinism_verdict(cfg).to_option()
    }

    /// All three oracle answers, from one cycle search and one enumeration
    /// of the root-to-final paths.
    pub fn verdicts(&self, cfg: &ExploreConfig) -> Verdicts {
        let termination = self.termination_verdict();
        Verdicts {
            termination,
            confluence: self.confluence_given(termination),
            observable_determinism: self.observable_determinism_given(termination, cfg),
        }
    }

    /// GraphViz DOT rendering of the execution graph: nodes are states
    /// (final states double-circled, distinct final DB states color-coded),
    /// edges are rule considerations (dashed when the condition was false,
    /// red on rollback). A truncated graph says so, in a comment line and
    /// in the graph's label: it is a prefix, not the execution graph.
    pub fn to_dot(&self, rules: &RuleSet) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph execution {\n  rankdir=TB;\n");
        if let Some(reason) = self.truncation {
            let _ = writeln!(
                s,
                "  // TRUNCATED: {reason}\n  labelloc=t;\n  label=\"TRUNCATED: {reason}\";"
            );
        }
        let final_digests: Vec<u64> = self.final_db_digests().into_iter().collect();
        let palette = ["#cce5ff", "#ffd6cc", "#d6ffcc", "#f0ccff", "#fff3cc"];
        for (i, st) in self.states.iter().enumerate() {
            if st.is_final {
                let db_digest = st.db_digest;
                let color = final_digests
                    .iter()
                    .position(|&d| d == db_digest)
                    .map(|k| palette[k % palette.len()])
                    .unwrap_or("#ffffff");
                let _ = writeln!(
                    s,
                    "  s{i} [shape=doublecircle, style=filled, fillcolor=\"{color}\", label=\"S{i}\"];"
                );
            } else {
                let _ = writeln!(s, "  s{i} [shape=circle, label=\"S{i}\"];");
            }
        }
        for e in &self.edges {
            let name = rules.get(e.rule).name();
            let style = if e.rolled_back {
                ", color=red"
            } else if !e.fired {
                ", style=dashed"
            } else {
                ""
            };
            let _ = writeln!(s, "  s{} -> s{} [label=\"{name}\"{style}];", e.from, e.to);
        }
        s.push_str("}\n");
        s
    }
}

/// Applies user actions to a database under the default [`EvalMode`],
/// returning the resulting operations (the initial transition). The
/// caller's `db` is mutated.
pub fn apply_user_actions(
    db: &mut Database,
    actions: &[Action],
) -> Result<Vec<TupleOp>, EngineError> {
    apply_user_actions_with_mode(db, actions, EvalMode::default())
}

/// [`apply_user_actions`] with an explicit [`EvalMode`]: an exploration
/// under [`EvalMode::Interp`] runs its user transition in the interpreter
/// too, sharing no plan code with the default.
fn apply_user_actions_with_mode(
    db: &mut Database,
    actions: &[Action],
    mode: EvalMode,
) -> Result<Vec<TupleOp>, EngineError> {
    let mut ops = Vec::new();
    for a in actions {
        match execute_statement(a, None, db, None, mode)? {
            ActionOutcome::Effects(fx) => ops.extend(fx),
            ActionOutcome::Rows(_) => {}
            ActionOutcome::Rollback => {
                return Err(EngineError::InvalidStatement(
                    "rollback in the initial transition".into(),
                ))
            }
        }
    }
    Ok(ops)
}

/// Exhaustively explores rule processing from an initial state.
///
/// * `base_db` — the database at transaction start (rollback target);
/// * `user_actions` — the user-generated statements creating the initial
///   transition.
pub fn explore(
    rules: &RuleSet,
    base_db: &Database,
    user_actions: &[Action],
    cfg: &ExploreConfig,
) -> Result<ExecGraph, EngineError> {
    explore_with_mode(rules, base_db, user_actions, cfg, EvalMode::default())
}

/// [`explore`] with an explicit [`EvalMode`] instead of the default — the
/// differential tests run the oracle under every mode in one process and
/// assert the graphs are identical.
pub fn explore_with_mode(
    rules: &RuleSet,
    base_db: &Database,
    user_actions: &[Action],
    cfg: &ExploreConfig,
    mode: EvalMode,
) -> Result<ExecGraph, EngineError> {
    let mut db = base_db.clone();
    let ops = apply_user_actions_with_mode(&mut db, user_actions, mode)?;
    explore_impl(rules, base_db, db, &ops, cfg, mode)
}

/// [`explore`] under its former provenance name; the choice-point count it
/// used to log is [`ExecGraph::choice_points`]. ROADMAP item 1(C) deletes
/// it.
#[doc(hidden)]
pub fn explore_traced(
    rules: &RuleSet,
    base_db: &Database,
    user_actions: &[Action],
    cfg: &ExploreConfig,
) -> Result<ExecGraph, EngineError> {
    explore(rules, base_db, user_actions, cfg)
}

/// [`explore`] under its former level-parallel name. ROADMAP item 1(C)
/// deletes it.
#[doc(hidden)]
pub fn explore_parallel(
    rules: &RuleSet,
    base_db: &Database,
    user_actions: &[Action],
    cfg: &ExploreConfig,
) -> Result<ExecGraph, EngineError> {
    explore(rules, base_db, user_actions, cfg)
}

/// Exploration entry point when the initial transition is already available
/// as operations applied to `db`.
pub fn explore_from_ops(
    rules: &RuleSet,
    base_db: &Database,
    db: Database,
    initial_ops: &[TupleOp],
    cfg: &ExploreConfig,
) -> Result<ExecGraph, EngineError> {
    explore_impl(rules, base_db, db, initial_ops, cfg, EvalMode::default())
}

/// Expands every eligible rule choice from `src`, in `eligible` order. The
/// whole state is expanded before any successor is merged, so an error in
/// any choice fails the exploration even where an earlier sibling would
/// trip the row budget.
fn expand_state(
    rules: &RuleSet,
    src: &ExecState,
    eligible: &[RuleId],
    base_db: &Database,
    mode: EvalMode,
) -> Result<Vec<(RuleId, ExecState, StepOutcome)>, EngineError> {
    let mut out = Vec::with_capacity(eligible.len());
    for &rule in eligible {
        // Deciding whether the rule fires *before* touching the successor
        // keeps non-firing edges on the cheap path: their successor differs
        // from the source only in the considered rule's pending transition,
        // so a copy-on-write clone plus `reset_pending` is the whole edge —
        // no binding re-derivation, no action machinery.
        let fires = rule_fires(rules, src, rule, mode)?;
        let mut next = src.clone();
        let step = if fires {
            consider_fired_rule(rules, &mut next, rule, base_db, mode)?
        } else {
            next.reset_pending(rule);
            StepOutcome::unfired()
        };
        out.push((rule, next, step));
    }
    Ok(out)
}

/// The breadth-first explorer every entry point runs: states are numbered
/// in discovery order and expanded in that order, each rule choice in
/// `Choose` order.
fn explore_impl(
    rules: &RuleSet,
    base_db: &Database,
    db: Database,
    initial_ops: &[TupleOp],
    cfg: &ExploreConfig,
    mode: EvalMode,
) -> Result<ExecGraph, EngineError> {
    let initial = ExecState::new(db, rules.len(), initial_ops);
    let clock = cfg.start_clock();

    let mut graph = ExecGraph {
        states: Vec::new(),
        edges: Vec::new(),
        final_states: Vec::new(),
        final_dbs: Vec::new(),
        truncation: None,
    };
    // digest -> state index. Digests are already uniformly distributed, so
    // a hash index beats an ordered map; iteration order is never observed.
    let mut index: HashMap<u64, usize> = HashMap::new();
    // Discovered states awaiting expansion, with their concrete `(D, TR)`.
    // A state is dropped as soon as it has been expanded — dedup needs only
    // its digest — so memory tracks the frontier, not the whole graph.
    let mut queue: VecDeque<(usize, ExecState)> = VecDeque::new();

    let mut add_state =
        |st: ExecState, graph: &mut ExecGraph, queue: &mut VecDeque<(usize, ExecState)>| -> usize {
            let (db_digest, digest) = st.digests();
            if let Some(&i) = index.get(&digest) {
                return i;
            }
            let triggered = st.triggered(rules);
            let i = graph.states.len();
            let is_final = triggered.is_empty();
            graph.states.push(StateNode {
                digest,
                db_digest,
                triggered,
                out_edges: Vec::new(),
                is_final,
            });
            if is_final {
                graph.final_states.push(i);
                // A copy-on-write handle: refcount bump, not a copy.
                graph.final_dbs.push((i, st.db.clone()));
            }
            index.insert(digest, i);
            queue.push_back((i, st));
            i
        };

    add_state(initial, &mut graph, &mut queue);

    'explore: while let Some((i, src)) = queue.pop_front() {
        if graph.states.len() > cfg.max_states {
            graph.truncation = Some(TruncationReason::States);
            break;
        }
        if clock.expired() {
            graph.truncation = Some(TruncationReason::Deadline);
            break;
        }
        if graph.states[i].is_final {
            continue;
        }
        let eligible = rules.priority().choose(&graph.states[i].triggered);
        for (rule, next, step) in expand_state(rules, &src, &eligible, base_db, mode)? {
            // Per-state row guard: a program whose firings multiply rows
            // (e.g. `insert into t select ... from t`) grows databases
            // exponentially while staying under `max_states`.
            if next.db.total_rows() > cfg.max_rows {
                graph.truncation = Some(TruncationReason::Rows);
                break 'explore;
            }
            let to = add_state(next, &mut graph, &mut queue);
            let e = graph.edges.len();
            graph.edges.push(EdgeInfo {
                from: i,
                to,
                rule,
                fired: step.fired,
                rolled_back: step.rolled_back,
                observables: step.observables,
                ops: step.ops,
            });
            graph.states[i].out_edges.push(e);
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use starling_sql::ast::Statement;
    use starling_sql::{parse_script, parse_statement};
    use starling_storage::{ColumnDef, TableSchema, ValueType};

    use super::*;

    fn db_with(tables: &[(&str, &[&str])]) -> Database {
        let mut db = Database::new();
        for (name, cols) in tables {
            db.create_table(
                TableSchema::new(
                    *name,
                    cols.iter()
                        .map(|c| ColumnDef::new(*c, ValueType::Int))
                        .collect(),
                )
                .unwrap(),
            )
            .unwrap();
        }
        db
    }

    fn rules(db: &Database, src: &str) -> RuleSet {
        let defs: Vec<_> = parse_script(src)
            .unwrap()
            .into_iter()
            .filter_map(|s| match s {
                Statement::CreateRule(r) => Some(r),
                _ => None,
            })
            .collect();
        RuleSet::compile(&defs, db.catalog()).unwrap()
    }

    fn actions(srcs: &[&str]) -> Vec<Action> {
        srcs.iter()
            .map(|s| match parse_statement(s).unwrap() {
                Statement::Dml(a) => a,
                _ => panic!(),
            })
            .collect()
    }

    #[test]
    fn single_rule_linear_graph() {
        let db = db_with(&[("t", &["a"])]);
        let rs = rules(
            &db,
            "create rule r on t when inserted then delete from t end",
        );
        let g = explore(
            &rs,
            &db,
            &actions(&["insert into t values (1)"]),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert_eq!(g.terminates(), Some(true));
        assert_eq!(g.confluent(), Some(true));
        assert_eq!(g.final_states.len(), 1);
        // initial --r--> final
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.choice_points(), 0);
    }

    #[test]
    fn nonterminating_cycle_detected() {
        let mut db = db_with(&[("t", &["a"])]);
        // A self-triggering toggle: states (a=0, pending) and (a=1, pending)
        // recur forever — the graph has a cycle.
        db.insert("t", vec![starling_storage::Value::Int(0)])
            .unwrap();
        let rs = rules(
            &db,
            "create rule tgl on t when updated(a) then \
               update t set a = 1 - a end",
        );
        let g = explore(
            &rs,
            &db,
            &actions(&["update t set a = 1 - a"]),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert_eq!(g.terminates(), Some(false));
        assert!(g.has_cycle());
        assert_eq!(g.confluent(), None);
    }

    #[test]
    fn insert_delete_ping_pong_terminates_by_net_effect() {
        // The classic "flip/flop" pair is NOT an oracle counterexample:
        // flip deletes the inserted tuple, so flop's pending transition is
        // insert∘delete = nothing — flop never triggers (paper Section 2
        // net-effect semantics; cf. Can-Untrigger).
        let db = db_with(&[("t", &["a"])]);
        let rs = rules(
            &db,
            "create rule flip on t when inserted then delete from t end;
             create rule flop on t when deleted then insert into t values (1) end;",
        );
        let g = explore(
            &rs,
            &db,
            &actions(&["insert into t values (1)"]),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert_eq!(g.terminates(), Some(true));
    }

    #[test]
    fn non_confluent_pair_two_final_states() {
        let db = db_with(&[("t", &["a"]), ("out", &["v"])]);
        // Two unordered rules both write `out.v` to different values based
        // on whether the other has run: order matters.
        let rs = rules(
            &db,
            "create rule set1 on t when inserted then \
               update out set v = 1 where v = 0 end;
             create rule set2 on t when inserted then \
               update out set v = 2 where v = 0 end;",
        );
        let g = explore(
            &rs,
            &db,
            &actions(&["insert into out values (0)", "insert into t values (1)"]),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert_eq!(g.terminates(), Some(true));
        assert_eq!(g.confluent(), Some(false));
        assert_eq!(g.final_db_digests().len(), 2);
        // The one genuine decision is at the root.
        assert_eq!(g.choice_points(), 1);
        // But confluent with respect to `t` alone.
        assert_eq!(g.partially_confluent(&["t"]), Some(true));
        assert_eq!(g.partially_confluent(&["out"]), Some(false));
    }

    #[test]
    fn commuting_rules_are_confluent() {
        let db = db_with(&[("t", &["a"]), ("x", &["v"]), ("y", &["v"])]);
        let rs = rules(
            &db,
            "create rule wx on t when inserted then insert into x values (1) end;
             create rule wy on t when inserted then insert into y values (2) end;",
        );
        let g = explore(
            &rs,
            &db,
            &actions(&["insert into t values (1)"]),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert_eq!(g.terminates(), Some(true));
        assert_eq!(g.confluent(), Some(true));
        // A diamond shape: the two leaf states carry different pending-
        // transition bookkeeping (so they are distinct graph nodes), but
        // their database states are identical — that is confluence.
        assert_eq!(g.edges.len(), 4);
        assert_eq!(g.final_states.len(), 2);
        assert_eq!(g.final_db_digests().len(), 1);
    }

    #[test]
    fn observable_nondeterminism_detected() {
        let db = db_with(&[("t", &["a"])]);
        // Two unordered observable rules: the stream order differs by
        // choice even though the final state is identical.
        let rs = rules(
            &db,
            "create rule obs1 on t when inserted then select 1 end;
             create rule obs2 on t when inserted then select 2 end;",
        );
        let cfg = ExploreConfig::default();
        let g = explore(&rs, &db, &actions(&["insert into t values (1)"]), &cfg).unwrap();
        assert_eq!(g.confluent(), Some(true));
        assert_eq!(g.observably_deterministic(&cfg), Some(false));
        assert_eq!(g.observable_streams(&cfg).unwrap().len(), 2);
    }

    #[test]
    fn ordered_observables_are_deterministic() {
        let db = db_with(&[("t", &["a"])]);
        let rs = rules(
            &db,
            "create rule obs1 on t when inserted then select 1 precedes obs2 end;
             create rule obs2 on t when inserted then select 2 end;",
        );
        let cfg = ExploreConfig::default();
        let g = explore(&rs, &db, &actions(&["insert into t values (1)"]), &cfg).unwrap();
        assert_eq!(g.observably_deterministic(&cfg), Some(true));
    }

    #[test]
    fn rollback_produces_final_state_at_snapshot() {
        let db = db_with(&[("t", &["a"])]);
        let rs = rules(
            &db,
            "create rule guard on t when inserted then rollback end",
        );
        let g = explore(
            &rs,
            &db,
            &actions(&["insert into t values (1)"]),
            &ExploreConfig::default(),
        )
        .unwrap();
        assert_eq!(g.terminates(), Some(true));
        assert_eq!(g.final_states.len(), 1);
        let (_, final_db) = &g.final_dbs[0];
        assert!(final_db.table("t").unwrap().is_empty());
        assert!(g.edges.iter().any(|e| e.rolled_back));
    }

    #[test]
    fn truncation_reported() {
        let db = db_with(&[("t", &["a"])]);
        // Unbounded growth: every insert triggers another insert of a+1 —
        // infinitely many distinct states.
        let rs = rules(
            &db,
            "create rule grow on t when inserted then \
               insert into t select a + 1 from inserted end",
        );
        let cfg = ExploreConfig::default()
            .with_max_states(50)
            .with_max_paths(100);
        let g = explore(&rs, &db, &actions(&["insert into t values (1)"]), &cfg).unwrap();
        assert!(g.truncated());
        assert_eq!(g.truncation, Some(TruncationReason::States));
        assert_eq!(g.terminates(), None);
        assert_eq!(g.confluent(), None);
        assert_eq!(g.observably_deterministic(&cfg), None);
        // The reason-carrying verdicts name the exhausted budget.
        assert_eq!(
            g.termination_verdict(),
            Verdict::Inconclusive(TruncationReason::States)
        );
        assert_eq!(
            g.confluence_verdict(),
            Verdict::Inconclusive(TruncationReason::States)
        );
        assert_eq!(
            g.observable_determinism_verdict(&cfg),
            Verdict::Inconclusive(TruncationReason::States)
        );
    }

    /// A zero wall-clock deadline yields a partial graph with
    /// `TruncationReason::Deadline` and inconclusive verdicts — no panic,
    /// no bare unexplained `None`.
    #[test]
    fn zero_deadline_truncates_with_reason() {
        let db = db_with(&[("t", &["a"])]);
        let rs = rules(
            &db,
            "create rule r on t when inserted then delete from t end",
        );
        let cfg = ExploreConfig::default().with_deadline(std::time::Duration::ZERO);
        let g = explore(&rs, &db, &actions(&["insert into t values (1)"]), &cfg).unwrap();
        assert_eq!(g.truncation, Some(TruncationReason::Deadline));
        // Partial graph: the initial state exists even though nothing was
        // expanded.
        assert!(!g.states.is_empty());
        assert_eq!(g.terminates(), None);
        assert_eq!(
            g.termination_verdict(),
            Verdict::Inconclusive(TruncationReason::Deadline)
        );
        assert_eq!(
            g.confluence_verdict(),
            Verdict::Inconclusive(TruncationReason::Deadline)
        );
        assert_eq!(
            g.observable_determinism_verdict(&cfg),
            Verdict::Inconclusive(TruncationReason::Deadline)
        );
    }

    /// Nontermination makes confluence/observability *not applicable*, which
    /// is different from an exhausted budget.
    #[test]
    fn cyclic_graph_verdicts_are_not_applicable() {
        let mut db = db_with(&[("t", &["a"])]);
        db.insert("t", vec![starling_storage::Value::Int(0)])
            .unwrap();
        let rs = rules(
            &db,
            "create rule tgl on t when updated(a) then \
               update t set a = 1 - a end",
        );
        let cfg = ExploreConfig::default();
        let g = explore(&rs, &db, &actions(&["update t set a = 1 - a"]), &cfg).unwrap();
        assert_eq!(g.termination_verdict(), Verdict::Fails);
        assert_eq!(g.confluence_verdict(), Verdict::NotApplicable);
        assert_eq!(
            g.observable_determinism_verdict(&cfg),
            Verdict::NotApplicable
        );
    }

    /// The path budget is reported distinctly from the state budget.
    #[test]
    fn path_budget_exhaustion_reported() {
        let db = db_with(&[("t", &["a"])]);
        // Three unordered observable rules: 3! = 6 root-to-final paths.
        let rs = rules(
            &db,
            "create rule o1 on t when inserted then select 1 end;
             create rule o2 on t when inserted then select 2 end;
             create rule o3 on t when inserted then select 3 end;",
        );
        let cfg = ExploreConfig::default().with_max_paths(2);
        let g = explore(&rs, &db, &actions(&["insert into t values (1)"]), &cfg).unwrap();
        // Exploration itself completed…
        assert!(!g.truncated());
        assert_eq!(g.terminates(), Some(true));
        // …but path enumeration is over budget.
        assert_eq!(
            g.observable_determinism_verdict(&cfg),
            Verdict::Inconclusive(TruncationReason::Paths)
        );
        assert_eq!(g.observable_streams(&cfg), None);
    }

    /// `verdicts()` is the three single-verdict methods computed together,
    /// and `inconclusive()` names the budget that ran out — on a confluent,
    /// a divergent, a cyclic, a state-truncated and a path-budget-exhausted
    /// graph.
    #[test]
    fn verdicts_equal_the_three_single_verdict_methods() {
        let observers = "create rule o1 on t when inserted then select 1 end;
                         create rule o2 on t when inserted then select 2 end;
                         create rule o3 on t when inserted then select 3 end;";
        let race = "create rule set1 on t when inserted then update out set v = 1 where v = 0 end;
                    create rule set2 on t when inserted then update out set v = 2 where v = 0 end;";
        let toggle = "create rule tgl on t when updated(a) then update t set a = 1 - a end";
        let grow = "create rule grow on t when inserted then \
                      insert into t select a + 1 from inserted end";
        let insert: &[&str] = &["insert into t values (1)"];
        let (holds, fails, na) = (Verdict::Holds, Verdict::Fails, Verdict::NotApplicable);
        let cases: [(&str, &str, &[&str], ExploreConfig, Verdicts, _); 5] = [
            (
                "confluent",
                "create rule r on t when inserted then delete from t end",
                insert,
                ExploreConfig::default(),
                Verdicts {
                    termination: holds,
                    confluence: holds,
                    observable_determinism: holds,
                },
                None,
            ),
            (
                "divergent",
                race,
                &["insert into out values (0)", "insert into t values (1)"],
                ExploreConfig::default(),
                Verdicts {
                    termination: holds,
                    confluence: fails,
                    observable_determinism: holds,
                },
                None,
            ),
            (
                "cyclic",
                toggle,
                &["update t set a = 1 - a"],
                ExploreConfig::default(),
                Verdicts {
                    termination: fails,
                    confluence: na,
                    observable_determinism: na,
                },
                None,
            ),
            (
                "state-truncated",
                grow,
                insert,
                ExploreConfig::default().with_max_states(50),
                Verdicts {
                    termination: Verdict::Inconclusive(TruncationReason::States),
                    confluence: Verdict::Inconclusive(TruncationReason::States),
                    observable_determinism: Verdict::Inconclusive(TruncationReason::States),
                },
                Some(TruncationReason::States),
            ),
            (
                "path-budget-exhausted",
                observers,
                insert,
                ExploreConfig::default().with_max_paths(2),
                Verdicts {
                    termination: holds,
                    confluence: holds,
                    observable_determinism: Verdict::Inconclusive(TruncationReason::Paths),
                },
                Some(TruncationReason::Paths),
            ),
        ];
        for (name, src, user, cfg, expected, inconclusive) in cases {
            let mut db = db_with(&[("t", &["a"]), ("out", &["v"])]);
            db.insert("t", vec![starling_storage::Value::Int(0)])
                .unwrap();
            let g = explore(&rules(&db, src), &db, &actions(user), &cfg).unwrap();
            let v = g.verdicts(&cfg);
            assert_eq!(v, expected, "{name}");
            assert_eq!(v.termination, g.termination_verdict(), "{name}");
            assert_eq!(v.confluence, g.confluence_verdict(), "{name}");
            assert_eq!(
                v.observable_determinism,
                g.observable_determinism_verdict(&cfg),
                "{name}"
            );
            assert_eq!(v.inconclusive(), inconclusive, "{name}");
        }
    }

    /// A truncated graph's DOT says it is a prefix; a complete one's does
    /// not.
    #[test]
    fn dot_marks_a_truncated_graph() {
        let db = db_with(&[("t", &["a"])]);
        let rs = rules(
            &db,
            "create rule grow on t when inserted then \
               insert into t select a + 1 from inserted end",
        );
        let acts = actions(&["insert into t values (1)"]);
        let cut = ExploreConfig::default().with_max_states(5);
        let dot = explore(&rs, &db, &acts, &cut).unwrap().to_dot(&rs);
        assert!(
            dot.contains("  // TRUNCATED: state budget exhausted\n"),
            "{dot}"
        );
        assert!(
            dot.contains("  label=\"TRUNCATED: state budget exhausted\";\n"),
            "{dot}"
        );
        let rs = rules(
            &db,
            "create rule r on t when inserted then delete from t end",
        );
        let dot = explore(&rs, &db, &acts, &ExploreConfig::default())
            .unwrap()
            .to_dot(&rs);
        assert!(
            !dot.contains("TRUNCATED") && !dot.contains("label=\"T"),
            "{dot}"
        );
    }

    /// `max_states` equal to the true state count leaves the graph complete
    /// (full verdicts, no truncation); one less truncates it with
    /// `TruncationReason::States`.
    #[test]
    fn exact_state_budget_boundary() {
        let db = db_with(&[("t", &["a"])]);
        // Five unordered observables: every subset of them is a state.
        let rs = rules(
            &db,
            "create rule o1 on t when inserted then select 1 end;
             create rule o2 on t when inserted then select 2 end;
             create rule o3 on t when inserted then select 3 end;
             create rule o4 on t when inserted then select 4 end;
             create rule o5 on t when inserted then select 5 end;",
        );
        let acts = actions(&["insert into t values (1)"]);
        let n = {
            let g = explore(&rs, &db, &acts, &ExploreConfig::default()).unwrap();
            assert!(!g.truncated());
            g.states.len()
        };

        // Budget == exact state count: complete graph, full verdicts.
        let exact = ExploreConfig::default().with_max_states(n);
        let g = explore(&rs, &db, &acts, &exact).unwrap();
        assert_eq!(g.truncation, None);
        assert_eq!(g.termination_verdict(), Verdict::Holds);

        // Budget == one less: truncated, with the state budget as reason.
        let under = ExploreConfig::default().with_max_states(n - 1);
        let g = explore(&rs, &db, &acts, &under).unwrap();
        assert_eq!(g.truncation, Some(TruncationReason::States));
        assert_eq!(
            g.termination_verdict(),
            Verdict::Inconclusive(TruncationReason::States)
        );
    }

    /// The per-state row budget truncates a database-growing program with
    /// its own reason — the guard that keeps a fuzz campaign's memory
    /// bounded when a generated rule multiplies rows on every firing.
    #[test]
    fn row_budget_truncates_with_reason() {
        let db = db_with(&[("t", &["a"])]);
        // Each firing doubles `t` (select from the *base* table): row
        // counts explode while the state count stays tiny.
        let rs = rules(
            &db,
            "create rule dup on t when inserted then \
               insert into t select a + 1 from t end",
        );
        let cfg = ExploreConfig::default().with_max_rows(64);
        let acts = actions(&["insert into t values (1)"]);
        let g = explore(&rs, &db, &acts, &cfg).unwrap();
        assert_eq!(g.truncation, Some(TruncationReason::Rows));
        assert_eq!(
            g.termination_verdict(),
            Verdict::Inconclusive(TruncationReason::Rows)
        );
        // Every state actually kept respects the cap.
        assert!(g.states.len() < 20, "cap should trip within a few states");
    }

    /// Fault-plan injection counters advance on every observed operation,
    /// so the explorer's fixed expansion order makes the injection point
    /// deterministic: two runs from identical fresh fault states agree.
    #[test]
    fn fault_plan_exploration_is_deterministic() {
        use starling_storage::{FaultPlan, FaultSpec};
        let mk = || {
            let mut db = db_with(&[("t", &["a"]), ("x", &["v"]), ("y", &["v"])]);
            db.install_fault_plan(FaultPlan::single(FaultSpec::nth(3)));
            db
        };
        let rs = rules(
            &mk(),
            "create rule wx on t when inserted then insert into x values (1) end;
             create rule wy on t when inserted then insert into y values (2) end;",
        );
        let cfg = ExploreConfig::default();
        let acts = actions(&["insert into t values (1)"]);
        match (
            explore(&rs, &mk(), &acts, &cfg),
            explore(&rs, &mk(), &acts, &cfg),
        ) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            other => panic!("divergent outcomes: {other:?}"),
        }
    }

    #[test]
    fn rollback_in_user_actions_rejected() {
        let db = db_with(&[("t", &["a"])]);
        let rs = rules(
            &db,
            "create rule r on t when inserted then delete from t end",
        );
        assert!(explore(&rs, &db, &actions(&["rollback"]), &ExploreConfig::default()).is_err());
    }
}
