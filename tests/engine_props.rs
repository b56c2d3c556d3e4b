//! Property tests on engine invariants: the priority order is a strict
//! partial order, `Choose` behaves like the paper's definition, and rule
//! processing is a *deterministic function of the strategy* (all remaining
//! nondeterminism is captured by the choice points — nothing else).

use proptest::prelude::*;

use starling::analysis::load_script;
use starling::engine::{
    ExecState, FirstEligible, NetEffect, PriorityOrder, Processor, RuleId, Scripted, TupleOp,
};
use starling::storage::{CanonicalDigest, Fnv64, TupleId, Value};
use starling::workloads::random::{generate, RandomConfig};

/// Random DAG edges over `n` rules: only downward edges `(i, j)` with
/// `i < j`, so construction never fails.
fn dag_edges(n: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    let all: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    proptest::sample::subsequence(all.clone(), 0..=all.len())
}

/// The naive `TR` that [`ExecState`] must be indistinguishable from: one
/// independent net effect per rule, every operation absorbed into each —
/// beside the operations themselves, to recompute from.
#[derive(Clone)]
struct NaiveState {
    nets: Vec<NetEffect>,
    logs: Vec<Vec<TupleOp>>,
    /// Tuples `(table, id, value)` an update or delete may name next.
    live: Vec<(usize, TupleId, i64)>,
}

impl NaiveState {
    /// Turns raw draws into operations that are well-formed after this
    /// state's history (fresh ids inserted, only live tuples updated or
    /// deleted), and absorbs them.
    fn absorb(
        &mut self,
        draws: &[(u8, u8, i8)],
        n_tables: usize,
        next_id: &mut u64,
    ) -> Vec<TupleOp> {
        let row = |v: i64| vec![Value::Int(v)];
        let mut ops = Vec::new();
        for &(what, pick, v) in draws {
            let v = i64::from(v);
            if what % 3 == 0 || self.live.is_empty() {
                let table = pick as usize % n_tables;
                *next_id += 1;
                self.live.push((table, TupleId(*next_id), v));
                ops.push(TupleOp::Insert {
                    table: format!("t{table}"),
                    id: TupleId(*next_id),
                    row: row(v),
                });
                continue;
            }
            let at = pick as usize % self.live.len();
            let (table, id, old) = self.live[at];
            if what % 3 == 1 {
                self.live[at].2 = v;
                ops.push(TupleOp::Update {
                    table: format!("t{table}"),
                    id,
                    old: row(old),
                    new: row(v),
                    cols: std::iter::once("x".to_owned()).collect(),
                });
            } else {
                self.live.swap_remove(at);
                ops.push(TupleOp::Delete {
                    table: format!("t{table}"),
                    id,
                    old: row(old),
                });
            }
        }
        for (net, log) in self.nets.iter_mut().zip(&mut self.logs) {
            net.absorb_all(&ops);
            log.extend(ops.iter().cloned());
        }
        ops
    }
}

proptest! {
    /// Model check of the shared-handle `TR`: random interleavings of
    /// `absorb` / `reset_pending` / `clear_pending` / clone-then-diverge
    /// leave every state indistinguishable from the naive per-rule model,
    /// and every digest it caches equal to one recomputed from the
    /// operations.
    #[test]
    fn shared_pending_matches_the_naive_per_rule_model(
        n_rules in 1usize..=12,
        n_tables in 1usize..=4,
        steps in prop::collection::vec(
            (0u8..8, any::<u8>(), any::<u8>(),
             prop::collection::vec((any::<u8>(), any::<u8>(), any::<i8>()), 1..4)),
            1..40,
        ),
    ) {
        let mut script: String = (0..n_tables)
            .map(|t| format!("create table t{t} (x int);\n"))
            .collect();
        for r in 0..n_rules {
            let when = ["inserted", "deleted", "updated(x)"][r % 3];
            script += &format!(
                "create rule r{r} on t{} when {when} then delete from t0 where x < 0 end;\n",
                r % n_tables
            );
        }
        let loaded = load_script(&script).expect("model script loads");
        let rules = &*loaded.rules;

        // One tuple per table predates the transition; ids never repeat.
        let mut next_id = n_tables as u64;
        let naive = NaiveState {
            nets: vec![NetEffect::new(); n_rules],
            logs: vec![Vec::new(); n_rules],
            live: (0..n_tables).map(|t| (t, TupleId(t as u64 + 1), 0)).collect(),
        };
        let mut pool = vec![(ExecState::new(loaded.db.clone(), n_rules, &[]), naive)];

        for (kind, which, rule, draws) in steps {
            let at = which as usize % pool.len();
            let (state, naive) = &mut pool[at];
            match kind {
                // Absorbs outnumber the rest so transitions grow between resets.
                0..=3 => {
                    let ops = naive.absorb(&draws, n_tables, &mut next_id);
                    state.absorb(&ops);
                }
                4 | 5 => {
                    let id = rule as usize % n_rules;
                    state.reset_pending(RuleId(id));
                    naive.nets[id] = NetEffect::new();
                    naive.logs[id].clear();
                }
                6 => {
                    state.clear_pending();
                    naive.nets = vec![NetEffect::new(); n_rules];
                    naive.logs = vec![Vec::new(); n_rules];
                }
                // Clone; later steps pick either copy and so diverge.
                _ => {
                    let copy = pool[at].clone();
                    if pool.len() < 4 {
                        pool.push(copy);
                    } else {
                        pool[(at + 1) % 4] = copy;
                    }
                }
            }

            // Every state is checked after every step, so a write through
            // one copy that leaked into another shows at once.
            for (state, naive) in &pool {
                let mut recomputed = Fnv64::new();
                state.db.digest_into(&mut recomputed);
                recomputed.write_usize(n_rules);
                for id in 0..n_rules {
                    let pending = state.pending(RuleId(id));
                    let scratch = NetEffect::from_ops(&naive.logs[id]);
                    prop_assert_eq!(pending, &naive.nets[id]);
                    prop_assert_eq!(pending, &scratch);
                    prop_assert_eq!(pending.digest(), scratch.digest());
                    prop_assert_eq!(
                        state.transition_binding(rules, RuleId(id)),
                        scratch.transition_binding(&rules.get(RuleId(id)).sig.table)
                    );
                    recomputed.write_u64(scratch.digest());
                }
                let triggered: Vec<RuleId> = rules
                    .rules()
                    .iter()
                    .filter(|r| naive.nets[r.id.0].triggers(&r.sig.triggered_by))
                    .map(|r| r.id)
                    .collect();
                prop_assert_eq!(state.triggered(rules), triggered);
                prop_assert_eq!(state.digest(), recomputed.finish());
            }
            for (a, naive_a) in &pool {
                for (b, naive_b) in &pool {
                    let same = naive_a.nets == naive_b.nets;
                    prop_assert_eq!(a == b, same);
                    prop_assert_eq!(a.digest() == b.digest(), same);
                }
            }
        }
    }

    /// Transitivity and irreflexivity/asymmetry of the closed order.
    #[test]
    fn priority_order_is_strict_partial_order(edges in dag_edges(7)) {
        let names: Vec<String> = (0..7).map(|i| format!("r{i}")).collect();
        let p = PriorityOrder::from_edges(&names, &edges).expect("DAG closes");
        for a in 0..7 {
            prop_assert!(!p.gt(RuleId(a), RuleId(a)), "irreflexive");
            for b in 0..7 {
                if p.gt(RuleId(a), RuleId(b)) {
                    prop_assert!(!p.gt(RuleId(b), RuleId(a)), "asymmetric");
                }
                for c in 0..7 {
                    if p.gt(RuleId(a), RuleId(b)) && p.gt(RuleId(b), RuleId(c)) {
                        prop_assert!(p.gt(RuleId(a), RuleId(c)), "transitive");
                    }
                }
            }
        }
    }

    /// Choose returns exactly the maximal elements of the input set.
    #[test]
    fn choose_returns_maximal_elements(
        edges in dag_edges(7),
        subset in proptest::sample::subsequence((0..7usize).collect::<Vec<_>>(), 1..=7),
    ) {
        let names: Vec<String> = (0..7).map(|i| format!("r{i}")).collect();
        let p = PriorityOrder::from_edges(&names, &edges).expect("DAG closes");
        let set: Vec<RuleId> = subset.iter().map(|&i| RuleId(i)).collect();
        let chosen = p.choose(&set);
        prop_assert!(!chosen.is_empty(), "finite nonempty poset has maxima");
        for &r in &set {
            let dominated = set.iter().any(|&q| p.gt(q, r));
            prop_assert_eq!(chosen.contains(&r), !dominated);
        }
    }

    /// The processor is a pure function of (workload, initial state,
    /// strategy script): replaying the same script reproduces the same
    /// final database and consideration sequence.
    #[test]
    fn processing_is_deterministic_given_strategy(
        seed in 0u64..40,
        picks in proptest::collection::vec(0usize..4, 0..30),
    ) {
        let w = generate(&RandomConfig {
            n_tables: 3,
            n_cols: 2,
            n_rules: 4,
            max_actions: 2,
            p_condition: 0.5,
            p_observable: 0.2,
            p_priority: 0.2,
            rows_per_table: 2,
            seed,
        });
        let rules = w.compile();
        let base = w.seed_database();
        let actions = w.user_transition(3);

        let run = |picks: &[usize]| {
            let mut db = base.clone();
            let ops = starling::engine::exec_graph::apply_user_actions(&mut db, &actions)
                .ok()?;
            let mut st = ExecState::new(db, rules.len(), &ops);
            let mut strategy = Scripted::new(picks.to_vec());
            let res = Processor::new(&rules)
                .with_limit(60)
                .run(&mut st, &base, &mut strategy)
                .ok()?;
            Some((
                st.db.state_digest(),
                res.considerations
                    .iter()
                    .map(|c| (c.rule.0, c.fired))
                    .collect::<Vec<_>>(),
                res.outcome,
            ))
        };

        let a = run(&picks);
        let b = run(&picks);
        prop_assert_eq!(a, b);
    }

    /// `FirstEligible` always picks the lowest-id eligible rule, so a run
    /// with it equals a run scripted with all-zero picks.
    #[test]
    fn first_eligible_equals_zero_script(seed in 0u64..40) {
        let w = generate(&RandomConfig {
            n_tables: 3,
            n_cols: 2,
            n_rules: 4,
            max_actions: 1,
            p_condition: 0.4,
            p_observable: 0.1,
            p_priority: 0.3,
            rows_per_table: 2,
            seed,
        });
        let rules = w.compile();
        let base = w.seed_database();
        let actions = w.user_transition(9);

        let mut db1 = base.clone();
        let Ok(ops1) = starling::engine::exec_graph::apply_user_actions(&mut db1, &actions)
        else {
            return Ok(());
        };
        let mut st1 = ExecState::new(db1, rules.len(), &ops1);
        let r1 = Processor::new(&rules)
            .with_limit(60)
            .run(&mut st1, &base, &mut FirstEligible)
            .unwrap();

        let mut db2 = base.clone();
        let ops2 = starling::engine::exec_graph::apply_user_actions(&mut db2, &actions)
            .unwrap();
        let mut st2 = ExecState::new(db2, rules.len(), &ops2);
        let mut zeros = Scripted::new(vec![]);
        let r2 = Processor::new(&rules)
            .with_limit(60)
            .run(&mut st2, &base, &mut zeros)
            .unwrap();

        prop_assert_eq!(st1.db.state_digest(), st2.db.state_digest());
        prop_assert_eq!(r1.considerations.len(), r2.considerations.len());
    }
}
