//! Decomposed mirrors of the engine's opaque entry points, built only from
//! public functions so each layer boundary can carry a span.
//!
//! `explore` and `Session::commit` are single calls from outside; to say
//! which layer a millisecond belongs to, the traced pass re-runs the same
//! inputs through [`explore`] / [`walk`] here — the explorer's own
//! `expand_state` / `consider_fired_rule` logic restated over
//! `rule_fires`, `ExecState::clone`, `plan::execute_action`,
//! `ExecState::absorb` and `ExecState::digest` — and checks the result
//! against the real call, so a drifted mirror fails the run instead of
//! misattributing time.

use std::collections::{BTreeSet, HashMap};

use starling_engine::{rule_fires, EvalMode, ExecState, RuleId, RuleSet, TupleOp};
use starling_sql::ast::Action;
use starling_sql::eval::ActionOutcome;
use starling_sql::plan::execute_action;
use starling_storage::{Database, Op, Table};

use crate::measure::Tracer;

/// The mirrors run the default engine, like the calls they restate.
const MODE: EvalMode = EvalMode::Columnar;

/// A table large enough that its columnar batch, hash index and
/// copy-on-write unshare are layers of their own.
pub struct BigTable {
    pub name: &'static str,
    /// Columns the rules join on (their hash indexes are built per version).
    pub index_cols: &'static [usize],
}

impl BigTable {
    /// Builds this table's columnar batch and join indexes in `db` (no-ops
    /// on a version that has them), each under its own span.
    pub fn force(&self, t: &Tracer, db: &Database) {
        let table = db.table(self.name).expect("big table exists");
        let batch = t.time("storage.batch.build", || table.columnar());
        for &col in self.index_cols {
            t.time("storage.batch.index_build", || batch.hash_index(col));
        }
    }
}

/// Work counted at the span sites.
#[derive(Default, Debug, Clone, PartialEq)]
pub struct Counts {
    pub states: usize,
    pub edges: usize,
    pub considerations: usize,
    pub fired: usize,
    pub batch_builds: usize,
    pub final_digests: BTreeSet<u64>,
}

/// Versions of the big tables whose batch has been forced already, so a
/// build is counted (and its span opened) once per table version.
#[derive(Default)]
struct Built(Vec<Table>);

impl Built {
    /// Forces the columnar batch and join indexes of every big table in
    /// `db` that is a new version, under their own spans — the cost the
    /// next condition evaluation would otherwise pay lazily.
    fn force(&mut self, t: &Tracer, db: &Database, big: &[BigTable], counts: &mut Counts) {
        for b in big {
            let table = db.table(b.name).expect("big table exists");
            if self.0.iter().any(|seen| seen.shares_storage_with(table)) {
                continue;
            }
            b.force(t, db);
            counts.batch_builds += 1;
            self.0.push(table.clone());
        }
    }
}

/// Unshares each big table the rule is about to write, by rewriting one
/// row with its own values: the copy-on-write clone the action would
/// trigger on its first write, moved under its own span. Contents, digests
/// and the tuple-id allocator are untouched.
fn unshare_written(t: &Tracer, rules: &RuleSet, db: &mut Database, rule: RuleId, big: &[BigTable]) {
    for b in big {
        if !rules
            .get(rule)
            .sig
            .performs
            .iter()
            .any(|op| op.table() == b.name)
        {
            continue;
        }
        let first = db.table(b.name).expect("big table exists").iter().next();
        if let Some((id, row)) = first.map(|(id, row)| (id, row.clone())) {
            let _span = t.span("storage.database.cow_unshare");
            db.update(b.name, id, row).expect("identity update");
        }
    }
}

/// Whether `rule` fires from `src`, with the big tables' batches forced
/// first so the condition span holds evaluation only.
fn check(
    t: &Tracer,
    rules: &RuleSet,
    src: &ExecState,
    rule: RuleId,
    big: &[BigTable],
    built: &mut Built,
    counts: &mut Counts,
) -> bool {
    built.force(t, &src.db, big, counts);
    counts.considerations += 1;
    t.time("sql.plan.cond", || rule_fires(rules, src, rule, MODE))
        .expect("condition evaluates")
}

/// Considers `rule` in place, as `consider_rule` does once the condition
/// is known: one span per layer.
fn consider(
    t: &Tracer,
    rules: &RuleSet,
    state: &mut ExecState,
    rule: RuleId,
    fires: bool,
    big: &[BigTable],
    counts: &mut Counts,
) -> BTreeSet<Op> {
    let mut performed = BTreeSet::new();
    if !fires {
        state.reset_pending(rule);
        return performed;
    }
    counts.fired += 1;
    let _fire = t.span("engine.processor.fire");
    let binding = state.transition_binding(rules, rule);
    state.reset_pending(rule);
    unshare_written(t, rules, &mut state.db, rule, big);
    for plan in &rules.get(rule).plan.actions {
        let acted = t
            .time("sql.plan.action", || {
                execute_action(plan, &mut state.db, Some(&binding), MODE.plan_mode())
            })
            .expect("action executes");
        // The benchmark's generated programs only modify data; a select or
        // rollback action would need the explorer's observable handling.
        let ActionOutcome::Effects(fx) = acted else {
            panic!("shadow mirrors support data-modification actions only");
        };
        let ops: Vec<TupleOp> = fx.into_iter().map(TupleOp::from).collect();
        // The step record's abstract operations, as `consider_fired_rule`
        // builds them: part of the fire span's own time.
        for op in &ops {
            match op {
                TupleOp::Insert { table, .. } => {
                    performed.insert(Op::Insert(table.clone()));
                }
                TupleOp::Delete { table, .. } => {
                    performed.insert(Op::Delete(table.clone()));
                }
                TupleOp::Update { table, cols, .. } => {
                    performed.extend(cols.iter().map(|c| Op::update(table.clone(), c.clone())));
                }
            }
        }
        t.time("engine.processor.net_effect", || state.absorb(&ops));
    }
    performed
}

/// The explorer's breadth-first search restated over [`check`] and
/// [`consider`]: every eligible choice from every state, deduplicated by
/// state digest.
pub fn explore(
    t: &Tracer,
    rules: &RuleSet,
    base_db: &Database,
    actions: &[Action],
    big: &[BigTable],
) -> Counts {
    let _root = t.span("engine.exec_graph.explore");
    let mut counts = Counts::default();
    let mut built = Built::default();
    let mut db = t.time("engine.state.clone", || base_db.clone());
    let ops = t
        .time("sql.plan.action", || {
            starling_engine::exec_graph::apply_user_actions(&mut db, actions)
        })
        .expect("user transition applies");
    let initial = ExecState::new(db, rules.len(), &ops);

    // As in the explorer: every state stays alive until the search ends
    // (successors are copy-on-write clones of it), and every edge keeps its
    // step record.
    let mut index: HashMap<u64, usize> = HashMap::new();
    let mut concrete: Vec<ExecState> = Vec::new();
    let mut eligible: Vec<Vec<RuleId>> = Vec::new();
    let mut edges: Vec<(usize, usize, RuleId, BTreeSet<Op>)> = Vec::new();
    let mut add = |st: ExecState,
                   counts: &mut Counts,
                   concrete: &mut Vec<ExecState>,
                   eligible: &mut Vec<Vec<RuleId>>| {
        let digest = t.time("storage.digest.state", || st.digest());
        if let Some(&i) = index.get(&digest) {
            return i;
        }
        let i = concrete.len();
        index.insert(digest, i);
        let triggered = t.time("engine.state.triggered", || st.triggered(rules));
        let db_digest = t.time("storage.digest.state", || st.db.state_digest());
        if triggered.is_empty() {
            counts.final_digests.insert(db_digest);
        }
        eligible.push(rules.priority().choose(&triggered));
        concrete.push(st);
        i
    };
    add(initial, &mut counts, &mut concrete, &mut eligible);
    let mut from = 0;
    while from < concrete.len() {
        for rule in eligible[from].clone() {
            let fires = check(
                t,
                rules,
                &concrete[from],
                rule,
                big,
                &mut built,
                &mut counts,
            );
            let mut next = t.time("engine.state.clone", || concrete[from].clone());
            let performed = consider(t, rules, &mut next, rule, fires, big, &mut counts);
            let to = add(next, &mut counts, &mut concrete, &mut eligible);
            edges.push((from, to, rule, performed));
        }
        from += 1;
    }
    counts.states = concrete.len();
    counts.edges = edges.len();
    // The explorer frees every state when the graph is returned: the
    // pending transitions first, then the databases and the table versions
    // only they still hold.
    let dbs: Vec<Database> = concrete
        .iter_mut()
        .map(|st| std::mem::replace(&mut st.db, Database::new()))
        .collect();
    t.time("engine.state.drop", || drop(concrete));
    t.time("storage.database.drop", || drop((dbs, built)));
    counts
}

/// The canonical `FirstEligible` path restated over [`check`] and
/// [`consider`]: what `Session::commit` does at an assertion point. Returns
/// the final state.
pub fn walk(
    t: &Tracer,
    rules: &RuleSet,
    state: ExecState,
    big: &[BigTable],
    counts: &mut Counts,
) -> ExecState {
    let mut built = Built::default();
    let mut state = state;
    loop {
        let triggered = t.time("engine.state.triggered", || state.triggered(rules));
        let Some(&rule) = rules.priority().choose(&triggered).first() else {
            return state;
        };
        let fires = check(t, rules, &state, rule, big, &mut built, counts);
        consider(t, rules, &mut state, rule, fires, big, counts);
    }
}
