//! Per-layer probes: each times calls into one layer's public functions on
//! a workload's own inputs, from outside, and turns the traced pass's span
//! totals into the per-layer metrics of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::time::Instant;

use starling_analysis::{
    confluence::analyze_confluence, load_script, observable::analyze_observable_determinism,
    termination::analyze_termination, AnalysisContext, Certifications, IncrementalAnalysis,
};
use starling_engine::exec_graph::apply_user_actions;
use starling_engine::{
    consider_rule, explore, explore_parallel, explore_traced, rule_fires, EvalMode, ExecState,
    ExploreConfig, RuleSet,
};
use starling_server::{ScriptCache, ServerSession};
use starling_sql::ast::{Action, RuleDef};
use starling_sql::json::Json;
use starling_sql::parse_script;
use starling_storage::{Catalog, Database};

use crate::measure::{median, ms_since, LayerTime, Tracer};
use crate::shadow::BigTable;
use crate::workloads::Report;

/// Repeats `f` until `budget_s` has passed (at least `min` times) and
/// returns each call's milliseconds.
pub fn sample_ms<R>(budget_s: f64, min: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        std::hint::black_box(f());
        out.push(ms_since(t));
    }
    out
}

/// The path from script text to a compiled program, layer by layer:
/// `sql.parser`, `sql.plan` + `engine.ruleset`, and what `core.loader` adds.
pub fn load_path(r: &mut Report, script: &str, defs: &[RuleDef], catalog: &Catalog) {
    let parse_ms = parser(r, script);
    let compile_ms = compile(r, defs, catalog);
    // `load_script` self time: the whole call minus the parse and the
    // rule-set compile it contains.
    let total = median(&sample_ms(0.1, 3, || load_script(script)));
    r.set(
        "core.loader.load_ms",
        (total - parse_ms - compile_ms).max(0.0),
    );
}

/// `sql.parser`: `parse_script` on the workload's script text.
fn parser(r: &mut Report, script: &str) -> f64 {
    let stmts = parse_script(script).expect("workload script parses").len();
    let ms = median(&sample_ms(0.1, 5, || parse_script(script)));
    r.set("sql.parser.parse_ms", ms);
    r.set(
        "sql.parser.mb_per_s",
        script.len() as f64 / 1e6 / (ms / 1e3),
    );
    r.set("sql.parser.stmts", stmts as f64);
    ms
}

/// `sql.plan` and `engine.ruleset`: `compile_rule` per rule, then the whole
/// `RuleSet::compile`. Returns the latter's milliseconds.
fn compile(r: &mut Report, defs: &[RuleDef], catalog: &Catalog) -> f64 {
    let per_rule = sample_ms(0.1, 3, || {
        for d in defs {
            std::hint::black_box(starling_sql::plan::compile_rule(d, catalog));
        }
    });
    r.set(
        "sql.plan.compile_us_per_rule",
        median(&per_rule) * 1e3 / defs.len().max(1) as f64,
    );
    let ms = median(&sample_ms(0.1, 3, || RuleSet::compile(defs, catalog)));
    r.set("engine.ruleset.compile_ms", ms);
    ms
}

/// `sql.json`: encode and parse of one recorded answer.
pub fn json(r: &mut Report, answer: &str) {
    let value = Json::parse(answer).expect("answer is JSON");
    r.set(
        "sql.json.encode_us",
        median(&sample_ms(0.05, 5, || value.to_string())) * 1e3,
    );
    r.set(
        "sql.json.parse_us",
        median(&sample_ms(0.05, 5, || Json::parse(answer))) * 1e3,
    );
    r.set("sql.json.bytes", answer.len() as f64);
}

/// Condition evaluation under each [`EvalMode`] along the canonical
/// `FirstEligible` path, with the big tables' batches forced first so
/// build cost is excluded; plus `Database::clone` and the rows a full scan
/// of the condition's base tables touches. The row and interpreter modes
/// are timed on the first `slow_limit` considerations only.
pub fn cond_modes(
    r: &mut Report,
    rules: &RuleSet,
    base_db: &Database,
    actions: &[Action],
    big: &[BigTable],
    slow_limit: usize,
) {
    let mut db = base_db.clone();
    let ops = apply_user_actions(&mut db, actions).expect("user transition applies");
    let mut state = ExecState::new(db, rules.len(), &ops);
    let (mut columnar, mut row, mut interp) = (Vec::new(), Vec::new(), Vec::new());
    let (mut clone_ns, mut scanned) = (Vec::new(), 0usize);
    let mut considered = 0usize;
    let untraced = Tracer::new(false);
    loop {
        let triggered = state.triggered(rules);
        let Some(&rule) = rules.priority().choose(&triggered).first() else {
            break;
        };
        for b in big {
            b.force(&untraced, &state.db);
        }
        let time_mode = |mode: EvalMode, out: &mut Vec<f64>| {
            let t = Instant::now();
            std::hint::black_box(rule_fires(rules, &state, rule, mode).expect("condition"));
            out.push(ms_since(t) * 1e3);
        };
        time_mode(EvalMode::Columnar, &mut columnar);
        if considered < slow_limit {
            time_mode(EvalMode::Plan, &mut row);
            time_mode(EvalMode::Interp, &mut interp);
        }
        let mut read_tables: Vec<&str> = rules
            .get(rule)
            .sig
            .reads
            .iter()
            .map(|c| c.table.as_str())
            .collect();
        read_tables.dedup();
        scanned += read_tables
            .iter()
            .filter_map(|t| state.db.table(t).ok())
            .map(|t| t.len())
            .sum::<usize>();
        let t = Instant::now();
        std::hint::black_box(state.db.clone());
        clone_ns.push(t.elapsed().as_nanos() as f64);
        consider_rule(rules, &mut state, rule, base_db, EvalMode::Columnar).expect("consideration");
        considered += 1;
    }
    if considered == 0 {
        return;
    }
    r.set("sql.plan.cond_us", median(&columnar));
    r.set("sql.plan.cond_row_us", median(&row));
    r.set("sql.eval.cond_interp_us", median(&interp));
    r.set("sql.plan.rows_scanned", scanned as f64);
    r.set("storage.database.clone_ns", median(&clone_ns));
}

/// `engine.exec_graph`: the three explorers on the same inputs, and the
/// graph's size.
pub fn exec_graph(
    r: &mut Report,
    rules: &RuleSet,
    db: &Database,
    actions: &[Action],
    cfg: &ExploreConfig,
    budget_s: f64,
) {
    let mut graph = None;
    let plain = median(&sample_ms(budget_s, 2, || {
        graph = Some(explore(rules, db, actions, cfg).expect("explores"));
    }));
    let g = graph.expect("sampled at least once");
    let traced = median(&sample_ms(budget_s, 2, || {
        explore_traced(rules, db, actions, cfg)
    }));
    let parallel = median(&sample_ms(budget_s, 2, || {
        explore_parallel(rules, db, actions, cfg)
    }));
    r.set("engine.exec_graph.explore_ms", plain);
    r.set("engine.exec_graph.traced_ms", traced);
    r.set("engine.exec_graph.parallel_ms", parallel);
    r.set("engine.exec_graph.states", g.states.len() as f64);
    r.set("engine.exec_graph.edges", g.edges.len() as f64);
    r.set(
        "engine.exec_graph.states_per_s",
        g.states.len() as f64 / (plain / 1e3),
    );
    // Every state but the root is discovered by exactly one edge; the
    // rest of the edges led to a state already seen.
    let rediscovered = g.edges.len() + 1 - g.states.len();
    r.set(
        "engine.exec_graph.dedup_ratio",
        rediscovered as f64 / g.edges.len().max(1) as f64,
    );
}

/// `core.analysis` from scratch: one cold incremental analyze, then each
/// analysis on a bound context, then the report's JSON.
pub fn analysis_cold(r: &mut Report, rules: &RuleSet, certs: &Certifications, budget_s: f64) {
    let mut report = None;
    let cold = sample_ms(budget_s, 1, || {
        report = Some(IncrementalAnalysis::new().analyze(rules, certs, false, &[]));
    });
    let report = report.expect("sampled at least once");
    r.set("core.analysis.cold_ms", median(&cold));
    let ctx = AnalysisContext::from_ruleset(rules, certs.clone());
    let t = Instant::now();
    std::hint::black_box(analyze_termination(&ctx));
    r.set("core.analysis.termination_ms", ms_since(t));
    let t = Instant::now();
    let confluence = analyze_confluence(&ctx);
    r.set("core.analysis.confluence_ms", ms_since(t));
    r.set(
        "core.analysis.pairs_checked",
        confluence.pairs_checked as f64,
    );
    let t = Instant::now();
    std::hint::black_box(analyze_observable_determinism(&ctx));
    r.set("core.analysis.observable_ms", ms_since(t));
    r.set(
        "core.analysis.report_json_ms",
        median(&sample_ms(0.05, 3, || report.to_json())),
    );
}

/// `provenance`: the server session's `explain` after an `explore` of a
/// self-contained script (the benchmark has no direct dependency on the
/// provenance crate).
pub fn explain(r: &mut Report, script: &str, budget: &Json) {
    let cache = ScriptCache::new();
    let mut session = ServerSession::new();
    let load = Json::obj([("op", Json::from("load")), ("script", Json::from(script))]);
    session
        .handle_op("load", &load, &cache)
        .expect("mirror load");
    let req = Json::obj([("op", Json::from("explore")), ("budget", budget.clone())]);
    session
        .handle_op("explore", &req, &cache)
        .expect("mirror explore");
    let t = Instant::now();
    let answer = session.handle_op(
        "explain",
        &Json::obj([("op", Json::from("explain"))]),
        &cache,
    );
    r.set("provenance.explain_ms", ms_since(t));
    r.check(answer.is_ok(), || format!("explain failed: {answer:?}"));
}

/// The layer a span belongs to: its name up to the second dot
/// (`sql.plan.cond` → `sql.plan`).
fn layer_of(span: &str) -> &str {
    match span.match_indices('.').nth(1) {
        Some((i, _)) => &span[..i],
        None => span,
    }
}

/// Span names whose mean duration is a per-layer metric, with the metric's
/// name and the factor from nanoseconds to its unit.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("sql.plan.action", "sql.plan.action_us", 1e-3),
    ("engine.processor.fire", "engine.processor.fire_us", 1e-3),
    (
        "engine.processor.net_effect",
        "engine.processor.net_effect_us",
        1e-3,
    ),
    (
        "storage.database.cow_unshare",
        "storage.database.cow_unshare_us",
        1e-3,
    ),
    ("storage.batch.build", "storage.batch.build_ms", 1e-6),
    (
        "storage.batch.index_build",
        "storage.batch.index_build_ms",
        1e-6,
    ),
    ("storage.digest.state", "storage.digest.state_ns", 1.0),
    ("storage.wal.diff", "storage.wal.diff_us", 1e-3),
    ("storage.wal.append", "storage.wal.append_us", 1e-3),
    ("storage.wal.snapshot", "storage.wal.snapshot_ms", 1e-6),
];

/// The span every traced op is recorded under.
pub const OP: &str = "op";

/// Turns the traced ops' span totals into metrics: the mean of each span
/// in [`SPAN_METRICS`], each layer's share of the op's time as self time,
/// and the share no child span covers.
pub fn span_metrics(r: &mut Report, tracer: &Tracer) {
    let root = OP;
    let by_name = tracer.by_name(Some(root));
    for (span, metric, scale) in SPAN_METRICS {
        if let Some(t) = by_name.get(span) {
            r.set(metric, t.total_ns as f64 / t.count as f64 * scale);
        }
    }
    let root_time = by_name.get(root).copied().unwrap_or_default();
    if root_time.total_ns == 0 {
        return;
    }
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, LayerTime { self_ns, .. }) in &by_name {
        if *name != root {
            *layers.entry(layer_of(name)).or_default() += self_ns;
        }
    }
    for (layer, self_ns) in &layers {
        r.set(
            &format!("self_share.{layer}"),
            *self_ns as f64 / root_time.total_ns as f64,
        );
    }
    r.set(
        "trace.unattributed_ratio",
        root_time.self_ns as f64 / root_time.total_ns as f64,
    );
}
