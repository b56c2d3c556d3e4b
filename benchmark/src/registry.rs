//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` is this
//! table printed by `benchmark --manifest`; every run's last line carries
//! exactly these names.

use starling_sql::json::Json;

use crate::workloads::{analyze_refine, explore, server_mix, txn_durable, Report, RunCfg};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&RunCfg) -> Report,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "explore_fanout",
        why: "state-heavy, condition-free explore of 5189 states: engine.state clones and drops, digests, net effect, explorer bookkeeping; sql.plan is idle, so a condition-evaluation change must show no change",
        run: explore::fanout,
    },
    Workload {
        name: "explore_bigread",
        why: "explore over a read-only 1M-row table: sql.plan columnar kernels over cached batch views and hash indexes, which always hit; cold_ms is the batch and index build",
        run: explore::bigread,
    },
    Workload {
        name: "explore_bigwrite",
        why: "linear cascade writing a 100k-row table: every state is a new table version, so storage.database unshare/drop and storage.batch rebuilds are paid per state; a read gain that costs writes shows here",
        run: explore::bigwrite,
    },
    Workload {
        name: "analyze_refine",
        why: "the paper's 6.4 loop on a 1000-rule program: a refinement step, warm incremental re-analyze, report as JSON text; core.analysis dominates, engine and storage idle: an engine change must show no change",
        run: analyze_refine::run,
    },
    Workload {
        name: "txn_durable",
        why: "the write path end to end: seeded transactions committed to quiescence over a 20k-row table that changes every commit (sql.plan DML and conditions, storage.batch rebuilds), WAL append, sync, snapshots",
        run: txn_durable::run,
    },
    Workload {
        name: "server_mix",
        why: "the only workload where protocol, JSON, pool scheduling and fair queueing are a visible share: rounds of cheap foreground requests timed while a second connection keeps heavy explores pipelined",
        run: server_mix::run,
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Timings are read at the quiet end of
/// their samples (`measure::QUIET`), and still every timing's bound is the
/// largest the contract allows: this sandbox's interference comes in phases
/// that outlast a run (README.md, "Bounds").
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("cold_ms", "ms", "lower", 0.25),
    e2e("op_p10_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

pub const PER_LAYER: &[Metric] = &[
    // The real op's median and tail: end-to-end numbers in kind, but on
    // this sandbox they measure the neighbours, so no bound holds them.
    layer("op.p50_ms", "ms", "lower"),
    layer("op.tail_ms", "ms", "lower"),
    layer("sql.parser.parse_ms", "ms", "lower"),
    layer("sql.parser.mb_per_s", "MB/s", "higher"),
    layer("sql.parser.stmts", "count", "lower"),
    layer("sql.plan.compile_us_per_rule", "us", "lower"),
    layer("sql.plan.cond_us", "us", "lower"),
    layer("sql.plan.cond_row_us", "us", "lower"),
    layer("sql.eval.cond_interp_us", "us", "lower"),
    layer("sql.plan.rows_scanned", "count", "lower"),
    layer("sql.plan.action_us", "us", "lower"),
    layer("sql.json.encode_us", "us", "lower"),
    layer("sql.json.parse_us", "us", "lower"),
    layer("sql.json.bytes", "count", "lower"),
    layer("storage.database.clone_ns", "ns", "lower"),
    layer("storage.database.cow_unshare_us", "us", "lower"),
    layer("storage.database.insert_ns_per_row", "ns", "lower"),
    layer("storage.digest.state_ns", "ns", "lower"),
    layer("storage.batch.build_ms", "ms", "lower"),
    layer("storage.batch.index_build_ms", "ms", "lower"),
    layer("storage.batch.builds", "count", "lower"),
    layer("storage.wal.diff_us", "us", "lower"),
    layer("storage.wal.append_us", "us", "lower"),
    layer("storage.wal.sync_batch_us", "us", "lower"),
    layer("storage.wal.sync_always_us", "us", "lower"),
    layer("storage.wal.snapshot_ms", "ms", "lower"),
    layer("storage.wal.bytes_per_commit", "count", "lower"),
    layer("storage.wal.frames", "count", "lower"),
    layer("storage.wal.open_ms", "ms", "lower"),
    layer("storage.wal.recover_ms", "ms", "lower"),
    layer("engine.ruleset.compile_ms", "ms", "lower"),
    layer("engine.processor.fire_us", "us", "lower"),
    layer("engine.processor.net_effect_us", "us", "lower"),
    layer("engine.processor.considerations", "count", "lower"),
    layer("engine.processor.fired", "count", "lower"),
    layer("engine.exec_graph.explore_ms", "ms", "lower"),
    layer("engine.exec_graph.states", "count", "lower"),
    layer("engine.exec_graph.edges", "count", "lower"),
    layer("engine.exec_graph.states_per_s", "1/s", "higher"),
    layer("engine.exec_graph.dedup_ratio", "ratio", "higher"),
    layer("engine.exec_graph.traced_ms", "ms", "lower"),
    layer("engine.exec_graph.parallel_ms", "ms", "lower"),
    layer("engine.session.commit_mem_us", "us", "lower"),
    layer("engine.session.persist_us", "us", "lower"),
    layer("core.loader.load_ms", "ms", "lower"),
    layer("core.analysis.cold_ms", "ms", "lower"),
    layer("core.analysis.warm_certify_ms", "ms", "lower"),
    layer("core.analysis.warm_order_ms", "ms", "lower"),
    layer("core.analysis.warm_adddrop_ms", "ms", "lower"),
    layer("core.analysis.pairs_checked", "count", "lower"),
    layer("core.analysis.pair_hit_ratio", "ratio", "higher"),
    layer("core.analysis.dirty_pairs", "count", "lower"),
    layer("core.analysis.termination_ms", "ms", "lower"),
    layer("core.analysis.confluence_ms", "ms", "lower"),
    layer("core.analysis.observable_ms", "ms", "lower"),
    layer("core.analysis.report_json_ms", "ms", "lower"),
    layer("provenance.explain_ms", "ms", "lower"),
    layer("server.session.handle_us.ping", "us", "lower"),
    layer("server.session.handle_us.digest", "us", "lower"),
    layer("server.session.handle_us.exec", "us", "lower"),
    layer("server.session.handle_us.certify", "us", "lower"),
    layer("server.session.handle_us.analyze", "us", "lower"),
    layer("server.session.handle_us.explore", "us", "lower"),
    layer("server.roundtrip_us.ping", "us", "lower"),
    layer("server.roundtrip_us.digest", "us", "lower"),
    layer("server.roundtrip_us.exec", "us", "lower"),
    layer("server.roundtrip_us.certify", "us", "lower"),
    layer("server.roundtrip_us.analyze", "us", "lower"),
    layer("server.roundtrip_us.explore", "us", "lower"),
    layer("server.wire_overhead_us", "us", "lower"),
    layer("server.connect_us", "us", "lower"),
    layer("server.cache.hit_ratio", "ratio", "higher"),
    layer("server.pool.admitted", "count", "higher"),
    layer("server.pool.completed", "count", "higher"),
    layer("server.pool.refused", "count", "lower"),
    layer("server.pool.rounds", "count", "lower"),
    // Each layer's self time as a share of the decomposed op: the traced
    // pass's answer to "where did the op's time go".
    layer("self_share.sql.parser", "ratio", "lower"),
    layer("self_share.sql.plan", "ratio", "lower"),
    layer("self_share.sql.json", "ratio", "lower"),
    layer("self_share.storage.database", "ratio", "lower"),
    layer("self_share.storage.batch", "ratio", "lower"),
    layer("self_share.storage.digest", "ratio", "lower"),
    layer("self_share.storage.wal", "ratio", "lower"),
    layer("self_share.engine.state", "ratio", "lower"),
    layer("self_share.engine.exec_graph", "ratio", "lower"),
    layer("self_share.engine.processor", "ratio", "lower"),
    layer("self_share.engine.ruleset", "ratio", "lower"),
    layer("self_share.engine.session", "ratio", "lower"),
    layer("self_share.core.analysis", "ratio", "lower"),
    layer("self_share.core.report", "ratio", "lower"),
    layer("self_share.server.wire", "ratio", "lower"),
    layer("self_share.server.session", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.unattributed_ratio", "ratio", "lower"),
    layer("trace.shadow_ratio", "ratio", "lower"),
];

/// How long one run's timed loop measures, in seconds.
pub const RUN_SECONDS: u32 = 15;

/// Whether `name` is one the driver's contract accepts: starts with a
/// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `BENCHMARK.json`. Panics if the tables above step outside the limits
/// the driver refuses a manifest for.
pub fn manifest() -> Json {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
    for name in &names {
        assert!(
            valid_name(name),
            "`{name}` is not a name the contract accepts"
        );
        assert!(
            names.iter().filter(|n| n == &name).count() == 1,
            "`{name}` is used twice"
        );
    }
    for w in WORKLOADS {
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: `why` is one line of at most 200 characters",
            w.name
        );
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let unit_ok = m.unit.len() <= 16
            && m.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        assert!(unit_ok, "{}: unit `{}`", m.name, m.unit);
        assert!(
            m.bound.is_none_or(|b| b > 0.0 && b <= 0.25),
            "{}: bound",
            m.name
        );
    }
    assert!(
        (2..=8).contains(&WORKLOADS.len())
            && (1..=16).contains(&END_TO_END.len())
            && (1..=128).contains(&PER_LAYER.len())
    );
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));

    let metric = |m: &Metric| {
        let mut pairs = vec![
            ("name", Json::from(m.name)),
            ("unit", Json::from(m.unit)),
            ("better", Json::from(m.better)),
        ];
        if let Some(b) = m.bound {
            pairs.push(("bound", Json::Float(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::from),
            ),
        ),
        ("paths", Json::arr([Json::from("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS.into())),
        (
            "workloads",
            Json::arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))])),
            ),
        ),
        ("end_to_end", Json::arr(END_TO_END.iter().map(metric))),
        ("per_layer", Json::arr(PER_LAYER.iter().map(metric))),
    ])
}
