//! The three `explore` workloads. One op is one exhaustive exploration of
//! the user transition plus its answer as JSON text — what `starling
//! explore --json` and the server's `explore` op return.
//!
//! * `explore_fanout` — state-heavy and condition-free;
//! * `explore_bigread` — a read-only 1M-row table, so the per-version batch
//!   and hash index are built once and always hit;
//! * `explore_bigwrite` — a linear cascade that writes a 100k-row table, so
//!   every state is a new table version and pays unshare, batch and index.

use std::fmt::Write as _;
use std::time::Instant;

use starling_analysis::{explore_json, load_script, LoadedScript};
use starling_engine::{explore, explore_with_mode, EvalMode, ExecGraph, ExploreConfig};
use starling_sql::json::Json;
use starling_storage::{Database, Value};

use super::{run_for, Repetitions, Report, RunCfg};
use crate::measure::{median, ms_since, Rng, Tracer};
use crate::probes;
use crate::shadow::{self, BigTable};

/// Generated inputs: what the program under test receives.
struct Inputs {
    /// One script per flavor — schema, rules, then the user transition.
    /// One op explores every flavor in turn (alternating them would make
    /// the latency distribution bimodal and its median a coin toss); all
    /// flavors share one schema and database.
    scripts: Vec<String>,
    /// `(k, v)` rows bulk-loaded into `big` through the storage API.
    big_rows: Vec<(i64, i64)>,
}

struct Spec {
    generate: fn(&RunCfg) -> Inputs,
    big: &'static [BigTable],
    /// `(states, edges)` per flavor, pinned on every seed and size: the
    /// generators keep the graph's shape independent of both.
    pinned: &'static [(usize, usize)],
    /// Setup-and-cold repetitions.
    reps: usize,
}

const BIG: &[BigTable] = &[BigTable {
    name: "big",
    index_cols: &[0],
}];

pub fn fanout(cfg: &RunCfg) -> Report {
    run(
        cfg,
        &Spec {
            generate: gen_fanout,
            big: &[],
            pinned: &[(5189, 5188)],
            reps: 7,
        },
    )
}

pub fn bigread(cfg: &RunCfg) -> Report {
    run(
        cfg,
        &Spec {
            generate: gen_bigread,
            big: BIG,
            pinned: &[(5, 4), (5, 4)],
            reps: 5,
        },
    )
}

pub fn bigwrite(cfg: &RunCfg) -> Report {
    run(
        cfg,
        &Spec {
            generate: gen_bigwrite,
            big: BIG,
            pinned: &[(9, 8)],
            reps: 7,
        },
    )
}

/// Room for the fan-out graph; the other two need a handful of states.
fn explore_cfg() -> ExploreConfig {
    ExploreConfig::default()
        .with_max_states(200_000)
        .with_max_paths(1_000_000)
}

/// The `stress` shape — 4 unordered fan rules × a 4-rule chain, all
/// triggered by one insert — with seeded constants.
fn gen_fanout(cfg: &RunCfg) -> Inputs {
    const FAN: usize = 4;
    const CHAIN: usize = 4;
    let mut rng = Rng::new(cfg.seed, 1);
    let mut s = String::from("create table t (x int);\n");
    for i in 0..FAN {
        let _ = writeln!(s, "create table f{i} (x int);");
    }
    for i in 0..CHAIN {
        let _ = writeln!(s, "create table c{i} (x int);");
    }
    for i in 0..FAN {
        let v = rng.range(0, 999);
        let _ = writeln!(
            s,
            "create rule fan{i} on t when inserted then insert into f{i} values ({v}) end;"
        );
    }
    for i in 0..CHAIN {
        let on = if i == 0 {
            "t".to_owned()
        } else {
            format!("c{}", i - 1)
        };
        let v = rng.range(0, 999);
        let _ = writeln!(
            s,
            "create rule chain{i} on {on} when inserted then insert into c{i} values ({v}) end;"
        );
    }
    let _ = writeln!(s, "insert into t values ({});", rng.range(0, 999));
    Inputs {
        scripts: vec![s],
        big_rows: Vec::new(),
    }
}

/// `big(k, v)` with `v = (k + offset) % 10`: the seed moves which keys
/// match, never how many, so every seed scans and probes the same amount.
fn big_rows(rows: i64, offset: i64) -> Vec<(i64, i64)> {
    (0..rows).map(|k| (k, (k + offset) % 10)).collect()
}

const BIG_SCHEMA: &str = "create table big (k int, v int);\n";

/// Two flavors over a read-only `big`: `filter` (one rule matches only in
/// the last ten keys of the scan, one never matches — both scan it all)
/// and `join` (the one-row transition table probes `big`'s hash index).
fn gen_bigread(cfg: &RunCfg) -> Inputs {
    let rows = cfg.size(1_000_000) as i64;
    let mut rng = Rng::new(cfg.seed, 2);
    let offset = rng.range(0, 9);
    // A key near the end of the scan whose `v` is 9.
    let probe = {
        let k = rows - 1 - rng.range(0, 900);
        k - (k + offset - 9).rem_euclid(10)
    };
    let schema = format!(
        "{BIG_SCHEMA}create table evt (k int, v int);\ncreate table s0 (x int);\ncreate table s1 (x int);\n"
    );
    let transition = format!("insert into evt values ({probe}, 9);\n");
    let filter = format!(
        "{schema}\
         create rule f0 on evt when inserted \
           if exists (select * from big where v > 8 and k > {last}) \
           then insert into s0 values (0) end;\n\
         create rule f1 on evt when inserted \
           if exists (select * from big where v > 99) \
           then insert into s1 values (1) end;\n\
         {transition}",
        last = rows - 11
    );
    let mut join = schema.clone();
    for i in 0..2 {
        let _ = writeln!(
            join,
            "create rule j{i} on evt when inserted \
               if exists (select * from inserted i, big b where b.k = i.k and b.v > {i}) \
               then insert into s{i} values ({i}) end;"
        );
    }
    join.push_str(&transition);
    Inputs {
        scripts: vec![filter, join],
        big_rows: big_rows(rows, offset),
    }
}

/// A linear 8-rule cascade: rule *i* is triggered by `step{i-1}`, tests a
/// join and a full scan over `big`, updates a seeded 10-row slice of `big`
/// and inserts into `step{i}`. Linear on purpose — a branching cascade
/// keeps one private copy of `big` per state.
fn gen_bigwrite(cfg: &RunCfg) -> Inputs {
    const RULES: usize = 8;
    let rows = cfg.size(100_000) as i64;
    let mut rng = Rng::new(cfg.seed, 3);
    let offset = rng.range(0, 9);
    let mut s = String::from(BIG_SCHEMA);
    for i in 0..=RULES {
        let _ = writeln!(s, "create table step{i} (x int);");
    }
    // Slices and join keys stay clear of the last ten keys, whose one
    // `v = 9` row keeps every scan condition true to the end of the table.
    let mut key = || rng.range(0, rows - 1_000);
    for i in 1..=RULES {
        let (slice, next) = (key(), key());
        let _ = writeln!(
            s,
            "create rule w{i} on step{prev} when inserted \
               if exists (select * from inserted i, big b where b.k = i.x and b.v < 100) \
                  and exists (select * from big where v > 8 and k > {last}) \
               then update big set v = {neg} where k >= {slice} and k < {end}; \
                    insert into step{i} values ({next}) end;",
            prev = i - 1,
            last = rows - 11,
            neg = -(i as i64),
            end = slice + 10,
        );
    }
    let _ = writeln!(s, "insert into step0 values ({});", key());
    Inputs {
        scripts: vec![s],
        big_rows: big_rows(rows, offset),
    }
}

/// Builds the initial database: the schema through `load_script`, then the
/// bulk rows through the storage API. Returns it with the per-row insert
/// cost in nanoseconds.
fn build_db(inputs: &Inputs) -> (Database, f64) {
    let mut db = load_script(&inputs.scripts[0])
        .expect("workload script loads")
        .db;
    let t = Instant::now();
    for &(k, v) in &inputs.big_rows {
        db.insert("big", vec![Value::Int(k), Value::Int(v)])
            .expect("bulk insert");
    }
    let per_row = t.elapsed().as_nanos() as f64 / inputs.big_rows.len().max(1) as f64;
    (db, per_row)
}

/// Script text → answer as JSON text, on whatever cache state `db` is in.
fn answer(script: &str, db: &Database) -> (LoadedScript, ExecGraph, String) {
    let loaded = load_script(script).expect("workload script loads");
    let g = explore(&loaded.rules, db, &loaded.user_actions, &explore_cfg()).expect("explores");
    let text = explore_json(&g, &explore_cfg()).to_string();
    (loaded, g, text)
}

/// A set-up repetition's result: the inputs, the database built from them
/// and, per flavor, the loaded program, its reference graph and answer.
struct Ready {
    inputs: Inputs,
    db: Database,
    flavors: Vec<(LoadedScript, Shape, String)>,
    insert_ns: f64,
}

/// What every op's graph must equal: the reference graph's shape and final
/// states, themselves checked against the interpreter and the pins.
#[derive(PartialEq, Debug)]
struct Shape {
    states: usize,
    edges: usize,
    finals: Vec<u64>,
    decided: bool,
}

fn shape(g: &ExecGraph) -> Shape {
    Shape {
        states: g.states.len(),
        edges: g.edges.len(),
        finals: g.final_db_digests().into_iter().collect(),
        decided: !g.truncated() && g.terminates() == Some(true) && g.confluent() == Some(true),
    }
}

/// One set-up: seed → inputs → database → first answer per flavor
/// (cache-cold: the database is fresh, so nothing has a batch yet).
fn set_up(cfg: &RunCfg, spec: &Spec) -> (Ready, f64) {
    let inputs = (spec.generate)(cfg);
    let (db, insert_ns) = build_db(&inputs);
    let mut flavors = Vec::new();
    let mut cold_ms = 0.0;
    for script in &inputs.scripts {
        let t = Instant::now();
        let (loaded, g, text) = answer(script, &db);
        cold_ms += ms_since(t);
        flavors.push((loaded, shape(&g), text));
    }
    let ready = Ready {
        inputs,
        db,
        flavors,
        insert_ns,
    };
    (ready, cold_ms)
}

fn run(cfg: &RunCfg, spec: &Spec) -> Report {
    let mut r = Report::default();
    let mut reps = Repetitions::default();
    let early = if cfg.trace {
        1
    } else {
        Repetitions::before(spec.reps)
    };
    let ready = reps
        .run(early, || set_up(cfg, spec))
        .expect("at least one repetition");
    let (db, flavors) = (&ready.db, &ready.flavors);

    for (i, (_, reference, _)) in flavors.iter().enumerate() {
        r.check(reference.decided && reference.finals.len() == 1, || {
            format!("flavor {i}: verdicts not terminates+confluent: {reference:?}")
        });
        r.check(
            (reference.states, reference.edges) == spec.pinned[i],
            || {
                format!(
                    "flavor {i}: graph {reference:?} differs from pinned {:?}",
                    spec.pinned[i]
                )
            },
        );
        r.note(
            &format!("graph.{i}"),
            format!("{} states / {} edges", reference.states, reference.edges),
        );
    }

    let op = |i: usize, r: &mut Report| {
        r.attempted += 1;
        let mut ok = true;
        for (l, reference, first_answer) in flavors {
            let g = explore(&l.rules, db, &l.user_actions, &explore_cfg()).expect("explores");
            let text = explore_json(&g, &explore_cfg()).to_string();
            ok &= shape(&g) == *reference && text == *first_answer;
        }
        r.check(ok, || format!("op {i}: answer differs from the reference"));
    };

    if cfg.trace {
        traced(cfg, spec, &mut r, &ready, op);
        return r;
    }

    let timed = run_for(cfg.seconds, |i| op(i, &mut r));

    // Outside set-up and the timed loop: every flavor again under the AST
    // interpreter, which shares no plan or kernel code with the default.
    let t = Instant::now();
    for (i, (l, reference, _)) in flavors.iter().enumerate() {
        let g = explore_with_mode(
            &l.rules,
            db,
            &l.user_actions,
            &explore_cfg(),
            EvalMode::Interp,
        )
        .expect("interpreter explores");
        r.attempted += 1;
        r.check(shape(&g) == *reference, || {
            format!(
                "flavor {i}: interpreter graph {:?} != {reference:?}",
                shape(&g)
            )
        });
    }
    r.note("verify_s", format!("{:.3}", t.elapsed().as_secs_f64()));

    drop(ready);
    reps.run(spec.reps - early, || set_up(cfg, spec));
    r.end_to_end(&reps, &timed);
    r
}

fn traced(
    cfg: &RunCfg,
    spec: &Spec,
    r: &mut Report,
    ready: &Ready,
    mut op: impl FnMut(usize, &mut Report),
) {
    let Ready {
        inputs,
        db,
        flavors,
        insert_ns,
    } = ready;
    let slice = cfg.seconds / 5.0;
    // The real op, untraced, as the yardstick for the mirrors below.
    let real = run_for(slice, |i| op(i, r));
    let real_ms = median(&real.lat_ms);
    r.op_percentiles(&real.lat_ms);

    // One mirrored op: every flavor, like the real op.
    let mirror = |t: &Tracer| -> Vec<shadow::Counts> {
        let _op = t.span(probes::OP);
        flavors
            .iter()
            .map(|(l, _, _)| shadow::explore(t, &l.rules, db, &l.user_actions, spec.big))
            .collect()
    };
    let off = Tracer::new(false);
    let quiet = run_for(slice, |_| {
        std::hint::black_box(mirror(&off));
    });
    let on = Tracer::new(true);
    let mut counts = Vec::new();
    let loud = run_for(slice, |_| {
        on.next_op();
        counts.push(mirror(&on));
    });
    for (i, per_flavor) in counts.iter().enumerate() {
        r.attempted += 1;
        let ok = per_flavor
            .iter()
            .zip(flavors)
            .all(|(c, (_, reference, _))| {
                (c.states, c.edges) == (reference.states, reference.edges)
                    && c.final_digests.iter().eq(reference.finals.iter())
            });
        r.check(ok, || {
            format!("mirror op {i} drifted from the real explorer: {per_flavor:?}")
        });
    }
    r.set(
        "trace.overhead_ratio",
        median(&loud.lat_ms) / median(&quiet.lat_ms),
    );
    r.set("trace.shadow_ratio", median(&quiet.lat_ms) / real_ms);
    probes::span_metrics(r, &on);
    let c = &counts[0][0];
    r.set("engine.processor.considerations", c.considerations as f64);
    r.set("engine.processor.fired", c.fired as f64);
    r.set("storage.batch.builds", c.batch_builds as f64);
    r.set("storage.database.insert_ns_per_row", *insert_ns);
    r.note("traced_ops", counts.len());
    r.note("spans", on.span_count());
    r.trace = Some(on.to_json(50_000));

    let (l, _, text) = &flavors[0];
    probes::load_path(r, &inputs.scripts[0], &l.defs, l.rules.catalog());
    probes::json(r, text);
    probes::cond_modes(r, &l.rules, db, &l.user_actions, spec.big, 4);
    probes::exec_graph(
        r,
        &l.rules,
        db,
        &l.user_actions,
        &explore_cfg(),
        slice / 4.0,
    );
    probes::analysis_cold(r, &l.rules, &l.certs, 0.05);
    if inputs.big_rows.is_empty() {
        let budget = Json::obj([
            ("max_states", Json::Int(200_000)),
            ("max_paths", Json::Int(1_000_000)),
        ]);
        probes::explain(r, &inputs.scripts[0], &budget);
    }
}
