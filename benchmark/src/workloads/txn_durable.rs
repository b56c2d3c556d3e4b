//! `txn_durable`: the write path end to end. One op is one user
//! transaction — a seeded insert of 1–10 accounts, a point update, a range
//! update and a delete of as many old accounts — executed as script text
//! and committed to quiescence through audit → cap → flag rules over a
//! 20k-row `account` table, on a session persisted under
//! `SyncPolicy::Batch` with the default snapshot cadence (every 64
//! commits). `Batch` keeps the end-to-end numbers CPU-bound and
//! repeatable; the price of an fsync per commit is a per-layer number.
//!
//! Every transaction holds one statement of each kind (rather than one
//! kind per transaction) so op latency has one mode and its median does
//! not hinge on the mix.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use starling_analysis::{load_script, LoadedScript};
use starling_engine::exec_graph::apply_user_actions;
use starling_engine::{EvalMode, ExecState, FirstEligible, Outcome, Session};
use starling_sql::ast::Statement;
use starling_sql::json::Json;
use starling_sql::parse_script;
use starling_storage::{CommitDelta, Database, SyncPolicy, Value, WalStore};

use super::{run_for, Repetitions, Report, RunCfg};
use crate::measure::{median, ms_since, Rng, Tracer};
use crate::probes;
use crate::shadow::{self, BigTable};

const SCRIPT: &str = "\
create table account (id int, balance int);
create table audit_log (id int, balance int);
create table flag_log (id int);
create rule audit on account when inserted
  then insert into audit_log select id, balance from inserted
  precedes cap end;
create rule cap on account when inserted, updated(balance)
  if exists (select * from account where balance > 100000)
  then update account set balance = 100000 where balance > 100000
  precedes flag end;
create rule flag on account when updated(balance)
  if exists (select * from new_updated n, account a where a.id = n.id and a.balance >= 100000)
  then insert into flag_log select id from new_updated where balance >= 100000 end;
";

const BIG: &[BigTable] = &[BigTable {
    name: "account",
    index_cols: &[0],
}];

/// Commits between snapshots: the engine's default cadence, restated for
/// the mirror.
const SNAPSHOT_EVERY: u64 = 64;
/// Appends between fsyncs under `SyncPolicy::Batch`, restated likewise.
const SYNC_EVERY: u64 = 32;

/// The seeded transaction stream. `account` holds the contiguous ids
/// `low..high`; each transaction appends at the top and deletes as many at
/// the bottom, so the table keeps its size.
#[derive(Clone)]
struct Txns {
    rng: Rng,
    low: i64,
    high: i64,
}

impl Txns {
    fn new(cfg: &RunCfg, accounts: i64) -> Txns {
        Txns {
            rng: Rng::new(cfg.seed, 5),
            low: 0,
            high: accounts,
        }
    }

    fn next(&mut self) -> String {
        let rng = &mut self.rng;
        let n = rng.range(1, 10);
        let mut s = String::new();
        for i in 0..n {
            // One insert in eight breaches the cap, so the cap and flag
            // rules fire on a steady share of commits.
            let balance = if rng.below(8) == 0 {
                200_000
            } else {
                rng.range(0, 999)
            };
            let _ = writeln!(
                s,
                "insert into account values ({}, {balance});",
                self.high + i
            );
        }
        // Updates stay clear of the rows this and the next transactions delete.
        let live = |rng: &mut Rng| rng.range(self.low + 100, self.high - 20);
        let _ = writeln!(
            s,
            "update account set balance = balance + {} where id = {};",
            rng.range(-50, 50),
            live(rng)
        );
        let start = live(rng);
        let _ = writeln!(
            s,
            "update account set balance = balance + {} where id >= {start} and id < {};",
            rng.range(-50, 50),
            start + rng.range(1, 10)
        );
        let _ = writeln!(
            s,
            "delete from account where id >= {} and id < {};",
            self.low,
            self.low + n
        );
        self.low += n;
        self.high += n;
        s
    }
}

/// Seed → the initial database: the script's schema plus `accounts` rows
/// bulk-loaded through the storage API.
fn initial(cfg: &RunCfg, accounts: i64) -> (LoadedScript, Database, f64) {
    let loaded = load_script(SCRIPT).expect("workload script loads");
    let mut db = loaded.db.clone();
    let mut rng = Rng::new(cfg.seed, 6);
    let t = Instant::now();
    for id in 0..accounts {
        db.insert(
            "account",
            vec![Value::Int(id), Value::Int(rng.range(0, 999))],
        )
        .expect("bulk insert");
    }
    let per_row = t.elapsed().as_nanos() as f64 / accounts as f64;
    (loaded, db, per_row)
}

fn session_over(loaded: &LoadedScript, db: &Database) -> Session {
    Session::restore(
        db.clone(),
        loaded.defs.clone(),
        Some(loaded.rules.clone()),
        loaded.directives.clone(),
    )
}

/// Executes and commits one transaction; whether it reached quiescence.
fn transact(session: &mut Session, txn: &str) -> bool {
    session.execute_script(txn).is_ok()
        && session
            .commit(&mut FirstEligible)
            .is_ok_and(|run| run.outcome == Outcome::Quiescent)
}

/// A store directory inside the checkout, removed on drop.
struct StoreDir(PathBuf);

impl StoreDir {
    fn new(tag: &str) -> StoreDir {
        let dir = Path::new(crate::OUT_DIR).join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store dir");
        StoreDir(dir)
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Transactions run before a set-up repetition's cold start, so recovery
/// replays a log tail and not just the initial image.
const WARM_UP: usize = 8;

/// A set-up repetition's result. The session drops before its directory.
struct Ready {
    loaded: LoadedScript,
    txns: Txns,
    session: Session,
    dir: StoreDir,
    insert_ns: f64,
}

/// One set-up: the initial database, persisted, a few transactions, then
/// the cold start — what a restarted application pays before its first
/// answer: recover the store, verified against the pre-drop state, then
/// one transaction.
fn set_up(cfg: &RunCfg, r: &mut Report, accounts: i64) -> (Ready, f64) {
    let (loaded, db, insert_ns) = initial(cfg, accounts);
    let mut txns = Txns::new(cfg, accounts);
    let dir = StoreDir::new("durable");
    let mut session = session_over(&loaded, &db);
    session
        .persist_to(&dir.0, SyncPolicy::Batch)
        .expect("persist_to");
    for _ in 0..WARM_UP {
        let ok = transact(&mut session, &txns.next());
        r.check(ok, || "warm-up transaction failed".to_owned());
    }
    let before = session.db().state_digest();
    drop(session);
    let t = Instant::now();
    let mut session = Session::open_durable(&dir.0, SyncPolicy::Batch).expect("open_durable");
    let recovered = session.db().state_digest();
    let ok = transact(&mut session, &txns.next());
    let cold_ms = ms_since(t);
    r.attempted += 1;
    r.check(ok && recovered == before, || {
        format!(
            "cold start: recovered digest {recovered:#x}, pre-drop {before:#x}, first txn ok={ok}"
        )
    });
    let ready = Ready {
        loaded,
        txns,
        session,
        dir,
        insert_ns,
    };
    (ready, cold_ms)
}

const REPS: usize = 8;

pub fn run(cfg: &RunCfg) -> Report {
    let mut r = Report::default();
    let accounts = cfg.size(20_000) as i64;
    let mut reps = Repetitions::default();
    let early = if cfg.trace {
        1
    } else {
        Repetitions::before(REPS)
    };
    let Ready {
        loaded,
        mut txns,
        mut session,
        dir,
        insert_ns,
    } = reps
        .run(early, || set_up(cfg, &mut r, accounts))
        .expect("at least one repetition");
    r.note("accounts", accounts);

    if cfg.trace {
        traced(cfg, &mut r, &loaded, insert_ns, session, &dir, &mut txns);
        return r;
    }

    // The stream from here on, kept so the interpreter twin can replay it.
    let mut replay = Vec::new();
    let start_db = session.db().clone();
    let mut digest_at_replay_end = 0;
    const REPLAYED: usize = 25;
    let timed = run_for(cfg.seconds, |i| {
        let txn = txns.next();
        let ok = transact(&mut session, &txn);
        r.attempted += 1;
        r.check(ok, || format!("transaction {i} did not reach quiescence"));
        if i < REPLAYED {
            replay.push(txn);
            digest_at_replay_end = session.db().state_digest();
        }
    });
    r.note(
        "snapshot_cycles",
        timed.lat_ms.len() as u64 / SNAPSHOT_EVERY,
    );

    // Outside the timed loop. Recovery of the full run: drop, reopen,
    // digest-equal to the pre-drop state.
    let t = Instant::now();
    let before = session.db().state_digest();
    drop(session);
    let reopened = Session::open_durable(&dir.0, SyncPolicy::Batch).expect("open_durable");
    r.note("recover_ms", format!("{:.3}", ms_since(t)));
    r.attempted += 1;
    r.check(reopened.db().state_digest() == before, || {
        "recovered digest differs from pre-drop".to_owned()
    });
    // And the first transactions again on an in-memory twin under the AST
    // interpreter, which shares no plan or kernel code with the default.
    let mut twin = session_over(&loaded, &start_db);
    twin.eval_mode = EvalMode::Interp;
    let twin_ok = replay.iter().all(|txn| transact(&mut twin, txn));
    r.attempted += 1;
    r.check(
        twin_ok && twin.db().state_digest() == digest_at_replay_end,
        || "interpreter twin diverged from the durable session".to_owned(),
    );
    r.note("verify_s", format!("{:.3}", t.elapsed().as_secs_f64()));

    drop((reopened, dir));
    reps.run(REPS - early, || set_up(cfg, &mut r, accounts));
    r.end_to_end(&reps, &timed);
    r
}

/// One transaction through the decomposed write path: parse, user DML,
/// rule processing span by span, then the persist steps `Durability`
/// takes — diff against the acknowledged base, append, and the snapshot
/// rotation every [`SNAPSHOT_EVERY`] commits.
struct Mirror<'a> {
    loaded: &'a LoadedScript,
    db: Database,
    store: WalStore,
    rules_text: String,
    commits: u64,
    appended_bytes: u64,
}

impl Mirror<'_> {
    fn transact(&mut self, t: &Tracer, txn: &str, counts: &mut shadow::Counts) {
        let _op = t.span(probes::OP);
        let rules = &self.loaded.rules;
        let base = self.db.clone();
        let stmts = t
            .time("sql.parser.parse", || parse_script(txn))
            .expect("transaction parses");
        let actions: Vec<_> = stmts
            .into_iter()
            .map(|s| match s {
                Statement::Dml(a) => a,
                other => panic!("transaction holds a non-DML statement: {other}"),
            })
            .collect();
        let mut db = self.db.clone();
        let ops = t
            .time("sql.plan.action", || apply_user_actions(&mut db, &actions))
            .expect("user DML applies");
        let state = ExecState::new(db, rules.len(), &ops);
        self.db = shadow::walk(t, rules, state, BIG, counts).db;

        let mut delta = t.time("storage.wal.diff", || CommitDelta::diff(&base, &self.db));
        // The pre-commit versions of the written tables die here, as they
        // do when `Durability` advances its base.
        t.time("storage.database.drop", || drop(base));
        let wal = self.store.dir().join("wal.log");
        let len = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
        let before = len(&wal);
        t.time("storage.wal.append", || {
            self.store.append_commit(&mut delta)
        })
        .expect("append");
        self.appended_bytes += len(&wal) - before;
        self.commits += 1;
        if self.commits.is_multiple_of(SNAPSHOT_EVERY) {
            t.time("storage.wal.snapshot", || {
                self.store.snapshot(&self.db, &self.rules_text)
            })
            .expect("snapshot");
        }
    }
}

fn traced(
    cfg: &RunCfg,
    r: &mut Report,
    loaded: &LoadedScript,
    insert_ns: f64,
    mut session: Session,
    dir: &StoreDir,
    txns: &mut Txns,
) {
    let slice = cfg.seconds / 5.0;
    let rules_text: String = loaded.defs.iter().map(|d| format!("{d};\n")).collect();
    let mirror_over = |tag: &str, db: &Database| {
        let dir = StoreDir::new(tag);
        let (mut store, _) = WalStore::open(&dir.0, SyncPolicy::Batch).expect("open scratch store");
        // As `persist_to` does: the whole current state is the first commit.
        let mut image = CommitDelta::diff(&Database::new(), db);
        image.rules = Some(rules_text.clone());
        store
            .append_commit(&mut image)
            .expect("append initial image");
        let mirror = Mirror {
            loaded,
            db: db.clone(),
            store,
            rules_text: rules_text.clone(),
            commits: 0,
            appended_bytes: 0,
        };
        (dir, mirror)
    };

    // First, from the state every run of this seed reaches after set-up: a
    // fixed number of traced transactions — two snapshot cycles at full
    // size — through the mirror, so frame, byte and consideration counts
    // are a function of the seed alone. The stream comes from a copy of
    // the generator; the sessions below go on from the original.
    let start = session.db().clone();
    let mut ahead = txns.clone();
    let traced_txns = cfg.size(128).max(SNAPSHOT_EVERY as usize);
    let stream: Vec<String> = (0..traced_txns).map(|_| ahead.next()).collect();
    let on = Tracer::new(true);
    let (loud_dir, mut loud_mirror) = mirror_over("loud", &start);
    let mut counts = shadow::Counts::default();
    let mut loud_ms = Vec::new();
    for txn in &stream {
        on.next_op();
        let t = Instant::now();
        loud_mirror.transact(&on, txn, &mut counts);
        loud_ms.push(ms_since(t));
    }
    // The mirror must end where `Session::commit` ends on the same stream,
    // and what it logged must recover to that state.
    let mut replayed = session_over(loaded, &start);
    let ok = stream.iter().all(|txn| transact(&mut replayed, txn));
    let mirror_digest = loud_mirror.db.state_digest();
    r.attempted += 1;
    r.check(ok && replayed.db().state_digest() == mirror_digest, || {
        "mirror write path drifted from Session::commit".to_owned()
    });
    let (frames, appended) = (loud_mirror.commits, loud_mirror.appended_bytes);
    let after_stream = loud_mirror.db.clone();
    drop(loud_mirror);
    let t = Instant::now();
    let (_, recovered) =
        WalStore::open(&loud_dir.0, SyncPolicy::Batch).expect("reopen scratch store");
    r.set("storage.wal.open_ms", ms_since(t));
    r.attempted += 1;
    r.check(recovered.db.state_digest() == mirror_digest, || {
        "scratch store recovered a different state".to_owned()
    });
    drop((recovered, loud_dir));

    // The same mirror with the recorder off, going on where the traced
    // one stopped, for the recorder's overhead.
    let off = Tracer::new(false);
    let (_quiet_dir, mut quiet_mirror) = mirror_over("quiet", &after_stream);
    let mut ignored = shadow::Counts::default();
    let quiet = run_for(slice, |_| {
        quiet_mirror.transact(&off, &ahead.next(), &mut ignored)
    });

    // The real op on the durable session and, transaction by transaction,
    // the same op on an in-memory twin: the paired difference is what
    // persistence costs a commit.
    let mut twin = session_over(loaded, session.db());
    let (mut real_ms, mut mem_ms) = (Vec::new(), Vec::new());
    run_for(2.0 * slice, |i| {
        let txn = txns.next();
        let t = Instant::now();
        let ok = transact(&mut session, &txn);
        real_ms.push(ms_since(t));
        let t = Instant::now();
        let twin_ok = transact(&mut twin, &txn);
        mem_ms.push(ms_since(t));
        r.attempted += 1;
        r.check(ok && twin_ok, || {
            format!("transaction {i} did not reach quiescence")
        });
    });
    r.check(
        twin.db().state_digest() == session.db().state_digest(),
        || "in-memory twin diverged from the durable session".to_owned(),
    );
    let persist: Vec<f64> = real_ms.iter().zip(&mem_ms).map(|(d, m)| d - m).collect();
    r.op_percentiles(&real_ms);
    r.set("engine.session.commit_mem_us", median(&mem_ms) * 1e3);
    r.set("engine.session.persist_us", median(&persist) * 1e3);

    r.set(
        "trace.overhead_ratio",
        median(&loud_ms) / median(&quiet.lat_ms),
    );
    r.set(
        "trace.shadow_ratio",
        median(&quiet.lat_ms) / median(&real_ms),
    );
    probes::span_metrics(r, &on);
    r.set("storage.wal.frames", frames as f64);
    r.set(
        "storage.wal.bytes_per_commit",
        appended as f64 / frames as f64,
    );
    r.set(
        "engine.processor.considerations",
        counts.considerations as f64,
    );
    r.set("engine.processor.fired", counts.fired as f64);
    r.set("storage.batch.builds", counts.batch_builds as f64);
    r.set("storage.database.insert_ns_per_row", insert_ns);
    r.note("traced_ops", traced_txns);
    r.note("spans", on.span_count());
    r.trace = Some(on.to_json(50_000));

    // Recovery of the durable session's own store, as the untraced run's
    // cold start does it.
    let before = session.db().state_digest();
    drop(session);
    let t = Instant::now();
    let reopened = Session::open_durable(&dir.0, SyncPolicy::Batch).expect("open_durable");
    r.set("storage.wal.recover_ms", ms_since(t));
    r.attempted += 1;
    r.check(reopened.db().state_digest() == before, || {
        "recovered digest differs from pre-drop".to_owned()
    });

    sync_costs(r, loaded, &start, &stream);

    probes::load_path(r, SCRIPT, &loaded.defs, loaded.rules.catalog());
    let answer = Json::obj([
        ("considerations", Json::from(counts.considerations)),
        ("fired", Json::from(counts.fired)),
        ("outcome", Json::from("quiescent")),
    ])
    .to_string();
    probes::json(r, &answer);
    let actions: Vec<_> = parse_script(&stream[0])
        .expect("transaction parses")
        .into_iter()
        .filter_map(|s| match s {
            Statement::Dml(a) => Some(a),
            _ => None,
        })
        .collect();
    probes::cond_modes(r, &loaded.rules, &start, &actions, BIG, 8);
    let explore_cfg = starling_engine::ExploreConfig::default();
    probes::exec_graph(
        r,
        &loaded.rules,
        &start,
        &actions,
        &explore_cfg,
        slice / 8.0,
    );
    probes::analysis_cold(r, &loaded.rules, &loaded.certs, 0.05);
}

/// `storage.wal` fsync prices on scratch stores fed recorded deltas: a
/// `sync_now` covering a window of appends (what `Batch` pays once per
/// [`SYNC_EVERY`] commits) and one after every append (what `Always` would
/// pay per commit).
fn sync_costs(r: &mut Report, loaded: &LoadedScript, start: &Database, stream: &[String]) {
    let mut session = session_over(loaded, start);
    let mut base = start.clone();
    let mut deltas = Vec::new();
    for txn in stream.iter().take(2 * SYNC_EVERY as usize) {
        assert!(transact(&mut session, txn), "sync probe transaction");
        deltas.push(CommitDelta::diff(&base, session.db()));
        base = session.db().clone();
    }
    // The store's own batched sync fires on the `SYNC_EVERY`th append, so
    // an explicit one a commit earlier covers the window by itself.
    let window = SYNC_EVERY as usize - 1;
    for (metric, every) in [
        ("storage.wal.sync_always_us", 1),
        ("storage.wal.sync_batch_us", window),
    ] {
        let dir = StoreDir::new("sync");
        let (mut store, _) = WalStore::open(&dir.0, SyncPolicy::Batch).expect("open scratch store");
        let mut us = Vec::new();
        for (i, delta) in deltas.iter().enumerate() {
            store.append_commit(&mut delta.clone()).expect("append");
            if (i + 1) % every == 0 {
                let t = Instant::now();
                store.sync_now().expect("sync");
                us.push(ms_since(t) * 1e3);
            }
        }
        r.set(metric, median(&us));
    }
}
