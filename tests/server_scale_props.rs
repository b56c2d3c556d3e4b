//! Scale-out properties of the pooled server: thousands of concurrent
//! pipelined sessions byte-identical to serial replay, budget-weighted
//! fair scheduling, typed `overloaded` admission refusals, and fault
//! containment (mid-pipeline disconnects, half-written lines, worker
//! panics) — extending the 64-session cap in `tests/server_isolation.rs`
//! to the event-loop + worker-pool executor.
//!
//! Concurrency caveat (the Hellerstein determination-provenance framing):
//! under a pool the server admits many legal interleavings, so these
//! tests pin *observable equivalence* — byte-identical response lines,
//! per-connection response order, completion-order and scheduler-round
//! bounds — never timings.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

use starling_server::{
    ok_response, raise_fd_limit, Client, ClientError, DurableRoot, ScriptCache, Server,
    ServerConfig, ServerSession,
};
use starling_sql::json::Json;
use starling_storage::SyncPolicy;

/// How long a test client polls for server readiness before giving up.
const READY: Duration = Duration::from_secs(10);

/// `idle_sessions_cost_no_threads` counts the process's threads, which every
/// other test here spawns (servers, worker pools, client drivers): it holds
/// this lock exclusively, the others hold it shared, so its count sees only
/// its own server.
static THREADS: RwLock<()> = RwLock::new(());

/// A shared hold on [`THREADS`] for a test that spawns threads.
fn spawns_threads() -> RwLockReadGuard<'static, ()> {
    THREADS.read().unwrap_or_else(PoisonError::into_inner)
}

fn op(json: &str) -> Json {
    Json::parse(json).expect("test op json")
}

fn load_op(script: &str) -> Json {
    Json::obj([("op", Json::from("load")), ("script", Json::from(script))])
}

fn with_id(mut req: Json, id: i64) -> Json {
    if let Json::Obj(pairs) = &mut req {
        pairs.insert(0, ("id".into(), Json::Int(id)));
    }
    req
}

/// The shared program: seeded accounts, an audit rule, and a capping rule
/// (same shape as `server_isolation.rs`).
fn base_script() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    s.push_str("create table acct (id int, bal int);\n");
    s.push_str("create table log (id int, bal int);\n");
    for i in 0..12 {
        let _ = writeln!(s, "insert into acct values ({i}, {});", (i * 7) % 90);
    }
    s.push_str(
        "create rule audit on acct when inserted then \
           insert into log select id, bal from inserted end;\n\
         create rule cap on acct when inserted, updated(bal) \
           if exists (select * from acct where bal > 100) \
           then update acct set bal = 100 where bal > 100 end;\n",
    );
    s
}

/// A non-terminating program whose `exec` runtime scales linearly with its
/// consideration budget — the knob the heavy-session tests turn.
const GROW: &str = "create table t (x int);\n\
                    create rule grow on t when inserted then \
                      insert into t select x + 1 from inserted end;";

fn exec_sql(i: usize) -> String {
    format!(
        "insert into acct values ({}, {});",
        2000 + i,
        (i * 13) % 150
    )
}

fn exec_op(sql: &str) -> Json {
    Json::obj([("op", Json::from("exec")), ("sql", Json::from(sql))])
}

/// A `GROW` exec sized by consideration budget (runtime knob) with a
/// wall-clock backstop so a scheduling bug degrades into a failed
/// assertion rather than a hung test.
fn heavy_exec(considerations: usize) -> Json {
    Json::obj([
        ("op", Json::from("exec")),
        ("sql", Json::from("insert into t values (1);")),
        (
            "budget",
            Json::obj([
                ("max_considerations", Json::from(considerations as i64)),
                ("timeout_ms", Json::from(20_000i64)),
            ]),
        ),
    ])
}

/// The per-session request pipeline whose responses are compared
/// byte-for-byte against serial replay.
fn session_batch(script: &str, i: usize) -> Vec<Json> {
    vec![
        with_id(load_op(script), 1),
        with_id(exec_op(&exec_sql(i)), 2),
        with_id(op(r#"{"op":"digest"}"#), 3),
        with_id(
            op(r#"{"op":"certify","kind":"commute","a":"audit","b":"cap"}"#),
            4,
        ),
    ]
}

/// Serial single-session replay of [`session_batch`], rendered to the
/// exact response lines the wire must produce.
fn serial_reference(script: &str, i: usize, cache: &ScriptCache) -> Vec<String> {
    let mut s = ServerSession::new();
    session_batch(script, i)
        .iter()
        .map(|req| {
            let id = req.get("id").cloned();
            let op = req.get("op").and_then(Json::as_str).expect("op").to_owned();
            match s.handle_op(&op, req, cache) {
                Ok(result) => ok_response(id.as_ref(), result),
                Err((code, message, data)) => {
                    starling_server::err_response(id.as_ref(), code, &message, data)
                }
            }
        })
        .collect()
}

/// Reads scheduler counters through the `stats` op.
fn sched_stats(c: &mut Client) -> Json {
    c.expect_ok(&op(r#"{"op":"stats"}"#))
        .expect("stats")
        .get("server")
        .and_then(|s| s.get("scheduler"))
        .expect("server.scheduler in stats")
        .clone()
}

fn count(j: &Json, key: &str) -> i64 {
    j.get(key).and_then(Json::as_i64).expect(key)
}

/// 2k+ concurrent pipelined sessions, byte-identical to serial replay.
///
/// Every session pipelines its whole request batch in one write; the
/// response lines must (a) be byte-identical to an in-process serial
/// replay of the same ops — covering protocol decode under decode-ahead,
/// snapshot isolation, cache single-flight, and cross-session leakage in
/// one comparison — and (b) arrive in request order per connection (the
/// embedded `id`s are part of the compared bytes).
#[test]
fn two_thousand_pipelined_sessions_match_serial_replay() {
    let _threads = spawns_threads();
    let limit = raise_fd_limit(16 * 1024);
    // Each session holds one socket on each side of the loopback plus
    // headroom for the harness; scale down only if the hard fd limit is
    // unusually low.
    let sessions: usize = if limit >= 8 * 1024 {
        2048
    } else {
        (limit as usize / 4).clamp(128, 2048)
    };
    const DRIVERS: usize = 32;
    let script = base_script();

    // Pre-warm the reference cache so `"cached"` is deterministic in both
    // replays (exactly one cold load each, outside the compared sessions).
    let cache = ScriptCache::new();
    cache.load(&script).expect("reference load");
    let expected: Vec<Vec<String>> = (0..sessions)
        .map(|i| serial_reference(&script, i, &cache))
        .collect();

    // Every session pipelines 4 requests at once, 8 192 in all, and the
    // default admission cap is 4 096: under it, a slow worker pool refuses
    // some as `overloaded`, which serial replay never answers. This test is
    // about isolation and order, not admission, so the cap clears them all.
    let cfg = ServerConfig {
        max_inflight: 8 * sessions,
        ..ServerConfig::default()
    };
    let server = Server::bind_cfg("127.0.0.1:0", None, cfg).expect("bind");
    let addr = server.local_addr();
    let mut warm = Client::connect_ready(addr, READY).expect("warm connect");
    warm.expect_ok(&load_op(&script)).expect("warm load");
    warm.quit().expect("warm quit");

    let got: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..DRIVERS)
            .map(|d| {
                let script = &script;
                scope.spawn(move || {
                    let mine: Vec<usize> = (0..sessions).filter(|i| i % DRIVERS == d).collect();
                    // Connect everything first so all sessions are
                    // concurrently live, then pipeline each batch.
                    let mut conns: Vec<Client> = mine
                        .iter()
                        .map(|_| Client::connect_ready(addr, READY).expect("connect"))
                        .collect();
                    for (c, &i) in conns.iter_mut().zip(&mine) {
                        c.send_batch(&session_batch(script, i)).expect("send");
                    }
                    let mut out = Vec::with_capacity(mine.len());
                    for (c, &i) in conns.iter_mut().zip(&mine) {
                        let lines: Vec<String> = (0..4)
                            .map(|_| c.read_line().expect("response line"))
                            .collect();
                        c.quit().expect("quit");
                        out.push((i, lines));
                    }
                    out
                })
            })
            .collect();
        let mut got = vec![Vec::new(); sessions];
        for h in handles {
            for (i, lines) in h.join().expect("driver") {
                got[i] = lines;
            }
        }
        got
    });

    let mut probe = Client::connect_ready(addr, READY).expect("probe connect");
    let refused = count(&sched_stats(&mut probe), "refused");
    probe.quit().expect("probe quit");
    assert_eq!(refused, 0, "admission refused requests");
    for i in 0..sessions {
        assert_eq!(
            got[i], expected[i],
            "session {i} diverged from serial replay"
        );
    }
    // Single-flight: all concurrent loads of the one script were served by
    // the warm-up compilation.
    let (_, misses) = server.shared().cache.stats();
    assert_eq!(misses, 1, "single-flight cache under the pool");
    server.shutdown();
    server.join();
}

/// Within one connection the scheduler must never reorder: a pipelined
/// heavy `explore` followed by cheap ops answers strictly in request
/// order, even though the cheap ops would be scheduled first if they were
/// on their own connections.
#[test]
fn pipelined_responses_preserve_request_order() {
    let _threads = spawns_threads();
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let mut c = Client::connect_ready(server.local_addr(), READY).expect("connect");
    c.expect_ok(&load_op(&format!(
        "{}insert into acct values (1000, 5);\n",
        base_script()
    )))
    .expect("load");
    let reqs = vec![
        with_id(op(r#"{"op":"explore"}"#), 1),
        with_id(op(r#"{"op":"ping"}"#), 2),
        with_id(op(r#"{"op":"digest"}"#), 3),
        with_id(op(r#"{"op":"ping"}"#), 4),
    ];
    let resps = c.pipeline(&reqs).expect("pipeline");
    for (k, resp) in resps.iter().enumerate() {
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        assert_eq!(
            resp.get("id").and_then(Json::as_i64),
            Some(k as i64 + 1),
            "response {k} out of order: {resp}"
        );
    }
    c.quit().expect("quit");
    server.shutdown();
    server.join();
}

/// Budget-weighted fairness: with a single worker, a heavy session that
/// pipelined two huge execs cannot starve 64 cheap sessions — every cheap
/// op completes before the heavy session's *second* exec completes, and
/// the whole cheap burst consumes a bounded number of scheduler rounds
/// (a count, not a wall-clock bound).
///
/// The guarantee under test is the weighted-fair-queueing order: cheap
/// requests enqueued while heavy #1 holds the worker all carry smaller
/// virtual finish times than heavy #2, so the scheduler must drain the
/// whole cheap burst before giving the heavy session the worker back.
/// The cheap sessions pipeline their batch in one write (no round-trip
/// gaps), so the queue never runs dry and hands #2 an early turn.
#[test]
fn cheap_sessions_pass_a_heavy_pipeline() {
    let _threads = spawns_threads();
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind_cfg("127.0.0.1:0", None, cfg).expect("bind");
    let addr = server.local_addr();
    let script = base_script();

    // Taken while the worker is still idle; `stats` is a control-plane op,
    // so the monitor stays responsive even with the worker saturated later.
    let mut monitor = Client::connect_ready(addr, READY).expect("monitor");
    let rounds0 = count(&sched_stats(&mut monitor), "rounds");

    let heavy2_done = AtomicBool::new(false);
    let heavy_sent = AtomicBool::new(false);
    let cheap_requests = 64 * 2; // per session: pipelined load + certify

    std::thread::scope(|scope| {
        let heavy2_done = &heavy2_done;
        let heavy_sent = &heavy_sent;
        let script = &script;
        let heavy = scope.spawn(move || {
            let mut c = Client::connect_ready(addr, READY).expect("heavy connect");
            c.expect_ok(&load_op(GROW)).expect("load grow");
            // Two pipelined heavy execs: #1 occupies the only worker while
            // the cheap burst arrives; #2 is the starvation probe — under
            // weighted fairness every cheap op overtakes it.
            c.send_batch(&[
                with_id(heavy_exec(400_000), 1),
                with_id(heavy_exec(50_000), 2),
            ])
            .expect("send heavy");
            heavy_sent.store(true, Ordering::SeqCst);
            let r1 = c.recv().expect("heavy #1");
            assert_eq!(
                r1.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some("inconclusive"),
                "heavy #1 should exhaust its budget: {r1}"
            );
            let r2 = c.recv().expect("heavy #2");
            heavy2_done.store(true, Ordering::SeqCst);
            assert_eq!(
                r2.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some("inconclusive"),
                "{r2}"
            );
            c.quit().expect("heavy quit");
        });

        // Start the burst only after the heavy pipeline is on the wire (a
        // start gate, not a correctness bound — the assertions below are
        // order-based). The brief sleep lets the reactor decode it and the
        // worker pick up exec #1, which then runs for seconds.
        while !heavy_sent.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(100));

        let cheap: Vec<_> = (0..64)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("cheap connect");
                    c.set_request_timeout(Some(Duration::from_secs(60)))
                        .expect("timeout");
                    // One write, two responses: the conn's FIFO holds both
                    // requests at once, so the worker never idles between
                    // them waiting on a client round-trip.
                    let resps = c
                        .pipeline(&[
                            load_op(script),
                            op(r#"{"op":"certify","kind":"commute","a":"audit","b":"cap"}"#),
                        ])
                        .expect("cheap pipeline");
                    for r in &resps {
                        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
                    }
                    // Drop without quit: a quit would queue behind heavy #2.
                })
            })
            .collect();
        for h in cheap {
            h.join().expect("cheap session");
        }
        assert!(
            !heavy2_done.load(Ordering::SeqCst),
            "all 64 cheap sessions finished, but the heavy session's second \
             exec completed ahead of some of them"
        );
        let rounds_after_burst = count(&sched_stats(&mut monitor), "rounds");
        assert!(
            rounds_after_burst - rounds0 <= cheap_requests + 64,
            "cheap burst took {} scheduler rounds (bound {})",
            rounds_after_burst - rounds0,
            cheap_requests + 64
        );
        heavy.join().expect("heavy session");
    });

    monitor.quit().expect("monitor quit");
    server.shutdown();
    server.join();
}

/// Admission control: past `max_inflight` admitted-but-not-completed
/// requests, new requests are refused with the typed `overloaded` code —
/// which round-trips through `client.rs` as [`ClientError::Overloaded`] —
/// refusals keep their slot in the pipelined response order, control-plane
/// `stats` stays answerable at the cap, and admission recovers once the
/// gauge drains.
#[test]
fn overload_refusals_are_typed_and_ordered() {
    let _threads = spawns_threads();
    // Two heavy execs saturate the admission gauge (cap 2) and occupy two
    // workers; the third worker keeps delivering refusals and stats while
    // the server is "full".
    let cfg = ServerConfig {
        workers: 3,
        max_inflight: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind_cfg("127.0.0.1:0", None, cfg).expect("bind");
    let addr = server.local_addr();

    let mut monitor = Client::connect_ready(addr, READY).expect("monitor");
    let mut heavy_a = Client::connect_ready(addr, READY).expect("heavy a connect");
    let mut heavy_b = Client::connect_ready(addr, READY).expect("heavy b connect");
    heavy_a.expect_ok(&load_op(GROW)).expect("load grow a");
    heavy_b.expect_ok(&load_op(GROW)).expect("load grow b");
    heavy_a.send(&heavy_exec(400_000)).expect("send heavy a");
    heavy_b.send(&heavy_exec(400_000)).expect("send heavy b");

    // `stats` bypasses admission, so the monitor can watch the gauge fill.
    let deadline = std::time::Instant::now() + READY;
    loop {
        let s = sched_stats(&mut monitor);
        if count(&s, "pending") >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "admission gauge never reached the cap: {s}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // A pipelined batch at the cap: every request is refused, and the
    // refusals hold their slots — ids come back 1, 2, 3.
    let mut c = Client::connect(addr).expect("connect");
    c.send_batch(&[
        with_id(op(r#"{"op":"ping"}"#), 1),
        with_id(op(r#"{"op":"ping"}"#), 2),
        with_id(op(r#"{"op":"ping"}"#), 3),
    ])
    .expect("send pings");
    for want_id in 1i64..=3 {
        let r = c.recv().expect("refusal");
        assert_eq!(r.get("id").and_then(Json::as_i64), Some(want_id), "{r}");
        let err = Client::result_of(&r).expect_err("refused");
        assert!(
            matches!(err, ClientError::Overloaded(_)),
            "expected ClientError::Overloaded, got {err:?} for {r}"
        );
    }

    // A fresh single-shot request surfaces the refusal as the typed
    // client-side error.
    let mut other = Client::connect(addr).expect("other connect");
    let err = other
        .try_expect_ok(&op(r#"{"op":"ping"}"#))
        .expect_err("must be refused at the admission cap");
    assert!(
        matches!(err, ClientError::Overloaded(_)),
        "expected ClientError::Overloaded, got {err:?}"
    );

    // The overloaded server is still observable: stats answers at the cap
    // and reports both the full gauge and the refusals it issued.
    let s = sched_stats(&mut monitor);
    assert_eq!(count(&s, "pending"), 2, "{s}");
    assert!(count(&s, "refused") >= 4, "{s}");

    // Drain: both heavy execs exhaust their budgets; admission recovers.
    for heavy in [&mut heavy_a, &mut heavy_b] {
        let r = heavy.recv().expect("heavy response");
        assert_eq!(
            r.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("inconclusive"),
            "{r}"
        );
    }
    let pong = other
        .try_expect_ok(&op(r#"{"op":"ping"}"#))
        .expect("recovered after drain");
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));

    heavy_a.quit().expect("heavy a quit");
    heavy_b.quit().expect("heavy b quit");
    monitor.quit().expect("monitor quit");
    c.quit().expect("quit");
    other.quit().expect("other quit");
    server.shutdown();
    server.join();
}

/// Fault injection on the pooled path: a mid-pipeline disconnect and a
/// half-written request line must leave neighbor sessions intact and the
/// dropped session's durable store unlocked for re-attachment.
#[test]
fn mid_pipeline_disconnect_leaves_neighbors_and_stores_intact() {
    let _threads = spawns_threads();
    let dir = std::env::temp_dir().join(format!("starling-scale-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind_with(
        "127.0.0.1:0",
        Some(DurableRoot::new(&dir, SyncPolicy::Always)),
    )
    .expect("bind");
    let addr = server.local_addr();
    let script = base_script();

    // The neighbor connects first and must be untouched by everything below.
    let mut neighbor = Client::connect_ready(addr, READY).expect("neighbor");
    neighbor
        .expect_ok(&load_op(&script))
        .expect("neighbor load");

    // Victim: attach a durable store, pipeline a burst of execs, read only
    // one response, vanish without quit.
    {
        let mut victim = Client::connect_ready(addr, READY).expect("victim");
        let mut attach = load_op(&script);
        if let Json::Obj(pairs) = &mut attach {
            pairs.push(("persist".into(), Json::from("s1")));
        }
        victim.expect_ok(&attach).expect("victim attach");
        let burst: Vec<Json> = (0..8).map(|i| exec_op(&exec_sql(i))).collect();
        victim.send_batch(&burst).expect("victim burst");
        let first = victim.recv().expect("victim first response");
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first}");
        // Drop mid-pipeline: 7 responses undelivered.
    }

    // Half-written request line, then vanish.
    {
        use std::io::Write as _;
        let mut half = std::net::TcpStream::connect(addr).expect("half connect");
        half.write_all(b"{\"op\":\"pi").expect("half write");
        // No newline, no shutdown: just drop.
    }

    // The neighbor session never noticed.
    neighbor
        .expect_ok(&exec_op(&exec_sql(40)))
        .expect("neighbor exec");
    neighbor
        .expect_ok(&op(r#"{"op":"digest"}"#))
        .expect("neighbor digest");

    // The victim's store unlocks once its session is swept; poll until the
    // re-attach succeeds (sweep is asynchronous but prompt).
    let deadline = std::time::Instant::now() + READY;
    let mut taker = Client::connect_ready(addr, READY).expect("taker");
    let reattach = loop {
        let mut attach = op(r#"{"op":"load"}"#);
        if let Json::Obj(pairs) = &mut attach {
            pairs.push(("persist".into(), Json::from("s1")));
        }
        match taker.try_expect_ok(&attach) {
            Ok(result) => break result,
            Err(e) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "store s1 still locked after victim disconnect: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    assert_eq!(
        reattach.get("recovered"),
        Some(&Json::Bool(true)),
        "{reattach}"
    );
    // The reattached store accepts writes — fully unlocked, not half-dead.
    taker
        .expect_ok(&exec_op(&exec_sql(41)))
        .expect("taker exec");

    taker.quit().expect("taker quit");
    neighbor.quit().expect("neighbor quit");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker panic mid-request (the test-only `crash` op) closes only the
/// offending connection: neighbors keep their sessions, the panicking
/// session's durable store is released, and the server still drains
/// cleanly afterwards.
#[test]
fn worker_panic_is_contained() {
    let _threads = spawns_threads();
    let dir = std::env::temp_dir().join(format!("starling-scale-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServerConfig {
        workers: 2,
        crash_op: true,
        ..ServerConfig::default()
    };
    let server = Server::bind_cfg(
        "127.0.0.1:0",
        Some(DurableRoot::new(&dir, SyncPolicy::Always)),
        cfg,
    )
    .expect("bind");
    let addr = server.local_addr();
    let script = base_script();

    let mut neighbor = Client::connect_ready(addr, READY).expect("neighbor");
    neighbor
        .expect_ok(&load_op(&script))
        .expect("neighbor load");

    // The crasher holds a durable store when its worker panics.
    let mut crasher = Client::connect_ready(addr, READY).expect("crasher");
    let mut attach = load_op(&script);
    if let Json::Obj(pairs) = &mut attach {
        pairs.push(("persist".into(), Json::from("s1")));
    }
    crasher.expect_ok(&attach).expect("crasher attach");
    crasher.send(&op(r#"{"op":"crash"}"#)).expect("send crash");
    // The contained panic closes the connection without a response.
    let eof = crasher.read_response();
    assert!(eof.is_err(), "crash must close the connection, got {eof:?}");

    // Neighbors are unaffected, across both workers.
    for _ in 0..8 {
        neighbor
            .expect_ok(&op(r#"{"op":"ping"}"#))
            .expect("neighbor ping");
    }
    neighbor
        .expect_ok(&exec_op(&exec_sql(1)))
        .expect("neighbor exec");

    // The crashed session's store is released and re-attachable.
    let deadline = std::time::Instant::now() + READY;
    let mut taker = Client::connect_ready(addr, READY).expect("taker");
    loop {
        let mut attach = op(r#"{"op":"load"}"#);
        if let Json::Obj(pairs) = &mut attach {
            pairs.push(("persist".into(), Json::from("s1")));
        }
        match taker.try_expect_ok(&attach) {
            Ok(_) => break,
            Err(e) => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "store s1 still locked after worker panic: {e}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }

    taker.quit().expect("taker quit");
    neighbor.quit().expect("neighbor quit");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Idle sessions are parked state objects, not threads: opening hundreds
/// of extra idle connections must not grow the process thread count
/// (server and test share one process, so `/proc/self/status` is exact).
#[cfg(target_os = "linux")]
#[test]
fn idle_sessions_cost_no_threads() {
    let _alone = THREADS.write().unwrap_or_else(PoisonError::into_inner);
    raise_fd_limit(4096);
    let threads = || -> i64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("Threads: line")
    };
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut first = Client::connect_ready(addr, READY).expect("first");
    let before = threads();
    let idle: Vec<Client> = (0..512)
        .map(|_| Client::connect(addr).expect("idle connect"))
        .collect();
    // Make the accepts observable before measuring.
    first.expect_ok(&op(r#"{"op":"ping"}"#)).expect("ping");
    let after = threads();
    // The other tests in this binary wait on `THREADS`, but the harness
    // may still start threads of its own, so allow some jitter — what
    // matters is that 512 idle sessions did not cost ~512 threads (the
    // legacy executor's price).
    assert!(
        after <= before + 64,
        "512 idle connections grew the thread count {before} -> {after}"
    );
    drop(idle);
    first.quit().expect("quit");
    server.shutdown();
    server.join();
}
