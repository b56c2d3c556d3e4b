//! `server_mix`: an in-process `Server::bind` with the default
//! `ServerConfig` (pooled, in-memory) under two closed-loop client threads
//! — as many as this box has cores.
//!
//! * The **foreground** connection issues cheap requests one at a time
//!   against a generated 30-rule program. One op is one *round* — a ping,
//!   a digest, a small `exec`, a `certify` and an `analyze`, in seeded
//!   order, each encoded, sent, awaited and parsed before the next. Timing
//!   the round rather than the single request gives the latency
//!   distribution one mode: the median of a mix of 80 µs pings and 500 µs
//!   analyzes would hinge on the mix.
//! * The **background** connection keeps a 16-deep pipeline of heavy
//!   requests in flight: `explore` of the power-network case study
//!   alternating with its `analyze`.
//!
//! Every 64 rounds the foreground session re-attaches to its program by
//! digest (a session-cache hit, untimed), which resets the rows and
//! directives the rounds accumulated, so a round costs the same early and
//! late in a run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use starling_analysis::load_script;
use starling_server::{err_response, ok_response, Client, ScriptCache, Server, ServerSession};
use starling_sql::json::Json;
use starling_workloads::power_network;

use super::{Repetitions, Report, RunCfg, Timed};
use crate::measure::{median, ms_since, Rng, Tracer};
use crate::probes;

const RULES: usize = 30;
const LOGS: usize = 10;
const PIPELINE_DEPTH: usize = 16;
const RELOAD_EVERY: usize = 64;
/// Rounds whose every answer the untraced run checks against the mirror
/// (the traced pass checks all of them).
const MIRRORED_ROUNDS: usize = 300;

/// The foreground program: `RULES` unordered rules on one table, each
/// testing its transition table against a seeded threshold and logging to
/// one of `LOGS` tables.
fn foreground_script(cfg: &RunCfg) -> String {
    let mut rng = Rng::new(cfg.seed, 7);
    let mut s = String::from("create table acct (id int, bal int);\n");
    for i in 0..LOGS {
        let _ = writeln!(s, "create table log{i} (x int);");
    }
    for j in 0..RULES {
        let _ = writeln!(
            s,
            "create rule r{j} on acct when inserted \
               if exists (select * from inserted where bal > {}) \
               then insert into log{} values ({j}) end;",
            rng.range(0, 999),
            j % LOGS
        );
    }
    s.push_str("insert into acct values (0, 500);\n");
    s
}

/// The case study as one script: set-up, rules, then the user transition.
fn background_script() -> String {
    let w = power_network::workload();
    format!("{}\n{}\n{}", w.setup, w.rules, w.user_transition)
}

fn op(name: &str) -> Json {
    Json::obj([("op", Json::from(name))])
}

fn load(script: &str) -> Json {
    Json::obj([("op", Json::from("load")), ("script", Json::from(script))])
}

/// The seeded foreground request stream: rounds of one request per class.
struct Rounds {
    rng: Rng,
    next_id: i64,
}

impl Rounds {
    /// The next round: `(class, request)` in seeded order.
    fn next(&mut self) -> Vec<(&'static str, Json)> {
        let rng = &mut self.rng;
        let a = rng.below(RULES as u64 - 1);
        let b = a + 1 + rng.below(RULES as u64 - 1 - a);
        self.next_id += 1;
        let insert = format!(
            "insert into acct values ({}, {});",
            self.next_id,
            rng.range(0, 999)
        );
        let mut round = vec![
            ("ping", op("ping")),
            ("digest", op("digest")),
            (
                "exec",
                Json::obj([("op", Json::from("exec")), ("sql", Json::from(insert))]),
            ),
            (
                "certify",
                Json::obj([
                    ("op", Json::from("certify")),
                    ("kind", Json::from("commute")),
                    ("a", Json::from(format!("r{a}"))),
                    ("b", Json::from(format!("r{b}"))),
                ]),
            ),
            ("analyze", op("analyze")),
        ];
        rng.shuffle(&mut round);
        round
    }
}

fn is_ok(response: &Json) -> bool {
    response.get("ok") == Some(&Json::Bool(true))
}

/// One request as the foreground saw it.
struct Exchange {
    class: &'static str,
    request: Json,
    response: String,
    roundtrip_us: f64,
}

/// The foreground client and everything it exchanged.
struct Foreground {
    client: Client,
    rounds: Rounds,
    reload: Json,
    round_no: usize,
    /// Exchanges kept for the mirror, in connection order.
    log: Vec<Exchange>,
    /// How many rounds to keep in `log`.
    keep_rounds: usize,
    /// When the timed window began, and every request's completion since.
    epoch: Instant,
    done_s: Vec<f64>,
}

impl Foreground {
    /// Sends one request and awaits its answer: encode, round trip, parse.
    fn call(&mut self, r: &mut Report, t: &Tracer, class: &'static str, request: Json) {
        let line = t.time("sql.json.encode", || request.to_string());
        let started = Instant::now();
        let response = t
            .time("server.wire.roundtrip", || self.client.raw_request(&line))
            .expect("foreground request");
        let roundtrip_us = ms_since(started) * 1e3;
        let parsed = t.time("sql.json.parse", || Json::parse(&response));
        self.done_s.push(self.epoch.elapsed().as_secs_f64());
        r.check(parsed.as_ref().is_ok_and(is_ok), || {
            format!("{class} failed: {response}")
        });
        if self.round_no < self.keep_rounds {
            self.log.push(Exchange {
                class,
                request,
                response,
                roundtrip_us,
            });
        }
    }

    /// Rounds back to back for `seconds`, each timed; the periodic
    /// re-attach sits between rounds, outside their timing.
    fn run(&mut self, seconds: f64, r: &mut Report, t: &Tracer) -> Timed {
        let (mut lat_ms, mut done_s) = (Vec::new(), Vec::new());
        let untraced = Tracer::new(false);
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            if self.round_no % RELOAD_EVERY == RELOAD_EVERY - 1 {
                self.call(r, &untraced, "load", self.reload.clone());
            }
            t.next_op();
            let started = Instant::now();
            {
                let _op = t.span(probes::OP);
                for (class, request) in self.rounds.next() {
                    self.call(r, t, class, request);
                }
            }
            lat_ms.push(ms_since(started));
            done_s.push(start.elapsed().as_secs_f64());
            self.round_no += 1;
            r.attempted += 1;
        }
        Timed {
            lat_ms,
            done_s,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// What the server would answer, computed in-process: the line `dispatch`
/// renders for a session-level op (no request here carries an `id`).
fn mirror_line(session: &mut ServerSession, cache: &ScriptCache, request: &Json) -> String {
    let name = request
        .get("op")
        .and_then(Json::as_str)
        .expect("request has an op");
    match session.handle_op(name, request, cache) {
        Ok(result) => ok_response(None, result),
        Err((code, message, data)) => err_response(None, code, &message, data),
    }
}

/// Replays the foreground's log through an in-process `ServerSession`:
/// every answer must match the server's byte for byte. Returns each
/// exchange's `handle_op` microseconds.
fn mirror_check(r: &mut Report, script: &str, log: &[Exchange]) -> Vec<f64> {
    let cache = ScriptCache::new();
    let mut session = ServerSession::new();
    let loaded = mirror_line(&mut session, &cache, &load(script));
    r.check(loaded.contains("\"ok\":true"), || {
        format!("mirror load failed: {loaded}")
    });
    let mut handle_us = Vec::with_capacity(log.len());
    let mut mismatches = 0usize;
    for x in log {
        let t = Instant::now();
        let line = mirror_line(&mut session, &cache, &x.request);
        handle_us.push(ms_since(t) * 1e3);
        if line != x.response {
            mismatches += 1;
            if mismatches == 1 {
                eprintln!(
                    "mirror: {} answered {line}\nserver: {}",
                    x.class, x.response
                );
            }
        }
    }
    r.attempted += 1;
    r.check(mismatches == 0, || {
        format!(
            "{mismatches} of {} server answers differ from the mirror",
            log.len()
        )
    });
    handle_us
}

/// The heavy requests' answers and `handle_op` microseconds, from the
/// in-process mirror.
fn expected_heavy() -> ([String; 2], [f64; 2]) {
    let cache = ScriptCache::new();
    let mut session = ServerSession::new();
    let loaded = mirror_line(&mut session, &cache, &load(&background_script()));
    assert!(
        loaded.contains("\"ok\":true"),
        "mirror loads the case study: {loaded}"
    );
    let mut timed = |name: &str| {
        let t = Instant::now();
        let line = mirror_line(&mut session, &cache, &op(name));
        (line, ms_since(t) * 1e3)
    };
    let ((explore, explore_us), (analyze, analyze_us)) = (timed("explore"), timed("analyze"));
    ([explore, analyze], [explore_us, analyze_us])
}

/// The background client: loads the case study, then keeps
/// [`PIPELINE_DEPTH`] heavy requests in flight until told to stop and
/// drains what is left. Returns each completion's seconds since `epoch`
/// and the number of wrong answers.
fn background(
    addr: SocketAddr,
    stop: &AtomicBool,
    expected: &[String; 2],
    epoch: Instant,
) -> (Vec<f64>, u64) {
    let mut c = Client::connect(addr).expect("background connect");
    let loaded = c
        .call(&load(&background_script()))
        .expect("background load");
    let mut wrong = u64::from(!is_ok(&loaded));
    let mut done_s = vec![epoch.elapsed().as_secs_f64()];
    let heavy = [op("explore"), op("analyze")];
    let (mut sent, mut received) = (0usize, 0usize);
    for _ in 0..PIPELINE_DEPTH {
        c.send(&heavy[sent % 2]).expect("background send");
        sent += 1;
    }
    while received < sent {
        // Answers come back in request order, so parity names the kind.
        let line = c.read_line().expect("background recv");
        wrong += u64::from(line != expected[received % 2]);
        done_s.push(epoch.elapsed().as_secs_f64());
        received += 1;
        if !stop.load(Ordering::SeqCst) {
            c.send(&heavy[sent % 2]).expect("background send");
            sent += 1;
        }
    }
    let _ = c.quit();
    (done_s, wrong)
}

/// Connect, load (a cache miss on a fresh server) and the first answer,
/// for both clients: the foreground's first `analyze`, the background's
/// first `explore`. Returns the foreground client, its answer text, the
/// background's answer text and the first connect's microseconds.
fn cold(addr: SocketAddr, script: &str) -> (Client, String, String, f64) {
    let t = Instant::now();
    let mut fg = Client::connect(addr).expect("foreground connect");
    let connect_us = ms_since(t) * 1e3;
    let first = |c: &mut Client, script: &str, name: &str| {
        let loaded = c.raw_request(&load(script).to_string()).expect("load");
        assert!(
            loaded.contains("\"cached\":false"),
            "first load is a cache miss: {loaded}"
        );
        c.raw_request(&op(name).to_string()).expect("first answer")
    };
    let analyzed = first(&mut fg, script, "analyze");
    let mut bg = Client::connect(addr).expect("background connect");
    let explored = first(&mut bg, &background_script(), "explore");
    let _ = bg.quit();
    (fg, analyzed, explored, connect_us)
}

/// A set-up repetition's result: a running server with the foreground
/// client connected, loaded and warm. Dropping it drains the server.
struct Serving {
    /// Dropped (disconnected) before the server drains.
    fg: Foreground,
    server: Option<Server>,
    script: String,
    first_answer: String,
    connect_us: f64,
}

impl Drop for Serving {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = self.fg.client.quit();
            server.shutdown();
            server.join();
        }
    }
}

/// One set-up: generate the program, bind a server, cold-start both
/// clients against it, warm the foreground session up.
fn set_up(cfg: &RunCfg, r: &mut Report, expected: &[String; 2]) -> (Serving, f64) {
    let script = foreground_script(cfg);
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let t = Instant::now();
    let (client, first_answer, explored, connect_us) = cold(server.local_addr(), &script);
    let cold_ms = ms_since(t);
    r.attempted += 1;
    r.check(
        first_answer.contains("\"ok\":true") && explored == expected[0],
        || format!("cold answers: analyze {first_answer}, explore {explored}"),
    );
    let mut fg = Foreground {
        client,
        rounds: Rounds {
            rng: Rng::new(cfg.seed, 8),
            next_id: 0,
        },
        reload: Json::obj([
            ("op", Json::from("load")),
            (
                "digest",
                Json::from(format!("{:016x}", ScriptCache::digest(&script))),
            ),
        ]),
        round_no: 0,
        log: Vec::new(),
        keep_rounds: if cfg.trace {
            usize::MAX
        } else {
            MIRRORED_ROUNDS
        },
        epoch: Instant::now(),
        done_s: Vec::new(),
    };
    fg.run(WARM_UP_SECONDS, r, &Tracer::new(false));
    let serving = Serving {
        fg,
        server: Some(server),
        script,
        first_answer,
        connect_us,
    };
    (serving, cold_ms)
}

const REPS: usize = 8;

/// Seconds of foreground rounds run before timing starts, so the session,
/// its analyzer memo and the allocator are in their steady state.
const WARM_UP_SECONDS: f64 = 0.05;

pub fn run(cfg: &RunCfg) -> Report {
    let mut r = Report::default();
    let (expected, heavy_us) = expected_heavy();
    r.check(expected.iter().all(|e| e.contains("\"ok\":true")), || {
        format!("mirror heavy ops failed: {expected:?}")
    });
    let off = Tracer::new(false);
    let mut reps = Repetitions::default();
    let early = if cfg.trace {
        1
    } else {
        Repetitions::before(REPS)
    };
    let mut serving = reps
        .run(early, || set_up(cfg, &mut r, &expected))
        .expect("at least one repetition");
    let addr = serving.server.as_ref().expect("server runs").local_addr();
    let fg = &mut serving.fg;

    // One heavy explore round trip with nothing else running, for the
    // per-layer table (the background's pipelined ones overlap each other).
    let mut explore_roundtrip_us = 0.0;
    if cfg.trace {
        let mut c = Client::connect(addr).expect("probe connect");
        c.expect_ok(&load(&background_script()))
            .expect("probe load");
        let t = Instant::now();
        let answer = c
            .raw_request(&op("explore").to_string())
            .expect("probe explore");
        explore_roundtrip_us = ms_since(t) * 1e3;
        r.check(answer == expected[0], || {
            "unloaded explore answer differs from the mirror".to_owned()
        });
        let _ = c.quit();
    }

    let stop = AtomicBool::new(false);
    let stats = |c: &mut Client| c.expect_ok(&op("stats")).expect("stats");
    let before = stats(&mut fg.client);
    let started = Instant::now();
    fg.epoch = started;
    fg.done_s.clear();
    let on = Tracer::new(true);
    let (timed, traced_from, bg_done_s, bg_wrong) = std::thread::scope(|scope| {
        let bg = scope.spawn(|| background(addr, &stop, &expected, started));
        let (timed, traced_from) = if cfg.trace {
            let quiet = fg.run(cfg.seconds / 4.0, &mut r, &off);
            r.op_percentiles(&quiet.lat_ms);
            let traced_from = fg.log.len();
            let loud = fg.run(cfg.seconds / 4.0, &mut r, &on);
            r.set(
                "trace.overhead_ratio",
                median(&loud.lat_ms) / median(&quiet.lat_ms),
            );
            (loud, traced_from)
        } else {
            (fg.run(cfg.seconds, &mut r, &off), 0)
        };
        stop.store(true, Ordering::SeqCst);
        let (done_s, wrong) = bg.join().expect("background thread");
        (timed, traced_from, done_s, wrong)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let after = stats(&mut fg.client);
    r.attempted += bg_done_s.len() as u64;
    r.failed += bg_wrong;
    r.note("foreground_requests", fg.done_s.len());
    r.note("background_requests", bg_done_s.len());
    let refused = scheduler(&after, "refused") - scheduler(&before, "refused");
    r.check(refused == 0.0, || {
        format!("{refused} requests were refused as overloaded")
    });

    // Outside the timed window: the server's answers against the mirror.
    let t = Instant::now();
    let handle_us = mirror_check(&mut r, &serving.script, &fg.log);
    r.note("verify_s", format!("{:.3}", t.elapsed().as_secs_f64()));
    r.note("mirrored_requests", fg.log.len());

    if cfg.trace {
        traced(
            &mut r,
            &on,
            &fg.log[traced_from..],
            &handle_us[traced_from..],
        );
        r.set("server.session.handle_us.explore", heavy_us[0]);
        r.set("server.roundtrip_us.explore", explore_roundtrip_us);
        r.set("server.connect_us", serving.connect_us);
        for key in ["admitted", "completed", "refused", "rounds"] {
            r.set(
                &format!("server.pool.{key}"),
                scheduler(&after, key) - scheduler(&before, key),
            );
        }
        let cache = |key: &str| {
            let v = after
                .get("server")
                .and_then(|s| s.get("cache"))
                .and_then(|c| c.get(key));
            v.and_then(Json::as_f64).unwrap_or(0.0)
        };
        r.set(
            "server.cache.hit_ratio",
            cache("hits") / (cache("hits") + cache("misses")).max(1.0),
        );
        r.trace = Some(on.to_json(50_000));
        r.note("spans", on.span_count());
        layer_probes(&mut r, &serving.script, &serving.first_answer);
    } else {
        // Every completed request counts toward throughput, heavy or cheap.
        let mut done_s = [fg.done_s.as_slice(), bg_done_s.as_slice()].concat();
        done_s.sort_by(f64::total_cmp);
        let timed = Timed {
            wall_s,
            done_s,
            ..timed
        };
        drop(serving);
        reps.run(REPS - early, || set_up(cfg, &mut r, &expected));
        r.end_to_end(&reps, &timed);
    }
    r
}

/// A counter of the `stats` op's scheduler section.
fn scheduler(stats: &Json, key: &str) -> f64 {
    let v = stats
        .get("server")
        .and_then(|s| s.get("scheduler"))
        .and_then(|s| s.get(key));
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Per-class round trips against the mirror's `handle_op` times for the
/// same requests: what the wire, the reactor and the scheduler add.
fn traced(r: &mut Report, on: &Tracer, log: &[Exchange], handle_us: &[f64]) {
    let mut roundtrip: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut handle: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut overhead = Vec::new();
    let (mut roundtrip_sum, mut handle_sum) = (0.0, 0.0);
    for (x, &h) in log.iter().zip(handle_us).filter(|(x, _)| x.class != "load") {
        roundtrip.entry(x.class).or_default().push(x.roundtrip_us);
        handle.entry(x.class).or_default().push(h);
        overhead.push(x.roundtrip_us - h);
        roundtrip_sum += x.roundtrip_us;
        handle_sum += h;
    }
    for (class, samples) in &roundtrip {
        r.set(&format!("server.roundtrip_us.{class}"), median(samples));
        r.set(
            &format!("server.session.handle_us.{class}"),
            median(&handle[class]),
        );
    }
    r.set("server.wire_overhead_us", median(&overhead));
    probes::span_metrics(r, on);
    // The round-trip span holds the server's handling and what the wire,
    // reactor and scheduler add; the mirror's timings split the two.
    let wire_share = r
        .metrics
        .get("self_share.server.wire")
        .copied()
        .unwrap_or(0.0);
    let handled = wire_share * handle_sum / roundtrip_sum;
    r.set("self_share.server.session", handled);
    r.set("self_share.server.wire", wire_share - handled);
    r.set("trace.shadow_ratio", 1.0);
}

/// The layers under the server, probed on the foreground program and the
/// case study.
fn layer_probes(r: &mut Report, script: &str, first_answer: &str) {
    let loaded = load_script(script).expect("foreground script loads");
    probes::load_path(r, script, &loaded.defs, loaded.rules.catalog());
    probes::json(r, first_answer);
    probes::cond_modes(r, &loaded.rules, &loaded.db, &loaded.user_actions, &[], 8);
    probes::analysis_cold(r, &loaded.rules, &loaded.certs, 0.05);
    let heavy = load_script(&background_script()).expect("case study loads");
    let cfg = starling_engine::ExploreConfig::default();
    probes::exec_graph(r, &heavy.rules, &heavy.db, &heavy.user_actions, &cfg, 0.3);
    probes::explain(
        r,
        &background_script(),
        &Json::obj([("max_states", Json::Int(20_000))]),
    );
}
