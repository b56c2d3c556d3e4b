//! Concurrent-session isolation: N sessions served concurrently must be
//! byte-identical to the same sessions replayed serially, and one
//! session's aborts or budget exhaustion must never perturb another.
//!
//! The serial reference drives [`ServerSession`] directly (no TCP); the
//! concurrent side goes through the real server and wire protocol, so the
//! comparison covers the whole stack: protocol parsing, the shared
//! program cache, copy-on-write snapshot handout, and request atomicity.

use std::time::Duration;

use starling_server::{Client, ScriptCache, Server, ServerSession};
use starling_sql::json::Json;

/// How long a test client polls for server readiness before giving up.
const READY: Duration = Duration::from_secs(10);

/// The shared program: seeded accounts, an audit rule, a capping rule,
/// and a one-row user transition for `explore`.
fn base_script() -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    s.push_str("create table acct (id int, bal int);\n");
    s.push_str("create table log (id int, bal int);\n");
    for i in 0..20 {
        let _ = writeln!(s, "insert into acct values ({i}, {});", (i * 7) % 90);
    }
    s.push_str(
        "create rule audit on acct when inserted then \
           insert into log select id, bal from inserted end;\n\
         create rule cap on acct when inserted, updated(bal) \
           if exists (select * from acct where bal > 100) \
           then update acct set bal = 100 where bal > 100 end;\n\
         insert into acct values (1000, 5);\n",
    );
    s
}

/// A non-terminating program for budget-exhaustion sessions.
const GROW: &str = "create table t (x int);\n\
                    create rule grow on t when inserted then \
                      insert into t select x + 1 from inserted end;";

/// Session `i`'s distinct mutation under the base program.
fn exec_sql(i: usize) -> String {
    format!(
        "insert into acct values ({}, {});",
        2000 + i,
        (i * 13) % 150
    )
}

fn op(json: &str) -> Json {
    Json::parse(json).expect("test op json")
}

fn load_op(script: &str) -> Json {
    Json::obj([("op", Json::from("load")), ("script", Json::from(script))])
}

fn exec_op(sql: &str) -> Json {
    Json::obj([("op", Json::from("exec")), ("sql", Json::from(sql))])
}

/// The serial reference: session `i`'s digest when nothing else runs.
fn serial_digest(script: &str, sql: &str, cache: &ScriptCache) -> String {
    let mut s = ServerSession::new();
    s.handle_op("load", &load_op(script), cache)
        .expect("serial load");
    s.handle_op("exec", &exec_op(sql), cache)
        .expect("serial exec");
    s.handle_op("digest", &op("{}"), cache)
        .expect("serial digest")
        .get("digest")
        .and_then(Json::as_str)
        .expect("digest string")
        .to_owned()
}

/// Digest over the wire.
fn wire_digest(c: &mut Client) -> String {
    c.expect_ok(&op(r#"{"op":"digest"}"#))
        .expect("digest request")
        .get("digest")
        .and_then(Json::as_str)
        .expect("digest string")
        .to_owned()
}

#[test]
fn sixty_four_concurrent_sessions_match_serial_replay() {
    const SESSIONS: usize = 64;
    let script = base_script();

    let cache = ScriptCache::new();
    let expected: Vec<String> = (0..SESSIONS)
        .map(|i| serial_digest(&script, &exec_sql(i), &cache))
        .collect();

    let server = Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let got: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let script = &script;
                scope.spawn(move || {
                    let mut c = Client::connect_ready(addr, READY).expect("connect");
                    c.expect_ok(&load_op(script)).expect("load");
                    c.expect_ok(&exec_op(&exec_sql(i))).expect("exec");
                    let d = wire_digest(&mut c);
                    c.quit().expect("quit");
                    d
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session"))
            .collect()
    });

    for (i, (got, expected)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(got, expected, "session {i} diverged from serial replay");
    }
    // All 64 loads were served by one compilation.
    let (hits, misses) = server.shared().cache.stats();
    assert_eq!(
        misses, 1,
        "single-flight cache: {hits} hits / {misses} misses"
    );
    server.shutdown();
    server.join();
}

#[test]
fn aborts_and_budget_exhaustion_do_not_perturb_neighbors() {
    const SESSIONS: usize = 30;
    let script = base_script();

    // Serial reference for the well-behaved sessions only.
    let cache = ScriptCache::new();
    let expected: Vec<Option<String>> = (0..SESSIONS)
        .map(|i| (i % 3 == 0).then(|| serial_digest(&script, &exec_sql(i), &cache)))
        .collect();

    let server = Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let got: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let script = &script;
                scope.spawn(move || {
                    let mut c = Client::connect_ready(addr, READY).expect("connect");
                    match i % 3 {
                        // Well-behaved: must come out byte-identical to
                        // the serial replay despite the chaos next door.
                        0 => {
                            c.expect_ok(&load_op(script)).expect("load");
                            c.expect_ok(&exec_op(&exec_sql(i))).expect("exec");
                        }
                        // Budget-exhausted: a non-terminating program under
                        // a tiny consideration budget. The error is
                        // `inconclusive` and the session state must be as
                        // if the request never happened.
                        1 => {
                            c.expect_ok(&load_op(GROW)).expect("load grow");
                            let before = wire_digest(&mut c);
                            let resp = c
                                .call(&op(
                                    r#"{"op":"exec","sql":"insert into t values (1);","budget":{"max_considerations":5}}"#,
                                ))
                                .expect("exec request");
                            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
                            assert_eq!(
                                resp.get("error")
                                    .and_then(|e| e.get("code"))
                                    .and_then(Json::as_str),
                                Some("inconclusive"),
                                "{resp}"
                            );
                            assert_eq!(wire_digest(&mut c), before, "exhausted exec leaked state");
                        }
                        // Aborting: a priority cycle at the assertion
                        // point aborts the transaction; error code
                        // `aborted`, session state untouched.
                        _ => {
                            c.expect_ok(&load_op(script)).expect("load");
                            let before = wire_digest(&mut c);
                            let resp = c
                                .call(&exec_op(
                                    "alter rule audit precedes cap; \
                                     alter rule cap precedes audit; \
                                     insert into acct values (1, 1);",
                                ))
                                .expect("exec request");
                            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
                            assert_eq!(
                                resp.get("error")
                                    .and_then(|e| e.get("code"))
                                    .and_then(Json::as_str),
                                Some("aborted"),
                                "{resp}"
                            );
                            assert_eq!(wire_digest(&mut c), before, "aborted exec leaked state");
                            // The cyclic orderings were rolled back too.
                            c.expect_ok(&op(r#"{"op":"analyze"}"#)).expect("analyze");
                        }
                    }
                    let d = wire_digest(&mut c);
                    c.quit().expect("quit");
                    d
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session"))
            .collect()
    });

    for (i, expected) in expected.iter().enumerate() {
        if let Some(expected) = expected {
            assert_eq!(&got[i], expected, "well-behaved session {i} was perturbed");
        }
    }
    server.shutdown();
    server.join();
}

/// The §6.4 refinement loop over the wire: certify → analyze → order →
/// analyze on one session reuses pair verdicts (visible through the
/// `stats` op's per-session `pair_cache` counters) and never leaks
/// analyzer state into a neighbor session on the same program.
#[test]
fn refinement_stats_are_per_session() {
    use std::fmt::Write as _;
    // Eight same-shape conflicting rules: a single-rule refinement dirties
    // well under half the pairs, so warm analyzes take the incremental path.
    let mut script = String::from("create table t (x int);\ncreate table u (x int);\n");
    for name in ["a", "b", "c", "d", "e", "f", "g", "h"] {
        let _ = writeln!(
            script,
            "create rule {name} on t when inserted then update u set x = 1 end;"
        );
    }

    let pair_cache = |c: &mut Client| -> Json {
        c.expect_ok(&op(r#"{"op":"stats"}"#))
            .expect("stats")
            .get("session")
            .and_then(|s| s.get("pair_cache"))
            .expect("session.pair_cache in stats")
            .clone()
    };
    let count = |j: &Json, key: &str| j.get(key).and_then(Json::as_i64).expect(key);

    let server = Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut refiner = Client::connect_ready(addr, READY).expect("connect");
    let mut bystander = Client::connect_ready(addr, READY).expect("connect");
    refiner.expect_ok(&load_op(&script)).expect("load");
    bystander.expect_ok(&load_op(&script)).expect("load");

    refiner.expect_ok(&op(r#"{"op":"analyze"}"#)).expect("cold");
    let cold = pair_cache(&mut refiner);
    assert_eq!(count(&cold, "full_sweeps"), 1);

    refiner
        .expect_ok(&op(r#"{"op":"certify","kind":"commute","a":"a","b":"b"}"#))
        .expect("certify");
    refiner.expect_ok(&op(r#"{"op":"analyze"}"#)).expect("warm");
    let warm = pair_cache(&mut refiner);
    assert!(count(&warm, "hits") > count(&cold, "hits"), "{warm}");
    // Exactly the certified pair's verdict was invalidated.
    assert_eq!(
        count(&warm, "invalidations"),
        count(&cold, "invalidations") + 1
    );

    refiner
        .expect_ok(&op(r#"{"op":"order","higher":"a","lower":"b"}"#))
        .expect("order");
    refiner
        .expect_ok(&op(r#"{"op":"analyze"}"#))
        .expect("warm2");
    let after = pair_cache(&mut refiner);
    assert_eq!(count(&after, "full_sweeps"), 1, "{after}");
    assert_eq!(count(&after, "incremental_sweeps"), 2, "{after}");

    // The bystander session shares the cached program but not the analyzer:
    // its counters are untouched by the refiner's certify/order/analyze.
    let other = pair_cache(&mut bystander);
    assert_eq!(count(&other, "hits"), 0, "{other}");
    assert_eq!(count(&other, "invalidations"), 0, "{other}");
    assert_eq!(count(&other, "full_sweeps"), 0, "{other}");

    refiner.quit().expect("quit");
    bystander.quit().expect("quit");
    server.shutdown();
    server.join();
}

/// Provenance counters surfaced by the `stats` op are per-session: an
/// explore + explain on one session bumps its `traces_recorded` /
/// `witnesses_extracted`, while a neighbor session on the same cached
/// program stays at zero.
#[test]
fn provenance_counters_are_per_session() {
    // Two unordered rules rewriting the same cell with non-commuting
    // assignments — the canonical divergent shape, so `explain` must
    // extract a replay-verified witness.
    let script = "create table t (x int);\n\
                  create table out1 (v int);\n\
                  insert into out1 values (0);\n\
                  create rule a on t when inserted then update out1 set v = (2 - v) end;\n\
                  create rule b on t when inserted then update out1 set v = 5 end;\n\
                  insert into t values (1);\n";

    let provenance = |c: &mut Client| -> Json {
        c.expect_ok(&op(r#"{"op":"stats"}"#))
            .expect("stats")
            .get("session")
            .and_then(|s| s.get("provenance"))
            .expect("session.provenance in stats")
            .clone()
    };
    let count = |j: &Json, key: &str| j.get(key).and_then(Json::as_i64).expect(key);

    let server = Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut explainer = Client::connect_ready(addr, READY).expect("connect");
    let mut bystander = Client::connect_ready(addr, READY).expect("connect");
    explainer.expect_ok(&load_op(script)).expect("load");
    bystander.expect_ok(&load_op(script)).expect("load");

    explainer
        .expect_ok(&op(r#"{"op":"explore"}"#))
        .expect("explore");
    let resp = explainer
        .expect_ok(&op(r#"{"op":"explain"}"#))
        .expect("explain");
    let witness = resp.get("witness").expect("witness field");
    assert_ne!(
        witness,
        &Json::Null,
        "divergent program must yield a witness"
    );
    assert_eq!(
        witness.get("replay_verified"),
        Some(&Json::Bool(true)),
        "{resp}"
    );

    let mine = provenance(&mut explainer);
    // One trace from the explore, one from the explain's re-exploration.
    assert_eq!(count(&mine, "traces_recorded"), 2, "{mine}");
    assert!(count(&mine, "choice_points") >= 1, "{mine}");
    assert_eq!(count(&mine, "witnesses_extracted"), 1, "{mine}");

    // The bystander shares the compiled program, not the counters.
    let other = provenance(&mut bystander);
    for key in [
        "traces_recorded",
        "choice_points",
        "witnesses_extracted",
        "minimization_steps",
    ] {
        assert_eq!(count(&other, key), 0, "bystander {key}: {other}");
    }

    explainer.quit().expect("quit");
    bystander.quit().expect("quit");
    server.shutdown();
    server.join();
}
