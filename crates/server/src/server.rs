//! The TCP server: shared compiled-program cache, server-wide metrics, and
//! graceful shutdown, over the pooled executor — one reactor thread doing
//! non-blocking accept and readiness polling plus a fixed worker pool with
//! budget-weighted fair scheduling and admission control (see
//! [`crate::pool`]). Idle sessions cost no thread; requests may be pipelined
//! per connection.
//!
//! ## Shutdown protocol
//!
//! `shutdown` (the op or [`Server::shutdown`]) flips a flag and wakes the
//! reactor through its wake pipe. From then on new connections are
//! answered with a single `shutting_down` error line and dropped; existing
//! sessions keep being served until their clients disconnect (`quit` or
//! EOF) — including responses to requests already decoded into a session's
//! pipeline FIFO, which are executed and delivered, never dropped.
//! [`Server::join`] returns only after every executor thread has drained —
//! no session is ever torn down mid-request.

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use starling_sql::json::Json;
use starling_storage::SyncPolicy;

use crate::cache::ScriptCache;
use crate::pool::{self, sys, Scheduler, ServerConfig};
use crate::protocol::{err_response, ok_response};
use crate::session::ServerSession;

/// The server's durable data directory: each named store is a subdirectory
/// holding a WAL + snapshot pair, attachable by at most one session at a
/// time (single-writer; the WAL has one append cursor).
pub struct DurableRoot {
    dir: PathBuf,
    sync: SyncPolicy,
    attached: Mutex<BTreeSet<String>>,
}

impl DurableRoot {
    /// A root at `dir` with the given sync policy for all stores.
    pub fn new(dir: impl Into<PathBuf>, sync: SyncPolicy) -> Self {
        DurableRoot {
            dir: dir.into(),
            sync,
            attached: Mutex::new(BTreeSet::new()),
        }
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sync policy stores are opened with.
    pub fn sync(&self) -> SyncPolicy {
        self.sync
    }

    /// Claims exclusive attachment of `name`; false if another session
    /// holds it.
    pub(crate) fn claim(&self, name: &str) -> bool {
        self.attached
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_owned())
    }

    /// Releases an attachment claimed by [`DurableRoot::claim`].
    pub(crate) fn release(&self, name: &str) {
        self.attached
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name);
    }
}

/// Server-wide counters, reported under `"server"` by the `stats` op.
#[derive(Default)]
pub struct ServerMetrics {
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Sessions currently connected.
    pub active_sessions: AtomicU64,
    /// Requests handled across all sessions.
    pub requests: AtomicU64,
    /// Error responses across all sessions.
    pub errors: AtomicU64,
}

/// State shared by the executor threads (reactor + worker pool).
pub struct Shared {
    /// The compiled-program cache (script digest → loaded program).
    pub cache: ScriptCache,
    /// Server-wide counters.
    pub metrics: ServerMetrics,
    /// The durable data directory, when the server was started with one.
    pub durable: Option<Arc<DurableRoot>>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    config: ServerConfig,
    sched: Scheduler,
    waker: sys::Waker,
}

impl Shared {
    /// Whether the server is draining.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The fair scheduler / admission state.
    pub(crate) fn sched(&self) -> &Scheduler {
        &self.sched
    }

    /// Wakes the reactor out of its poll.
    pub(crate) fn wake_reactor(&self) {
        self.waker.wake();
    }

    /// Starts draining: refuse new connections, let existing sessions
    /// finish. Idempotent. The reactor checks the flag every turn, so the
    /// wake is all it takes for it to notice.
    pub fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_reactor();
    }

    fn stats_json(&self) -> Json {
        let (hits, misses) = self.cache.stats();
        Json::obj([
            (
                "connections",
                Json::from(self.metrics.connections.load(Ordering::Relaxed) as i64),
            ),
            (
                "active_sessions",
                Json::from(self.metrics.active_sessions.load(Ordering::Relaxed) as i64),
            ),
            (
                "requests",
                Json::from(self.metrics.requests.load(Ordering::Relaxed) as i64),
            ),
            (
                "errors",
                Json::from(self.metrics.errors.load(Ordering::Relaxed) as i64),
            ),
            (
                "cache",
                Json::obj([
                    ("programs", Json::from(self.cache.len())),
                    ("hits", Json::from(hits as i64)),
                    ("misses", Json::from(misses as i64)),
                ]),
            ),
            ("scheduler", self.sched.stats_json(&self.config)),
        ])
    }
}

/// A running server: a reactor thread plus a fixed worker pool.
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port — see
    /// [`Server::local_addr`]) and starts accepting. In-memory only; use
    /// [`Server::bind_with`] for a durable server.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Server> {
        Server::bind_with(addr, None)
    }

    /// Binds `addr` with an optional durable data directory. Sessions of a
    /// durable server may pass `"persist": "<name>"` to `load` to bind
    /// their state to the named store under the root.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        durable: Option<DurableRoot>,
    ) -> std::io::Result<Server> {
        Server::bind_cfg(addr, durable, ServerConfig::default())
    }

    /// [`Server::bind_with`] with explicit tuning: worker count, admission
    /// cap, test hooks.
    pub fn bind_cfg<A: ToSocketAddrs>(
        addr: A,
        durable: Option<DurableRoot>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let (waker, wake_rx) = sys::wake_pair()?;
        let shared = Arc::new(Shared {
            cache: ScriptCache::new(),
            metrics: ServerMetrics::default(),
            durable: durable.map(Arc::new),
            shutdown: AtomicBool::new(false),
            addr: listener.local_addr()?,
            config,
            sched: Scheduler::new(),
            waker,
        });
        let mut threads = Vec::new();
        for _ in 0..config.effective_workers() {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || pool::worker_loop(shared)));
        }
        let shared_r = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            pool::reactor_loop(listener, wake_rx, shared_r)
        }));
        Ok(Server { shared, threads })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The shared state (cache, metrics, shutdown flag).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Starts draining (see [`Shared::initiate_shutdown`]).
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Waits until every executor thread has exited and every session has
    /// drained. Call [`Server::shutdown`] first (or have a client send the
    /// `shutdown` op), or this blocks forever.
    pub fn join(mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

/// One rendered response: the line to send, whether it is an error
/// response (known from the op's `Result`, never re-read from the text),
/// and whether the connection is done.
pub(crate) struct Reply {
    pub line: String,
    pub is_error: bool,
    pub done: bool,
}

/// Executes one parsed request against a session; the worker pool calls it
/// with requests decoded ahead by the reactor.
pub(crate) fn dispatch(
    op: &str,
    id: Option<&Json>,
    req: &Json,
    session: &mut ServerSession,
    shared: &Shared,
) -> Reply {
    let mut done = false;
    let result = match op {
        "stats" => Ok(Json::obj([
            ("server", shared.stats_json()),
            ("session", session.stats_json()),
        ])),
        "shutdown" => {
            shared.initiate_shutdown();
            Ok(Json::obj([("shutting_down", Json::Bool(true))]))
        }
        "quit" => {
            done = true;
            Ok(Json::obj([("bye", Json::Bool(true))]))
        }
        // Test-only fault hook (off unless `ServerConfig::crash_op`): a
        // deliberate worker panic, proving panic containment end to end.
        "crash" if shared.config.crash_op => {
            panic!("crash op: deliberate worker panic (test hook)")
        }
        _ => session.handle_op(op, req, &shared.cache),
    };
    let (line, is_error) = match result {
        Ok(result) => (ok_response(id, result), false),
        Err((code, message, data)) => (err_response(id, code, &message, data), true),
    };
    Reply {
        line,
        is_error,
        done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    const SCRIPT: &str = "create table t (x int); \
                          create rule cap on t when inserted \
                            if exists (select * from t where x > 10) \
                            then update t set x = 10 where x > 10 end; \
                          insert into t values (99);";

    #[test]
    fn end_to_end_over_tcp() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let mut c = Client::connect(addr).unwrap();
        let r = c
            .call(&Json::parse(r#"{"id":1,"op":"ping"}"#).unwrap())
            .unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("id"), Some(&Json::Int(1)));

        let load = Json::obj([("op", Json::from("load")), ("script", Json::from(SCRIPT))]);
        let r = c.call(&load).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));

        let r = c
            .call(&Json::parse(r#"{"op":"exec","sql":"insert into t values (50);"}"#).unwrap())
            .unwrap();
        let run = r.get("result").and_then(|x| x.get("run")).unwrap();
        assert_eq!(run.get("outcome").and_then(Json::as_str), Some("quiescent"));
        assert_eq!(run.get("fired").and_then(Json::as_i64), Some(1));

        // A second client of the same script hits the cache and sees its
        // own snapshot (not the first client's exec).
        let mut c2 = Client::connect(addr).unwrap();
        let r = c2.call(&load).unwrap();
        let result = r.get("result").unwrap();
        assert_eq!(result.get("cached"), Some(&Json::Bool(true)));
        let d1 = c.call(&Json::parse(r#"{"op":"digest"}"#).unwrap()).unwrap();
        let d2 = c2
            .call(&Json::parse(r#"{"op":"digest"}"#).unwrap())
            .unwrap();
        assert_ne!(d1.get("result"), d2.get("result"));

        // stats reflect both sessions and the cache hit.
        let r = c.call(&Json::parse(r#"{"op":"stats"}"#).unwrap()).unwrap();
        let srv = r.get("result").and_then(|x| x.get("server")).unwrap();
        assert_eq!(srv.get("active_sessions").and_then(Json::as_i64), Some(2));
        let cache = srv.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_i64), Some(1));

        // Graceful shutdown: existing sessions drain, new connects refused.
        let r = c
            .call(&Json::parse(r#"{"op":"shutdown"}"#).unwrap())
            .unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        let mut late = Client::connect(addr).unwrap();
        let r = late.read_response().unwrap();
        assert_eq!(
            r.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("shutting_down")
        );
        // The draining server still answers the existing sessions.
        let r = c2.call(&Json::parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        drop(late);
        c.quit().unwrap();
        c2.quit().unwrap();
        server.join();
    }

    #[test]
    fn garbage_bytes_and_half_close_never_kill_a_worker() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        // Invalid UTF-8 gets a protocol error, and the connection survives.
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&[0xff, 0xfe, 0x80, b'\n']).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("protocol")
        );
        raw.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));

        // A half-closed connection (client shut its write side mid-session)
        // reads as EOF and ends the worker cleanly.
        let half = TcpStream::connect(addr).unwrap();
        half.shutdown(std::net::Shutdown::Write).unwrap();

        // An over-long line gets one protocol error for the whole line, and
        // the connection resyncs at the next newline.
        let mut big = TcpStream::connect(addr).unwrap();
        let chunk = vec![b'a'; 1 << 20];
        for _ in 0..9 {
            big.write_all(&chunk).unwrap();
        }
        big.write_all(b"\n{\"op\":\"ping\"}\n").unwrap();
        let mut big_reader = BufReader::new(big.try_clone().unwrap());
        line.clear();
        big_reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        assert_eq!(
            resp.get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .map(|m| m.contains("8 MiB")),
            Some(true),
            "{resp}"
        );
        line.clear();
        big_reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "resynced");

        // If any worker had panicked or hung, the drain would never finish.
        drop((raw, reader, half, big, big_reader));
        server.shutdown();
        server.join();
    }

    #[test]
    fn durable_server_recovers_after_restart() {
        use starling_storage::SyncPolicy;
        let dir = std::env::temp_dir().join(format!("starling-srv-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let server = Server::bind_with(
            "127.0.0.1:0",
            Some(DurableRoot::new(&dir, SyncPolicy::Always)),
        )
        .unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let load = Json::obj([
            ("op", Json::from("load")),
            ("script", Json::from(SCRIPT)),
            ("persist", Json::from("store1")),
        ]);
        let r = c.expect_ok(&load).unwrap();
        assert_eq!(r.get("persist").and_then(Json::as_str), Some("store1"));
        c.expect_ok(&Json::parse(r#"{"op":"exec","sql":"insert into t values (3);"}"#).unwrap())
            .unwrap();
        let before = c
            .expect_ok(&Json::parse(r#"{"op":"digest"}"#).unwrap())
            .unwrap();
        c.quit().unwrap();
        server.shutdown();
        server.join();

        // "Restart": a new server over the same data dir.
        let server = Server::bind_with(
            "127.0.0.1:0",
            Some(DurableRoot::new(&dir, SyncPolicy::Always)),
        )
        .unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let attach = Json::obj([
            ("op", Json::from("load")),
            ("persist", Json::from("store1")),
        ]);
        let r = c.expect_ok(&attach).unwrap();
        assert_eq!(r.get("recovered"), Some(&Json::Bool(true)));
        let after = c
            .expect_ok(&Json::parse(r#"{"op":"digest"}"#).unwrap())
            .unwrap();
        assert_eq!(before, after);
        c.quit().unwrap();
        server.shutdown();
        server.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_get_protocol_errors() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for bad in ["not json", "[1,2]", r#"{"no_op":true}"#, r#"{"op":7}"#] {
            let r = c.raw_request(bad).unwrap();
            let r = Json::parse(&r).unwrap();
            assert_eq!(r.get("ok"), Some(&Json::Bool(false)), "{bad}");
            assert_eq!(
                r.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some("protocol"),
                "{bad}"
            );
        }
        // The connection survived all of that.
        let r = c.call(&Json::parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        server.shutdown();
        c.quit().unwrap();
        server.join();
    }

    fn error_counts(c: &mut Client) -> (i64, i64) {
        let r = c
            .expect_ok(&Json::parse(r#"{"op":"stats"}"#).unwrap())
            .unwrap();
        let errors = |part: &str| {
            r.get(part)
                .and_then(|p| p.get("errors"))
                .and_then(Json::as_i64)
                .unwrap()
        };
        (errors("session"), errors("server"))
    }

    #[test]
    fn errors_are_counted_from_the_result_not_the_response_text() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let mut c = Client::connect(server.local_addr()).unwrap();

        // The id is echoed verbatim, so this *successful* response contains
        // the bytes `"ok":false`.
        let r = c.raw_request(r#"{"id":{"ok":false},"op":"ping"}"#).unwrap();
        assert!(r.contains(r#""ok":false"#), "{r}");
        let r = Json::parse(&r).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(error_counts(&mut c), (0, 0));

        // A real protocol error bumps both counters by exactly one.
        let r = Json::parse(&c.raw_request("not json").unwrap()).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(error_counts(&mut c), (1, 1));
        // So does an error from an op handler.
        let r = Json::parse(&c.raw_request(r#"{"op":"no_such_op"}"#).unwrap()).unwrap();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(error_counts(&mut c), (2, 2));

        server.shutdown();
        c.quit().unwrap();
        server.join();
    }

    /// `join` on a helper thread, so a reactor that missed the shutdown
    /// fails the test instead of hanging it.
    fn join_within(server: Server, limit: Duration) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        let joiner = std::thread::spawn(move || {
            server.join();
            let _ = tx.send(());
        });
        let joined = rx.recv_timeout(limit).is_ok();
        if joined {
            joiner.join().unwrap();
        }
        joined
    }

    #[test]
    fn shutdown_wakes_the_reactor_with_no_connections() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        server.shutdown();
        assert!(join_within(server, Duration::from_secs(10)));
    }

    #[test]
    fn shutdown_with_a_parked_connection_drains_when_it_leaves() {
        let server = Server::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let mut parked = Client::connect(addr).unwrap();
        parked
            .expect_ok(&Json::parse(r#"{"op":"ping"}"#).unwrap())
            .unwrap();

        // The parked session holds the drain open: the reactor has seen
        // the flag (late arrivals are refused) and still serves it.
        server.shutdown();
        let mut late = Client::connect(addr).unwrap();
        let r = late.read_response().unwrap();
        assert_eq!(
            r.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("shutting_down")
        );
        parked
            .expect_ok(&Json::parse(r#"{"op":"ping"}"#).unwrap())
            .unwrap();

        // EOF from the last session is what ends the drain.
        drop(parked);
        assert!(join_within(server, Duration::from_secs(10)));
    }
}
