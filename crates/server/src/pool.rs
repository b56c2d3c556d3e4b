//! Event-driven connection handling: one reactor thread doing non-blocking
//! accept + readiness polling over `std::net`, a fixed worker pool executing
//! requests, budget-weighted fair scheduling, and admission control.
//!
//! ## Why this shape
//!
//! The PR-4 server was thread-per-connection with one request in flight per
//! session: 10k idle sessions cost 10k parked threads, and one session's
//! huge `explore` competed with cheap `certify`/`stats` calls only through
//! the OS scheduler. Here a connection is a parked state object — a read
//! buffer, a decode-ahead FIFO of parsed requests, and a write buffer —
//! owned by a single reactor thread, and a fixed pool of workers executes
//! requests in *weighted fair* order, so idle sessions cost a few hundred
//! bytes and a heavy request cannot starve its neighbors.
//!
//! ## Ordering and atomicity invariants
//!
//! * **Per-session serial execution.** A connection is scheduled at most
//!   once at a time (`ConnState::running`): a worker pops exactly the FIFO
//!   head, executes it against the session (one `Mutex<ServerSession>` per
//!   connection, never contended because of the schedule-once discipline),
//!   writes the response, and only then re-enqueues the connection if more
//!   requests are queued. Responses therefore come back in request order,
//!   and request atomicity (checkpoint/restore inside `handle_op`) is
//!   untouched — pipelining changes *when* requests are decoded, never how
//!   they execute.
//! * **Weighted fairness.** The scheduler is a virtual-finish-time queue:
//!   each connection is enqueued with key `max(vclock, conn.vtime) +
//!   weight(head request)`, where the weight derives from the request's own
//!   [`Budget`](starling_engine::Budget) (see [`weight_of`]). A session
//!   that just burned a 2M-consideration `exec` re-enters the queue behind
//!   every cheap op that arrived meanwhile; a fresh cheap session is served
//!   ahead of the heavy session's next request. This is
//!   smallest-budget-first without starvation in either direction.
//! * **Admission control.** A global gauge counts admitted-but-not-completed
//!   requests. When it reaches `max_inflight`, newly decoded requests are
//!   refused at decode time with a typed `overloaded` error response that
//!   still occupies the request's slot in the pipeline (a refusal is queued
//!   like any request, with its answer already made), so per-connection
//!   response order holds even across refusals.
//!
//! ## Fault containment
//!
//! A worker panic (a bug, or the test-only `crash` op) is caught with
//! `catch_unwind`: the connection is marked dead and closed (the client
//! sees EOF), the shared cache and scheduler are poison-hardened, and
//! dropping the connection drops its `ServerSession`, whose `Drop` releases
//! any durable store claim — a crashed session never wedges a named store.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use starling_sql::json::Json;

use crate::protocol::{budget_from_request, err_response, ErrorCode};
use crate::server::{dispatch, Reply, Shared};
use crate::session::ServerSession;

/// Hard cap on one request line. A corrupted or malicious client must not
/// make the reactor buffer unbounded input.
const MAX_LINE_BYTES: u64 = 8 * 1024 * 1024;

/// Server tuning knobs, all with serviceable defaults.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads executing requests. `0` = one per available core,
    /// minimum 2.
    pub workers: usize,
    /// Admission cap: maximum requests admitted but not yet completed
    /// (queued + executing) across all sessions. Further requests are
    /// refused with an `overloaded` error response. `0` = unlimited.
    pub max_inflight: usize,
    /// Enables the test-only `crash` op, which panics the executing worker.
    /// Used by fault-injection tests to prove panic containment; never
    /// enabled by the CLI.
    pub crash_op: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            max_inflight: 4096,
            crash_op: false,
        }
    }
}

impl ServerConfig {
    /// The effective worker count (resolves `workers == 0`).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .max(2)
    }
}

/// The scheduling weight of one request, in cheap-op units.
///
/// Budget-bearing ops derive their weight from the request's *own* budget:
/// what a client asks permission to spend is what it is scheduled by, so a
/// 2M-consideration `exec` enqueues far behind interactive `certify` calls
/// that arrived after it. Weights only shape ordering — execution still
/// enforces the budget exactly as before.
pub fn weight_of(op: &str, req: &Json) -> u64 {
    match op {
        "ping" | "stats" | "digest" | "quit" | "shutdown" | "crash" => 1,
        "certify" | "order" => 4,
        "load" | "analyze" | "explain" => 64,
        "exec" | "explore" => {
            let b = budget_from_request(req).unwrap_or_default();
            let cost = if op == "exec" {
                b.max_considerations as u64
            } else {
                // Exploration touches many databases per state; weight it
                // by states with a multiplier so a default explore ranks
                // above a default exec.
                (b.max_states as u64).saturating_mul(4)
            };
            (cost / 64).clamp(8, 1 << 20)
        }
        _ => 1,
    }
}

/// One decoded unit of work in a connection's pipeline FIFO.
pub(crate) enum Work {
    /// A parsed, admitted request. `counted` is false for control-plane
    /// ops that bypass admission and therefore never joined the `pending`
    /// gauge.
    Request {
        id: Option<Json>,
        op: String,
        req: Json,
        weight: u64,
        counted: bool,
    },
    /// A pre-rendered error response line (protocol error or `overloaded`
    /// refusal) that holds its place in the pipeline order but costs ~0 to
    /// "execute". Built only by [`Work::refusal`], so the worker counts
    /// every one as an error without looking at the text.
    Instant(String),
}

impl Work {
    /// An error response rendered at decode time.
    fn refusal(id: Option<&Json>, code: ErrorCode, message: &str) -> Work {
        Work::Instant(err_response(id, code, message, None))
    }

    fn weight(&self) -> u64 {
        match self {
            Work::Request { weight, .. } => *weight,
            Work::Instant(_) => 1,
        }
    }
}

/// The part of a connection shared between the reactor and the workers.
pub(crate) struct Conn {
    /// Pipeline FIFO + scheduling flags.
    state: Mutex<ConnState>,
    /// The session. Never contended: the schedule-once-at-a-time
    /// discipline means at most one worker touches it, and the reactor
    /// never does.
    session: Mutex<ServerSession>,
    /// Buffered write half; workers append + flush, the reactor drains
    /// leftovers on `POLLOUT`.
    writer: Mutex<WriteBuf>,
    /// Torn down (socket error or worker panic): the reactor must drop the
    /// connection; workers must not touch it further.
    dead: AtomicBool,
    /// The session ended cleanly (`quit`, or EOF with an empty queue).
    done: AtomicBool,
    /// The write buffer has bytes the kernel would not take; the reactor
    /// polls `POLLOUT` until it drains.
    want_pollout: AtomicBool,
}

struct ConnState {
    queue: VecDeque<Work>,
    /// Scheduled or executing right now (schedule-once discipline).
    running: bool,
    /// No more input will arrive (client EOF / half-close).
    eof: bool,
    /// Stop after the current response (a `quit` was served, or the
    /// connection died); remaining queued work is discarded.
    quit: bool,
    /// This connection's virtual finish time (weighted fair queueing).
    vtime: u64,
}

struct WriteBuf {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    // Worker panics must not wedge the server: every shared lock is
    // poison-tolerant. (A panicked worker marks its connection dead; the
    // data under the lock is either per-connection — dropped with it — or
    // append-only counters.)
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The weighted-fair scheduler: a virtual-finish-time priority queue of
/// connections with work, plus the admission gauge and observability
/// counters surfaced by the `stats` op.
pub(crate) struct Scheduler {
    heap: Mutex<BinaryHeap<Reverse<Entry>>>,
    available: Condvar,
    closed: AtomicBool,
    /// The fair queue's virtual clock: the largest key handed to a worker.
    vclock: AtomicU64,
    seq: AtomicU64,
    /// Admitted-but-not-completed requests (the admission gauge).
    pub(crate) pending: AtomicU64,
    /// Requests executing right now.
    pub(crate) executing: AtomicU64,
    /// Scheduler rounds: pops handed to workers. Fairness tests bound
    /// progress in rounds, not wall-clock.
    pub(crate) rounds: AtomicU64,
    /// Requests admitted past admission control.
    pub(crate) admitted: AtomicU64,
    /// Requests completed (response written or connection dead).
    pub(crate) completed: AtomicU64,
    /// Requests refused with `overloaded`.
    pub(crate) refused: AtomicU64,
}

struct Entry {
    key: u64,
    seq: u64,
    conn: Arc<Conn>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.seq) == (other.key, other.seq)
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.seq).cmp(&(other.key, other.seq))
    }
}

impl Scheduler {
    pub(crate) fn new() -> Self {
        Scheduler {
            heap: Mutex::new(BinaryHeap::new()),
            available: Condvar::new(),
            closed: AtomicBool::new(false),
            vclock: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            pending: AtomicU64::new(0),
            executing: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        }
    }

    /// Enqueues `conn` if it has queued work and is not already scheduled
    /// or finished. Callable from the reactor (after decoding) and from
    /// workers (after finishing an item with more queued).
    fn schedule(&self, conn: &Arc<Conn>) {
        let key = {
            let mut st = lock(&conn.state);
            if st.running || st.quit {
                return;
            }
            let Some(head) = st.queue.front() else { return };
            let head_weight = head.weight();
            st.running = true;
            let key = self
                .vclock
                .load(Ordering::Relaxed)
                .max(st.vtime)
                .saturating_add(head_weight);
            st.vtime = key;
            key
        };
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut heap = lock(&self.heap);
        heap.push(Reverse(Entry {
            key,
            seq,
            conn: Arc::clone(conn),
        }));
        drop(heap);
        self.available.notify_one();
    }

    /// Blocks until a connection is due or the scheduler is closed.
    fn pop(&self) -> Option<Arc<Conn>> {
        let mut heap = lock(&self.heap);
        loop {
            if let Some(Reverse(e)) = heap.pop() {
                self.vclock.fetch_max(e.key, Ordering::Relaxed);
                self.rounds.fetch_add(1, Ordering::Relaxed);
                return Some(e.conn);
            }
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            heap = self
                .available
                .wait(heap)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }

    pub(crate) fn stats_json(&self, cfg: &ServerConfig) -> Json {
        Json::obj([
            ("workers", Json::from(cfg.effective_workers() as i64)),
            ("max_inflight", Json::from(cfg.max_inflight as i64)),
            (
                "pending",
                Json::from(self.pending.load(Ordering::Relaxed) as i64),
            ),
            (
                "executing",
                Json::from(self.executing.load(Ordering::Relaxed) as i64),
            ),
            (
                "rounds",
                Json::from(self.rounds.load(Ordering::Relaxed) as i64),
            ),
            (
                "admitted",
                Json::from(self.admitted.load(Ordering::Relaxed) as i64),
            ),
            (
                "completed",
                Json::from(self.completed.load(Ordering::Relaxed) as i64),
            ),
            (
                "refused",
                Json::from(self.refused.load(Ordering::Relaxed) as i64),
            ),
        ])
    }
}

/// Drains a connection's queue, returning each dropped admitted request to
/// the admission gauge. Must only be called by whoever owns the
/// connection's scheduling turn (the running worker, or the reactor when
/// `running` is false).
fn discard_queue(conn: &Conn, sched: &Scheduler) {
    let mut st = lock(&conn.state);
    while let Some(item) = st.queue.pop_front() {
        if let Work::Request { counted, .. } = item {
            if counted {
                sched.pending.fetch_sub(1, Ordering::Relaxed);
            }
            sched.completed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Appends `line + "\n"` to the connection's write buffer — no syscall;
/// the worker flushes once per scheduling turn ([`flush_turn`]), so a
/// pipelined batch of cheap responses costs one `write(2)` instead of one
/// per response.
fn buffer_response(conn: &Conn, line: &str) {
    if conn.dead.load(Ordering::Relaxed) {
        return;
    }
    let mut w = lock(&conn.writer);
    w.buf.extend_from_slice(line.as_bytes());
    w.buf.push(b'\n');
}

/// Flushes a turn's buffered responses as much as the kernel will take;
/// leftovers are handed to the reactor via `POLLOUT`.
fn flush_turn(conn: &Conn, shared: &Shared) {
    if conn.dead.load(Ordering::Relaxed) {
        return;
    }
    match flush_writes(conn) {
        Ok(true) => {}
        Ok(false) => {
            conn.want_pollout.store(true, Ordering::SeqCst);
            shared.wake_reactor();
        }
        Err(_) => {
            conn.dead.store(true, Ordering::SeqCst);
            shared.wake_reactor();
        }
    }
}

/// Writes buffered bytes until done or the kernel pushes back. `Ok(true)`
/// means fully flushed.
fn flush_writes(conn: &Conn) -> std::io::Result<bool> {
    let mut w = lock(&conn.writer);
    let w = &mut *w;
    while w.pos < w.buf.len() {
        match w.stream.write(&w.buf[w.pos..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => w.pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    w.buf.clear();
    w.pos = 0;
    Ok(true)
}

/// How much queue weight one scheduling turn may consume. Pipelined cheap
/// items are batched into a single turn — one scheduler round, one
/// `write(2)` — while any item at or above the quantum always gets a turn
/// of its own. The quantum also bounds the unfairness a batch can cause:
/// a turn overruns the key it was scheduled at by less than one quantum,
/// and the overrun is charged to the connection's virtual time.
const TURN_QUANTUM: u64 = 128;

/// The worker loop: pop a connection, execute up to a quantum of its FIFO
/// in request order, flush the buffered responses once, reschedule. Exits
/// when the scheduler closes.
pub(crate) fn worker_loop(shared: Arc<Shared>) {
    let sched = shared.sched();
    while let Some(conn) = sched.pop() {
        if conn.dead.load(Ordering::Relaxed) {
            discard_queue(&conn, sched);
            finish_turn(&conn, sched, &shared, true, 0);
            continue;
        }
        let mut consumed = 0u64;
        let mut extra = 0u64; // weight beyond the head this turn was keyed on
        let mut ended = false;
        loop {
            let item = lock(&conn.state).queue.pop_front();
            let Some(item) = item else { break };
            if consumed > 0 {
                extra = extra.saturating_add(item.weight());
            }
            consumed = consumed.saturating_add(item.weight());
            match item {
                Work::Instant(line) => {
                    count_request(&mut lock(&conn.session), &shared, true);
                    buffer_response(&conn, &line);
                }
                Work::Request {
                    id,
                    op,
                    req,
                    counted,
                    ..
                } => {
                    sched.executing.fetch_add(1, Ordering::Relaxed);
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let mut session = lock(&conn.session);
                        let reply = dispatch(&op, id.as_ref(), &req, &mut session, &shared);
                        count_request(&mut session, &shared, reply.is_error);
                        reply
                    }));
                    sched.executing.fetch_sub(1, Ordering::Relaxed);
                    if counted {
                        sched.pending.fetch_sub(1, Ordering::Relaxed);
                    }
                    sched.completed.fetch_add(1, Ordering::Relaxed);
                    match outcome {
                        Ok(Reply { line, done, .. }) => {
                            buffer_response(&conn, &line);
                            if done {
                                lock(&conn.state).quit = true;
                                discard_queue(&conn, sched);
                                ended = true;
                            }
                        }
                        Err(_) => {
                            // The request panicked. Contain it: flush what
                            // the turn already answered (best effort), then
                            // this connection dies (client sees EOF);
                            // everyone else is unaffected.
                            let _ = flush_writes(&conn);
                            conn.dead.store(true, Ordering::SeqCst);
                            discard_queue(&conn, sched);
                            ended = true;
                        }
                    }
                }
            }
            if ended || consumed >= TURN_QUANTUM || conn.dead.load(Ordering::Relaxed) {
                break;
            }
        }
        flush_turn(&conn, &shared);
        finish_turn(&conn, sched, &shared, ended, extra);
    }
}

/// Counts one answered request against its session, and an error response
/// against both the session and the server. (`ServerMetrics::requests` was
/// already counted at decode time.)
fn count_request(session: &mut ServerSession, shared: &Shared, is_error: bool) {
    session.metrics.requests += 1;
    if is_error {
        session.metrics.errors += 1;
        shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Ends a worker's scheduling turn: either re-enqueue (more work queued)
/// or mark the connection idle/done and wake the reactor to sweep it.
/// `extra` is the weight the turn consumed beyond its scheduled head item,
/// charged to the connection's virtual time so batching cannot be used to
/// jump the fair-queueing order.
fn finish_turn(conn: &Arc<Conn>, sched: &Scheduler, shared: &Shared, ended: bool, extra: u64) {
    let wake = {
        let mut st = lock(&conn.state);
        st.vtime = st.vtime.saturating_add(extra);
        st.running = false;
        if ended || st.quit || conn.dead.load(Ordering::Relaxed) {
            conn.done.store(true, Ordering::SeqCst);
            true
        } else if st.queue.is_empty() {
            if st.eof {
                conn.done.store(true, Ordering::SeqCst);
                true
            } else {
                false
            }
        } else {
            drop(st);
            sched.schedule(conn);
            return;
        }
    };
    if wake {
        shared.wake_reactor();
    }
}

/// Reactor-private per-connection read state. The decode buffer lives here
/// — never shared, never locked.
struct Reader {
    conn: Arc<Conn>,
    stream: TcpStream,
    buf: Vec<u8>,
    /// Inside an over-long line: swallow bytes until the next newline,
    /// then emit one protocol error for the whole line.
    discarding: bool,
}

/// Per-connection backpressure caps: beyond these the reactor stops
/// reading the socket until the pipeline drains.
const MAX_QUEUED_PER_CONN: usize = 1024;
const MAX_WRITE_BUF: usize = 8 * 1024 * 1024;

impl Reader {
    /// Decodes freshly read bytes into pipeline work items: empty lines
    /// are skipped without a response, over-long lines get one `protocol`
    /// error after resyncing at the next newline, invalid UTF-8 and
    /// malformed JSON get a `protocol` error each.
    fn ingest(&mut self, chunk: &[u8], shared: &Shared) {
        let mut items: Vec<Work> = Vec::new();
        let mut i = 0;
        while i < chunk.len() {
            let nl = chunk[i..].iter().position(|&b| b == b'\n');
            if self.discarding {
                match nl {
                    Some(j) => {
                        self.discarding = false;
                        items.push(overlong_error());
                        i += j + 1;
                    }
                    None => break,
                }
                continue;
            }
            match nl {
                Some(j) => {
                    self.buf.extend_from_slice(&chunk[i..=i + j]);
                    i += j + 1;
                    if self.buf.len() as u64 > MAX_LINE_BYTES + 1 {
                        items.push(overlong_error());
                    } else if let Some(item) = decode_line(&self.buf, shared) {
                        items.push(item);
                    }
                    self.buf.clear();
                }
                None => {
                    self.buf.extend_from_slice(&chunk[i..]);
                    i = chunk.len();
                    if self.buf.len() as u64 > MAX_LINE_BYTES {
                        // Over the cap with no newline yet: drop the
                        // partial line and swallow until the resync point.
                        self.buf.clear();
                        self.buf.shrink_to(64 * 1024);
                        self.discarding = true;
                    }
                }
            }
        }
        if !items.is_empty() {
            shared
                .metrics
                .requests
                .fetch_add(items.len() as u64, Ordering::Relaxed);
            let mut st = lock(&self.conn.state);
            st.queue.extend(items);
        }
    }

    /// Reads until the kernel has no more bytes, backpressure kicks in, or
    /// the peer closes. Returns false when the connection saw EOF or died.
    fn read_ready(&mut self, shared: &Shared) -> bool {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if backpressured(&self.conn) {
                return true;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    if self.discarding {
                        // EOF mid-discard still answers the over-long line,
                        // even though the client may never read it.
                        self.discarding = false;
                        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                        lock(&self.conn.state).queue.push_back(overlong_error());
                    }
                    lock(&self.conn.state).eof = true;
                    return false;
                }
                Ok(n) => self.ingest(&chunk[..n], shared),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.conn.dead.store(true, Ordering::SeqCst);
                    return false;
                }
            }
        }
    }
}

fn backpressured(conn: &Conn) -> bool {
    if lock(&conn.state).queue.len() >= MAX_QUEUED_PER_CONN {
        return true;
    }
    lock(&conn.writer).buf.len() >= MAX_WRITE_BUF
}

fn overlong_error() -> Work {
    Work::refusal(
        None,
        ErrorCode::Protocol,
        "request line exceeds the 8 MiB limit",
    )
}

/// Decodes one complete line (newline included) into a work item, applying
/// admission control. `None` for blank lines.
fn decode_line(raw: &[u8], shared: &Shared) -> Option<Work> {
    let Ok(text) = std::str::from_utf8(raw) else {
        return Some(Work::refusal(
            None,
            ErrorCode::Protocol,
            "request line is not valid UTF-8",
        ));
    };
    let line = text.trim();
    if line.is_empty() {
        return None;
    }
    let req = match Json::parse(line) {
        Ok(j @ Json::Obj(_)) => j,
        Ok(_) => {
            return Some(Work::refusal(
                None,
                ErrorCode::Protocol,
                "request must be a JSON object",
            ))
        }
        Err(e) => {
            return Some(Work::refusal(
                None,
                ErrorCode::Protocol,
                &format!("bad JSON: {e}"),
            ))
        }
    };
    let id = req.get("id").cloned();
    let Some(op) = req.get("op").and_then(Json::as_str).map(str::to_owned) else {
        return Some(Work::refusal(
            id.as_ref(),
            ErrorCode::Protocol,
            "missing or non-string `op` field",
        ));
    };
    let sched = shared.sched();
    let cfg = shared.config();
    // Control-plane ops bypass admission (and the gauge): an overloaded
    // server must stay observable (`stats`), drainable (`shutdown`), and
    // leavable (`quit`). Everything else — `ping` included — is subject,
    // so the cap cannot be flooded around.
    if matches!(op.as_str(), "stats" | "shutdown" | "quit") {
        sched.admitted.fetch_add(1, Ordering::Relaxed);
        let weight = weight_of(&op, &req);
        return Some(Work::Request {
            id,
            op,
            req,
            weight,
            counted: false,
        });
    }
    if cfg.max_inflight > 0 && sched.pending.load(Ordering::Relaxed) >= cfg.max_inflight as u64 {
        sched.refused.fetch_add(1, Ordering::Relaxed);
        return Some(Work::refusal(
            id.as_ref(),
            ErrorCode::Overloaded,
            &format!(
                "server overloaded: {} requests in flight (max {}); retry later",
                sched.pending.load(Ordering::Relaxed),
                cfg.max_inflight
            ),
        ));
    }
    sched.pending.fetch_add(1, Ordering::Relaxed);
    sched.admitted.fetch_add(1, Ordering::Relaxed);
    let weight = weight_of(&op, &req);
    Some(Work::Request {
        id,
        op,
        req,
        weight,
        counted: true,
    })
}

/// The reactor: non-blocking accept, readiness-driven reads and decode,
/// leftover-write flushing, and connection sweeping. Exits once a drain was
/// initiated and the last session ended, then closes the scheduler so the
/// workers drain too.
pub(crate) fn reactor_loop(listener: TcpListener, wake_rx: sys::WakeRx, shared: Arc<Shared>) {
    let _ = listener.set_nonblocking(true);
    let mut readers: Vec<Reader> = Vec::new();
    loop {
        let mut fds = Vec::with_capacity(readers.len() + 2);
        fds.push(sys::pollfd(sys::raw(&wake_rx), sys::POLLIN));
        fds.push(sys::pollfd(sys::raw(&listener), sys::POLLIN));
        let mut polled: Vec<usize> = Vec::with_capacity(readers.len());
        for (i, r) in readers.iter().enumerate() {
            if r.conn.dead.load(Ordering::Relaxed) {
                continue;
            }
            let mut events = 0i16;
            if !r.conn.done.load(Ordering::Relaxed) {
                let st = lock(&r.conn.state);
                let reading_ok = !st.eof
                    && st.queue.len() < MAX_QUEUED_PER_CONN
                    && lock(&r.conn.writer).buf.len() < MAX_WRITE_BUF;
                drop(st);
                if reading_ok {
                    events |= sys::POLLIN;
                }
            }
            if r.conn.want_pollout.load(Ordering::SeqCst) {
                events |= sys::POLLOUT;
            }
            if events != 0 {
                fds.push(sys::pollfd(sys::raw(&r.stream), events));
                polled.push(i);
            }
        }
        // The timeout doubles as a liveness tick: backpressured or
        // event-less connections are re-examined at least this often.
        let _ = sys::poll_fds(&mut fds, 250);

        if fds[0].revents != 0 {
            sys::drain_wake(&wake_rx);
        }
        if fds[1].revents != 0 {
            accept_ready(&listener, &mut readers, &shared);
        }
        for (k, &i) in polled.iter().enumerate() {
            let revents = fds[k + 2].revents;
            if revents == 0 {
                continue;
            }
            let r = &mut readers[i];
            if revents & sys::POLLOUT != 0 {
                match flush_writes(&r.conn) {
                    Ok(true) => r.conn.want_pollout.store(false, Ordering::SeqCst),
                    Ok(false) => {}
                    Err(_) => {
                        r.conn.dead.store(true, Ordering::SeqCst);
                    }
                }
            }
            if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR | sys::POLLNVAL) != 0 {
                let _ = r.read_ready(&shared);
                shared.sched().schedule(&r.conn);
            }
        }
        sweep(&mut readers, &shared);
        if shared.is_shutting_down() && readers.is_empty() {
            break;
        }
    }
    shared.sched().close();
}

/// Accepts every pending connection. During a drain new arrivals get the
/// one-line `shutting_down` refusal.
fn accept_ready(listener: &TcpListener, readers: &mut Vec<Reader>, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.is_shutting_down() {
                    refuse(stream);
                    continue;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .active_sessions
                    .fetch_add(1, Ordering::Relaxed);
                let mut session = ServerSession::new();
                session.set_durable_root(shared.durable.clone());
                let conn = Arc::new(Conn {
                    state: Mutex::new(ConnState {
                        queue: VecDeque::new(),
                        running: false,
                        eof: false,
                        quit: false,
                        vtime: 0,
                    }),
                    session: Mutex::new(session),
                    writer: Mutex::new(WriteBuf {
                        stream: write_half,
                        buf: Vec::new(),
                        pos: 0,
                    }),
                    dead: AtomicBool::new(false),
                    done: AtomicBool::new(false),
                    want_pollout: AtomicBool::new(false),
                });
                readers.push(Reader {
                    conn,
                    stream,
                    buf: Vec::new(),
                    discarding: false,
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

fn refuse(mut stream: TcpStream) {
    let line = err_response(
        None,
        ErrorCode::ShuttingDown,
        "server is draining; no new connections",
        None,
    );
    let _ = writeln!(stream, "{line}");
}

/// Removes finished connections. A connection leaves when it is dead, done,
/// or saw EOF with nothing queued — but never while a worker holds its
/// scheduling turn (the worker finishes, marks it, and wakes the reactor).
fn sweep(readers: &mut Vec<Reader>, shared: &Shared) {
    readers.retain_mut(|r| {
        let dead = r.conn.dead.load(Ordering::SeqCst);
        let done = r.conn.done.load(Ordering::SeqCst);
        let (running, idle_eof) = {
            let st = lock(&r.conn.state);
            (st.running, st.eof && st.queue.is_empty())
        };
        if running || !(dead || done || idle_eof) {
            return true;
        }
        if dead {
            discard_queue(&r.conn, shared.sched());
        } else {
            // Push out any buffered response bytes before closing (e.g. a
            // `quit` ack written just before the worker marked done). If the
            // kernel pushes back, keep the connection until POLLOUT drains
            // it — a client must always receive the responses to requests
            // the server accepted.
            match flush_writes(&r.conn) {
                Ok(true) => {}
                Ok(false) => {
                    r.conn.want_pollout.store(true, Ordering::SeqCst);
                    return true;
                }
                Err(_) => {}
            }
        }
        shared
            .metrics
            .active_sessions
            .fetch_sub(1, Ordering::Relaxed);
        // Dropping the Reader drops the read half; the write half and the
        // session go when the workers' Arc clones do. A panicking session
        // teardown (e.g. fault-injected durable release) must not take the
        // reactor down.
        false
    });
}

/// Raises the process's open-file soft limit toward `want` (capped by the
/// hard limit). Returns the effective soft limit. Tests and benches driving
/// thousands of concurrent sockets from one process call this first; a
/// plain no-op on non-Unix platforms.
pub fn raise_fd_limit(want: u64) -> u64 {
    sys::raise_fd_limit(want)
}

const _: () = {
    // Sessions migrate across worker threads with their connection.
    fn assert_send<T: Send>() {}
    #[allow(dead_code)]
    fn check() {
        assert_send::<ServerSession>();
    }
};

/// Readiness polling over raw fds with no external crates: `poll(2)`
/// declared directly against the system libc that is already linked, plus
/// a self-pipe (socketpair) the workers use to wake the reactor.
#[cfg(unix)]
pub(crate) mod sys {
    use std::io::Read;
    use std::os::unix::io::AsRawFd;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(target_os = "linux")]
    type NfdsT = u64;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    pub fn pollfd(fd: i32, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    pub fn raw(sock: &impl AsRawFd) -> i32 {
        sock.as_raw_fd()
    }

    /// `poll(2)` with EINTR retry. `revents` of every fd is valid after.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        loop {
            // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
            // structs laid out as `struct pollfd`; the pointer and length
            // describe exactly that slice, and poll(2) writes only the
            // `revents` of those entries, for the duration of the call.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    pub type WakeRx = std::os::unix::net::UnixStream;

    /// The reactor wake channel: workers write a byte, the reactor drains.
    pub struct Waker {
        tx: std::os::unix::net::UnixStream,
    }

    impl Waker {
        pub fn wake(&self) {
            // WouldBlock means a wake is already pending — good enough.
            let _ = std::io::Write::write(&mut (&self.tx), &[1u8]);
        }
    }

    pub fn wake_pair() -> std::io::Result<(Waker, WakeRx)> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Waker { tx }, rx))
    }

    pub fn drain_wake(rx: &WakeRx) {
        let mut rx = rx;
        let mut buf = [0u8; 256];
        loop {
            match rx.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(_) => continue,
            }
        }
    }

    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    const RLIMIT_NOFILE: i32 = 7;

    pub fn raise_fd_limit(want: u64) -> u64 {
        let mut lim = RLimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a live, exclusively borrowed `#[repr(C)]` pair of
        // 64-bit limits — `struct rlimit` on the 64-bit Unix targets we
        // build for — and getrlimit(2) writes only that struct.
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return want;
        }
        if lim.cur >= want {
            return lim.cur;
        }
        let target = want.min(lim.max);
        let new = RLimit {
            cur: target,
            max: lim.max,
        };
        // SAFETY: `new` is a live `struct rlimit`-shaped value that
        // setrlimit(2) only reads; `cur <= max` holds by construction.
        if unsafe { setrlimit(RLIMIT_NOFILE, &new) } == 0 {
            target
        } else {
            lim.cur
        }
    }
}

#[cfg(not(unix))]
compile_error!("starling-server needs poll(2)");
