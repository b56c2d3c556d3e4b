//! # starling-server
//!
//! A multi-session rule-engine server: concurrent sessions over a
//! newline-delimited JSON wire protocol, with snapshot isolation and
//! per-request budgets. Dependency-light by design — `std::net` and
//! threads, no async runtime.
//!
//! * **Protocol** ([`protocol`]): one JSON object per line in, one
//!   response envelope per line out. Budget exhaustion and aborts are
//!   error *responses* with stable codes, never connection teardowns.
//! * **Sessions** ([`session`]): each connection owns an engine session
//!   seeded from a copy-on-write database snapshot; every mutating
//!   request is atomic (error ⇒ session unchanged).
//! * **Cache** ([`cache`]): compiled programs are shared across sessions,
//!   keyed by script digest — N clients of one program parse, seed, and
//!   compile once.
//! * **Server** ([`server`]): server-wide metrics and graceful
//!   drain-style shutdown.
//! * **Pool** ([`pool`]): the connection executor — a reactor thread
//!   (non-blocking accept + readiness polling) over a fixed worker pool,
//!   with pipelined requests per connection, budget-weighted fair
//!   scheduling, and admission control with a typed `overloaded`
//!   refusal.
//! * **Durability** ([`server::DurableRoot`]): a server started with a
//!   data dir serves named WAL+snapshot stores; sessions bind to one via
//!   `load`'s `"persist"` parameter (single writer per store), and every
//!   acknowledged commit is recoverable after a crash.
//! * **Client** ([`client`]): the blocking client used by `starling
//!   client`, the benchmark, and the tests.
//!
//! The protocol's `analyze` and `explore` results are produced by the
//! same serializers as the CLI's `--json` mode, so the two surfaces
//! cannot drift. See DESIGN.md §4f for the service model and the error
//! code table.

pub mod cache;
pub mod client;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod session;

pub use cache::ScriptCache;
pub use client::{Client, ClientError};
pub use pool::{raise_fd_limit, ServerConfig};
pub use protocol::{budget_from_request, err_response, ok_response, ErrorCode};
pub use server::{DurableRoot, Server, ServerMetrics, Shared};
pub use session::{ServerSession, SessionMetrics};
