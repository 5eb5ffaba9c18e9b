//! # pad-advisor: the fault-hardened layout-advisor service
//!
//! The rest of the workspace answers the paper's question *offline*:
//! run PAD or PADLITE over a loop nest, simulate, print a table. This
//! crate turns that analysis into a *service* with the operational
//! contract a compiler farm or CI fleet needs — analyze once, serve
//! millions, survive anything:
//!
//! * **NDJSON protocol** ([`protocol`]): one request frame per line in,
//!   one response line per frame out, over any `BufRead`/`Write` pair
//!   (the CLI wires stdin/stdout; tests wire in-memory pipes). Every
//!   malformed, oversized, or semantically invalid frame gets a typed
//!   error response — never silence, never a crash.
//! * **Fault isolation** ([`server`]): each analysis runs in its own
//!   isolation cell (the bench pool's `catch_unwind` + deadline
//!   watchdog). A panicking handler answers `internal`; a deadline
//!   blowout answers `timeout`, or, when the exact rung blew it in
//!   `auto` mode, falls back to the fast rung in a second cell.
//! * **Bounded admission**: a full queue sheds new work with an
//!   explicit `overloaded` response instead of buffering unboundedly.
//! * **Graceful degradation** ([`engine`]): exact simulation-backed
//!   answers (miss rates plus miss-ratio curves) when the deadline
//!   budget permits; the analytic fast rung, marked `degraded: true`,
//!   when it does not.
//! * **Crash-safe caching** ([`store`]): exact answers persist in a
//!   checksummed append-only journal and replay **bit-exactly** after a
//!   restart — a warm query never re-simulates, even across `kill -9`.
//!
//! Determinism is load-bearing throughout: fault schedules come from
//! seeded [`pad_bench::faults::FaultPlan`]s, deadlines trip on virtual
//! time, and the engine's serialization is byte-stable, so the entire
//! failure matrix is tested without sleeps or flakes.

#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod store;

pub use engine::{advise, exact_cost, resolve, Advice};
pub use json::{Json, JsonError};
pub use metrics::AdvisorMetrics;
/// The hand-rolled JSON layer now lives in `pad-trace-ingest` (both the
/// NDJSON trace reader and this protocol parse with it); re-exported so
/// `pad_advisor::json::...` paths keep working.
pub use pad_trace_ingest::json;
pub use protocol::{
    parse_request, AdviseRequest, Algorithm, ErrorKind, Mode, Op, Request, RequestError, Source,
};
pub use server::{Server, ServerConfig, DEADLINE_ENV, QUEUE_ENV, RATE_ENV, STORE_ENV, THREADS_ENV};
pub use store::Store;
