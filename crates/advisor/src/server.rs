//! The long-running advisor server: NDJSON frames in, NDJSON answers
//! out, and no input — malformed, oversized, adversarial, or merely
//! unlucky — takes the process down.
//!
//! # Architecture
//!
//! The calling thread reads frames and answers control ops (`ping`,
//! `stats`, `metrics`, `shutdown`) plus every refusal inline; `advise`
//! work is
//! handed to a pool of worker threads through a **bounded** queue.
//! When the queue is full the frame is shed immediately with a typed
//! `overloaded` response — the server never buffers unboundedly and
//! never blocks its intake on slow analyses.
//!
//! Each analysis runs fault-isolated in one bench-pool cell: a
//! panicking handler is caught and answered as a typed `internal` error;
//! a deadline blowout is caught by the pool's watchdog and — when the
//! exact rung blew it in `auto` mode — answered from the *fast* rung
//! (`degraded: true`), run in a second cell. The same virtual-clock
//! machinery the sweep harness uses makes deadline behavior testable
//! without sleeping: an injected `FaultPlan` delay trips the watchdog
//! deterministically.
//!
//! Exact answers are cached in a crash-safe persistent [`Store`]; a
//! cache hit splices the stored bytes into the response verbatim, so a
//! restarted server answers repeated queries bit-exactly without
//! re-simulating.
//!
//! Each server tallies its traffic in its own [`AdvisorMetrics`],
//! always: the `stats` op is a view of those families, and the
//! `metrics` op renders them merged with the process registry.

use std::io::{self, BufRead, Write};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Mutex;
use std::time::Duration;

use pad_bench::faults::FaultPlan;
use pad_bench::pool::{self, CellOutcome};
use pad_telemetry as telemetry;

use crate::engine::{self, Advice};
use crate::json::{self, Json};
use crate::metrics::AdvisorMetrics;
use crate::protocol::{
    parse_request, AdviseRequest, Algorithm, ErrorKind, Mode, Op, RequestError, Source,
};
use crate::store::Store;

/// Worker thread count (`0`/unset = the bench pool's thread count).
pub const THREADS_ENV: &str = "RIVERA_ADVISOR_THREADS";
/// Admission queue capacity (requests buffered beyond the in-flight
/// ones before shedding starts).
pub const QUEUE_ENV: &str = "RIVERA_ADVISOR_QUEUE";
/// Per-request deadline in milliseconds (`0` = no deadline).
pub const DEADLINE_ENV: &str = "RIVERA_ADVISOR_DEADLINE_MS";
/// Calibrated simulation rate (accesses/second) used to budget exact
/// answers against the deadline.
pub const RATE_ENV: &str = "RIVERA_ADVISOR_RATE";
/// Path of the persistent answer store (unset = in-memory only).
pub const STORE_ENV: &str = "RIVERA_ADVISOR_STORE";

/// Server tuning; build with [`ServerConfig::default`] or
/// [`ServerConfig::from_env`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Analysis worker threads.
    pub threads: usize,
    /// Bounded admission queue capacity.
    pub queue: usize,
    /// Per-request deadline (`None` = unbounded).
    pub deadline: Option<Duration>,
    /// Simulated accesses per second assumed when budgeting exact
    /// answers against the deadline.
    pub rate: f64,
    /// Largest accepted request frame, in bytes.
    pub max_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 2,
            queue: 64,
            deadline: Some(Duration::from_secs(2)),
            rate: 20e6,
            max_frame: 256 * 1024,
        }
    }
}

impl ServerConfig {
    /// Reads tuning from `RIVERA_ADVISOR_*` environment variables,
    /// falling back to defaults for unset or unparsable values.
    pub fn from_env() -> Self {
        let mut config = ServerConfig::default();
        let get = |name: &str| std::env::var(name).ok();
        if let Some(n) = get(THREADS_ENV).and_then(|v| v.parse::<usize>().ok()) {
            config.threads = if n == 0 { pool::thread_count() } else { n };
        }
        if let Some(n) = get(QUEUE_ENV).and_then(|v| v.parse::<usize>().ok()) {
            config.queue = n.max(1);
        }
        if let Some(ms) = get(DEADLINE_ENV).and_then(|v| v.parse::<u64>().ok()) {
            config.deadline = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(rate) = get(RATE_ENV).and_then(|v| v.parse::<f64>().ok()) {
            if rate.is_finite() && rate > 0.0 {
                config.rate = rate;
            }
        }
        config
    }
}

/// A test-injectable replacement for the engine: receives the frame
/// index and the validated request, runs *inside* the fault isolation
/// (so its panics and stalls exercise the real recovery paths).
pub type AdviseHandler =
    Box<dyn Fn(usize, &AdviseRequest) -> Result<Advice, RequestError> + Send + Sync>;

/// One advise job queued for the worker pool.
struct Job {
    frame: usize,
    id: Json,
    request: AdviseRequest,
    /// Receipt timestamp ([`telemetry::now_us`]); request latency and
    /// the SLO verdict measure from here, so queue wait counts.
    received: u64,
}

/// The advisor server. One instance serves one connection at a time
/// (`serve` borrows the streams); state (store, metrics) persists
/// across connections.
pub struct Server {
    config: ServerConfig,
    store: Store,
    metrics: AdvisorMetrics,
    faults: FaultPlan,
    handler: Option<AdviseHandler>,
}

impl Server {
    /// A server with the given tuning and an in-memory store.
    pub fn new(config: ServerConfig) -> Server {
        Server::with_store(config, Store::in_memory())
    }

    /// A server answering from (and recording to) `store`.
    pub fn with_store(config: ServerConfig, store: Store) -> Server {
        Server {
            config,
            store,
            metrics: AdvisorMetrics::new(),
            faults: FaultPlan::none(),
            handler: None,
        }
    }

    /// Injects a deterministic fault plan, keyed by request frame index:
    /// frame `i`'s first rung runs as if the plan's cell `i` faults were
    /// its own. The `auto` fallback to the fast rung runs clean, as a
    /// real fallback to a microsecond analysis would. Frame-level faults
    /// ([`FaultPlan::frame_fault`]) are applied by test harnesses to the
    /// input stream, not here.
    pub fn with_faults(mut self, faults: FaultPlan) -> Server {
        self.faults = faults;
        self
    }

    /// Replaces the analysis engine for tests (see [`AdviseHandler`]).
    pub fn with_handler(mut self, handler: AdviseHandler) -> Server {
        self.handler = Some(handler);
        self
    }

    /// This server's metric families: its request accounting, which
    /// the `stats` and `metrics` ops report and tests assert on.
    pub fn metrics(&self) -> &AdvisorMetrics {
        &self.metrics
    }

    /// The answer store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Serves one connection: reads NDJSON frames from `input` until
    /// EOF or a `shutdown` op, writing one response line per frame to
    /// `output`. Control ops answer in receive order; advise answers
    /// complete in analysis order (clients correlate by `id`). On
    /// shutdown every admitted request is drained before the
    /// acknowledgment is written.
    ///
    /// # Errors
    ///
    /// Propagates read failures from `input`; write failures are
    /// swallowed (a vanished client must not kill the server loop).
    pub fn serve<R: BufRead, W: Write + Send>(&self, mut input: R, output: W) -> io::Result<()> {
        let out = Mutex::new(output);
        let (tx, rx) = mpsc::sync_channel::<Job>(self.config.queue);
        let rx = Mutex::new(rx);
        let mut shutdown_id: Option<Json> = None;

        std::thread::scope(|scope| -> io::Result<()> {
            for _ in 0..self.config.threads.max(1) {
                scope.spawn(|| self.worker(&rx, &out));
            }
            let result = self.read_loop(&mut input, &out, &tx, &mut shutdown_id);
            // Closing the channel lets workers drain the queue and exit.
            drop(tx);
            result
        })?;

        if let Some(id) = shutdown_id {
            let mut line = String::from("{\"id\":");
            id.write(&mut line);
            line.push_str(",\"status\":\"ok\",\"bye\":true}");
            write_line(&out, &line);
        }
        Ok(())
    }

    fn read_loop<R: BufRead, W: Write>(
        &self,
        input: &mut R,
        out: &Mutex<W>,
        tx: &SyncSender<Job>,
        shutdown_id: &mut Option<Json>,
    ) -> io::Result<()> {
        let mut frame_index = 0usize;
        loop {
            let frame = match read_frame(input, self.config.max_frame)? {
                None => return Ok(()),
                Some(frame) => frame,
            };
            let index = frame_index;
            frame_index += 1;
            let received = telemetry::now_us();
            let text = match frame {
                Frame::Oversized => {
                    self.refuse(
                        out,
                        &Json::Null,
                        ErrorKind::Oversized,
                        &format!("frame exceeds {} bytes", self.config.max_frame),
                        None,
                    );
                    continue;
                }
                Frame::Binary => {
                    self.refuse(
                        out,
                        &Json::Null,
                        ErrorKind::Malformed,
                        "frame is not UTF-8",
                        None,
                    );
                    continue;
                }
                Frame::Line(text) => text,
            };
            if text.trim().is_empty() {
                continue;
            }
            let parsed = match json::parse(&text) {
                Ok(v) => v,
                Err(e) => {
                    let detail = e.to_string();
                    self.refuse(out, &Json::Null, ErrorKind::Malformed, &detail, None);
                    continue;
                }
            };
            let request = match parse_request(&parsed) {
                Ok(r) => r,
                Err(e) => {
                    let id = parsed.get("id").cloned().unwrap_or(Json::Null);
                    self.refuse(out, &id, e.kind, &e.detail, None);
                    continue;
                }
            };
            match request.op {
                Op::Ping => {
                    let mut line = String::from("{\"id\":");
                    request.id.write(&mut line);
                    line.push_str(",\"status\":\"ok\",\"pong\":true}");
                    write_line(out, &line);
                    self.control_done("ping", received);
                }
                Op::Stats => {
                    let mut line = String::from("{\"id\":");
                    request.id.write(&mut line);
                    line.push_str(",\"status\":\"ok\",\"stats\":");
                    self.metrics
                        .stats_json(self.store.replayed())
                        .write(&mut line);
                    line.push('}');
                    write_line(out, &line);
                    self.control_done("stats", received);
                }
                Op::Metrics => {
                    // The request counter bumps before the snapshot so
                    // the answer counts the poll that produced it.
                    self.metrics.requests("metrics").inc();
                    let mut line = String::from("{\"id\":");
                    request.id.write(&mut line);
                    line.push_str(",\"status\":\"ok\",\"metrics\":");
                    self.metrics.snapshot_json().write(&mut line);
                    line.push('}');
                    write_line(out, &line);
                    self.metrics
                        .latency("metrics")
                        .record(telemetry::now_us().saturating_sub(received));
                }
                Op::Shutdown => {
                    *shutdown_id = Some(request.id);
                    return Ok(());
                }
                Op::Advise(advise) => {
                    self.metrics.requests("advise").inc();
                    let job = Job {
                        frame: index,
                        id: request.id,
                        request: advise,
                        received,
                    };
                    match tx.try_send(job) {
                        Ok(()) => self.metrics.queue_depth.inc(),
                        Err(TrySendError::Full(job)) => {
                            self.metrics.shed.inc();
                            self.refuse(
                                out,
                                &job.id,
                                ErrorKind::Overloaded,
                                "admission queue full; retry later",
                                Some(job.received),
                            );
                        }
                        Err(TrySendError::Disconnected(_)) => return Ok(()),
                    }
                }
            }
        }
    }

    fn worker<W: Write>(&self, rx: &Mutex<Receiver<Job>>, out: &Mutex<W>) {
        loop {
            let job = match rx.lock() {
                Ok(rx) => rx.recv(),
                Err(_) => return,
            };
            match job {
                Ok(job) => {
                    self.metrics.queue_depth.dec();
                    self.metrics.inflight.inc();
                    self.handle(job, out);
                    self.metrics.inflight.dec();
                }
                Err(_) => return, // channel closed and drained
            }
        }
    }

    fn handle<W: Write>(&self, job: Job, out: &Mutex<W>) {
        let Job {
            frame,
            id,
            request,
            received,
        } = job;

        // Resolution happens outside the isolation cell so its typed
        // errors (unknown kernel, parse failure) answer directly. Trace
        // sources carry no loop nest: they skip resolution (and with it
        // store fingerprinting — trace files can change between
        // requests) and route to the streaming replay engine below.
        let is_trace = matches!(request.source, Source::Trace { .. });
        let resolved = match self.handler {
            Some(_) => None,
            None if is_trace => None,
            None => match engine::resolve(&request.source) {
                Ok(program) => Some(program),
                Err(e) => {
                    self.refuse(out, &id, e.kind, &e.detail, Some(received));
                    return;
                }
            },
        };

        // Cache: any request that accepts an exact answer can be served
        // from a stored one, including requests that would degrade now.
        // Search answers are never stored: the store key does not encode
        // the per-request strategy/budget/seed/beam overrides, so a
        // cached answer could shadow a differently-parameterized search.
        let fingerprint = resolved
            .as_ref()
            .filter(|_| request.mode != Mode::Fast && request.algorithm != Algorithm::Search)
            .map(|program| Store::key(&program.to_string(), &request.cache, request.algorithm));
        if let Some(fp) = fingerprint {
            if let Some(body) = self.store.get(fp) {
                self.metrics.cache_hits.inc();
                self.metrics.finish_advise(received, true);
                write_ok(out, &id, true, false, &body);
                return;
            }
        }

        // Budget: `exact` mode always tries exact; `auto` tries exact
        // only when the deadline budget can afford the simulation, and
        // otherwise takes the fast rung immediately — marked degraded,
        // because the client wanted exact and got the fallback.
        let affordable = match (&resolved, self.config.deadline) {
            (None, _) | (_, None) => true, // custom handler / no deadline: no cost model
            (Some(program), Some(deadline)) => {
                let budget = (self.config.rate * deadline.as_secs_f64()) as u64;
                engine::exact_cost(program) <= budget
            }
        };
        let exact_first = match request.mode {
            Mode::Fast => false,
            Mode::Exact => true,
            Mode::Auto => affordable,
        };
        // Degraded = the fast rung standing in where `auto` ideally
        // answers exact (budget shortfall or a blown exact rung).
        let rung = |exact: bool| {
            let degraded = request.mode == Mode::Auto && !exact;
            match (&self.handler, &resolved) {
                (Some(handler), _) => handler(frame, &request),
                (None, Some(program)) => Ok(engine::advise(program, &request, exact, degraded)),
                (None, None) => {
                    debug_assert!(is_trace, "resolution errors returned above");
                    engine::advise_trace(&request)
                }
            }
        };
        let deadline = self.config.deadline;
        let mut outcome = pool::run_cell(deadline, || {
            self.faults.inject(frame);
            rung(exact_first)
        });
        // An exact rung that blew its deadline in `auto` mode falls back
        // to the fast rung. A trace replay has no fast rung, so it
        // answers `timeout`.
        if exact_first
            && request.mode == Mode::Auto
            && !is_trace
            && matches!(outcome, CellOutcome::TimedOut { .. })
        {
            outcome = pool::run_cell(deadline, || rung(false));
        }
        self.finish(&id, fingerprint, outcome, received, out);
    }

    fn finish<W: Write>(
        &self,
        id: &Json,
        fingerprint: Option<u64>,
        outcome: CellOutcome<Result<Advice, RequestError>>,
        received: u64,
        out: &Mutex<W>,
    ) {
        match flatten_outcome(outcome) {
            Flat::Answer(advice) => {
                if advice.simulated {
                    self.metrics.simulations.inc();
                }
                if advice.degraded {
                    self.metrics.degraded.inc();
                }
                let body = advice.body.to_string();
                // Only full-fidelity answers are worth persisting: a
                // degraded or handler-produced body must never shadow a
                // future exact one.
                if advice.simulated && !advice.degraded && self.handler.is_none() {
                    if let Some(fp) = fingerprint {
                        self.store.put(fp, &body);
                    }
                }
                self.metrics.finish_advise(received, true);
                write_ok(out, id, false, advice.degraded, &body);
            }
            Flat::Refused(e) => self.refuse(out, id, e.kind, &e.detail, Some(received)),
            Flat::TimedOut => {
                self.refuse(
                    out,
                    id,
                    ErrorKind::Timeout,
                    "deadline exceeded",
                    Some(received),
                );
            }
            Flat::Panicked(detail) => {
                self.refuse(out, id, ErrorKind::Internal, &detail, Some(received));
            }
        }
    }

    /// Answers a typed refusal and counts it; `received` is the receipt
    /// time of an advise request, which also closes its books.
    fn refuse<W: Write>(
        &self,
        out: &Mutex<W>,
        id: &Json,
        kind: ErrorKind,
        detail: &str,
        received: Option<u64>,
    ) {
        self.metrics.error(kind).inc();
        if let Some(received) = received {
            self.metrics.finish_advise(received, false);
        }
        write_error(out, id, kind, detail);
    }

    /// Counts an answered control op and records its latency.
    fn control_done(&self, op: &str, received: u64) {
        self.metrics.requests(op).inc();
        self.metrics
            .latency(op)
            .record(telemetry::now_us().saturating_sub(received));
    }
}

/// The four ways an isolated analysis can end.
enum Flat {
    Answer(Advice),
    Refused(RequestError),
    TimedOut,
    Panicked(String),
}

fn flatten_outcome(outcome: CellOutcome<Result<Advice, RequestError>>) -> Flat {
    match outcome {
        CellOutcome::Ok(Ok(advice)) => Flat::Answer(advice),
        CellOutcome::Ok(Err(e)) => Flat::Refused(e),
        CellOutcome::TimedOut { .. } => Flat::TimedOut,
        CellOutcome::Panicked { message, .. } => {
            Flat::Panicked(format!("handler panicked: {message}"))
        }
    }
}

/// One frame read from the wire.
enum Frame {
    /// A complete UTF-8 line (without the newline).
    Line(String),
    /// The line exceeded the frame limit (already drained to newline).
    Oversized,
    /// The line was not valid UTF-8.
    Binary,
}

/// Reads one newline-terminated frame with a hard size cap. Oversized
/// frames are drained to their newline so the stream stays framed —
/// one huge frame costs one error response, not the connection.
fn read_frame<R: BufRead>(input: &mut R, max: usize) -> io::Result<Option<Frame>> {
    let mut line: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let buf = input.fill_buf()?;
        if buf.is_empty() {
            return Ok(if oversized {
                Some(Frame::Oversized)
            } else if line.is_empty() {
                None
            } else {
                Some(frame_from(line))
            });
        }
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos + 1, true),
            None => (buf.len(), false),
        };
        if !oversized {
            let keep = chunk.min(max.saturating_sub(line.len()) + 1);
            line.extend_from_slice(&buf[..keep]);
            if line.len() > max {
                oversized = true;
                line.clear();
            }
        }
        input.consume(chunk);
        if done {
            return Ok(Some(if oversized {
                Frame::Oversized
            } else {
                frame_from(line)
            }));
        }
    }
}

fn frame_from(mut line: Vec<u8>) -> Frame {
    if line.last() == Some(&b'\n') {
        line.pop();
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    match String::from_utf8(line) {
        Ok(text) => Frame::Line(text),
        Err(_) => Frame::Binary,
    }
}

fn write_line<W: Write>(out: &Mutex<W>, line: &str) {
    if let Ok(mut out) = out.lock() {
        // A vanished client is the client's problem; the serve loop
        // keeps answering whoever is still listening.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

fn write_ok<W: Write>(out: &Mutex<W>, id: &Json, cached: bool, degraded: bool, body: &str) {
    let mut line = String::from("{\"id\":");
    id.write(&mut line);
    line.push_str(",\"status\":\"ok\",\"cached\":");
    line.push_str(if cached { "true" } else { "false" });
    line.push_str(",\"degraded\":");
    line.push_str(if degraded { "true" } else { "false" });
    line.push_str(",\"result\":");
    line.push_str(body);
    line.push('}');
    write_line(out, &line);
}

fn write_error<W: Write>(out: &Mutex<W>, id: &Json, kind: ErrorKind, detail: &str) {
    let mut line = String::from("{\"id\":");
    id.write(&mut line);
    line.push_str(",\"status\":\"error\",\"error\":");
    Json::Str(kind.wire().to_string()).write(&mut line);
    line.push_str(",\"detail\":");
    Json::Str(detail.to_string()).write(&mut line);
    line.push('}');
    write_line(out, &line);
}
