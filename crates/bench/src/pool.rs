//! Work-stealing experiment runner with per-cell fault isolation.
//!
//! The figure sweeps decompose into independent *cells* — one (kernel,
//! config-set, layout) unit each, internally batched by
//! [`pad_trace::simulate_batch`]. This module executes cells on scoped
//! threads (plain `std::thread::scope`; no external runtime): a run of
//! width `w` spawns `w - 1` threads, the submitting thread participates
//! in the work, and cells are claimed off a shared atomic cursor (work
//! stealing). The width is clamped to the cell count and the host's core
//! count, so on a single-core host — or for a serial request — dispatch
//! is a plain loop on the calling thread. Each thread hands its results
//! back through its join handle and they are reassembled in submission
//! order, so every table and CSV is byte-identical to a serial run
//! regardless of thread count or scheduling. Every run owns its threads,
//! so nested and concurrent submissions need no special case.
//!
//! A panicking cell can never take its siblings down with it: the claim
//! loop catches each cell's panic and carries on, and the lowest-indexed
//! panic is re-raised, with its original payload, only after every cell
//! has run. The fault-tolerant
//! entry points ([`run_cells_outcome_on`]) additionally classify each
//! cell's result as a [`CellOutcome`]: per-cell panics are isolated,
//! cells exceeding the configured deadline are reported as timed out,
//! and failures classified *transient* are retried a bounded number of
//! times with a deterministic backoff schedule.
//!
//! The pool width defaults to the host's available parallelism and can be
//! overridden with the `RIVERA_THREADS` environment variable (`1` forces
//! the serial path). `RIVERA_CELL_TIMEOUT` (seconds, default off) arms the
//! per-cell deadline and `RIVERA_CELL_RETRIES` (default 0) bounds how
//! often a transient failure is retried — see [`RunPolicy::from_env`].

use std::any::Any;
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Once, OnceLock};
use std::time::{Duration, Instant};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "RIVERA_THREADS";

/// Environment variable arming the per-cell deadline, in (possibly
/// fractional) seconds. Unset or unparseable means no deadline.
pub const TIMEOUT_ENV: &str = "RIVERA_CELL_TIMEOUT";

/// Environment variable bounding how many times a transient cell failure
/// is retried (0, the default, disables retry).
pub const RETRIES_ENV: &str = "RIVERA_CELL_RETRIES";

/// Environment variable setting the base backoff between retry attempts,
/// in milliseconds (attempt `k` sleeps `k * base`; default 0 — no sleep,
/// so test schedules stay deterministic).
pub const BACKOFF_ENV: &str = "RIVERA_RETRY_BACKOFF_MS";

/// Substring marking a panic message as a *transient* failure, eligible
/// for retry under [`RunPolicy::max_attempts`]. The fault-injection
/// harness uses this to force retry classifications deterministically.
pub const TRANSIENT_MARKER: &str = "[transient]";

/// The number of worker threads the pool will use: the `RIVERA_THREADS`
/// override when set to a positive integer, otherwise the host's
/// available parallelism (1 if unknown).
pub fn thread_count() -> usize {
    let raw = std::env::var(THREADS_ENV).ok();
    let (count, warning) = thread_count_from(raw.as_deref());
    if let Some(warning) = warning {
        eprintln!("warning: {warning}");
    }
    count
}

/// Pure core of [`thread_count`], split out so the warning/fallback path
/// is testable without racing on the process environment: returns the
/// chosen width and, for a present-but-invalid override, the warning
/// text.
pub fn thread_count_from(raw: Option<&str>) -> (usize, Option<String>) {
    let host = host_cores();
    match raw {
        None => (host, None),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => (n, None),
            _ => (
                host,
                Some(format!(
                    "ignoring {THREADS_ENV}={raw:?} (want a positive integer)"
                )),
            ),
        },
    }
}

/// Identifies one execution attempt of one cell: `index` is the cell's
/// position in submission order, `attempt` counts from 1 and increases
/// across retries of the same cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCtx {
    /// The cell's index in submission order.
    pub index: usize,
    /// The 1-based attempt number (greater than 1 only on retry).
    pub attempt: u32,
}

/// The result of executing one cell under fault isolation.
#[derive(Debug)]
pub enum CellOutcome<T> {
    /// The cell completed within its deadline.
    Ok(T),
    /// The cell panicked; the panic was caught and isolated.
    Panicked {
        /// The panic payload (plus source location when available).
        message: String,
        /// A backtrace captured at the panic site.
        backtrace: String,
        /// How long the failing attempt ran before panicking.
        elapsed: Duration,
    },
    /// The cell completed but exceeded the configured deadline, so its
    /// result was discarded. (The deadline is enforced at cell
    /// granularity: the watchdog cannot preempt a non-terminating cell,
    /// it classifies overlong ones as they finish.)
    TimedOut {
        /// The deadline the cell exceeded.
        deadline: Duration,
        /// How long the cell actually ran (measured plus any virtual
        /// time charged via [`charge_virtual`]).
        elapsed: Duration,
    },
    /// The cell was attempted more than once; `outcome` is the final
    /// attempt's result.
    Retried {
        /// Total attempts executed (including the final one).
        attempts: u32,
        /// The final attempt's outcome (never itself `Retried`).
        outcome: Box<CellOutcome<T>>,
    },
}

impl<T> CellOutcome<T> {
    /// The successful value, if any (looking through `Retried`).
    pub fn value(&self) -> Option<&T> {
        match self {
            CellOutcome::Ok(v) => Some(v),
            CellOutcome::Retried { outcome, .. } => outcome.value(),
            _ => None,
        }
    }

    /// Consumes the outcome, yielding the successful value if any.
    pub fn into_value(self) -> Option<T> {
        match self {
            CellOutcome::Ok(v) => Some(v),
            CellOutcome::Retried { outcome, .. } => outcome.into_value(),
            _ => None,
        }
    }

    /// True when the cell (eventually) produced a value.
    pub fn is_ok(&self) -> bool {
        self.value().is_some()
    }

    /// The marker string a table renders for a failed cell (`ERR` for a
    /// panic, `TIMEOUT` for a deadline miss), or `None` on success.
    pub fn marker(&self) -> Option<&'static str> {
        match self {
            CellOutcome::Ok(_) => None,
            CellOutcome::Panicked { .. } => Some("ERR"),
            CellOutcome::TimedOut { .. } => Some("TIMEOUT"),
            CellOutcome::Retried { outcome, .. } => outcome.marker(),
        }
    }

    /// A one-line human-readable description of the failure, or `None`
    /// on success.
    pub fn failure(&self) -> Option<String> {
        match self {
            CellOutcome::Ok(_) => None,
            CellOutcome::Panicked { message, .. } => Some(format!("panicked: {message}")),
            CellOutcome::TimedOut { deadline, elapsed } => Some(format!(
                "timed out: ran {:.3}s against a {:.3}s deadline",
                elapsed.as_secs_f64(),
                deadline.as_secs_f64()
            )),
            CellOutcome::Retried { attempts, outcome } => outcome
                .failure()
                .map(|f| format!("{f} (after {attempts} attempts)")),
        }
    }

    /// Total attempts this outcome records (1 unless retried).
    pub fn attempts(&self) -> u32 {
        match self {
            CellOutcome::Retried { attempts, .. } => *attempts,
            _ => 1,
        }
    }

    /// How long the (final) failing attempt ran, when known. Successful
    /// cells report `None` — their timing is the caller's to measure.
    pub fn elapsed(&self) -> Option<Duration> {
        match self {
            CellOutcome::Ok(_) => None,
            CellOutcome::Panicked { elapsed, .. } => Some(*elapsed),
            CellOutcome::TimedOut { elapsed, .. } => Some(*elapsed),
            CellOutcome::Retried { outcome, .. } => outcome.elapsed(),
        }
    }
}

/// Fault-tolerance policy for a run: per-cell deadline, retry budget, and
/// backoff schedule.
#[derive(Debug, Clone)]
pub struct RunPolicy {
    /// Per-cell deadline; `None` (the default) disables the watchdog.
    pub deadline: Option<Duration>,
    /// Maximum attempts per cell (at least 1). Attempts beyond the first
    /// happen only for failures classified transient — timeouts, and
    /// panics whose message contains [`TRANSIENT_MARKER`].
    pub max_attempts: u32,
    /// Base backoff between attempts: attempt `k` (1-based) sleeps
    /// `k * backoff` before retrying. Zero (the default) sleeps not at
    /// all, keeping test schedules deterministic.
    pub backoff: Duration,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            deadline: None,
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

impl RunPolicy {
    /// Builds the policy the experiment binaries run under, from
    /// `RIVERA_CELL_TIMEOUT` (seconds), `RIVERA_CELL_RETRIES`, and
    /// `RIVERA_RETRY_BACKOFF_MS`. Unset or unparseable variables fall
    /// back to the defaults (no deadline, no retry, no backoff).
    pub fn from_env() -> Self {
        let mut policy = RunPolicy::default();
        if let Ok(raw) = std::env::var(TIMEOUT_ENV) {
            // `try_from_secs_f64` rejects infinities and values too large
            // for a `Duration` (say `1e30`), where `from_secs_f64` panics.
            let secs = raw.trim().parse::<f64>().ok().filter(|&secs| secs > 0.0);
            match secs.map(Duration::try_from_secs_f64) {
                Some(Ok(deadline)) => policy.deadline = Some(deadline),
                _ => eprintln!("warning: ignoring {TIMEOUT_ENV}={raw:?} (want seconds > 0)"),
            }
        }
        if let Ok(raw) = std::env::var(RETRIES_ENV) {
            match raw.trim().parse::<u32>() {
                Ok(n) => policy.max_attempts = n.saturating_add(1),
                _ => eprintln!("warning: ignoring {RETRIES_ENV}={raw:?} (want an integer)"),
            }
        }
        if let Ok(raw) = std::env::var(BACKOFF_ENV) {
            match raw.trim().parse::<u64>() {
                Ok(ms) => policy.backoff = Duration::from_millis(ms),
                _ => eprintln!("warning: ignoring {BACKOFF_ENV}={raw:?} (want milliseconds)"),
            }
        }
        policy
    }
}

thread_local! {
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static LAST_PANIC: RefCell<Option<(String, String)>> = const { RefCell::new(None) };
    static VIRTUAL_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// Charges virtual elapsed time to the currently running cell attempt.
///
/// The deadline watchdog adds virtual time to the measured wall time when
/// classifying a cell, which lets the fault-injection harness exercise
/// the timeout path deterministically — a test charges minutes of virtual
/// delay against a seconds-scale deadline, so real scheduling noise can
/// never flip the classification.
pub fn charge_virtual(delay: Duration) {
    VIRTUAL_NANOS.with(|v| {
        v.set(
            v.get()
                .saturating_add(delay.as_nanos().min(u128::from(u64::MAX)) as u64),
        );
    });
}

fn drain_virtual() -> Duration {
    VIRTUAL_NANOS.with(|v| {
        let nanos = v.get();
        v.set(0);
        Duration::from_nanos(nanos)
    })
}

/// Installs (once, process-wide) a panic hook that captures the message
/// and backtrace of panics raised inside isolated cells, suppressing the
/// default stderr report for them; panics anywhere else still reach the
/// previously installed hook untouched.
fn install_capture_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CAPTURING.with(Cell::get) {
                let message = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string());
                let message = match info.location() {
                    Some(loc) => format!("{message} (at {loc})"),
                    None => message,
                };
                let backtrace = Backtrace::force_capture().to_string();
                LAST_PANIC.with(|l| *l.borrow_mut() = Some((message, backtrace)));
            } else {
                previous(info);
            }
        }));
    });
}

/// The executor every entry point funnels through. A run of width `w`
/// ([`effective_width`]) opens one `std::thread::scope`, spawns `w - 1`
/// threads, and has the submitting thread claim cells too; at width 1
/// nothing is spawned and the claim loop runs on the calling thread.
/// Every claimer takes indices off one atomic cursor and returns its
/// `(index, value)` pairs through its join handle, so result order is
/// index order whatever the schedule.
///
/// A panic out of `run` is caught per index and the claimer carries on,
/// so every index runs; afterwards the lowest-indexed panic is re-raised
/// with its original payload.
fn run_slots<R: Send>(threads: usize, count: usize, run: impl Fn(usize) -> R + Sync) -> Vec<R> {
    type Escaped = (usize, Box<dyn Any + Send>);
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut values = Vec::new();
        // A claimer takes indices in increasing order, so its first
        // panic is its lowest-indexed one.
        let mut panic: Option<Escaped> = None;
        loop {
            // Relaxed suffices: the cursor only hands out distinct
            // indices, and results travel through the join.
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= count {
                return (values, panic);
            }
            match catch_unwind(AssertUnwindSafe(|| run(index))) {
                Ok(value) => values.push((index, value)),
                Err(payload) => {
                    panic.get_or_insert((index, payload));
                }
            }
        }
    };
    let mut values = Vec::with_capacity(count);
    let mut first_panic: Option<Escaped> = None;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..effective_width(threads, count))
            .map(|_| scope.spawn(claim))
            .collect();
        let own = claim();
        let joined = spawned.into_iter().map(|handle| {
            handle
                .join()
                .unwrap_or_else(|payload| resume_unwind(payload))
        });
        for (part, panic) in std::iter::once(own).chain(joined) {
            values.extend(part);
            if let Some((index, payload)) = panic {
                if first_panic.as_ref().is_none_or(|(first, _)| index < *first) {
                    first_panic = Some((index, payload));
                }
            }
        }
    });
    if let Some((_, payload)) = first_panic {
        resume_unwind(payload);
    }
    values.sort_unstable_by_key(|&(index, _)| index);
    values.into_iter().map(|(_, value)| value).collect()
}

/// The number of threads a width-`requested` run over `count` cells
/// actually engages: the requested width clamped by the cell count and
/// the host's core count. A run spawns this many threads less one, since
/// the submitting thread claims cells too. The benchmark harness records
/// this in `BENCH_simulator.json` so the host metadata reflects real, not
/// requested, parallelism.
pub fn effective_width(requested: usize, count: usize) -> usize {
    requested.max(1).min(count.max(1)).min(host_cores())
}

/// The host's available parallelism (1 if unknown), read once per
/// process: the query reads cgroup files and costs as much as the thread
/// spawn it sizes (~15–25 µs), on every dispatch, width 1 included.
fn host_cores() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `count` cells through `f` on the default pool width
/// ([`thread_count`]) and returns the results in cell order.
pub fn run_cells<T: Send>(count: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    run_cells_on(thread_count(), count, f)
}

/// Runs `count` cells through `f` at width `threads` (clamped as in
/// [`effective_width`]) and returns the results in cell order —
/// `run_cells_on(1, ..)` is the serial reference the determinism tests
/// compare against.
///
/// Cells are claimed through an atomic cursor (work stealing: a free
/// thread takes the next unclaimed index), so uneven cell costs do not
/// idle the pool. Result order is index order, never completion order.
///
/// # Panics
///
/// Propagates the panic of the lowest-indexed panicking cell — but only
/// after every other cell has run to completion: a panicking cell is
/// caught and isolated, never killing sibling threads or poisoning
/// shared state. Use [`run_cells_outcome_on`] to observe failures as
/// values instead.
pub fn run_cells_on<T: Send>(
    threads: usize,
    count: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    run_slots(threads, count, f)
}

/// Records one finalized cell in the live metrics layer: final-attempt
/// latency, plus retry/timeout/panic counters. Handles are registered
/// once and cached; the call is one relaxed load when metrics are off.
fn record_cell_metrics<T>(outcome: &CellOutcome<T>, final_elapsed: Duration) {
    if !pad_telemetry::metrics_enabled() {
        return;
    }
    struct Handles {
        latency: std::sync::Arc<pad_telemetry::LatencyHistogram>,
        retries: std::sync::Arc<pad_telemetry::Counter>,
        timeouts: std::sync::Arc<pad_telemetry::Counter>,
        panics: std::sync::Arc<pad_telemetry::Counter>,
    }
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    let h = HANDLES.get_or_init(|| {
        let r = pad_telemetry::registry();
        Handles {
            latency: r.histogram(
                "pad_pool_cell_latency_us",
                "Final-attempt wall time of each isolation cell, in microseconds.",
            ),
            retries: r.counter(
                "pad_pool_cell_retries_total",
                "Extra attempts spent on transient cell failures.",
            ),
            timeouts: r.counter(
                "pad_pool_cell_timeouts_total",
                "Cells whose final attempt blew its deadline.",
            ),
            panics: r.counter(
                "pad_pool_cell_panics_total",
                "Cells whose final attempt panicked (caught and isolated).",
            ),
        }
    });
    h.latency.record(final_elapsed.as_micros() as u64);
    let attempts = outcome.attempts();
    if attempts > 1 {
        h.retries.add(u64::from(attempts - 1));
    }
    match outcome.marker() {
        Some("TIMEOUT") => h.timeouts.inc(),
        Some("ERR") => h.panics.inc(),
        _ => {}
    }
}

/// Runs one cell under `policy`: bounded attempts, each wrapped in
/// `catch_unwind`, with deadline classification and deterministic
/// backoff between retries of transient failures.
fn run_one_cell<T>(
    index: usize,
    policy: &RunPolicy,
    f: &(impl Fn(CellCtx) -> T + Sync),
) -> CellOutcome<T> {
    install_capture_hook();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        drain_virtual();
        CAPTURING.with(|c| c.set(true));
        let start = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| f(CellCtx { index, attempt })));
        CAPTURING.with(|c| c.set(false));
        let elapsed = start.elapsed() + drain_virtual();
        let outcome = match caught {
            Ok(value) => match policy.deadline {
                Some(deadline) if elapsed > deadline => CellOutcome::TimedOut { deadline, elapsed },
                _ => CellOutcome::Ok(value),
            },
            Err(payload) => {
                let (message, backtrace) = LAST_PANIC
                    .with(|l| l.borrow_mut().take())
                    .unwrap_or_else(|| {
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "<non-string panic payload>".to_string());
                        (message, String::new())
                    });
                CellOutcome::Panicked {
                    message,
                    backtrace,
                    elapsed,
                }
            }
        };
        let transient = match &outcome {
            CellOutcome::Ok(_) => false,
            CellOutcome::TimedOut { .. } => true,
            CellOutcome::Panicked { message, .. } => message.contains(TRANSIENT_MARKER),
            CellOutcome::Retried { .. } => unreachable!("attempts are never nested"),
        };
        if !outcome.is_ok() && transient && attempt < policy.max_attempts {
            if !policy.backoff.is_zero() {
                std::thread::sleep(policy.backoff * attempt);
            }
            continue;
        }
        let outcome = if attempt > 1 {
            CellOutcome::Retried {
                attempts: attempt,
                outcome: Box::new(outcome),
            }
        } else {
            outcome
        };
        record_cell_metrics(&outcome, elapsed);
        return outcome;
    }
}

/// Fault-isolated run: every cell's panic is caught, deadlines and
/// retries applied per `policy`, and the per-cell [`CellOutcome`]s
/// returned in cell order. No cell failure disturbs any sibling cell.
pub fn run_cells_outcome_on<T: Send>(
    threads: usize,
    count: usize,
    policy: &RunPolicy,
    f: impl Fn(CellCtx) -> T + Sync,
) -> Vec<CellOutcome<T>> {
    run_cells_outcome_with(threads, count, policy, f, |_, _| {})
}

/// [`run_cells_outcome_on`] with a completion callback: `on_complete`
/// runs on the worker thread immediately after each cell's outcome is
/// finalized (completion order, concurrently across workers). The
/// checkpoint journal hooks in here so a killed sweep has every finished
/// cell on disk.
pub fn run_cells_outcome_with<T: Send>(
    threads: usize,
    count: usize,
    policy: &RunPolicy,
    f: impl Fn(CellCtx) -> T + Sync,
    on_complete: impl Fn(usize, &CellOutcome<T>) + Sync,
) -> Vec<CellOutcome<T>> {
    run_slots(threads, count, |index| {
        let outcome = run_one_cell(index, policy, &f);
        on_complete(index, &outcome);
        outcome
    })
}

/// [`run_cells`] with a progress label per cell: each cell's label and
/// wall time are printed to stderr as it finishes (completion order; the
/// *results* remain in cell order).
pub fn run_labeled<T: Send>(labels: &[String], f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    run_labeled_on(thread_count(), labels, f)
}

/// [`run_cells_on`] with per-cell progress labels and timing.
pub fn run_labeled_on<T: Send>(
    threads: usize,
    labels: &[String],
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    run_cells_on(threads, labels.len(), |index| {
        let start = Instant::now();
        let value = f(index);
        eprintln!(
            "  {} ({:.0} ms)",
            labels[index],
            start.elapsed().as_secs_f64() * 1e3
        );
        value
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_cell_order() {
        // Make later cells cheaper so completion order inverts cell order.
        let work = |i: usize| {
            let mut acc = 0u64;
            for k in 0..(200 - i as u64) * 500 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc % 7)
        };
        let serial = run_cells_on(1, 200, work);
        for threads in [2, 3, 8] {
            assert_eq!(
                run_cells_on(threads, 200, work),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn more_threads_than_cells_is_fine() {
        assert_eq!(run_cells_on(64, 3, |i| i * i), vec![0, 1, 4]);
        assert_eq!(run_cells_on(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn width_two_runs_two_cells_at_once() {
        if effective_width(2, 2) < 2 {
            eprintln!("skipped: a width-2 run needs two cores");
            return;
        }
        // Each cell blocks until both have arrived, so the run returns
        // only if two threads really ran it. A watchdog turns a hang
        // into a failure.
        let (done, finished) = std::sync::mpsc::channel();
        let submitter = std::thread::spawn(move || {
            let barrier = std::sync::Barrier::new(2);
            let ran = run_cells_on(2, 2, |i| {
                barrier.wait();
                i
            });
            done.send(ran).expect("the test is still waiting");
        });
        let ran = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("both cells reached the barrier");
        submitter.join().expect("the submitter returns");
        assert_eq!(ran, vec![0, 1]);
    }

    #[test]
    fn nested_runs_return_the_serial_result() {
        let nested = |threads: usize| {
            run_cells_on(threads, 8, |i| {
                run_cells_on(threads, 16, |j| i * 100 + j)
                    .into_iter()
                    .sum::<usize>()
            })
        };
        assert_eq!(nested(2), nested(1));
    }

    #[test]
    fn concurrent_runs_each_return_the_serial_result() {
        let work = |i: usize| (0..i as u64 * 50).fold(i as u64, |acc, k| acc.wrapping_mul(31) ^ k);
        let serial = run_cells_on(1, 200, work);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        run_cells_on(2, 200, work)
                    })
                })
                .collect();
            for run in runs {
                assert_eq!(run.join().expect("submitter returns"), serial);
            }
        });
    }

    #[test]
    fn escaped_panic_keeps_its_payload_and_waits_for_every_index() {
        #[derive(Debug, PartialEq)]
        struct Escaped(usize);
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_slots(2, 200, |i| {
                if i == 97 || i == 150 {
                    std::panic::panic_any(Escaped(i));
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = caught.expect_err("the escaped panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<Escaped>(),
            Some(&Escaped(97)),
            "the lowest-indexed payload, unchanged"
        );
        assert_eq!(ran.load(Ordering::Relaxed), 198, "every other index ran");
    }

    #[test]
    fn zero_cells_yield_empty_outcomes() {
        let outcomes = run_cells_outcome_on(4, 0, &RunPolicy::default(), |cell| cell.index);
        assert!(outcomes.is_empty());
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn thread_count_falls_back_on_garbage() {
        let host = thread_count_from(None).0;
        for bad in ["0", "-3", "garbage", "", "  "] {
            let (count, warning) = thread_count_from(Some(bad));
            assert_eq!(count, host, "{bad:?} must fall back to the host width");
            let warning = warning.expect("invalid override warns");
            assert!(warning.contains(THREADS_ENV), "{warning}");
        }
        assert_eq!(thread_count_from(Some(" 7 ")), (7, None));
    }

    #[test]
    fn panicking_cell_does_not_poison_siblings() {
        // The legacy API still propagates the panic, but only after every
        // sibling has completed — no secondary "poisoned lock" panics.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_cells_on(4, 16, |i| {
                if i == 5 {
                    panic!("boom in cell {i}");
                }
                i * 2
            })
        }));
        let payload = caught.expect_err("cell panic propagates");
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("boom in cell 5"), "{message}");
    }

    #[test]
    fn first_panic_by_index_wins() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_cells_on(4, 16, |i| {
                if i == 11 || i == 3 {
                    panic!("boom in cell {i}");
                }
                i
            })
        }));
        let payload = caught.expect_err("cell panic propagates");
        let message = payload.downcast_ref::<String>().expect("string payload");
        assert!(message.contains("boom in cell 3"), "{message}");
    }

    #[test]
    fn outcome_runner_isolates_panics() {
        for threads in [1, 2, 8] {
            let outcomes = run_cells_outcome_on(threads, 10, &RunPolicy::default(), |cell| {
                if cell.index == 4 {
                    panic!("injected");
                }
                cell.index * 3
            });
            assert_eq!(outcomes.len(), 10);
            for (i, outcome) in outcomes.iter().enumerate() {
                if i == 4 {
                    assert_eq!(outcome.marker(), Some("ERR"));
                    assert!(outcome.failure().expect("failed").contains("injected"));
                } else {
                    assert_eq!(outcome.value(), Some(&(i * 3)), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn virtual_delay_trips_the_deadline() {
        let policy = RunPolicy {
            deadline: Some(Duration::from_secs(60)),
            ..RunPolicy::default()
        };
        let outcomes = run_cells_outcome_on(1, 2, &policy, |cell| {
            if cell.index == 1 {
                charge_virtual(Duration::from_secs(3600));
            }
            cell.index
        });
        assert_eq!(outcomes[0].value(), Some(&0));
        assert_eq!(outcomes[1].marker(), Some("TIMEOUT"));
        match &outcomes[1] {
            CellOutcome::TimedOut { deadline, elapsed } => {
                assert_eq!(*deadline, Duration::from_secs(60));
                assert!(*elapsed >= Duration::from_secs(3600));
            }
            other => panic!("expected TimedOut, got {other:?}"),
        }
    }

    #[test]
    fn transient_panics_are_retried_and_accounted() {
        let policy = RunPolicy {
            max_attempts: 3,
            ..RunPolicy::default()
        };
        let outcomes = run_cells_outcome_on(1, 1, &policy, |cell| {
            if cell.attempt <= 2 {
                panic!("{TRANSIENT_MARKER} flaking on attempt {}", cell.attempt);
            }
            41 + cell.attempt
        });
        match &outcomes[0] {
            CellOutcome::Retried {
                attempts: 3,
                outcome,
            } => {
                assert_eq!(outcome.value(), Some(&44));
            }
            other => panic!("expected Retried{{3, Ok}}, got {other:?}"),
        }
        assert_eq!(outcomes[0].attempts(), 3);
    }

    #[test]
    fn non_transient_panics_are_not_retried() {
        let policy = RunPolicy {
            max_attempts: 5,
            ..RunPolicy::default()
        };
        let outcomes = run_cells_outcome_on(1, 1, &policy, |cell| {
            panic!("hard failure on attempt {}", cell.attempt);
            #[allow(unreachable_code)]
            0
        });
        assert_eq!(outcomes[0].attempts(), 1);
        assert_eq!(outcomes[0].marker(), Some("ERR"));
    }

    #[test]
    fn retry_budget_is_bounded() {
        let policy = RunPolicy {
            max_attempts: 2,
            ..RunPolicy::default()
        };
        let outcomes = run_cells_outcome_on(1, 1, &policy, |cell| {
            panic!(
                "{TRANSIENT_MARKER} always failing (attempt {})",
                cell.attempt
            );
            #[allow(unreachable_code)]
            0
        });
        match &outcomes[0] {
            CellOutcome::Retried {
                attempts: 2,
                outcome,
            } => {
                assert_eq!(outcome.marker(), Some("ERR"));
            }
            other => panic!("expected Retried{{2, Panicked}}, got {other:?}"),
        }
    }
}
