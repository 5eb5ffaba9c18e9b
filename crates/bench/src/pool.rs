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
//! entry points ([`run_cells_outcome_on`], [`run_cell`]) additionally
//! classify each cell's result as a [`CellOutcome`]: per-cell panics are
//! isolated and cells exceeding the configured deadline are reported as
//! timed out. Every cell runs exactly once.
//!
//! The pool width defaults to the host's available parallelism and can be
//! overridden with the `RIVERA_THREADS` environment variable (`1` forces
//! the serial path). `RIVERA_CELL_TIMEOUT` (seconds, default off) arms the
//! per-cell deadline — see [`deadline_from_env`].

use std::any::Any;
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

/// The result of executing one cell under fault isolation.
#[derive(Debug)]
pub enum CellOutcome<T> {
    /// The cell completed within its deadline.
    Ok(T),
    /// The cell panicked; the panic was caught and isolated.
    Panicked {
        /// The panic payload (plus source location when available).
        message: String,
        /// How long the cell ran before panicking.
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
}

impl<T> CellOutcome<T> {
    /// The successful value, if any.
    pub fn value(&self) -> Option<&T> {
        match self {
            CellOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Consumes the outcome, yielding the successful value if any.
    pub fn into_value(self) -> Option<T> {
        match self {
            CellOutcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// True when the cell produced a value.
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
        }
    }

    /// How long a failed cell ran. Successful cells report `None` —
    /// their timing is the caller's to measure.
    pub fn elapsed(&self) -> Option<Duration> {
        match self {
            CellOutcome::Ok(_) => None,
            CellOutcome::Panicked { elapsed, .. } | CellOutcome::TimedOut { elapsed, .. } => {
                Some(*elapsed)
            }
        }
    }
}

/// The per-cell deadline the experiment binaries run under, from
/// `RIVERA_CELL_TIMEOUT` (seconds). Unset means no deadline; an
/// unparseable value warns and also means no deadline.
pub fn deadline_from_env() -> Option<Duration> {
    let raw = std::env::var(TIMEOUT_ENV).ok()?;
    // `try_from_secs_f64` rejects infinities and values too large for a
    // `Duration` (say `1e30`), where `from_secs_f64` panics.
    let secs = raw.trim().parse::<f64>().ok().filter(|&secs| secs > 0.0);
    match secs.map(Duration::try_from_secs_f64) {
        Some(Ok(deadline)) => Some(deadline),
        _ => {
            eprintln!("warning: ignoring {TIMEOUT_ENV}={raw:?} (want seconds > 0)");
            None
        }
    }
}

thread_local! {
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
    static VIRTUAL_NANOS: Cell<u64> = const { Cell::new(0) };
}

/// Charges virtual elapsed time to the currently running cell.
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

/// Installs (once, process-wide) a panic hook that captures the message
/// and location of panics raised inside isolated cells, suppressing the
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
                LAST_PANIC.with(|l| *l.borrow_mut() = Some(message));
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

/// Records one finished cell in the live metrics layer: its latency,
/// plus timeout/panic counters. Handles are registered once and cached;
/// the call is one relaxed load when metrics are off.
fn record_cell_metrics<T>(outcome: &CellOutcome<T>, elapsed: Duration) {
    if !pad_telemetry::metrics_enabled() {
        return;
    }
    struct Handles {
        latency: std::sync::Arc<pad_telemetry::LatencyHistogram>,
        timeouts: std::sync::Arc<pad_telemetry::Counter>,
        panics: std::sync::Arc<pad_telemetry::Counter>,
    }
    static HANDLES: OnceLock<Handles> = OnceLock::new();
    let h = HANDLES.get_or_init(|| {
        let r = pad_telemetry::registry();
        Handles {
            latency: r.histogram("pad_pool_cell_latency_us"),
            timeouts: r.counter("pad_pool_cell_timeouts_total"),
            panics: r.counter("pad_pool_cell_panics_total"),
        }
    });
    h.latency.record(elapsed.as_micros() as u64);
    match outcome {
        CellOutcome::Ok(_) => {}
        CellOutcome::TimedOut { .. } => h.timeouts.inc(),
        CellOutcome::Panicked { .. } => h.panics.inc(),
    }
}

/// Runs `f` once as an isolated cell on the calling thread: its panic is
/// caught and returned as [`CellOutcome::Panicked`], and a run longer than
/// `deadline` (measured plus virtual time) as [`CellOutcome::TimedOut`].
///
/// Cells nest: a cell run inside another on the same thread (a search's
/// exact confirmations inside an advisor request) leaves the outer cell
/// capturing its panics, and its virtual time counts toward the outer
/// cell's clock just as its real time does.
pub fn run_cell<T>(deadline: Option<Duration>, f: impl FnOnce() -> T) -> CellOutcome<T> {
    install_capture_hook();
    let outer_capturing = CAPTURING.replace(true);
    let outer_nanos = VIRTUAL_NANOS.replace(0);
    let start = Instant::now();
    let caught = catch_unwind(AssertUnwindSafe(f));
    let real = start.elapsed();
    let nanos = VIRTUAL_NANOS.get();
    CAPTURING.set(outer_capturing);
    VIRTUAL_NANOS.set(outer_nanos.saturating_add(nanos));
    let elapsed = real + Duration::from_nanos(nanos);
    let outcome = match caught {
        Ok(value) => match deadline {
            Some(deadline) if elapsed > deadline => CellOutcome::TimedOut { deadline, elapsed },
            _ => CellOutcome::Ok(value),
        },
        Err(payload) => {
            let message = LAST_PANIC.take().unwrap_or_else(|| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_string())
            });
            CellOutcome::Panicked { message, elapsed }
        }
    };
    record_cell_metrics(&outcome, elapsed);
    outcome
}

/// Fault-isolated run: every cell runs once through [`run_cell`] under
/// `deadline`, and the per-cell [`CellOutcome`]s come back in cell order.
/// No cell failure disturbs any sibling cell.
pub fn run_cells_outcome_on<T: Send>(
    threads: usize,
    count: usize,
    deadline: Option<Duration>,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<CellOutcome<T>> {
    run_cells_outcome_with(threads, count, deadline, f, |_, _| {})
}

/// [`run_cells_outcome_on`] with a completion callback: `on_complete`
/// runs on the worker thread immediately after each cell's outcome is
/// finalized (completion order, concurrently across workers). The
/// checkpoint journal hooks in here so a killed sweep has every finished
/// cell on disk.
pub fn run_cells_outcome_with<T: Send>(
    threads: usize,
    count: usize,
    deadline: Option<Duration>,
    f: impl Fn(usize) -> T + Sync,
    on_complete: impl Fn(usize, &CellOutcome<T>) + Sync,
) -> Vec<CellOutcome<T>> {
    run_slots(threads, count, |index| {
        let outcome = run_cell(deadline, || f(index));
        on_complete(index, &outcome);
        outcome
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
        let outcomes = run_cells_outcome_on(4, 0, None, |i| i);
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
            let outcomes = run_cells_outcome_on(threads, 10, None, |i| {
                if i == 4 {
                    panic!("injected");
                }
                i * 3
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
        let deadline = Some(Duration::from_secs(60));
        let outcomes = run_cells_outcome_on(1, 2, deadline, |i| {
            if i == 1 {
                charge_virtual(Duration::from_secs(3600));
            }
            i
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
    fn a_nested_cell_keeps_the_outer_virtual_clock() {
        // Cell 0 charges its delay before running a nested cell, cell 1
        // has its nested cell charge it; both blow the outer deadline.
        let deadline = Some(Duration::from_secs(60));
        let outcomes = run_cells_outcome_on(1, 2, deadline, |i| {
            if i == 0 {
                charge_virtual(Duration::from_secs(3600));
            }
            let nested = run_cell(None, || {
                if i == 1 {
                    charge_virtual(Duration::from_secs(3600));
                }
            });
            assert!(nested.is_ok(), "the nested cell has no deadline");
            i
        });
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.marker(), Some("TIMEOUT"), "cell {i}: {outcome:?}");
        }
    }

    #[test]
    fn a_panic_after_a_nested_cell_keeps_its_location() {
        let outcome = run_cell(None, || -> u32 {
            assert!(run_cell(None, || 7).is_ok());
            panic!("outer failure")
        });
        let failure = outcome.failure().expect("the outer cell panicked");
        assert!(
            failure.contains(concat!("outer failure (at ", file!(), ":")),
            "{failure}"
        );
    }
}
