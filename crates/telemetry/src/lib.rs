//! Zero-cost-when-disabled instrumentation for the padding reproduction.
//!
//! Every layer of the system — the work-stealing experiment pool, the
//! batched trace engine, the cache simulator, and the padding heuristics —
//! emits structured [`Event`]s (timing spans, instants, counters) through
//! one process-global [`Collector`]. The layer is engineered so that the
//! *disabled* state costs a single relaxed atomic load per instrumentation
//! site and nothing else:
//!
//! * [`enabled`] is an `#[inline]` read of an `AtomicBool`; every
//!   instrumentation site checks it before doing any work;
//! * event construction happens inside closures passed to [`emit`], so
//!   label formatting, clock reads, and argument collection are never
//!   executed while telemetry is off;
//! * hot loops (the per-access cache simulation paths) are never
//!   instrumented per access — sampling happens at chunk granularity in
//!   the batched engine, outside the tight loops.
//!
//! The `bench_telemetry` binary in `pad-bench` enforces the zero-cost
//! claim (< 2 % overhead with telemetry off) and byte-identical result
//! tables in every mode.
//!
//! # Modes
//!
//! Selected by the `RIVERA_TELEMETRY` environment variable
//! ([`TELEMETRY_ENV`]):
//!
//! | value     | effect                                                    |
//! |-----------|-----------------------------------------------------------|
//! | `off`     | (default) no collector installed, no events, no output    |
//! | `summary` | events collected in memory; end-of-sweep summary table    |
//! | `events`  | additionally: cache-counter sampling, NDJSON + Chrome     |
//! |           | trace-event export (`RIVERA_TRACE_OUT`, Perfetto-loadable)|
//!
//! Sink selection and rendering live downstream (`pad-report` renders the
//! Chrome trace and NDJSON streams; `pad-bench` renders the summary
//! table) — this crate owns only the event model, the global collector,
//! and the summary aggregation, and has zero dependencies.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pad_telemetry::{self as telemetry, Event, Mode, Recorder, Value};
//!
//! let recorder = telemetry::install_recorder(Mode::Events);
//! let t0 = telemetry::now_us();
//! // ... timed work ...
//! telemetry::emit(|| {
//!     Event::span(t0, "cell", "demo", vec![("index", Value::U64(7))])
//! });
//! assert_eq!(recorder.snapshot().len(), 1);
//! telemetry::uninstall();
//! assert!(!telemetry::enabled());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collector;
mod event;
mod histogram;
pub mod metrics;
mod summary;

pub use collector::{Collector, NoopCollector, Recorder};
pub use event::{Event, EventKind, Value};
pub use histogram::Histogram;
pub use metrics::{
    metrics_enabled, registry, set_metrics_enabled, slo_threshold_us, Counter, Gauge,
    HistogramSnapshot, LatencyHistogram, MetricsRegistry, MetricsSnapshot, SnapshotMetric,
    SnapshotValue, DEFAULT_SLO_MS, SLO_ENV,
};
pub use summary::{summarize, CellSummary, KernelThroughput, TelemetrySummary};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Environment variable selecting the telemetry mode
/// (`off` | `summary` | `events`; default `off`).
pub const TELEMETRY_ENV: &str = "RIVERA_TELEMETRY";

/// Environment variable naming the Chrome trace-event output path used in
/// `events` mode (default `results/trace.json`; the NDJSON stream lands
/// beside it with an `.ndjson` extension).
pub const TRACE_OUT_ENV: &str = "RIVERA_TRACE_OUT";

/// Environment variable setting the cache-counter sampling interval in
/// simulated accesses (`events` mode only; `0` disables sampling;
/// default [`DEFAULT_SAMPLE_INTERVAL`]).
pub const SIM_SAMPLE_ENV: &str = "RIVERA_SIM_SAMPLE";

/// Default cache-counter sampling interval: one sample per 2^20 simulated
/// accesses. Coarse enough that even full sweeps generate kilobytes, not
/// gigabytes, of counter events.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 1 << 20;

/// Telemetry operating mode (see [`TELEMETRY_ENV`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// No collector installed; every instrumentation site reduces to one
    /// relaxed atomic load.
    #[default]
    Off,
    /// Events are collected in memory and rendered as an end-of-sweep
    /// summary table (stderr); no files are written.
    Summary,
    /// Everything `summary` does, plus cache-counter sampling and NDJSON
    /// + Chrome trace-event export.
    Events,
}

impl Mode {
    /// Parses a mode string (`off` / `summary` / `events`,
    /// case-insensitive). Returns `None` for anything else.
    pub fn parse(raw: &str) -> Option<Mode> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "" | "off" | "0" | "none" => Some(Mode::Off),
            "summary" => Some(Mode::Summary),
            "events" => Some(Mode::Events),
            _ => None,
        }
    }

    /// Reads the mode from [`TELEMETRY_ENV`]; unset means [`Mode::Off`],
    /// unparseable values warn to stderr and fall back to off.
    pub fn from_env() -> Mode {
        match std::env::var(TELEMETRY_ENV) {
            Err(_) => Mode::Off,
            Ok(raw) => Mode::parse(&raw).unwrap_or_else(|| {
                eprintln!(
                    "warning: ignoring {TELEMETRY_ENV}={raw:?} \
                     (want off|summary|events)"
                );
                Mode::Off
            }),
        }
    }

    /// The canonical lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Summary => "summary",
            Mode::Events => "events",
        }
    }
}

/// The single branch every instrumentation site takes while telemetry is
/// off. Kept separate from the collector lock so the disabled fast path
/// never touches an `RwLock`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Current mode, encoded as `u8` (0 off / 1 summary / 2 events).
static MODE: AtomicU8 = AtomicU8::new(0);

/// The installed collector. An `RwLock` (not a `OnceLock`) so tests and
/// the overhead benchmark can install, exercise, and uninstall collectors
/// within one process.
static COLLECTOR: RwLock<Option<Arc<dyn Collector>>> = RwLock::new(None);

/// The default in-memory recorder, kept typed so the harness can
/// snapshot it at sweep end ([`recorder`]).
static RECORDER: RwLock<Option<Arc<Recorder>>> = RwLock::new(None);

/// True when a collector is installed. `#[inline]` + relaxed load: this
/// is the whole cost of a disabled instrumentation site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The currently installed mode ([`Mode::Off`] when nothing is
/// installed).
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        1 => Mode::Summary,
        2 => Mode::Events,
        _ => Mode::Off,
    }
}

/// Installs `collector` process-wide under `mode`. Replaces any previous
/// collector. `Mode::Off` is equivalent to [`uninstall`].
pub fn install(mode: Mode, collector: Arc<dyn Collector>) {
    if mode == Mode::Off {
        uninstall();
        return;
    }
    *COLLECTOR
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(collector);
    MODE.store(
        match mode {
            Mode::Off => 0,
            Mode::Summary => 1,
            Mode::Events => 2,
        },
        Ordering::Relaxed,
    );
    ENABLED.store(true, Ordering::Relaxed);
}

/// Installs a fresh in-memory [`Recorder`] under `mode` and returns it.
/// The harness snapshots it at sweep end; [`recorder`] retrieves it from
/// anywhere in the process.
pub fn install_recorder(mode: Mode) -> Arc<Recorder> {
    let recorder = Arc::new(Recorder::new());
    *RECORDER
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::clone(&recorder));
    install(mode, Arc::clone(&recorder) as Arc<dyn Collector>);
    recorder
}

/// Removes the installed collector; every instrumentation site returns to
/// its single-load disabled cost.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Relaxed);
    MODE.store(0, Ordering::Relaxed);
    *COLLECTOR
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    *RECORDER
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// The default recorder installed by [`install_recorder`] /
/// [`init_from_env`], if any.
pub fn recorder() -> Option<Arc<Recorder>> {
    RECORDER
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Installs a recorder according to [`TELEMETRY_ENV`] and returns the
/// selected mode. Idempotent: if a collector is already installed the
/// current mode is returned unchanged, so several experiments in one
/// binary share one recorder (and one event stream).
pub fn init_from_env() -> Mode {
    if enabled() {
        return mode();
    }
    let requested = Mode::from_env();
    if requested != Mode::Off {
        install_recorder(requested);
    }
    requested
}

/// Records one event. `build` runs only when a collector is installed, so
/// argument formatting and clock reads cost nothing while telemetry is
/// off.
#[inline]
pub fn emit(build: impl FnOnce() -> Event) {
    if !enabled() {
        return;
    }
    let collector = COLLECTOR
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    if let Some(collector) = collector {
        collector.record(build());
    }
}

/// Microseconds since the process-wide telemetry epoch (the first call).
/// All event timestamps share this clock, which is what lets Perfetto lay
/// spans from every thread on one timeline.
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_micros() as u64
}

/// A small dense id for the calling thread (the main thread observes the
/// id of whoever called first; ids are assigned in first-call order).
/// Used as the `tid` lane in trace exports.
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// The cache-counter sampling interval for the current mode: `0` (off)
/// unless the mode is [`Mode::Events`], in which case [`SIM_SAMPLE_ENV`]
/// applies (default [`DEFAULT_SAMPLE_INTERVAL`]; `0` disables).
pub fn sample_interval() -> u64 {
    if mode() != Mode::Events {
        return 0;
    }
    match std::env::var(SIM_SAMPLE_ENV) {
        Err(_) => DEFAULT_SAMPLE_INTERVAL,
        Ok(raw) => match raw.trim().parse::<u64>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!(
                    "warning: ignoring {SIM_SAMPLE_ENV}={raw:?} \
                     (want an access count; 0 disables sampling)"
                );
                DEFAULT_SAMPLE_INTERVAL
            }
        },
    }
}

/// The Chrome trace output path for `events` mode: [`TRACE_OUT_ENV`] when
/// set, otherwise `results/trace.json`.
pub fn trace_out_path() -> std::path::PathBuf {
    match std::env::var_os(TRACE_OUT_ENV) {
        Some(path) if !path.is_empty() => std::path::PathBuf::from(path),
        _ => std::path::PathBuf::from("results").join("trace.json"),
    }
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Tests that install/uninstall the global collector serialize on
    /// this lock so they can run in one test binary without racing.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(Mode::parse("off"), Some(Mode::Off));
        assert_eq!(Mode::parse("SUMMARY"), Some(Mode::Summary));
        assert_eq!(Mode::parse(" events "), Some(Mode::Events));
        assert_eq!(Mode::parse("verbose"), None);
        assert_eq!(Mode::default(), Mode::Off);
        for m in [Mode::Off, Mode::Summary, Mode::Events] {
            assert_eq!(Mode::parse(m.name()), Some(m));
        }
    }

    #[test]
    fn disabled_emit_never_builds_the_event() {
        let _guard = test_lock::hold();
        uninstall();
        emit(|| panic!("event built while disabled"));
    }

    #[test]
    fn install_emit_uninstall_round_trip() {
        let _guard = test_lock::hold();
        let recorder = install_recorder(Mode::Summary);
        assert!(enabled());
        assert_eq!(mode(), Mode::Summary);
        assert_eq!(sample_interval(), 0, "sampling is events-mode only");
        emit(|| Event::instant("cell", "timeout", vec![("index", Value::U64(3))]));
        assert_eq!(recorder.snapshot().len(), 1);
        let global = super::recorder().expect("recorder installed");
        assert!(Arc::ptr_eq(&recorder, &global));
        uninstall();
        assert!(!enabled());
        assert_eq!(mode(), Mode::Off);
        assert!(super::recorder().is_none());
        emit(|| panic!("still recording after uninstall"));
        assert_eq!(recorder.snapshot().len(), 1, "old recorder untouched");
    }

    #[test]
    fn clock_is_monotonic_and_thread_ids_are_stable() {
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
        assert_eq!(thread_id(), thread_id());
        let other = std::thread::spawn(thread_id).join().expect("joins");
        assert_ne!(other, thread_id());
    }

    #[test]
    fn off_mode_install_is_uninstall() {
        let _guard = test_lock::hold();
        let recorder = Arc::new(Recorder::new());
        install(Mode::Off, recorder as Arc<dyn Collector>);
        assert!(!enabled());
    }
}
