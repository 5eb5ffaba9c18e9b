//! Shared plumbing for the experiment binaries, including the
//! zero-dependency timing loop ([`time_it`]) behind the `bench_*`
//! binaries (this crate deliberately has no external benchmarking
//! dependency so the harness builds offline) and the fault-tolerant
//! execution layer ([`RunContext`]) every figure sweep routes through.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pad_cache_sim::CacheConfig;
use pad_core::{DataLayout, InterHeuristic, IntraHeuristic, LinAlgHeuristic, PaddingPipeline};
use pad_ir::Program;
use pad_kernels::{suite, Kernel};
use pad_report::{write_csv, CellFailure, FailureSummary, Table};
use pad_telemetry::{summarize, Event, Mode, TelemetrySummary, Value};
use pad_trace::{padding_config_for, simulate_batch, BatchRequest, WalkMemo};

use crate::journal::{fingerprint, resume_requested, Journal, JournalPayload};
use crate::pool::{self, CellOutcome};

/// A data-layout policy under test — the paper's transformation variants
/// plus the ablation combinations its figures compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Untransformed sequential layout.
    Original,
    /// The PADLITE algorithm.
    PadLite,
    /// PADLITE with a non-default minimum separation `M` (in cache
    /// lines) — Figure 13.
    PadLiteM(u64),
    /// The PAD algorithm.
    Pad,
    /// Inter-variable padding only (`INTERPAD` without any intra phase) —
    /// Figure 12's baseline.
    InterPadOnly,
    /// `INTERPADLITE` alone — Figure 17's baseline.
    InterLiteOnly,
    /// `LINPAD1` followed by `INTERPADLITE` — Figure 17.
    LinPad1Lite,
    /// `LINPAD2` (ungated) followed by `INTERPADLITE` — Figure 17.
    LinPad2Lite,
}

impl Variant {
    /// Short label used in table headers.
    pub fn label(self) -> String {
        match self {
            Variant::Original => "orig".into(),
            Variant::PadLite => "padlite".into(),
            Variant::PadLiteM(m) => format!("padlite(M={m})"),
            Variant::Pad => "pad".into(),
            Variant::InterPadOnly => "interpad".into(),
            Variant::InterLiteOnly => "interlite".into(),
            Variant::LinPad1Lite => "linpad1".into(),
            Variant::LinPad2Lite => "linpad2".into(),
        }
    }

    /// Computes this variant's layout for a program on a cache.
    pub fn layout(self, program: &Program, cache: &CacheConfig) -> DataLayout {
        let config = padding_config_for(cache);
        let pipeline = match self {
            Variant::Original => return DataLayout::original(program),
            Variant::PadLite => PaddingPipeline::padlite(config),
            Variant::PadLiteM(m) => PaddingPipeline::padlite(config.with_min_separation_lines(m)),
            Variant::Pad => PaddingPipeline::pad(config),
            Variant::InterPadOnly => PaddingPipeline::custom(
                IntraHeuristic::None,
                LinAlgHeuristic::None,
                InterHeuristic::Analyzed,
                config,
            ),
            Variant::InterLiteOnly => PaddingPipeline::custom(
                IntraHeuristic::None,
                LinAlgHeuristic::None,
                InterHeuristic::Lite,
                config,
            ),
            Variant::LinPad1Lite => PaddingPipeline::custom(
                IntraHeuristic::None,
                LinAlgHeuristic::LinPad1,
                InterHeuristic::Lite,
                config,
            ),
            Variant::LinPad2Lite => PaddingPipeline::custom(
                IntraHeuristic::None,
                LinAlgHeuristic::LinPad2,
                InterHeuristic::Lite,
                config,
            ),
        };
        pipeline.run(program).layout
    }
}

/// Simulated miss rate (percent) of `program` under `variant` on `cache`.
/// Uses the compiled trace walker (verified equivalent to the interpreter)
/// because the figure sweeps push billions of accesses.
pub fn miss_rate_percent(program: &Program, variant: Variant, cache: &CacheConfig) -> f64 {
    miss_rates(program, variant, &[*cache])[0]
}

/// Miss rates (percent) of `program` under `variant` across several
/// caches, in input order, compiling and walking each distinct layout's
/// trace exactly once.
///
/// A variant's layout depends only on the padding geometry — the cache
/// size and line size ([`padding_config_for`]) — never on associativity
/// or index function, and [`Variant::Original`] ignores the cache
/// entirely. Caches sharing a layout are therefore grouped and fed from
/// one batched trace walk ([`simulate_batch`]), which is what makes the
/// associativity sweeps (Figures 9 and 10) cost one walk per layout
/// instead of one per cell.
pub fn miss_rates(program: &Program, variant: Variant, caches: &[CacheConfig]) -> Vec<f64> {
    let mut rates = vec![f64::NAN; caches.len()];
    let mut groups: Vec<((u64, u64), Vec<usize>)> = Vec::new();
    for (i, cache) in caches.iter().enumerate() {
        let key = if variant == Variant::Original {
            (0, 0)
        } else {
            (cache.size(), cache.line_size())
        };
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    for (_, members) in groups {
        let layout = variant.layout(program, &caches[members[0]]);
        let request = BatchRequest::new().with_plain_configs(members.iter().map(|&i| caches[i]));
        let stats = simulate_batch(program, &layout, &request).plain;
        for (&slot, s) in members.iter().zip(&stats) {
            rates[slot] = s.miss_rate_percent();
        }
    }
    rates
}

/// Exact plain-cache miss count of `program` under an explicit `layout`
/// on `cache` — the ground-truth rung the pad-search objective promotes
/// frontier candidates to. One compiled trace walk per call.
pub fn exact_misses(program: &Program, layout: &DataLayout, cache: &CacheConfig) -> u64 {
    simulate_batch(program, layout, &BatchRequest::new().with_plain(*cache)).plain[0].misses
}

/// The benchmark suite with each kernel's spec built at its default size.
pub fn suite_programs() -> Vec<(Kernel, Program)> {
    suite()
        .into_iter()
        .map(|k| {
            let p = (k.spec)(k.default_n);
            (k, p)
        })
        .collect()
}

/// Where CSV outputs land (`results/` under the working directory).
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Prints a table and writes it to `results/<stem>.csv`.
pub fn emit(title: &str, table: &Table, stem: &str) {
    println!("== {title} ==");
    println!("{table}");
    let path = results_dir().join(format!("{stem}.csv"));
    match write_csv(table, &path) {
        Ok(()) => println!("(wrote {})", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    println!();
}

/// True when the caller asked for a reduced-cost smoke run
/// (`PAD_QUICK=1`).
pub fn quick_mode() -> bool {
    std::env::var_os("PAD_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

/// The paper's problem-size sweep (Figures 16 and 17): 250 to 520,
/// augmented with the power-of-two-ish sizes where conflicts spike
/// ("particularly powers of two", Section 4.5). Quick mode coarsens the
/// stride.
pub fn sweep_sizes() -> Vec<i64> {
    let step = if quick_mode() { 30 } else { 10 };
    let mut sizes: Vec<i64> = (250..=520).step_by(step).collect();
    sizes.extend([256, 288, 384, 416, 448, 512]);
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

/// A kernel spec builder parameterized by problem size.
pub type SpecFn = fn(i64) -> Program;

/// The four sweep kernels of Figures 16/17, with spec builders sized for
/// simulation.
pub fn sweep_kernels() -> Vec<(&'static str, SpecFn)> {
    vec![
        ("EXPL", pad_kernels::expl::spec as SpecFn),
        ("SHAL", pad_kernels::shal::spec),
        ("DGEFA", pad_kernels::dgefa::spec),
        ("CHOL", pad_kernels::chol::spec),
    ]
}

/// A [`time_it`] measurement: wall time per iteration of the closure.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Fastest observed per-iteration time, in seconds (the number to
    /// report: least disturbed by scheduling noise).
    pub best_secs: f64,
    /// Mean per-iteration time over the whole measurement, in seconds.
    pub mean_secs: f64,
    /// Total iterations executed during measurement.
    pub iters: u64,
}

impl Timing {
    /// `best_secs` in milliseconds.
    pub fn best_ms(&self) -> f64 {
        self.best_secs * 1e3
    }
}

/// Times a closure: warms up for `warmup`, sizes batches to ~10 ms from a
/// calibration run, then measures batches for at least `measure`,
/// reporting best and mean per-iteration times.
pub fn time_it(warmup: Duration, measure: Duration, mut f: impl FnMut()) -> Timing {
    let start = Instant::now();
    loop {
        f();
        if start.elapsed() >= warmup {
            break;
        }
    }
    let calibrate = Instant::now();
    f();
    let estimate = calibrate.elapsed().as_secs_f64().max(1e-9);
    let batch = ((0.01 / estimate).ceil() as u64).clamp(1, 1_000_000);

    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let mut iters = 0u64;
    let clock = Instant::now();
    while iters == 0 || clock.elapsed() < measure {
        let batch_start = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = batch_start.elapsed().as_secs_f64();
        best = best.min(elapsed / batch as f64);
        total += elapsed;
        iters += batch;
    }
    Timing {
        best_secs: best,
        mean_secs: total / iters as f64,
        iters,
    }
}

/// Aggregate result of one experiment run under fault isolation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStatus {
    /// Cells executed or replayed.
    pub cells: usize,
    /// Cells whose final outcome was a failure (panic or timeout).
    pub failed: usize,
    /// Cells replayed from the checkpoint journal.
    pub resumed: usize,
}

impl RunStatus {
    /// Folds another experiment's status into this one (used by `all`).
    pub fn merge(&mut self, other: RunStatus) {
        self.cells += other.cells;
        self.failed += other.failed;
        self.resumed += other.resumed;
    }

    /// Process exit code: success only when every cell completed.
    pub fn exit_code(self) -> ExitCode {
        if self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Fault-tolerant execution context for one experiment: pool width,
/// per-cell deadline, optional checkpoint journal, and the accumulated
/// failure summary.
///
/// Every `*_table` builder in [`crate::experiments`] executes its cells
/// through [`RunContext::run`], so per-cell panics and deadline misses
/// degrade to `ERR`/`TIMEOUT` markers in the rendered tables instead of
/// aborting the binary, and — when a journal is attached — every
/// completed cell is checkpointed for `RIVERA_RESUME=1` reruns.
///
/// Cells run under the [`WalkMemo`] installed on the calling thread, or
/// under the context's own, so a (stream, cache) pair that several cells
/// simulate — an original layout a heuristic left unchanged, PADLITE and
/// PAD agreeing — is walked once per run.
#[derive(Debug)]
pub struct RunContext {
    experiment: String,
    threads: usize,
    deadline: Option<Duration>,
    journal: Option<Journal>,
    memo: Arc<WalkMemo>,
    cells: AtomicUsize,
    resumed: AtomicUsize,
    failures: Mutex<FailureSummary>,
    /// Recorder length at construction: [`RunContext::finish`] summarizes
    /// only events this experiment emitted, even when several experiments
    /// share one process (the `all` binary).
    watermark: usize,
}

impl RunContext {
    /// A bare context: explicit width, no deadline, no journal. The
    /// deterministic table tests build tables through this so they never
    /// write journal files.
    pub fn plain(threads: usize) -> Self {
        RunContext::with("test", threads, None, None)
    }

    /// The context the experiment binaries run under: pool width from
    /// `RIVERA_THREADS`, per-cell deadline from `RIVERA_CELL_TIMEOUT`,
    /// and a checkpoint journal at `results/<experiment>.journal`
    /// (resumed when `RIVERA_RESUME=1`, fresh otherwise). A journal that cannot be opened degrades to a
    /// warning — reliability plumbing never aborts the science.
    pub fn for_experiment(experiment: &str) -> Self {
        pad_telemetry::init_from_env();
        let path = results_dir().join(format!("{experiment}.journal"));
        let journal = if resume_requested() {
            Journal::resume(&path)
        } else {
            Journal::create(&path)
        };
        let journal = match journal {
            Ok(journal) => {
                if journal.replayable() > 0 {
                    eprintln!(
                        "  (resuming: {} cell(s) on record in {})",
                        journal.replayable(),
                        journal.path().display()
                    );
                }
                Some(journal)
            }
            Err(e) => {
                eprintln!("warning: no checkpoint journal at {}: {e}", path.display());
                None
            }
        };
        RunContext::with(
            experiment,
            pool::thread_count(),
            pool::deadline_from_env(),
            journal,
        )
    }

    /// Fully explicit constructor (the fault-injection suite drives
    /// this with temp-dir journals and synthetic deadlines).
    pub fn with(
        experiment: &str,
        threads: usize,
        deadline: Option<Duration>,
        journal: Option<Journal>,
    ) -> Self {
        RunContext {
            experiment: experiment.to_string(),
            threads,
            deadline,
            journal,
            memo: Arc::new(WalkMemo::new()),
            cells: AtomicUsize::new(0),
            resumed: AtomicUsize::new(0),
            failures: Mutex::new(FailureSummary::new()),
            watermark: pad_telemetry::recorder().map_or(0, |r| r.len()),
        }
    }

    /// Overrides the pool width (Figure 15 forces serial timing cells).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The pool width this context executes on.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one labeled cell sweep under fault isolation and returns the
    /// per-cell outcomes in cell order: each cell runs once, its panic
    /// isolated and its deadline applied, journaled results are
    /// replayed, and fresh completions checkpointed as they finish.
    /// Cells run under the installed walk memo, else the context's own.
    pub fn run<T: JournalPayload + Send + Sync>(
        &self,
        labels: &[String],
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<CellOutcome<T>> {
        WalkMemo::installed()
            .unwrap_or_else(|| Arc::clone(&self.memo))
            .run(|| self.run_cells(labels, f))
    }

    fn run_cells<T: JournalPayload + Send + Sync>(
        &self,
        labels: &[String],
        f: impl Fn(usize) -> T + Sync,
    ) -> Vec<CellOutcome<T>> {
        let fps: Vec<u64> = labels
            .iter()
            .map(|label| fingerprint(&self.experiment, label))
            .collect();
        let replayed: Vec<AtomicBool> = labels.iter().map(|_| AtomicBool::new(false)).collect();
        self.cells.fetch_add(labels.len(), Ordering::Relaxed);
        pool::run_cells_outcome_with(
            self.threads,
            labels.len(),
            self.deadline,
            |index| {
                if let Some(journal) = &self.journal {
                    if let Some(value) = journal.lookup::<T>(fps[index]) {
                        replayed[index].store(true, Ordering::Relaxed);
                        return value;
                    }
                }
                let start = Instant::now();
                let t0 = if pad_telemetry::enabled() {
                    pad_telemetry::now_us()
                } else {
                    0
                };
                let value = f(index);
                pad_telemetry::emit(|| {
                    Event::span(
                        t0,
                        "cell",
                        labels[index].clone(),
                        vec![
                            ("index", Value::U64(index as u64)),
                            ("thread", Value::U64(pad_telemetry::thread_id())),
                        ],
                    )
                });
                eprintln!(
                    "  {} ({:.0} ms)",
                    labels[index],
                    start.elapsed().as_secs_f64() * 1e3
                );
                value
            },
            |index, outcome| {
                if replayed[index].load(Ordering::Relaxed) {
                    self.resumed.fetch_add(1, Ordering::Relaxed);
                    eprintln!("  {} (resumed from journal)", labels[index]);
                    return;
                }
                match (outcome.value(), outcome.failure()) {
                    (Some(value), _) => {
                        if let Some(journal) = &self.journal {
                            journal.record_ok(fps[index], value);
                        }
                    }
                    (None, Some(detail)) => {
                        let marker = outcome.marker().unwrap_or(pad_report::ERR_MARKER);
                        eprintln!("  {} FAILED: {detail}", labels[index]);
                        if let Some(journal) = &self.journal {
                            journal.record_failure(fps[index], marker, &detail);
                        }
                        pad_telemetry::emit(|| {
                            let name = if marker == pad_report::TIMEOUT_MARKER {
                                "timeout"
                            } else {
                                "err"
                            };
                            Event::instant(
                                "cell",
                                name,
                                vec![
                                    ("label", Value::Str(labels[index].clone())),
                                    ("index", Value::U64(index as u64)),
                                    ("detail", Value::Str(detail.clone())),
                                ],
                            )
                        });
                        self.push_failure(CellFailure {
                            label: labels[index].clone(),
                            marker: marker.to_string(),
                            detail,
                            elapsed: outcome.elapsed().unwrap_or(Duration::ZERO),
                        });
                    }
                    (None, None) => unreachable!("an outcome is a value or a failure"),
                }
            },
        )
    }

    fn push_failure(&self, failure: CellFailure) {
        match self.failures.lock() {
            Ok(mut failures) => failures.push(failure),
            // Never let a poisoned bookkeeping lock cascade — recover
            // the summary and keep going.
            Err(poisoned) => poisoned.into_inner().push(failure),
        }
    }

    /// Prints the trailing failure summary (and resume statistics) and
    /// returns the run's aggregate status for the binary's exit code.
    pub fn finish(self) -> RunStatus {
        let failures = match self.failures.into_inner() {
            Ok(failures) => failures,
            Err(poisoned) => poisoned.into_inner(),
        };
        let status = RunStatus {
            cells: self.cells.into_inner(),
            failed: failures.len(),
            resumed: self.resumed.into_inner(),
        };
        if status.resumed > 0 {
            println!(
                "(resumed {} of {} cell(s) from the checkpoint journal)",
                status.resumed, status.cells
            );
        }
        print!("{failures}");
        finish_telemetry(&self.experiment, self.watermark);
        status
    }
}

/// End-of-sweep telemetry output: a summary table on *stderr* and, in
/// events mode, the Chrome trace + NDJSON exports. Telemetry never
/// touches stdout, so rendered result tables stay byte-identical across
/// `RIVERA_TELEMETRY` modes.
fn finish_telemetry(experiment: &str, watermark: usize) {
    if pad_telemetry::mode() == Mode::Off {
        return;
    }
    let Some(recorder) = pad_telemetry::recorder() else {
        return;
    };
    let events = recorder.snapshot();
    let summary = summarize(&events[watermark.min(events.len())..]);
    print_telemetry_summary(experiment, &summary);
    if pad_telemetry::mode() == Mode::Events {
        // Export the *full* stream, not the watermark slice: when several
        // experiments share a process the last `finish` writes one
        // cumulative, Perfetto-loadable trace.
        let trace_path = pad_telemetry::trace_out_path();
        let ndjson_path = trace_path.with_extension("ndjson");
        match pad_report::write_chrome_trace(&events, &trace_path) {
            Ok(()) => eprintln!("  (telemetry: wrote {})", trace_path.display()),
            Err(e) => {
                eprintln!("warning: could not write {}: {e}", trace_path.display())
            }
        }
        match pad_report::write_ndjson(&events, &ndjson_path) {
            Ok(()) => eprintln!("  (telemetry: wrote {})", ndjson_path.display()),
            Err(e) => {
                eprintln!("warning: could not write {}: {e}", ndjson_path.display())
            }
        }
    }
}

/// Renders the human-readable end-of-sweep summary to stderr: slowest
/// cells, timeout/error counts, and per-kernel simulation throughput.
fn print_telemetry_summary(experiment: &str, summary: &TelemetrySummary) {
    eprintln!();
    eprintln!("== telemetry: {experiment} ==");
    eprintln!(
        "  cell spans {} (p50 {:.1} ms, p99 {:.1} ms) | timeouts {} | \
         errors {} | pad decisions {} | cache samples {}",
        summary.cell_durations_us.count(),
        summary.cell_durations_us.percentile(50.0) as f64 / 1e3,
        summary.cell_durations_us.percentile(99.0) as f64 / 1e3,
        summary.timeouts,
        summary.errors,
        summary.pad_decisions,
        summary.cache_samples,
    );
    if !summary.cells.is_empty() {
        let mut t = Table::new(["slowest cells", "total_ms", "thread"]);
        for cell in summary.cells.iter().take(10) {
            t.row([
                cell.label.clone(),
                format!("{:.1}", cell.total_us as f64 / 1e3),
                cell.thread.to_string(),
            ]);
        }
        for line in t.to_string().lines() {
            eprintln!("  {line}");
        }
    }
    if !summary.kernels.is_empty() {
        let mut t = Table::new(["kernel", "walks", "accesses", "Macc/s"]);
        for k in &summary.kernels {
            t.row([
                k.name.clone(),
                k.walks.to_string(),
                k.accesses.to_string(),
                format!("{:.1}", k.accesses_per_sec() / 1e6),
            ]);
        }
        for line in t.to_string().lines() {
            eprintln!("  {line}");
        }
    }
}

/// Renders one cell outcome into `width` table cells: the value's
/// rendering on success, or the failure marker replicated across the row
/// segment so failed cells are explicit in tables and CSVs.
pub fn cells_or_marker<T>(
    outcome: &CellOutcome<T>,
    width: usize,
    render: impl FnOnce(&T) -> Vec<String>,
) -> Vec<String> {
    match outcome.value() {
        Some(value) => render(value),
        None => {
            let marker = outcome.marker().unwrap_or(pad_report::ERR_MARKER);
            vec![marker.to_string(); width]
        }
    }
}

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a signed percentage-point difference with two decimals.
pub fn diff(x: f64) -> String {
    format!("{x:+.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_produce_valid_layouts() {
        let program = pad_kernels::jacobi::spec(128);
        let cache = CacheConfig::direct_mapped(2048, 32);
        for v in [
            Variant::Original,
            Variant::PadLite,
            Variant::PadLiteM(8),
            Variant::Pad,
            Variant::InterPadOnly,
            Variant::InterLiteOnly,
            Variant::LinPad1Lite,
            Variant::LinPad2Lite,
        ] {
            let layout = v.layout(&program, &cache);
            assert!(layout.check_no_overlap(), "{}", v.label());
        }
    }

    #[test]
    fn pad_never_hurts_jacobi_here() {
        let program = pad_kernels::jacobi::spec(128);
        let cache = CacheConfig::direct_mapped(4096, 32);
        let orig = miss_rate_percent(&program, Variant::Original, &cache);
        let pad = miss_rate_percent(&program, Variant::Pad, &cache);
        assert!(pad <= orig + 0.5, "orig={orig} pad={pad}");
    }

    #[test]
    fn grouped_miss_rates_match_per_cache_runs() {
        let program = pad_kernels::jacobi::spec(96);
        let caches = [
            CacheConfig::direct_mapped(2048, 32),
            CacheConfig::set_associative(2048, 32, 2),
            CacheConfig::direct_mapped(4096, 32),
            CacheConfig::set_associative(2048, 32, 4),
        ];
        for variant in [Variant::Original, Variant::Pad, Variant::PadLite] {
            let grouped = miss_rates(&program, variant, &caches);
            for (cache, rate) in caches.iter().zip(&grouped) {
                assert_eq!(
                    *rate,
                    miss_rates(&program, variant, &[*cache])[0],
                    "{} on {cache:?}",
                    variant.label()
                );
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            Variant::Original.label(),
            Variant::PadLite.label(),
            Variant::PadLiteM(2).label(),
            Variant::Pad.label(),
            Variant::InterPadOnly.label(),
            Variant::InterLiteOnly.label(),
            Variant::LinPad1Lite.label(),
            Variant::LinPad2Lite.label(),
        ];
        let mut sorted = labels.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }
}
