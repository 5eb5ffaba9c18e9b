//! The `figure-sweep` workload: Figure 8-11-shaped cells run in-process
//! through `RunContext::plain(2).run`, each cell one kernel × layout
//! variant × cache set, fed from one compiled walk per distinct layout.

use std::sync::Mutex;
use std::time::Instant;

use pad_bench::harness::{RunContext, Variant};
use pad_cache_sim::{Cache, CacheConfig, ClassifyingCache, SplitMix64};
use pad_core::{DataLayout, PaddingPipeline};
use pad_ir::Program;
use pad_trace::{padding_config_for, simulate_batch, BatchRequest};

use crate::gen::{self, CacheSet, SweepConfig};
use crate::layers::{self, Sink};
use crate::profile::{self, Extras};
use crate::spans::{self, Recorder, Span, ROOT};
use crate::stats::{median, percentile, Fnv, Metric};
use crate::{Ctx, Outcome, Workload};

/// Configurations (three cells each) per second of `--seconds`, sized so
/// the sweep takes about `--seconds` on a 2-core host.
const CONFIGS_PER_SECOND: u64 = 5;
/// Pool width: the host's two cores.
const THREADS: usize = 2;
/// Set-up repetitions `setup_s` is the median of.
const SETUP_REPS: usize = 41;
/// Cells re-simulated by the reference oracle per run.
const ORACLE_CELLS: usize = 2;

/// One sweep cell.
pub struct Cell {
    label: String,
    config: SweepConfig,
    variant: Variant,
    program: Program,
    caches: Vec<CacheConfig>,
}

const VARIANTS: [Variant; 3] = [Variant::Original, Variant::PadLite, Variant::Pad];

/// The cells of `configs`: original, PADLITE and PAD for each.
pub fn cells(configs: &[SweepConfig]) -> Vec<Cell> {
    let mut cells = Vec::with_capacity(configs.len() * 3);
    for config in configs {
        let program = gen::program(config.kernel, config.n);
        let caches: Vec<CacheConfig> = config.set.geos().into_iter().map(gen::Geo::config).collect();
        for variant in VARIANTS {
            cells.push(Cell {
                label: format!("{} n={} {} {}", config.kernel, config.n, config.set.label(), variant.label()),
                config: *config,
                variant,
                program: program.clone(),
                caches: caches.clone(),
            });
        }
    }
    cells
}

/// Caches grouped by the layout they share: a variant's layout depends
/// only on the padding geometry (size, line), and the original layout on
/// nothing — the grouping `harness::miss_rates` walks by.
fn layout_groups(c: &Cell) -> Vec<Vec<usize>> {
    let mut groups: Vec<((u64, u64), Vec<usize>)> = Vec::new();
    for (i, cache) in c.caches.iter().enumerate() {
        let key = if c.variant == Variant::Original { (0, 0) } else { (cache.size(), cache.line_size()) };
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    groups.into_iter().map(|(_, members)| members).collect()
}

/// The untraced cell: per layout group, `Variant::layout` then one
/// `simulate_batch` walk feeding every cache of the group (plain, or
/// classified for 3C cells). Returns `[accesses, misses per cache..]`,
/// 3C cells appending compulsory, capacity and conflict misses.
fn run_cell(c: &Cell) -> Vec<f64> {
    let mut out = vec![0.0; 1 + c.caches.len()];
    for members in layout_groups(c) {
        let layout = c.variant.layout(&c.program, &c.caches[members[0]]);
        let caches = members.iter().map(|&i| c.caches[i]);
        if c.config.set == CacheSet::Classified {
            let r = simulate_batch(&c.program, &layout, &BatchRequest::new().with_classified(c.caches[0]));
            let s = &r.classified[0];
            out = vec![s.cache.accesses as f64, s.cache.misses as f64];
            out.extend([s.compulsory, s.capacity, s.conflict].map(|x| x as f64));
        } else {
            let r = simulate_batch(&c.program, &layout, &BatchRequest::new().with_plain_configs(caches));
            for (&i, s) in members.iter().zip(&r.plain) {
                out[0] = s.accesses as f64;
                out[1 + i] = s.misses as f64;
            }
        }
    }
    out
}

/// The traced cell: the same work decomposed into `core.pipeline`,
/// `trace.compile`, `trace.walk` and one span per sink; same result.
fn run_cell_traced(c: &Cell, rec: &mut Recorder, parent: u32, pads: &Mutex<u64>) -> Vec<f64> {
    let mut out = vec![0.0; 1 + c.caches.len()];
    let mut buf = Vec::new();
    for members in layout_groups(c) {
        let layout = match c.variant {
            Variant::Original => DataLayout::original(&c.program),
            v => {
                let config = padding_config_for(&c.caches[members[0]]);
                let pipeline = if v == Variant::Pad { PaddingPipeline::pad(config) } else { PaddingPipeline::padlite(config) };
                let outcome = rec.time("core.pipeline", parent, || pipeline.run(&c.program));
                *pads.lock().expect("pads lock") += (outcome.stats.arrays_intra_padded + outcome.stats.arrays_inter_padded) as u64;
                outcome.layout
            }
        };
        let mut sinks: Vec<Sink> = members
            .iter()
            .map(|&i| match c.config.set {
                CacheSet::Classified => Sink::Classify(ClassifyingCache::new(c.caches[i])),
                _ => Sink::Plain(Cache::new(c.caches[i])),
            })
            .collect();
        out[0] = layers::walk(rec, parent, &c.program, &layout, &mut sinks, &mut buf) as f64;
        for (&i, sink) in members.iter().zip(&sinks) {
            out[1 + i] = sink.misses() as f64;
            if let Sink::Classify(cc) = sink {
                let s = cc.stats();
                out.extend([s.compulsory, s.capacity, s.conflict].map(|x| x as f64));
            }
        }
    }
    out
}

/// Silences stderr (the pool's per-cell progress lines) until dropped.
struct Muted(i32);

extern "C" {
    fn dup(fd: i32) -> i32;
    fn dup2(src: i32, dst: i32) -> i32;
    fn close(fd: i32) -> i32;
}

impl Muted {
    fn stderr() -> Option<Muted> {
        use std::os::fd::AsRawFd;
        let null = std::fs::OpenOptions::new().write(true).open("/dev/null").ok()?;
        // SAFETY: plain descriptor calls on fds this process owns; fd 2 is
        // restored from the saved duplicate in `drop`.
        unsafe {
            let saved = dup(2);
            if saved < 0 || dup2(null.as_raw_fd(), 2) < 0 {
                return None;
            }
            Some(Muted(saved))
        }
    }
}

impl Drop for Muted {
    fn drop(&mut self) {
        // SAFETY: see `Muted::stderr`.
        unsafe {
            dup2(self.0, 2);
            close(self.0);
        }
    }
}

/// Per-cell timing: start and end (ns since the origin) and pool thread.
type CellTimes = Mutex<Vec<(usize, u64, u64, u32)>>;

/// Runs every cell through `RunContext::plain(THREADS).run`, recording
/// each cell's time; returns the cell results (in cell order) and the
/// run's start and end, ns since `origin`.
fn sweep<T>(cells: &[Cell], origin: Instant, times: &CellTimes, f: impl Fn(usize, &mut Recorder) -> T + Sync) -> (Vec<Option<T>>, u64, u64)
where
    T: pad_bench::journal::JournalPayload + Send + Sync,
{
    let labels: Vec<String> = cells.iter().map(|c| c.label.clone()).collect();
    let ctx = RunContext::plain(THREADS);
    let _muted = Muted::stderr();
    let start = origin.elapsed().as_nanos() as u64;
    let outcomes = ctx.run(&labels, |i| {
        let mut rec = Recorder::new(origin, i as u32, spans::thread_index());
        let start = rec.now();
        let value = f(i, &mut rec);
        times.lock().expect("times lock").push((i, start, rec.now(), spans::thread_index()));
        value
    });
    let end = origin.elapsed().as_nanos() as u64;
    (outcomes.into_iter().map(|o| o.into_value()).collect(), start, end)
}

/// Runs the figure sweep: timed set-up, warm-up, the timed sweep, output
/// checks, and — when `traced` — the decomposed sweep.
pub fn run(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let count = (ctx.seconds * CONFIGS_PER_SECOND) as usize;
    // Set-up (cell list and programs), sampled before and after the timed
    // sweep so that no one moment's host load sets it.
    let mut setup_ms = Vec::with_capacity(SETUP_REPS);
    let mut set_up = |reps: usize| {
        let mut cells = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            cells = self::cells(&gen::figure_sweep(ctx.seed, count));
            setup_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        cells
    };
    let cells = set_up(SETUP_REPS / 2);

    let warm = self::cells(&gen::figure_sweep(ctx.seed ^ gen::WARMUP_SALT, 4));
    let origin = Instant::now();
    sweep(&warm, origin, &Mutex::new(Vec::new()), |i, _| run_cell(&warm[i]));

    let times: CellTimes = Mutex::new(Vec::new());
    let (results, start, end) = sweep(&cells, origin, &times, |i, _| run_cell(&cells[i]));
    let wall = (end - start) as f64 / 1e9;
    let rss = crate::peak_rss_mb("/proc/self/status");
    set_up(SETUP_REPS - SETUP_REPS / 2);

    let mut out = Outcome::new(cells.len());
    let digest = check(ctx, &cells, &results, &mut out);
    let cell_ms: Vec<f64> = times.into_inner().expect("times lock").iter().map(|t| (t.2 - t.1) as f64 / 1e6).collect();
    let n = cell_ms.len();
    // Padded over original misses, per padded cell and cache (a padded
    // cell's original is the first cell of its configuration).
    let mut ratios = Vec::new();
    let mut sinks = 0.0;
    for (i, (c, r)) in cells.iter().zip(&results).enumerate() {
        let Some(counts) = r else { continue };
        sinks += counts[0] * c.caches.len() as f64;
        if let (false, Some(orig)) = (c.variant == Variant::Original, &results[i - i % 3]) {
            for k in 1..=c.caches.len() {
                if orig[k] > 0.0 {
                    ratios.push(counts[k] / orig[k]);
                }
            }
        }
    }
    out.e2e = vec![
        Metric::sampled("setup_s", median(&setup_ms) / 1e3, "s", setup_ms.len()),
        Metric::sampled("wall_s", wall, "s", n),
        Metric::sampled("p50_ms", percentile(&cell_ms, 0.5).unwrap_or(f64::NAN), "ms", n),
        Metric::sampled("p95_ms", percentile(&cell_ms, 0.95).unwrap_or(f64::NAN), "ms", n),
        Metric::exact("peak_rss_mb", rss, "MB"),
        Metric::sampled("padded_miss_ratio", crate::stats::mean(&ratios), "ratio", ratios.len()),
    ];
    out.notes.push(format!("sim_maps = {:.3} M accesses x sinks / s (n={n} cells)", sinks / wall / 1e6));
    out.notes.push(format!("digest {digest}"));

    if traced && out.problems.is_empty() {
        trace_run(ctx, &cells, &results, &cell_ms, wall, &mut out)?;
    }
    Ok(out)
}

/// Output checks: no failed cell, a seeded sample of cells against the
/// reference oracle, and the digest of every cell result.
fn check(ctx: &Ctx, cells: &[Cell], results: &[Option<Vec<f64>>], out: &mut Outcome) -> String {
    for (c, r) in cells.iter().zip(results) {
        if r.is_none() {
            out.failed += 1;
            out.problem(format!("cell `{}` failed (ERR/TIMEOUT)", c.label));
        }
    }
    let mut rng = SplitMix64::new(ctx.seed ^ 0x0AC1E);
    for _ in 0..ORACLE_CELLS.min(cells.len()) {
        let i = rng.below(cells.len() as u64) as usize;
        let (c, Some(counts)) = (&cells[i], &results[i]) else { continue };
        for (k, cache) in c.caches.iter().enumerate() {
            let layout = c.variant.layout(&c.program, cache);
            let oracle = crate::serve::oracle(&c.program, &layout, cache);
            let claimed = (counts[0] as u64, counts[1 + k] as u64);
            if oracle != claimed {
                out.problem(format!("cell `{}` cache {k}: oracle {oracle:?} vs cell {claimed:?}", c.label));
            }
        }
    }
    let digest = digest(results);
    if let Err(e) = crate::remember_digest(ctx, Workload::FigureSweep, &digest) {
        out.problem(e);
    }
    digest
}

fn digest(results: &[Option<Vec<f64>>]) -> String {
    let mut fnv = Fnv::default();
    for r in results {
        for x in r.as_deref().unwrap_or(&[]) {
            fnv.eat(&x.to_bits().to_le_bytes());
        }
        fnv.eat(b"|");
    }
    fnv.hex()
}

/// The decomposed sweep and its per-layer metrics.
fn trace_run(
    ctx: &Ctx,
    cells: &[Cell],
    untraced: &[Option<Vec<f64>>],
    untraced_ms: &[f64],
    untraced_wall: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let origin = Instant::now();
    let times: CellTimes = Mutex::new(Vec::new());
    let recorded: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
    let pads = Mutex::new(0u64);
    let (results, start, t_end) = sweep(cells, origin, &times, |i, rec| {
        let cell = rec.open("bench.cell", ROOT);
        let rates = run_cell_traced(&cells[i], rec, cell, &pads);
        rec.close(cell, 0);
        recorded.lock().expect("spans lock").push(std::mem::take(&mut rec.spans));
        rates
    });
    let wall = (t_end - start) as f64 / 1e9;
    if digest(&results) != digest(untraced) {
        out.problem("decomposed sweep results differ from the untraced sweep".to_string());
    }

    let recorded = recorded.into_inner().expect("spans lock");
    let totals = spans::totals(&recorded);
    let layer_ns: f64 = totals.iter().filter(|(n, _)| **n != "bench.cell").map(|(_, t)| t.self_ns as f64).sum();
    let times = times.into_inner().expect("times lock");
    let cell_ms: Vec<f64> = times.iter().map(|t| (t.2 - t.1) as f64 / 1e6).collect();
    let busy: f64 = cell_ms.iter().sum::<f64>() / 1e3;
    let mut last_end = std::collections::BTreeMap::new();
    for &(_, _, end, thread) in &times {
        let e = last_end.entry(thread).or_insert(0u64);
        *e = (*e).max(end);
    }
    let first_idle = last_end.values().copied().min().unwrap_or(t_end);
    let extras = Extras {
        pads: pads.into_inner().expect("pads lock"),
        bench: Some((
            percentile(&cell_ms, 0.5).unwrap_or(f64::NAN),
            cell_ms.len(),
            busy / (THREADS as f64 * wall),
            t_end.saturating_sub(first_idle) as f64 / 1e6,
        )),
        residual_frac: 1.0 - layer_ns / (untraced_ms.iter().sum::<f64>() * 1e6),
        trace_overhead_frac: wall / untraced_wall - 1.0,
        ..Extras::default()
    };
    out.layers = profile::layer_metrics(&totals, &extras);
    out.notes.extend(profile::shares(&totals, "bench.cell"));
    let header = format!("{} workload={}", ctx.header, Workload::FigureSweep.name());
    let path = ctx.out.join("spans-figure-sweep.ndjson");
    spans::write_ndjson(&path, &header, &recorded).map_err(|e| e.to_string())?;
    out.notes.push(format!("spans written to {}", path.display()));
    Ok(())
}
