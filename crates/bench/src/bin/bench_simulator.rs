//! Throughput of the cache-simulation substrate, and the perf guardrail
//! for the batched/parallel experiment engine.
//!
//! The kernel trace is materialized **once** before timing; the engines
//! measure pure simulation throughput over that shared `Vec<Access>`.
//! Trace *generation* cost is tracked separately by the `walker/` row —
//! keeping the two concerns apart means a walker regression can't hide
//! inside an engine number and vice versa. Three engines do the *same*
//! work — simulating the trace through a sweep of cache configurations —
//! and must report identical miss counts (asserted before timing, along
//! with the `pad_trace::simulate_batch` production path):
//!
//! 1. `seed_serial`: the seed's architecture — per configuration, feed
//!    the nested-`Vec` [`BaselineCache`] one access at a time (per-access
//!    dispatch, division-based indexing).
//! 2. `batched`: tee chunked slices of the shared trace into every
//!    flat-storage cache, so each `BATCH_CHUNK` block stays cache-hot
//!    across all sinks while the `run_slice` kernels consume it.
//! 3. `parallel`: one pool cell per configuration ([`pad_bench::pool`]),
//!    each streaming the whole shared trace through its own cache. On a
//!    single-core host this approximates `batched` without the teeing
//!    benefit; on multicore hosts it scales with `RIVERA_THREADS`.
//!
//! Results are printed as a table and written to `BENCH_simulator.json`,
//! then gated: `batched` must clear a recorded floor (the long-term
//! target is 1 G accesses/sec), and `parallel` must beat `batched`
//! whenever the host actually has ≥ 2 cores — on single-core hosts that
//! gate is *skipped with an explicit marker*, never silently passed.
//! Pass `--quick` (or set `PAD_QUICK=1`) for a reduced smoke workload
//! with a correspondingly conservative floor and no JSON write.
//!
//! Also measures the per-component rates the retired Criterion bench
//! tracked: interpreted vs compiled trace walkers, and per-organization
//! cache throughput (baseline vs flat storage) for every `run_slice`
//! kernel specialization (DM and 2/4/8/16-way).

use std::collections::HashSet;
use std::time::Duration;

use pad_bench::harness::{time_it, Timing};
use pad_bench::pool;
use pad_cache_sim::{
    Access, BaselineCache, Cache, CacheConfig, ClassifyingCache, IndexFunction, ShadowLru,
};
use pad_core::DataLayout;
use pad_report::Table;
use pad_trace::{simulate_batch, BatchRequest, CompiledTrace, BATCH_CHUNK};

const WARMUP: Duration = Duration::from_millis(300);
const MEASURE: Duration = Duration::from_secs(1);

/// Long-term batched-engine goal, logged next to every gate evaluation.
const TARGET_APS: f64 = 1.0e9;
/// Full-workload floor for the batched engine (accesses/sec). Calibrated
/// from best-of-5 interleaved rounds on the recording host (observed
/// 150-250 M/s across runs) with headroom for that host's ±50% noise;
/// see `EXPERIMENTS.md` ("Throughput gates") before changing.
const FULL_FLOOR_APS: f64 = 100.0e6;
/// Smoke-mode floor: the quick workload (n=128) is too small to time
/// precisely, so this only catches order-of-magnitude regressions.
const QUICK_FLOOR_APS: f64 = 25.0e6;

fn sweep_configs() -> Vec<CacheConfig> {
    vec![
        CacheConfig::direct_mapped(16 * 1024, 32),
        CacheConfig::set_associative(16 * 1024, 32, 2),
        CacheConfig::set_associative(16 * 1024, 32, 4),
        CacheConfig::set_associative(16 * 1024, 32, 16),
        CacheConfig::direct_mapped(2 * 1024, 32),
        CacheConfig::direct_mapped(4 * 1024, 32),
        CacheConfig::direct_mapped(8 * 1024, 32),
        CacheConfig::direct_mapped(16 * 1024, 32).with_index_function(IndexFunction::Xor),
    ]
}

fn strided_trace(len: usize) -> Vec<Access> {
    (0..len)
        .map(|i| Access {
            addr: ((i as u64) * 40) % (1 << 20),
            is_write: i % 5 == 0,
        })
        .collect()
}

/// Per-organization single-cache throughput: the seed's nested-Vec model
/// vs the flat-storage `run_slice` kernels, on a strided synthetic trace. Every
/// const-generic associativity specialization gets its own row so a
/// regression in one kernel can't hide behind the others.
fn component_rates(t: &mut Table) {
    let trace = strided_trace(200_000);
    let n = trace.len() as f64;
    for (label, config) in [
        ("direct_mapped", CacheConfig::paper_base()),
        ("2way", CacheConfig::set_associative(16 * 1024, 32, 2)),
        ("4way", CacheConfig::set_associative(16 * 1024, 32, 4)),
        ("8way", CacheConfig::set_associative(16 * 1024, 32, 8)),
        ("16way", CacheConfig::set_associative(16 * 1024, 32, 16)),
        ("fully", CacheConfig::fully_associative(16 * 1024, 32)),
    ] {
        let flat = time_it(WARMUP, MEASURE, || {
            let mut cache = Cache::new(config);
            cache.run_slice(&trace);
            std::hint::black_box(cache.stats().misses);
        });
        let baseline = time_it(WARMUP, MEASURE, || {
            let mut cache = BaselineCache::new(config);
            cache.run(trace.iter().copied());
            std::hint::black_box(cache.stats().misses);
        });
        t.row([
            format!("cache/{label}"),
            mps(n, baseline),
            mps(n, flat),
            format!("{:.2}x", baseline.best_secs / flat.best_secs),
        ]);
    }
    let classify = time_it(WARMUP, MEASURE, || {
        let mut cache = ClassifyingCache::new(CacheConfig::paper_base());
        cache.run_slice(&trace);
        std::hint::black_box(cache.stats().conflict);
    });
    t.row([
        "cache/classifying_dm".to_string(),
        String::new(),
        mps(n, classify),
        String::new(),
    ]);
}

/// The classification-engine guardrail: the legacy `ShadowLru` shadow
/// simulation (an O(capacity) scan per eviction) vs the O(1) recency-list
/// shadow inside [`ClassifyingCache`]. Three-C counts are asserted
/// identical before timing; the speedup is recorded into
/// `BENCH_simulator.json` (under the `reuse_best_secs` key the earlier
/// reuse-distance classifier used).
fn classify_rates(t: &mut Table) -> (Timing, Timing) {
    let trace = strided_trace(200_000);
    let n = trace.len() as f64;
    let config = CacheConfig::paper_base();
    let capacity = (config.size() / config.line_size()) as usize;
    // The pre-PR classifier, verbatim: main cache + shadow LRU + explicit
    // first-touch set.
    let legacy_run = || {
        let mut main = Cache::new(config);
        let mut shadow = ShadowLru::new(capacity);
        let mut seen: HashSet<u64> = HashSet::new();
        let (mut compulsory, mut cap, mut conflict) = (0u64, 0u64, 0u64);
        for &a in &trace {
            let line = config.line_addr(a.addr);
            let shadow_hit = shadow.access(line);
            let first_touch = seen.insert(line);
            if !main.access(a).hit {
                if first_touch {
                    compulsory += 1;
                } else if !shadow_hit {
                    cap += 1;
                } else {
                    conflict += 1;
                }
            }
        }
        (compulsory, cap, conflict)
    };
    let reuse_run = || {
        let mut cache = ClassifyingCache::new(config);
        cache.run_slice(&trace);
        let s = cache.stats();
        (s.compulsory, s.capacity, s.conflict)
    };
    assert_eq!(
        legacy_run(),
        reuse_run(),
        "the classifier diverged from the shadow-simulation classifier"
    );
    let legacy = time_it(WARMUP, MEASURE, || {
        std::hint::black_box(legacy_run());
    });
    let reuse = time_it(WARMUP, MEASURE, || {
        std::hint::black_box(reuse_run());
    });
    t.row([
        "classify/legacy_vs_shadow".to_string(),
        mps(n, legacy),
        mps(n, reuse),
        format!("{:.2}x", legacy.best_secs / reuse.best_secs),
    ]);
    (legacy, reuse)
}

/// Interpreted vs compiled trace walkers on a real kernel. This is where
/// trace *generation* cost shows up; the engine rows above deliberately
/// exclude it (they consume a pre-materialized trace).
fn walker_rates(t: &mut Table) {
    let program = pad_kernels::jacobi::spec(128);
    let layout = DataLayout::original(&program);
    let accesses = pad_trace::count_accesses(&program, &layout) as f64;
    let interpreted = time_it(WARMUP, MEASURE, || {
        let mut sum = 0u64;
        pad_trace::for_each_access(&program, &layout, |a| sum = sum.wrapping_add(a.addr));
        std::hint::black_box(sum);
    });
    let compiled = CompiledTrace::compile(&program, &layout);
    let compiled_walk = time_it(WARMUP, MEASURE, || {
        let mut sum = 0u64;
        compiled.for_each(|a| sum = sum.wrapping_add(a.addr));
        std::hint::black_box(sum);
    });
    t.row([
        "walker/jacobi128".to_string(),
        mps(accesses, interpreted),
        mps(accesses, compiled_walk),
        format!("{:.2}x", interpreted.best_secs / compiled_walk.best_secs),
    ]);
}

fn mps(units: f64, timing: Timing) -> String {
    format!("{:.1} M/s", units / timing.best_secs / 1e6)
}

/// The checkout's short commit hash, for correlating history lines with
/// code states; `unknown` outside a git checkout (tarballs, CI caches).
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Appends one NDJSON line per run to `results/bench_history.ndjson` —
/// never overwrites, so the file accumulates the host's timing spread
/// over time (the honest companion to the single-point
/// `BENCH_simulator.json` snapshot). Quick runs are tagged so history
/// consumers can filter out the incomparable smoke workload.
fn append_history(line: &str) {
    use std::io::Write as _;
    let dir = std::path::Path::new("results");
    let path = dir.join("bench_history.ndjson");
    let appended = std::fs::create_dir_all(dir).and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        writeln!(f, "{line}")
    });
    match appended {
        Ok(()) => println!("(appended to {})", path.display()),
        Err(e) => eprintln!("warning: could not append to {}: {e}", path.display()),
    }
}

fn main() {
    let quick =
        pad_bench::harness::quick_mode() || std::env::args().skip(1).any(|a| a == "--quick");
    let n: i64 = if quick { 128 } else { 512 };
    let program = pad_kernels::jacobi::spec(n);
    let layout = DataLayout::original(&program);
    let configs = sweep_configs();
    let compiled = CompiledTrace::compile(&program, &layout);
    let per_walk = compiled.count();
    let total = per_walk * configs.len() as u64;
    // Materialize the trace once, up front. Every engine then measures
    // pure simulation throughput over the same read-only slice;
    // generation cost is benched separately (`walker/` row).
    let mut trace: Vec<Access> = Vec::with_capacity(per_walk as usize);
    compiled.for_each(|a| trace.push(a));
    assert_eq!(trace.len() as u64, per_walk);
    let trace = &trace[..];

    // Thread accounting (satellite: record what was actually *used*, not
    // just what was configured). `seed_serial` and `batched` are
    // single-threaded by construction; `parallel` is clamped by cell
    // count and host width inside the pool, so record that clamp.
    let threads = pool::thread_count();
    let avail = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let par_threads = pool::effective_width(threads, configs.len());

    let seed_serial = || {
        let mut misses = 0u64;
        for config in &configs {
            let mut cache = BaselineCache::new(*config);
            cache.run(trace.iter().copied());
            misses = misses.wrapping_add(cache.stats().misses);
        }
        misses
    };
    let batched = || {
        let mut caches: Vec<Cache> = configs.iter().map(|&c| Cache::new(c)).collect();
        for chunk in trace.chunks(BATCH_CHUNK) {
            for cache in &mut caches {
                cache.run_slice(chunk);
            }
        }
        caches
            .iter()
            .map(|c| c.stats().misses)
            .fold(0u64, u64::wrapping_add)
    };
    let parallel = || {
        // Width captured once up front: the recorded `threads` field is
        // guaranteed to be the width actually benched, even if the
        // environment changes mid-run.
        let cells = pool::run_cells_on(threads, configs.len(), |i| {
            let mut cache = Cache::new(configs[i]);
            cache.run_slice(trace);
            cache.stats().misses
        });
        cells.iter().fold(0u64, |acc, &m| acc.wrapping_add(m))
    };

    // Correctness before speed: all three engines must agree exactly,
    // and so must the production batch path (compile, walk, and tee
    // through `pad_trace::simulate_batch`).
    let reference = seed_serial();
    assert_eq!(
        batched(),
        reference,
        "batched engine diverged from the seed model"
    );
    assert_eq!(
        parallel(),
        reference,
        "parallel engine diverged from the seed model"
    );
    let request = BatchRequest::new().with_plain_configs(configs.iter().copied());
    let batch_path = simulate_batch(&program, &layout, &request)
        .plain
        .iter()
        .map(|s| s.misses)
        .fold(0u64, u64::wrapping_add);
    assert_eq!(
        batch_path, reference,
        "simulate_batch diverged from the seed model"
    );
    println!(
        "workload: JACOBI n={n}, {} configs x {per_walk} accesses = {total} simulated \
         accesses per engine pass (total misses {reference}; engines agree)",
        configs.len()
    );

    // Interleaved rounds, best-of per engine: one timed call per engine
    // per round, alternating engines within each round. A load spike on a
    // shared host then lands on all three engines instead of biasing
    // whichever one happened to be under the clock, which keeps the
    // speedup ratio stable across runs. Round 0 is an untimed warmup.
    let rounds = if quick { 2 } else { 5 };
    let time_once = |f: &dyn Fn() -> u64| {
        let start = std::time::Instant::now();
        std::hint::black_box(f());
        start.elapsed().as_secs_f64()
    };
    let timing = |best: f64, sum: f64| Timing {
        best_secs: best,
        mean_secs: sum / rounds as f64,
        iters: rounds as u64,
    };
    let (mut best, mut sums) = ([f64::INFINITY; 3], [0.0f64; 3]);
    for round in 0..=rounds {
        eprintln!(
            "  timing round {round}/{rounds} (seed_serial 1t, batched 1t, parallel {par_threads}t)..."
        );
        let samples = [
            time_once(&seed_serial),
            time_once(&batched),
            time_once(&parallel),
        ];
        if round > 0 {
            for (i, s) in samples.into_iter().enumerate() {
                best[i] = best[i].min(s);
                sums[i] += s;
            }
        }
    }
    let t_seed = timing(best[0], sums[0]);
    let t_batched = timing(best[1], sums[1]);
    let t_parallel = timing(best[2], sums[2]);

    let rate = |t: Timing| total as f64 / t.best_secs;
    let mut t = Table::new(["engine", "baseline", "this engine", "speedup"]);
    t.row([
        "engine/seed_serial".to_string(),
        String::new(),
        mps(total as f64, t_seed),
        "1.00x".into(),
    ]);
    t.row([
        "engine/batched".to_string(),
        mps(total as f64, t_seed),
        mps(total as f64, t_batched),
        format!("{:.2}x", t_seed.best_secs / t_batched.best_secs),
    ]);
    t.row([
        format!("engine/parallel({par_threads}t)"),
        mps(total as f64, t_seed),
        mps(total as f64, t_parallel),
        format!("{:.2}x", t_seed.best_secs / t_parallel.best_secs),
    ]);
    component_rates(&mut t);
    let (t_shadow, t_reuse) = classify_rates(&mut t);
    walker_rates(&mut t);
    println!("{t}");

    // ---- Throughput gates ---------------------------------------------
    let floor = if quick {
        QUICK_FLOOR_APS
    } else {
        FULL_FLOOR_APS
    };
    let batched_rate = rate(t_batched);
    let parallel_rate = rate(t_parallel);
    let mut failed = false;
    println!(
        "gate: batched {:.1} M/s vs floor {:.0} M/s (target {:.0} M/s): {}",
        batched_rate / 1e6,
        floor / 1e6,
        TARGET_APS / 1e6,
        if batched_rate >= floor {
            "pass"
        } else {
            "FAIL"
        }
    );
    if batched_rate < floor {
        failed = true;
    }
    // The parallel>batched gate only means something when the host can
    // actually run two cells at once. On a 1-core host, skip it with an
    // explicit marker — a silent pass here would hide a real multicore
    // regression behind single-core runs.
    let parallel_gate = if avail >= 2 {
        if parallel_rate > batched_rate {
            "pass".to_string()
        } else {
            failed = true;
            "FAIL".to_string()
        }
    } else {
        format!("skipped (available_parallelism {avail} < 2)")
    };
    println!(
        "gate: parallel {:.1} M/s > batched {:.1} M/s: {}",
        parallel_rate / 1e6,
        batched_rate / 1e6,
        parallel_gate
    );

    let json = format!(
        "{{\n  \"bench\": \"simulator_throughput\",\n  \"generated_by\": \"cargo run --release -p pad-bench --bin bench_simulator\",\n  \"host\": {{\"arch\": \"{arch}\", \"os\": \"{os}\", \"available_parallelism\": {avail}}},\n  \"workload\": {{\"kernel\": \"JACOBI\", \"n\": {n}, \"configs\": {nconf}, \"accesses_per_walk\": {per_walk}, \"total_accesses\": {total}, \"trace\": \"materialized once; engines time simulation only\"}},\n  \"engines\": [\n    {{\"name\": \"seed_serial\", \"threads\": 1, \"best_secs\": {s0:.6}, \"accesses_per_sec\": {r0:.0}}},\n    {{\"name\": \"batched\", \"threads\": 1, \"best_secs\": {s1:.6}, \"accesses_per_sec\": {r1:.0}}},\n    {{\"name\": \"parallel\", \"threads\": {par_threads}, \"requested_threads\": {threads}, \"best_secs\": {s2:.6}, \"accesses_per_sec\": {r2:.0}}}\n  ],\n  \"speedups_vs_seed_serial\": {{\"batched\": {x1:.2}, \"parallel\": {x2:.2}}},\n  \"gates\": {{\"batched_floor_aps\": {floor:.0}, \"batched_target_aps\": {target:.0}, \"batched_floor\": \"{g1}\", \"parallel_gt_batched\": \"{g2}\"}},\n  \"classify\": {{\"trace\": \"strided_200k\", \"shadow_lru_best_secs\": {c0:.6}, \"reuse_best_secs\": {c1:.6}, \"speedup\": {cx:.2}}}\n}}\n",
        arch = std::env::consts::ARCH,
        os = std::env::consts::OS,
        nconf = configs.len(),
        s0 = t_seed.best_secs,
        r0 = rate(t_seed),
        s1 = t_batched.best_secs,
        r1 = batched_rate,
        s2 = t_parallel.best_secs,
        r2 = parallel_rate,
        x1 = t_seed.best_secs / t_batched.best_secs,
        x2 = t_seed.best_secs / t_parallel.best_secs,
        target = TARGET_APS,
        g1 = if batched_rate >= floor { "pass" } else { "fail" },
        g2 = parallel_gate,
        c0 = t_shadow.best_secs,
        c1 = t_reuse.best_secs,
        cx = t_shadow.best_secs / t_reuse.best_secs,
    );
    // Every completed run — quick, full, even gate-failed — leaves one
    // history line; regressions are exactly what a history is for.
    append_history(&format!(
        "{{\"bench\": \"simulator_throughput\", \"git\": \"{sha}\", \"quick\": {quick}, \
         \"arch\": \"{arch}\", \"available_parallelism\": {avail}, \"n\": {n}, \
         \"seed_serial_aps\": {r0:.0}, \"batched_aps\": {r1:.0}, \"parallel_aps\": {r2:.0}, \
         \"classify_speedup\": {cx:.2}, \"gates\": \"{gates}\"}}",
        sha = git_sha(),
        arch = std::env::consts::ARCH,
        r0 = rate(t_seed),
        r1 = batched_rate,
        r2 = parallel_rate,
        cx = t_shadow.best_secs / t_reuse.best_secs,
        gates = if failed { "fail" } else { "pass" },
    ));

    let path = "BENCH_simulator.json";
    if quick {
        // Smoke runs use a reduced workload; don't overwrite the
        // full-workload trajectory file with incomparable numbers.
        println!("(quick mode; not writing {path})");
    } else if failed {
        // Don't record a regressed run as the new trajectory point.
        println!("(gate failure; not writing {path})");
    } else {
        match std::fs::write(path, &json) {
            Ok(()) => println!("(wrote {path})"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    if failed {
        eprintln!("error: throughput gate failed (see above)");
        std::process::exit(1);
    }
}
