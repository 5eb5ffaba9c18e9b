//! Overhead guardrail for the instrumentation: the telemetry event
//! layer and the live metrics registry, in one run (the `telemetry`
//! gate in `scripts/verify.sh`).
//!
//! Two claims, both enforced here:
//!
//! 1. **Near-free.** With no collector installed and metrics off, the
//!    batched simulation engine must run within `MAX_OVERHEAD_PCT` of a
//!    hand-rolled loop with no instrumentation branches at all; with
//!    metrics on, within `MAX_OVERHEAD_PCT` of itself with metrics off.
//!    All three variants are timed in the same interleaved best-of
//!    rounds, so a load spike on a shared host lands on every variant
//!    instead of biasing one.
//! 2. **Observation never changes results.** Miss counts are equal in
//!    every state, and a miss-rate sweep table rendered with
//!    `RIVERA_TELEMETRY=events` or with metrics on is byte-identical
//!    (table text and CSV bytes) to the same sweep with both off, while
//!    the recorder actually captures cell spans, simulation spans, and
//!    pad-decision events. The Prometheus rendering of the populated
//!    registry must be non-empty and byte-stable — two renders of the
//!    unchanged registry produce identical bytes — and is written to
//!    `results/metrics.prom` as a CI artifact.
//!
//! Exits nonzero if any claim fails.

use std::process::ExitCode;

use pad_bench::harness::{cells_or_marker, pct, quick_mode, RunContext, Variant};
use pad_cache_sim::{Cache, CacheConfig};
use pad_core::DataLayout;
use pad_report::{csv_string, render_prometheus, Table};
use pad_telemetry::Mode;
use pad_trace::{simulate_batch, BatchRequest, CompiledTrace, BATCH_CHUNK};

/// Maximum tolerated slowdown, in percent, of the uninstrumented engine
/// over the hand-rolled loop, and of the metrics-on engine over the
/// metrics-off one.
const MAX_OVERHEAD_PCT: f64 = 2.0;

fn sweep_configs() -> Vec<CacheConfig> {
    vec![
        CacheConfig::direct_mapped(16 * 1024, 32),
        CacheConfig::set_associative(16 * 1024, 32, 2),
        CacheConfig::direct_mapped(8 * 1024, 32),
        CacheConfig::direct_mapped(4 * 1024, 32),
    ]
}

/// The miss-rate sweep both telemetry modes must render identically.
fn sweep_table() -> Table {
    let cache = CacheConfig::paper_base();
    let n = if quick_mode() { 64 } else { 128 };
    let kernels: Vec<(&str, pad_ir::Program)> = vec![
        ("JACOBI", pad_kernels::jacobi::spec(n)),
        ("SHAL", pad_kernels::shal::spec(n)),
    ];
    let ctx = RunContext::plain(1);
    let labels: Vec<String> = kernels
        .iter()
        .map(|(name, _)| format!("telemetry: {name}"))
        .collect();
    let outcomes = ctx.run(&labels, |i| {
        let program = &kernels[i].1;
        vec![
            pct(pad_bench::harness::miss_rate_percent(
                program,
                Variant::Original,
                &cache,
            )),
            pct(pad_bench::harness::miss_rate_percent(
                program,
                Variant::Pad,
                &cache,
            )),
        ]
    });
    let mut t = Table::new(["kernel", "orig", "pad"]);
    for ((name, _), outcome) in kernels.iter().zip(&outcomes) {
        let mut row = vec![name.to_string()];
        row.extend(cells_or_marker(outcome, 2, Clone::clone));
        t.row(row);
    }
    ctx.finish();
    t
}

fn main() -> ExitCode {
    let quick = quick_mode();

    // -- Claim 1: overhead ---------------------------------------------
    assert_eq!(
        pad_telemetry::mode(),
        Mode::Off,
        "bench_telemetry measures the uninstalled state; run it without a collector"
    );
    // Below ~n=200 the walk is under a millisecond and fixed setup
    // (result vectors, cache construction) dominates the comparison, so
    // even quick mode keeps the workload big enough to measure the
    // per-access path.
    let n = if quick { 192 } else { 256 };
    let program = pad_kernels::jacobi::spec(n);
    let layout = DataLayout::original(&program);
    let configs = sweep_configs();
    let request = BatchRequest::new().with_plain_configs(configs.iter().copied());

    // Instrumentation-free reference: the same compile, chunked walk and
    // flat-storage caches, with no `enabled()` branch anywhere on the
    // path.
    let hand_rolled = || {
        let compiled = CompiledTrace::compile(&program, &layout);
        let mut caches: Vec<Cache> = configs.iter().map(|c| Cache::new(*c)).collect();
        let mut buf = Vec::with_capacity(BATCH_CHUNK);
        compiled.for_each_chunk(BATCH_CHUNK, &mut buf, |chunk| {
            for cache in &mut caches {
                cache.run_slice(chunk);
            }
        });
        caches
            .iter()
            .fold(0u64, |acc, c| acc.wrapping_add(c.stats().misses))
    };
    let engine = |metrics_on: bool| {
        pad_telemetry::set_metrics_enabled(metrics_on);
        simulate_batch(&program, &layout, &request)
            .plain
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.misses))
    };
    let misses = [hand_rolled(), engine(false), engine(true)];

    // Interleaved best-of rounds (round 0 warms up). Minimum-of-N timing
    // on a shared host: a noisy batch can leave a minimum stranded above
    // the true runtime and report a phantom overhead. Extra samples only
    // tighten the minima, so escalate sampling before concluding failure
    // — a genuine regression keeps its minimum above the gate no matter
    // how many rounds run.
    let variants: [&dyn Fn() -> u64; 3] = [&hand_rolled, &|| engine(false), &|| engine(true)];
    let mut best = [f64::INFINITY; 3];
    let sample = |best: &mut [f64; 3]| {
        for (slot, f) in variants.iter().enumerate() {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            best[slot] = best[slot].min(start.elapsed().as_secs_f64());
        }
    };
    let overheads = |best: &[f64; 3]| {
        [
            (best[1] / best[0] - 1.0) * 100.0,
            (best[2] / best[1] - 1.0) * 100.0,
        ]
    };
    let over = |pct: f64| pct.is_nan() || pct >= MAX_OVERHEAD_PCT;
    let rounds = if quick { 5 } else { 7 };
    sample(&mut [f64::INFINITY; 3]);
    for round in 1..=rounds {
        eprintln!(
            "  timing round {round}/{rounds} (hand_rolled, engine off, engine metrics on)..."
        );
        sample(&mut best);
    }
    let mut extra = 0;
    while overheads(&best).into_iter().any(over) && extra < 4 * rounds {
        extra += 1;
        let [off, on] = overheads(&best);
        eprintln!("  overheads read {off:+.2}% / {on:+.2}%; extra timing round {extra}...");
        sample(&mut best);
    }
    pad_telemetry::set_metrics_enabled(false);
    let [off_pct, on_pct] = overheads(&best);

    let mut t = Table::new(["variant", "best_secs", "overhead"]);
    for (variant, secs, overhead) in [
        ("hand_rolled (no instrumentation)", best[0], String::new()),
        (
            "engine, telemetry and metrics off",
            best[1],
            format!("{off_pct:+.2}%"),
        ),
        (
            "engine, metrics on",
            best[2],
            format!("{on_pct:+.2}% vs off"),
        ),
    ] {
        t.row([variant.to_string(), format!("{secs:.6}"), overhead]);
    }
    println!(
        "== instrumentation overhead (JACOBI n={n}, {} sinks) ==",
        configs.len()
    );
    println!("{t}");

    // -- Claim 2: observation changes nothing --------------------------
    let render = |t: Table| (t.to_string(), csv_string(&t));
    let off = render(sweep_table());

    let recorder = pad_telemetry::install_recorder(Mode::Events);
    let events_mode = render(sweep_table());
    let events = recorder.snapshot();
    pad_telemetry::uninstall();

    pad_telemetry::set_metrics_enabled(true);
    let metrics_on = render(sweep_table());
    pad_telemetry::set_metrics_enabled(false);

    let count = |cat: &str| events.iter().filter(|e| e.category == cat).count();
    let (cell_events, sim_events, pad_events) = (count("cell"), count("sim"), count("pad"));

    // The registry now holds everything the metrics-on runs recorded;
    // its Prometheus rendering must be byte-stable and lands in results/
    // so CI uploads a real scrape body alongside the tables.
    let exposition = render_prometheus(&pad_telemetry::registry().snapshot());
    let stable = exposition == render_prometheus(&pad_telemetry::registry().snapshot());
    let populated = exposition.contains("pad_sim_accesses_total");
    let written = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/metrics.prom", &exposition));

    let same_misses = misses.iter().all(|&m| m == misses[0]);
    println!("== determinism ==");
    println!(
        "captured {} event(s): {cell_events} cell, {sim_events} sim, {pad_events} pad",
        events.len()
    );
    println!(
        "miss counts equal: {same_misses} | events-mode table/csv identical: {}/{} | \
         metrics-on table/csv identical: {}/{} | exposition stable: {stable}",
        off.0 == events_mode.0,
        off.1 == events_mode.1,
        off.0 == metrics_on.0,
        off.1 == metrics_on.1,
    );
    println!();

    let mut ok = true;
    let mut fail = |msg: String| {
        eprintln!("FAIL: {msg}");
        ok = false;
    };
    if over(off_pct) {
        fail(format!(
            "telemetry-off overhead {off_pct:+.2}% exceeds {MAX_OVERHEAD_PCT}%"
        ));
    }
    if over(on_pct) {
        fail(format!(
            "metrics-on overhead {on_pct:+.2}% exceeds {MAX_OVERHEAD_PCT}%"
        ));
    }
    if !same_misses {
        fail(format!("miss counts differ across states: {misses:?}"));
    }
    if off != events_mode {
        fail("events mode changed rendered results".into());
    }
    if off != metrics_on {
        fail("metrics state changed rendered results".into());
    }
    if cell_events == 0 || sim_events == 0 || pad_events == 0 {
        fail(format!(
            "events mode captured too little (cell {cell_events}, sim {sim_events}, pad {pad_events})"
        ));
    }
    if !stable || !populated {
        fail(format!(
            "Prometheus exposition unstable or empty (stable {stable}, populated {populated})"
        ));
    }
    if let Err(e) = written {
        fail(format!("could not write results/metrics.prom: {e}"));
    }
    if ok {
        println!(
            "bench_telemetry: PASS (overhead {off_pct:+.2}% off, {on_pct:+.2}% metrics on; \
             results byte-identical, exposition stable)"
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
