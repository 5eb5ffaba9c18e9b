//! Throughput of the search objective ladder and end-to-end strategy
//! cost, per kernel: fast-rung evaluations per second (one
//! `Objective::force_evaluate`, what the search pays per candidate),
//! exact-rung latency, and beam/annealing wall time under the default
//! budget. Writes `results/bench_search.csv`. Timing-dependent —
//! informational, never golden.

use std::time::{Duration, Instant};

use pad_bench::harness::{emit, exact_misses, quick_mode, time_it};
use pad_cache_sim::CacheConfig;
use pad_core::DataLayout;
use pad_report::Table;
use pad_search::{search, Objective, PadVector, SearchConfig, StrategyKind};
use pad_trace::padding_config_for;

fn main() {
    let cache = CacheConfig::paper_base();
    let pad_config = padding_config_for(&cache);
    let n: i64 = if quick_mode() { 64 } else { 256 };
    let cfg = SearchConfig {
        budget: if quick_mode() { 150 } else { 800 },
        threads: pad_bench::pool::thread_count(),
        ..SearchConfig::default()
    };
    let kernels = [
        (
            "JACOBI",
            pad_kernels::jacobi::spec as fn(i64) -> pad_ir::Program,
        ),
        ("EXPL", pad_kernels::expl::spec),
        ("SHAL", pad_kernels::shal::spec),
        ("DGEFA", pad_kernels::dgefa::spec),
    ];
    let mut t = Table::new([
        "kernel",
        "fast evals/s",
        "exact ms",
        "beam ms",
        "anneal ms",
        "beam evals",
        "anneal evals",
    ]);
    for (name, spec) in kernels {
        eprintln!("  bench_search: {name} n={n}");
        let program = spec(n);
        let layout = DataLayout::original(&program);
        let vector = PadVector::zero(&program);
        let mut objective = Objective::new(&program, cache, pad_config.clone(), 1, 0);
        let fast = time_it(
            Duration::from_millis(50),
            Duration::from_millis(300),
            || {
                std::hint::black_box(objective.force_evaluate(vector.clone()).fast);
            },
        );
        let exact = time_it(
            Duration::from_millis(50),
            Duration::from_millis(300),
            || {
                std::hint::black_box(exact_misses(&program, &layout, &cache));
            },
        );
        let mut wall = [0.0f64; 2];
        let mut evals = [0u64; 2];
        for (slot, strategy) in [StrategyKind::Beam, StrategyKind::Anneal]
            .into_iter()
            .enumerate()
        {
            let t0 = Instant::now();
            let r = search(&program, &cache, &SearchConfig { strategy, ..cfg });
            wall[slot] = t0.elapsed().as_secs_f64() * 1e3;
            evals[slot] = r.fast_evals;
        }
        t.row([
            name.to_string(),
            format!("{:.0}", 1.0 / fast.best_secs),
            format!("{:.2}", exact.best_secs * 1e3),
            format!("{:.1}", wall[0]),
            format!("{:.1}", wall[1]),
            evals[0].to_string(),
            evals[1].to_string(),
        ]);
    }
    emit("Search objective and strategy cost", &t, "bench_search");
}
