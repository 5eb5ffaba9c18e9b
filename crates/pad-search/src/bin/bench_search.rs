//! Cost of the search's fast rung and of one exact confirmation, per
//! kernel. `beam ms` and `anneal ms` are the best time of a fast-only
//! search (`confirm_exact: false`) under the default budget, so they time
//! the strategies and the fast rung without the exact confirmations;
//! `fast evals/s` is both searches' fast evaluations over both times, and
//! `exact ms` one exact walk of the original layout. Writes
//! `results/bench_search.csv`. Timing-dependent — informational, never
//! golden.

use std::time::Duration;

use pad_bench::harness::{emit, exact_misses, quick_mode, time_it};
use pad_cache_sim::CacheConfig;
use pad_core::DataLayout;
use pad_report::Table;
use pad_search::{search, SearchConfig, StrategyKind};

fn main() {
    let cache = CacheConfig::paper_base();
    let n: i64 = if quick_mode() { 64 } else { 256 };
    let cfg = SearchConfig {
        budget: if quick_mode() { 150 } else { 800 },
        threads: pad_bench::pool::thread_count(),
        confirm_exact: false,
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
        let exact = time_it(
            Duration::from_millis(50),
            Duration::from_millis(300),
            || {
                std::hint::black_box(exact_misses(&program, &layout, &cache));
            },
        );
        let mut secs = [0.0f64; 2];
        let mut evals = [0u64; 2];
        for (slot, strategy) in [StrategyKind::Beam, StrategyKind::Anneal]
            .into_iter()
            .enumerate()
        {
            let cfg = SearchConfig { strategy, ..cfg };
            evals[slot] = search(&program, &cache, &cfg).fast_evals;
            secs[slot] = time_it(
                Duration::from_millis(50),
                Duration::from_millis(300),
                || {
                    std::hint::black_box(search(&program, &cache, &cfg).fast_evals);
                },
            )
            .best_secs;
        }
        t.row([
            name.to_string(),
            format!("{:.0}", (evals[0] + evals[1]) as f64 / (secs[0] + secs[1])),
            format!("{:.2}", exact.best_ms()),
            format!("{:.2}", secs[0] * 1e3),
            format!("{:.2}", secs[1] * 1e3),
            evals[0].to_string(),
            evals[1].to_string(),
        ]);
    }
    emit(
        "Search fast rung and exact confirmation cost",
        &t,
        "bench_search",
    );
}
