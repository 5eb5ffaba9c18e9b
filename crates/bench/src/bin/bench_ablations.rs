//! Design-choice ablations called out in DESIGN.md — the zero-dependency
//! successor of the retired Criterion `ablations` bench.
//!
//! 1. **Replacement policy**: padding's benefit is a property of the
//!    placement function; an LRU→FIFO/random swap should not change who
//!    wins (miss counts per policy are printed alongside the timings).
//! 2. **Write policy**: the paper assumes write-allocate/write-back; the
//!    no-allocate alternative changes absolute rates but not the padding
//!    effect.

use std::time::Duration;

use pad_bench::harness::time_it;
use pad_cache_sim::{Cache, CacheConfig, ReplacementPolicy, WritePolicy};
use pad_core::{DataLayout, PaddingPipeline};
use pad_report::Table;
use pad_trace::{collect_trace, padding_config_for};

fn main() {
    let program = pad_kernels::jacobi::spec(256);
    let cache = CacheConfig::paper_base();
    let orig = collect_trace(&program, &DataLayout::original(&program));
    let padded_layout = PaddingPipeline::pad(padding_config_for(&cache))
        .run(&program)
        .layout;
    let padded = collect_trace(&program, &padded_layout);

    let misses = |cfg: CacheConfig, trace: &[pad_cache_sim::Access]| {
        let mut cache = Cache::new(cfg);
        cache.run_slice(trace);
        cache.stats().misses
    };

    let mut t = Table::new(["ablation", "orig misses", "pad misses", "sim best ms"]);
    for policy in [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ] {
        eprintln!("  bench_ablations: replacement={policy:?}");
        let cfg = CacheConfig::set_associative(16 * 1024, 32, 4).with_replacement(policy);
        let timing = time_it(Duration::from_millis(300), Duration::from_secs(1), || {
            std::hint::black_box(misses(cfg, &orig));
        });
        t.row([
            format!("replacement={policy:?}"),
            misses(cfg, &orig).to_string(),
            misses(cfg, &padded).to_string(),
            format!("{:.3}", timing.best_ms()),
        ]);
    }
    for wp in [
        WritePolicy::WriteBackAllocate,
        WritePolicy::WriteThroughNoAllocate,
    ] {
        eprintln!("  bench_ablations: write_policy={wp:?}");
        let cfg = CacheConfig::paper_base().with_write_policy(wp);
        let timing = time_it(Duration::from_millis(300), Duration::from_secs(1), || {
            std::hint::black_box(misses(cfg, &orig));
        });
        t.row([
            format!("write_policy={wp:?}"),
            misses(cfg, &orig).to_string(),
            misses(cfg, &padded).to_string(),
            format!("{:.3}", timing.best_ms()),
        ]);
    }
    println!("{t}");
}
