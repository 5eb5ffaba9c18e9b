//! Quickstart: analyze a program, pad it, and measure the difference.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's JACOBI kernel at a pathological power-of-two size,
//! shows the severe conflicts the analysis finds, applies PAD, and
//! simulates both layouts through the paper's base cache (16 KiB
//! direct-mapped, 32 B lines).

use rivera_padding::cache_sim::CacheConfig;
use rivera_padding::core::{find_severe_conflicts, DataLayout, PaddingPipeline};
use rivera_padding::kernels::jacobi;
use rivera_padding::trace::{padding_config_for, simulate_classified};

fn main() {
    let n = 512;
    let program = jacobi::spec(n);
    let cache = CacheConfig::paper_base();
    let config = padding_config_for(&cache);

    println!("{program}");

    // 1. Diagnose: which reference pairs conflict on every iteration?
    let original = DataLayout::original(&program);
    let conflicts = find_severe_conflicts(&program, &original, &config);
    println!(
        "severe conflicts under the original layout: {}",
        conflicts.len()
    );
    for c in conflicts.iter().take(5) {
        println!(
            "  {} vs {}  (distance {} B, {} B on the cache)",
            c.refs.0, c.refs.1, c.distance_bytes, c.circular_distance
        );
    }

    // 2. Transform: run the PAD algorithm.
    let outcome = PaddingPipeline::pad(config.clone()).run(&program);
    println!("\npadding decisions:");
    for event in &outcome.events {
        println!("  {event}");
    }
    println!("{}", outcome.stats);
    assert!(find_severe_conflicts(&program, &outcome.layout, &config).is_empty());

    // 3. Measure: simulate both layouts.
    println!("\n{}", cache);
    for (label, layout) in [("original", &original), ("padded", &outcome.layout)] {
        let stats = simulate_classified(&program, layout, &cache);
        let offsets: Vec<String> = program
            .arrays_with_ids()
            .map(|(id, spec)| format!("{} @ +{}", spec.name(), layout.base_addr(id) % cache.size()))
            .collect();
        println!(
            "  {label:>8}: miss rate {:5.1}%  ({} conflict misses of {} misses)  [{}]",
            stats.cache.miss_rate_percent(),
            stats.conflict,
            stats.cache.misses,
            offsets.join(", "),
        );
    }
    println!("\n(the bracketed offsets are each base address mod the cache size:");
    println!(" originally A and B collide at +0; PAD nudges B off the alignment)");
}
