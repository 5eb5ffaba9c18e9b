//! Cache explorer: one kernel, many cache organizations.
//!
//! ```text
//! cargo run --release --example cache_explorer [kernel-name] [n]
//! ```
//!
//! Simulates a suite kernel (default `SHAL512` at a reduced n = 256)
//! across cache sizes and associativities with three-C miss
//! classification, for the original and the PAD layout — the experiment
//! space of the paper's Figures 9–11 on one program.

use rivera_padding::cache_sim::CacheConfig;
use rivera_padding::core::{DataLayout, PaddingPipeline};
use rivera_padding::kernels::suite;
use rivera_padding::trace::{padding_config_for, simulate_classified};

fn main() {
    let wanted = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "SHAL512".to_string());
    let kernel = suite()
        .into_iter()
        .find(|k| k.name.eq_ignore_ascii_case(&wanted))
        .unwrap_or_else(|| {
            eprintln!("unknown kernel {wanted}; available:");
            for k in suite() {
                eprintln!("  {}", k.name);
            }
            std::process::exit(1);
        });
    let n = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| kernel.default_n.min(256));
    let program = (kernel.spec)(n);
    println!("{} at n = {n} — {}\n", kernel.name, kernel.description);
    println!(
        "{:>8} {:>6} | {:>8} {:>10} | {:>8} {:>10}",
        "size", "ways", "orig %", "conflict %", "pad %", "conflict %"
    );

    for size_kb in [2u64, 4, 8, 16] {
        for ways in [1u32, 2, 4, 16] {
            let cache = CacheConfig::set_associative(size_kb * 1024, 32, ways);
            let padded = PaddingPipeline::pad(padding_config_for(&cache))
                .run(&program)
                .layout;
            let orig = simulate_classified(&program, &DataLayout::original(&program), &cache);
            let pad = simulate_classified(&program, &padded, &cache);
            println!(
                "{:>7}K {:>6} | {:>8.1} {:>10.1} | {:>8.1} {:>10.1}",
                size_kb,
                ways,
                orig.cache.miss_rate_percent(),
                orig.conflict_rate_percent(),
                pad.cache.miss_rate_percent(),
                pad.conflict_rate_percent(),
            );
        }
    }
}
