//! The extension modules: analytic miss estimation and conflict-free
//! tile selection.
//!
//! ```text
//! cargo run --release --example estimate_and_tile
//! ```
//!
//! 1. `estimate_miss_rate` is the "simplified cache miss equations" model
//!    the paper positions itself against: it predicts miss rates at
//!    compile time (spatial + severe-conflict misses, no capacity), and
//!    ranks layouts the same way the simulator does — in microseconds.
//! 2. `select_tile` is Coleman & McKinley's Euclidean tile-size
//!    selection, the sibling application of the paper's `FirstConflict`
//!    machinery: it picks the largest tile of an array's columns that
//!    maps to disjoint cache locations.

use rivera_padding::cache_sim::CacheConfig;
use rivera_padding::core::{estimate_miss_rate, select_tile, DataLayout, PaddingPipeline};
use rivera_padding::kernels::jacobi;
use rivera_padding::trace::{padding_config_for, simulate_program};

fn main() {
    let cache = CacheConfig::direct_mapped(2048, 32);
    let config = padding_config_for(&cache);

    println!("-- analytic model vs simulation (JACOBI, 2K direct-mapped) --");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12}",
        "n", "est orig", "sim orig", "est pad", "sim pad"
    );
    for n in [96i64, 128, 160, 192, 256] {
        let p = jacobi::spec(n);
        let original = DataLayout::original(&p);
        let padded = PaddingPipeline::pad(config.clone()).run(&p).layout;
        println!(
            "{n:>6} {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}%",
            estimate_miss_rate(&p, &original, &config).miss_rate_percent(),
            simulate_program(&p, &original, &cache).miss_rate_percent(),
            estimate_miss_rate(&p, &padded, &config).miss_rate_percent(),
            simulate_program(&p, &padded, &cache).miss_rate_percent(),
        );
    }

    println!("\n-- conflict-free tiles for a 16K cache (8-byte elements) --");
    println!(
        "{:>10} {:>8} {:>8} {:>10}",
        "column", "rows", "cols", "tile KB"
    );
    for col in [250i64, 256, 273, 300, 384, 512, 520] {
        let t = select_tile(16 * 1024, col, 8, col, col);
        println!(
            "{col:>10} {:>8} {:>8} {:>10.1}",
            t.rows,
            t.cols,
            (t.elements() * 8) as f64 / 1024.0
        );
    }
    println!("\n(powers of two force tall, narrow tiles — the same pathology");
    println!(" LINPAD2 removes by changing the column size itself)");
}
