//! Compile-time cost of the padding heuristics — the zero-dependency
//! successor of the retired Criterion `heuristic_cost` bench.
//!
//! Section 4.1 of the paper reports that "costs of applying PAD and
//! PADLITE were a very small percentage of overall compilation time".
//! This measures the absolute analysis cost per benchmark program, which
//! should sit in the micro- to low-millisecond range — trivial next to
//! compiling thousands of lines of Fortran.

use std::time::Duration;

use pad_bench::harness::time_it;
use pad_core::{PaddingConfig, PaddingPipeline};
use pad_kernels::suite;
use pad_report::Table;

fn main() {
    let config = PaddingConfig::paper_base();
    let mut t = Table::new(["kernel", "pad us", "padlite us", "iters"]);
    for k in suite() {
        eprintln!("  bench_heuristics: {}", k.name);
        let program = (k.spec)(k.default_n);
        let pad = PaddingPipeline::pad(config.clone());
        let pad_timing = time_it(
            Duration::from_millis(100),
            Duration::from_millis(500),
            || {
                std::hint::black_box(pad.run(&program).layout.total_bytes());
            },
        );
        let lite = PaddingPipeline::padlite(config.clone());
        let lite_timing = time_it(
            Duration::from_millis(100),
            Duration::from_millis(500),
            || {
                std::hint::black_box(lite.run(&program).layout.total_bytes());
            },
        );
        t.row([
            k.name.to_string(),
            format!("{:.1}", pad_timing.best_secs * 1e6),
            format!("{:.1}", lite_timing.best_secs * 1e6),
            (pad_timing.iters + lite_timing.iters).to_string(),
        ]);
    }
    println!("{t}");
}
