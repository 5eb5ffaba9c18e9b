//! How many walks an exact answer costs, read off the live-metrics
//! counter `pad_sim_accesses_total`: one walk when the answer's layout
//! is the original layout, two when padding changed it.
//!
//! The metrics registry is process-global, so this lives in its own
//! integration binary with a single test: nothing else in the process
//! walks a trace while it reads the counter.

use pad_advisor::protocol::SearchParams;
use pad_advisor::{advise, resolve, AdviseRequest, Algorithm, Mode, Source};
use pad_cache_sim::CacheConfig;
use pad_core::{DataLayout, PaddingPipeline};
use pad_trace::{padding_config_for, CompiledTrace};

fn walked() -> u64 {
    pad_telemetry::registry()
        .snapshot()
        .counter("pad_sim_accesses_total")
        .unwrap_or(0)
}

#[test]
fn exact_answers_walk_an_unchanged_layout_once() {
    pad_telemetry::set_metrics_enabled(true);
    let cache = CacheConfig::direct_mapped(4 * 1024, 64);

    // DOT256K at n=16 is two 128-byte vectors: nothing to pad. JACOBI512
    // at n=32 is two 8 KiB arrays that map onto the same sets of a 4 KiB
    // cache: PAD moves one.
    for (kernel, n, walks) in [("DOT256K", 16, 1), ("JACOBI512", 32, 2)] {
        let source = Source::Kernel {
            name: kernel.into(),
            n: Some(n),
        };
        let program = resolve(&source).expect("suite kernel");
        let original = DataLayout::original(&program);
        let padded = PaddingPipeline::pad(padding_config_for(&cache))
            .run(&program)
            .layout;
        assert_eq!(
            padded != original,
            walks == 2,
            "{kernel} n={n}: the premise about PAD's layout"
        );
        let one_walk = CompiledTrace::compile(&program, &original).count();
        assert!(one_walk > 0);

        let request = AdviseRequest {
            source,
            cache,
            algorithm: Algorithm::Pad,
            search: SearchParams::default(),
            mode: Mode::Exact,
        };
        let before = walked();
        let advice = advise(&program, &request, true, false);
        assert!(advice.simulated);
        assert_eq!(
            walked() - before,
            walks * one_walk,
            "{kernel} n={n}: accesses walked for one exact answer"
        );
    }
}
