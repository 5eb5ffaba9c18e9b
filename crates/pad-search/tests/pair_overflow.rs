//! Reference pairs whose distance leaves `i64`.
//!
//! The IR accepts arrays up to 2^62 bytes in all and reference offsets up
//! to ±2^62 from their bases, so two references can sit more than 2^63
//! bytes apart. `OVF` declares two 2^60-byte arrays and references them
//! near ±2^62: its one pair is 2^60 + 16 · 576460752303423000 bytes
//! apart. Every analysis that measures a pair distance must take it
//! exactly — the model, the conflict scan (and through it the search's
//! bounds), and both pipelines. Run in a debug build, where a wrapped
//! `i64` subtraction panics.

use pad_cache_sim::CacheConfig;
use pad_core::{estimate_miss_rate, find_severe_conflicts, DataLayout, PaddingPipeline};
use pad_search::{search, SearchConfig};
use pad_trace::padding_config_for;

const OVF: &str = "\
program OVF
array B(144115188075855872)
array A(144115188075855872)
do i = 1, 1
  A(i+576460752303423000) = B(i-576460752303423000)
end
";

/// |A(i+c) − B(i−c)| at every iteration: A's base is 2^60 bytes past B's,
/// and the subscripts differ by 2c elements of 8 bytes.
const DISTANCE: i128 = (1 << 60) + 16 * 576_460_752_303_423_000;

#[test]
fn pair_distances_past_i64_are_taken_exactly() {
    let program = pad_ir::parse(OVF).expect("the IR accepts the program");
    assert!(DISTANCE > i128::from(i64::MAX));
    // 2^60 and 16c are both multiples of 128 (16c = 2^63 − 7808), so the
    // pair conflicts severely on a 128-byte cache; on 8 KiB its residue
    // is 384, clear of a 32-byte line.
    for (cache, severe) in [
        (CacheConfig::direct_mapped(128, 32), true),
        (CacheConfig::direct_mapped(8192, 32), false),
    ] {
        let config = padding_config_for(&cache);
        let original = DataLayout::original(&program);

        // Two accesses; a severe pair misses on both, else each misses
        // once per 32-byte line of 8-byte steps.
        let estimate = estimate_miss_rate(&program, &original, &config);
        assert_eq!(estimate.accesses, 2.0);
        assert_eq!(estimate.misses, if severe { 2.0 } else { 0.5 });

        let reports = find_severe_conflicts(&program, &original, &config);
        assert_eq!(reports.len(), usize::from(severe), "{cache:?}");
        for report in &reports {
            let magnitude = report.distance_bytes.to_string();
            assert_eq!(magnitude.trim_start_matches('-'), DISTANCE.to_string());
            assert_eq!(report.circular_distance, 0);
        }

        let pad = PaddingPipeline::pad(config.clone()).run(&program).layout;
        assert!(find_severe_conflicts(&program, &pad, &config).is_empty());
        assert!(pad.check_no_overlap());
        let padlite = PaddingPipeline::padlite(config.clone())
            .run(&program)
            .layout;
        assert!(padlite.check_no_overlap());

        let fast_only = SearchConfig {
            budget: 40,
            confirm_exact: false,
            ..SearchConfig::default()
        };
        let result = search(&program, &cache, &fast_only);
        assert_eq!(result.best_exact, None);
        assert!(result.fast_evals >= 3);
        assert!(find_severe_conflicts(&program, &result.best.layout, &config).is_empty());
    }
}
