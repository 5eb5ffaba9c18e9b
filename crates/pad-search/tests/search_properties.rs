//! Property suite: seeded random kernels and cache geometries pin the
//! search's structural guarantees.
//!
//! Three families, each over the same 100 generated cases:
//!
//! * **never worse** — the exact-confirmed best of either strategy is
//!   at most the exact misses of the original layout, PADLITE, and PAD
//!   (structural: all three are force-promoted seeds);
//! * **determinism** — annealing with one seed is byte-identical across
//!   repeated runs and across confirmation thread widths (the chain is
//!   a pure function of the seed; threads only fan the exact batch);
//! * **order independence** — beam results are bit-equal under a
//!   scrambled move list (canonical move order, all-or-nothing rounds).

mod common;

use common::{random_case, CASES};
use pad_bench::harness::exact_misses;
use pad_core::{DataLayout, PaddingPipeline};
use pad_search::{search, search_with, SearchConfig, SearchHooks, SearchResult, StrategyKind};
use pad_trace::padding_config_for;

fn config(strategy: StrategyKind, case: u64) -> SearchConfig {
    SearchConfig {
        strategy,
        budget: 100,
        seed: 0xC0FF_EE00 ^ case,
        beam_width: 4,
        threads: 1,
        confirm_exact: true,
    }
}

/// Byte-comparable fingerprint of everything a search run reports.
fn fingerprint(r: &SearchResult) -> String {
    format!(
        "{} {:?} {:?} {:?} {:?} {} {} {}",
        r.strategy,
        r.best.vector,
        r.best_exact,
        r.promotions,
        r.frontier,
        r.fast_evals,
        r.exact_evals,
        r.discarded
    )
}

#[test]
fn search_is_never_worse_than_either_heuristic() {
    for case in 0..CASES {
        let (program, cache) = random_case(case);
        let pad_config = padding_config_for(&cache);
        let orig = exact_misses(&program, &DataLayout::original(&program), &cache);
        let padlite = exact_misses(
            &program,
            &PaddingPipeline::padlite(pad_config.clone())
                .run(&program)
                .layout,
            &cache,
        );
        let pad = exact_misses(
            &program,
            &PaddingPipeline::pad(pad_config).run(&program).layout,
            &cache,
        );
        for strategy in [StrategyKind::Beam, StrategyKind::Anneal] {
            let result = search(&program, &cache, &config(strategy, case));
            let best = result
                .best_exact
                .expect("no faults injected, so the best is exact-confirmed");
            assert_eq!(
                best,
                exact_misses(&program, &result.best.layout, &cache),
                "case {case}: reported best must match direct simulation"
            );
            for (name, bound) in [("original", orig), ("padlite", padlite), ("pad", pad)] {
                assert!(
                    best <= bound,
                    "case {case} ({}): {best} misses beats {name}'s {bound}",
                    result.strategy
                );
            }
        }
    }
}

#[test]
fn annealing_is_byte_identical_across_runs_and_thread_widths() {
    for case in (0..CASES).step_by(5) {
        let (program, cache) = random_case(case);
        let cfg = config(StrategyKind::Anneal, case);
        let first = fingerprint(&search(&program, &cache, &cfg));
        let again = fingerprint(&search(&program, &cache, &cfg));
        assert_eq!(first, again, "case {case}: same seed, different run");
        let wide = SearchConfig { threads: 4, ..cfg };
        let fanned = fingerprint(&search(&program, &cache, &wide));
        assert_eq!(
            first, fanned,
            "case {case}: thread width changed the result"
        );
    }
}

#[test]
fn beam_results_are_independent_of_move_enumeration_order() {
    for case in (0..CASES).step_by(5) {
        let (program, cache) = random_case(case);
        let cfg = config(StrategyKind::Beam, case);
        let canonical = fingerprint(&search(&program, &cache, &cfg));
        for permutation in 1..=2u64 {
            let hooks = SearchHooks {
                permute_moves: Some(0xDEAD_BEEF ^ (case << 8) ^ permutation),
                ..SearchHooks::default()
            };
            let scrambled = fingerprint(&search_with(&program, &cache, &cfg, hooks));
            assert_eq!(
                canonical, scrambled,
                "case {case}: move order {permutation} changed the beam result"
            );
        }
    }
}
