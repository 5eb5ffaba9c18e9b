//! Cross-crate property tests: random programs through the whole
//! pipeline (IR → padding → trace → simulation).
//!
//! Programs are generated from a seeded xorshift stream, so every run
//! exercises the same 48 pseudo-random programs deterministically — no
//! external property-testing dependency required.

use rivera_padding::cache_sim::{CacheConfig, XorShift64Star};
use rivera_padding::core::{
    find_severe_conflicts, DataLayout, PadEvent, PaddingConfig, PaddingPipeline,
};
use rivera_padding::ir::{ArrayBuilder, Loop, Program, Stmt, Subscript};
use rivera_padding::trace::for_each_access;

const CASES: u64 = 48;

/// A random "scientific program": `k` conforming 2-D arrays of a random
/// (often power-of-two-ish) column size, swept by a stencil nest with
/// random offsets, plus an optional copy nest.
fn arb_program(case: u64) -> Program {
    let mut rng = XorShift64Star::new(0xA5_7A61 + case);
    let num_arrays = rng.range(2, 5) as usize;
    let n = match rng.below(7) {
        0 => 32i64,
        1 => 48,
        2 => 64,
        3 => 96,
        4 => 128,
        _ => rng.range(30, 130) as i64,
    };
    let num_offsets = rng.range(2, 6) as usize;
    let offsets: Vec<(i64, i64)> = (0..num_offsets)
        .map(|_| (rng.range(0, 3) as i64 - 1, rng.range(0, 3) as i64 - 1))
        .collect();
    let copy_nest = rng.bool();

    let mut b = Program::builder("random");
    let ids: Vec<_> = (0..num_arrays)
        .map(|k| b.add_array(ArrayBuilder::new(format!("A{k}"), [n, n])))
        .collect();
    let mut refs = Vec::new();
    for (k, &(dj, di)) in offsets.iter().enumerate() {
        let id = ids[k % ids.len()];
        refs.push(id.at([
            Subscript::var_offset("j", dj),
            Subscript::var_offset("i", di),
        ]));
    }
    refs.push(
        ids[ids.len() - 1]
            .at([Subscript::var("j"), Subscript::var("i")])
            .write(),
    );
    b.push(Stmt::loop_nest(
        [Loop::new("i", 2, n - 1), Loop::new("j", 2, n - 1)],
        vec![Stmt::refs(refs)],
    ));
    if copy_nest {
        b.push(Stmt::loop_nest(
            [Loop::new("i", 1, n), Loop::new("j", 1, n)],
            vec![Stmt::refs(vec![
                ids[0].at([Subscript::var("j"), Subscript::var("i")]),
                ids[ids.len() - 1]
                    .at([Subscript::var("j"), Subscript::var("i")])
                    .write(),
            ])],
        ));
    }
    b.build().expect("generated programs are well-formed")
}

fn small_config() -> PaddingConfig {
    PaddingConfig::new(2048, 32).expect("valid")
}

/// Layouts produced by both algorithms never overlap arrays and only
/// ever grow the footprint (monotone, bounded growth).
#[test]
fn layouts_are_valid_and_bounded() {
    for case in 0..CASES {
        let p = arb_program(case);
        for outcome in [
            PaddingPipeline::pad(small_config()).run(&p),
            PaddingPipeline::padlite(small_config()).run(&p),
        ] {
            assert!(outcome.layout.check_no_overlap(), "case {case}");
            let original = DataLayout::original(&p).total_bytes();
            assert!(outcome.layout.total_bytes() >= original, "case {case}");
            // Growth is bounded: per array, at most one cache size of
            // inter gap plus the intra budget.
            let bound = original + p.arrays().len() as u64 * (2048 + 64 * 8 * 130);
            assert!(outcome.layout.total_bytes() <= bound, "case {case}");
        }
    }
}

/// Unless PAD reported a failure event, no severe conflicts survive the
/// transformation — the paper's central guarantee.
#[test]
fn pad_clears_severe_conflicts_or_reports_failure() {
    for case in 0..CASES {
        let p = arb_program(case);
        let config = small_config();
        let outcome = PaddingPipeline::pad(config.clone()).run(&p);
        let failed = outcome.events.iter().any(|e| {
            matches!(
                e,
                PadEvent::InterFailed { .. } | PadEvent::IntraFailed { .. }
            )
        });
        if !failed {
            let leftover = find_severe_conflicts(&p, &outcome.layout, &config);
            assert!(leftover.is_empty(), "case {case} leftover: {leftover:?}");
        }
    }
}

/// Every address the trace generator emits lies inside the span of the
/// accessed array, under both the original and padded layouts.
#[test]
fn traces_stay_in_bounds() {
    for case in 0..CASES {
        let p = arb_program(case);
        for layout in [
            DataLayout::original(&p),
            PaddingPipeline::pad(small_config()).run(&p).layout,
        ] {
            let total = layout.total_bytes();
            let mut count = 0u64;
            for_each_access(&p, &layout, |a| {
                assert!(
                    a.addr < total,
                    "case {case}: address {} beyond layout end {total}",
                    a.addr
                );
                count += 1;
            });
            assert!(count > 0, "case {case}");
        }
    }
}

/// Trace length is layout-invariant: padding changes *where* accesses
/// go, never how many there are (the transformation does not touch
/// computation).
#[test]
fn padding_preserves_access_counts() {
    for case in 0..CASES {
        let p = arb_program(case);
        let original = DataLayout::original(&p);
        let padded = PaddingPipeline::pad(small_config()).run(&p).layout;
        let count = |layout: &DataLayout| {
            let mut c = 0u64;
            for_each_access(&p, layout, |_| c += 1);
            c
        };
        assert_eq!(count(&original), count(&padded), "case {case}");
    }
}

/// Simulation sanity on random traces: the accounting identity holds and
/// the three-C classification partitions the misses.
#[test]
fn simulation_accounting_holds() {
    use rivera_padding::trace::simulate_classified;
    for case in 0..CASES {
        let p = arb_program(case);
        let cache = CacheConfig::direct_mapped(2048, 32);
        let stats = simulate_classified(&p, &DataLayout::original(&p), &cache);
        assert_eq!(
            stats.cache.hits + stats.cache.misses,
            stats.cache.accesses,
            "case {case}"
        );
        assert_eq!(
            stats.compulsory + stats.capacity + stats.conflict,
            stats.cache.misses,
            "case {case}"
        );
    }
}
