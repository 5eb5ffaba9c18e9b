//! Golden end-to-end tests of the paper's worked examples (Section 3)
//! and headline claims, spanning every crate: IR construction, padding
//! analysis, trace generation, and cache simulation.

use rivera_padding::cache_sim::CacheConfig;
use rivera_padding::core::{
    find_severe_conflicts, DataLayout, InterHeuristic, IntraHeuristic, LinAlgHeuristic,
    PaddingConfig, PaddingPipeline,
};
use rivera_padding::ir::{ArrayBuilder, ArrayId, Loop, Program, Stmt, Subscript};
use rivera_padding::trace::{padding_config_for, simulate_classified, simulate_program};

/// JACOBI with 1-byte elements so the paper's element-unit arithmetic
/// applies literally.
fn jacobi_elements(n: i64) -> (Program, ArrayId, ArrayId) {
    let mut b = Program::builder("jacobi");
    let a = b.add_array(ArrayBuilder::new("A", [n, n]).elem_size(1));
    let bb = b.add_array(ArrayBuilder::new("B", [n, n]).elem_size(1));
    b.push(Stmt::loop_nest(
        [Loop::new("i", 2, n - 1), Loop::new("j", 2, n - 1)],
        vec![Stmt::refs(vec![
            a.at([Subscript::var_offset("j", -1), Subscript::var("i")]),
            a.at([Subscript::var("j"), Subscript::var_offset("i", -1)]),
            a.at([Subscript::var_offset("j", 1), Subscript::var("i")]),
            a.at([Subscript::var("j"), Subscript::var_offset("i", 1)]),
            bb.at([Subscript::var("j"), Subscript::var("i")]).write(),
        ])],
    ));
    b.push(Stmt::loop_nest(
        [Loop::new("i", 2, n - 1), Loop::new("j", 2, n - 1)],
        vec![Stmt::refs(vec![
            bb.at([Subscript::var("j"), Subscript::var("i")]),
            a.at([Subscript::var("j"), Subscript::var("i")]).write(),
        ])],
    ));
    (b.build().expect("valid"), a, bb)
}

#[test]
fn section3_n512_cs2048() {
    // "INTERPADLITE ... B is therefore advanced by M."
    // "INTERPAD ... B's tentative location is therefore padded by 5."
    let (p, a, bb) = jacobi_elements(512);
    let config = PaddingConfig::new(2048, 4).expect("valid");

    let lite = PaddingPipeline::custom(
        IntraHeuristic::Lite,
        LinAlgHeuristic::None,
        InterHeuristic::Lite,
        config.clone(),
    )
    .run(&p);
    assert_eq!(lite.layout.column_size(a), 512);
    assert_eq!(lite.layout.base_addr(bb), 512 * 512 + 16); // M = 4 lines = 16 elements

    let pad = PaddingPipeline::pad(config.clone()).run(&p);
    assert_eq!(pad.layout.base_addr(bb), 512 * 512 + 5);

    for outcome in [lite, pad] {
        assert!(find_severe_conflicts(&p, &outcome.layout, &config).is_empty());
    }
}

#[test]
fn section3_n512_cs1024() {
    // "A's column size, and thus B's, are increased to 520 ... B is
    //  padded by M." / "Padding A's column size by 2 eliminates all
    //  conflicts ... places B immediately at 514 x 512."
    let (p, a, bb) = jacobi_elements(512);
    let config = PaddingConfig::new(1024, 4).expect("valid");

    let lite = PaddingPipeline::custom(
        IntraHeuristic::Lite,
        LinAlgHeuristic::None,
        InterHeuristic::Lite,
        config.clone(),
    )
    .run(&p);
    assert_eq!(lite.layout.column_size(a), 520);
    assert_eq!(lite.layout.column_size(bb), 520);
    assert_eq!(lite.layout.base_addr(bb), 520 * 512 + 16);

    let pad = PaddingPipeline::pad(config.clone()).run(&p);
    assert_eq!(pad.layout.column_size(a), 514);
    assert_eq!(pad.layout.column_size(bb), 512);
    assert_eq!(pad.layout.base_addr(bb), 514 * 512);
    assert!(find_severe_conflicts(&p, &pad.layout, &config).is_empty());
}

#[test]
fn section3_n934_cs1024_padlite_fails_pad_succeeds() {
    // "PADLITE therefore fails to eliminate the existing severe conflict
    //  misses. Analysis enables PAD to find a layout eliminating these
    //  conflicts." (B padded by 6.)
    let (p, _, bb) = jacobi_elements(934);
    let config = PaddingConfig::new(1024, 4).expect("valid");

    let lite = PaddingPipeline::custom(
        IntraHeuristic::Lite,
        LinAlgHeuristic::None,
        InterHeuristic::Lite,
        config.clone(),
    )
    .run(&p);
    assert_eq!(lite.layout.base_addr(bb), 934 * 934);
    assert!(!find_severe_conflicts(&p, &lite.layout, &config).is_empty());

    let pad = PaddingPipeline::pad(config.clone()).run(&p);
    assert_eq!(pad.layout.base_addr(bb), 934 * 934 + 6);
    assert!(find_severe_conflicts(&p, &pad.layout, &config).is_empty());

    // And the simulator agrees: PAD's layout misses strictly less.
    let cache = CacheConfig::direct_mapped(1024, 4);
    let before = simulate_program(&p, &lite.layout, &cache).miss_rate();
    let after = simulate_program(&p, &pad.layout, &cache).miss_rate();
    assert!(after < before, "before={before} after={after}");
}

#[test]
fn figure1_dot_product_severe_conflicts() {
    // Figure 1: A and B separated by a multiple of the cache size on a
    // direct-mapped cache -> every reference is a conflict miss.
    let n = 2048i64;
    let mut b = Program::builder("dot");
    let a = b.add_array(ArrayBuilder::new("A", [n]));
    let bb = b.add_array(ArrayBuilder::new("B", [n]));
    b.push(Stmt::loop_(
        Loop::new("i", 1, n),
        vec![Stmt::refs(vec![
            a.at([Subscript::var("i")]),
            bb.at([Subscript::var("i")]),
        ])],
    ));
    let p = b.build().expect("valid");
    let cache = CacheConfig::paper_base();

    let before = simulate_classified(&p, &DataLayout::original(&p), &cache);
    assert!(before.cache.miss_rate() > 0.99);

    let padded = PaddingPipeline::pad(padding_config_for(&cache))
        .run(&p)
        .layout;
    let after = simulate_classified(&p, &padded, &cache);
    assert_eq!(after.conflict, 0);
    // Only cold misses remain: one per 32-byte line per stream.
    assert!(after.cache.miss_rate() < 0.26);
}

#[test]
fn figure2_intra_padding_restores_column_reuse() {
    // Figure 2: a column size that is a multiple of the cache size makes
    // columns of A conflict; intra-variable padding fixes the layout.
    let n = 2048i64; // 2048 doubles = 16 KiB = exactly the cache
    let mut b = Program::builder("stencil");
    let a = b.add_array(ArrayBuilder::new("A", [n, 8]));
    let bb = b.add_array(ArrayBuilder::new("B", [n, 8]));
    b.push(Stmt::loop_nest(
        [Loop::new("i", 2, 7), Loop::new("j", 2, n - 1)],
        vec![Stmt::refs(vec![
            a.at([Subscript::var_offset("j", -1), Subscript::var("i")]),
            a.at([Subscript::var("j"), Subscript::var_offset("i", -1)]),
            a.at([Subscript::var_offset("j", 1), Subscript::var("i")]),
            a.at([Subscript::var("j"), Subscript::var_offset("i", 1)]),
            bb.at([Subscript::var("j"), Subscript::var("i")]).write(),
        ])],
    ));
    let p = b.build().expect("valid");
    let cache = CacheConfig::paper_base();

    let outcome = PaddingPipeline::pad(padding_config_for(&cache)).run(&p);
    assert!(
        outcome.layout.intra_pad_elements(a) > 0,
        "{:?}",
        outcome.events
    );

    let before = simulate_program(&p, &DataLayout::original(&p), &cache).miss_rate();
    let after = simulate_program(&p, &outcome.layout, &cache).miss_rate();
    assert!(after < before / 2.0, "before={before} after={after}");
}

#[test]
fn padlite_and_pad_both_rescue_the_suite_at_small_scale() {
    // A scaled-down version of Figure 8 that runs fast in debug builds:
    // small kernels on a small cache. Padding must never lose badly, and
    // must win overall.
    let cache = CacheConfig::direct_mapped(2048, 32);
    let programs = [
        rivera_padding::kernels::jacobi::spec(128),
        rivera_padding::kernels::expl::spec(96),
        rivera_padding::kernels::shal::spec(95),
        rivera_padding::kernels::dgefa::spec_steps(96, 8),
        rivera_padding::kernels::chol::spec_steps(96, 48),
        rivera_padding::kernels::adi::spec(128),
    ];
    let mut orig_total = 0.0;
    let mut lite_total = 0.0;
    let mut pad_total = 0.0;
    for p in &programs {
        let config = padding_config_for(&cache);
        let orig = simulate_program(p, &DataLayout::original(p), &cache).miss_rate_percent();
        let lite = simulate_program(
            p,
            &PaddingPipeline::padlite(config.clone()).run(p).layout,
            &cache,
        )
        .miss_rate_percent();
        let pad = simulate_program(p, &PaddingPipeline::pad(config).run(p).layout, &cache)
            .miss_rate_percent();
        orig_total += orig;
        lite_total += lite;
        pad_total += pad;
        // The paper observes occasional small regressions (EXPL); allow
        // a few points of slack per program but no catastrophes.
        assert!(
            pad <= orig + 5.0,
            "{}: orig={orig:.1} pad={pad:.1}",
            p.name()
        );
        assert!(
            lite <= orig + 5.0,
            "{}: orig={orig:.1} lite={lite:.1}",
            p.name()
        );
    }
    assert!(pad_total < orig_total, "PAD should win overall");
    assert!(lite_total < orig_total, "PADLITE should win overall");
    assert!(
        pad_total <= lite_total + 3.0,
        "PAD should be at least as good as PADLITE"
    );
}

#[test]
fn multilevel_configuration_clears_both_levels() {
    use rivera_padding::core::CacheParams;
    let (p, _, bb) = jacobi_elements(512);
    let config = rivera_padding::core::PaddingConfig::multi_level(vec![
        CacheParams::new(1024, 4).expect("valid"),
        CacheParams::new(8192, 16).expect("valid"),
    ])
    .expect("two levels");
    let outcome = PaddingPipeline::pad(config.clone()).run(&p);
    assert!(find_severe_conflicts(&p, &outcome.layout, &config).is_empty());
    // Both levels individually clear too.
    for level in config.levels() {
        let single =
            rivera_padding::core::PaddingConfig::multi_level(vec![*level]).expect("one level");
        assert!(
            find_severe_conflicts(&p, &outcome.layout, &single).is_empty(),
            "level {level:?} still conflicts"
        );
    }
    let _ = bb;
}
