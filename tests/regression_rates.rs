//! Golden miss-rate regression tests.
//!
//! The simulator and heuristics are fully deterministic, so exact miss
//! counts are stable across runs and platforms. Pinning a handful of
//! values guards every layer at once (IR construction, padding decisions,
//! address generation, cache modeling): any behavioural change — however
//! subtle — shows up as a changed count here and must be justified.

use rivera_padding::cache_sim::CacheConfig;
use rivera_padding::core::{DataLayout, PaddingPipeline};
use rivera_padding::kernels;
use rivera_padding::trace::{padding_config_for, simulate_program};

fn rates(program: &rivera_padding::ir::Program, cache: &CacheConfig) -> (u64, u64, u64) {
    let original = simulate_program(program, &DataLayout::original(program), cache);
    let padded_layout = PaddingPipeline::pad(padding_config_for(cache))
        .run(program)
        .layout;
    let padded = simulate_program(program, &padded_layout, cache);
    assert_eq!(
        original.accesses, padded.accesses,
        "padding must not change work"
    );
    (original.accesses, original.misses, padded.misses)
}

#[test]
fn jacobi_128_on_2k() {
    let p = kernels::jacobi::spec(128);
    let cache = CacheConfig::direct_mapped(2048, 32);
    let (accesses, orig, pad) = rates(&p, &cache);
    assert_eq!(accesses, 111_132);
    assert_eq!(orig, 91_287);
    assert_eq!(pad, 25_507);
}

#[test]
fn dot_2048_on_paper_base() {
    let p = kernels::dot::spec(2048);
    let cache = CacheConfig::paper_base();
    let (accesses, orig, pad) = rates(&p, &cache);
    assert_eq!(accesses, 4096);
    assert_eq!(orig, 4096, "severe conflicts: every access misses");
    assert_eq!(
        pad, 1024,
        "cold misses only: one per 32-byte line per stream"
    );
}

#[test]
fn erle_32_on_paper_base() {
    let p = kernels::erle::spec(32);
    let cache = CacheConfig::paper_base();
    let (accesses, orig, pad) = rates(&p, &cache);
    assert_eq!(accesses, 380_928);
    assert!(pad <= orig, "orig {orig} pad {pad}");
}

#[test]
fn expl_96_on_2k_shape() {
    // Less brittle variant for a bigger kernel: pin the rates to coarse
    // bands rather than exact counts.
    let p = kernels::expl::spec(96);
    let cache = CacheConfig::direct_mapped(2048, 32);
    let (accesses, orig, pad) = rates(&p, &cache);
    assert_eq!(accesses, 335_768);
    let orig_rate = orig as f64 / accesses as f64;
    let pad_rate = pad as f64 / accesses as f64;
    assert!(orig_rate > 0.5, "original should thrash: {orig_rate}");
    assert!(pad_rate < 0.3, "padded should stream: {pad_rate}");
}
