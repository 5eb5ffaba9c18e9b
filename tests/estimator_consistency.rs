//! The analytic miss-rate model (pad-core's "simplified cache miss
//! equations") must agree with the simulator on the decisions that
//! matter: which layout is better, and roughly how severe a conflict
//! situation is.

use rivera_padding::cache_sim::CacheConfig;
use rivera_padding::core::{estimate_miss_rate, DataLayout, PaddingPipeline};
use rivera_padding::kernels;
use rivera_padding::trace::{padding_config_for, simulate_program};

/// Kernels with clear severe-conflict structure at these sizes.
fn cases() -> Vec<(&'static str, rivera_padding::ir::Program)> {
    vec![
        ("jacobi/128", kernels::jacobi::spec(128)),
        ("expl/96", kernels::expl::spec(96)),
        ("shal/95", kernels::shal::spec(95)),
        ("adi/128", kernels::adi::spec(128)),
        ("dot/2k", kernels::dot::spec(2048)),
    ]
}

#[test]
fn estimator_ranks_layouts_like_the_simulator() {
    let cache = CacheConfig::direct_mapped(2048, 32);
    let config = padding_config_for(&cache);
    for (name, p) in cases() {
        let original = DataLayout::original(&p);
        let padded = PaddingPipeline::pad(config.clone()).run(&p).layout;
        let est_gain = estimate_miss_rate(&p, &original, &config).miss_rate()
            - estimate_miss_rate(&p, &padded, &config).miss_rate();
        let sim_gain = simulate_program(&p, &original, &cache).miss_rate()
            - simulate_program(&p, &padded, &cache).miss_rate();
        // Whenever the model predicts a meaningful win, the simulator
        // must confirm the direction (and vice versa within noise).
        if est_gain > 0.05 {
            assert!(
                sim_gain > 0.0,
                "{name}: model predicted +{est_gain:.3}, simulator saw {sim_gain:.3}"
            );
        }
        if sim_gain > 0.10 {
            assert!(
                est_gain > 0.0,
                "{name}: simulator saw +{sim_gain:.3}, model predicted {est_gain:.3}"
            );
        }
    }
}

#[test]
fn estimator_never_exceeds_one_and_is_cheap() {
    let cache = CacheConfig::paper_base();
    let config = padding_config_for(&cache);
    for k in kernels::suite() {
        let n = k.default_n.clamp(8, 64);
        let p = (k.spec)(n);
        let est = estimate_miss_rate(&p, &DataLayout::original(&p), &config);
        assert!((0.0..=1.0).contains(&est.miss_rate()), "{}", k.name);
        assert!(est.accesses >= 0.0);
    }
}

#[test]
fn estimator_is_a_lower_bound_for_streaming_kernels() {
    // The model ignores capacity misses, so on a kernel that is purely
    // streaming (dot product with separated arrays) it matches the
    // simulator almost exactly, and in general it must not exceed the
    // simulated rate by more than the severe-conflict overcount bound.
    let cache = CacheConfig::paper_base();
    let config = padding_config_for(&cache);
    let p = kernels::dot::spec(2048);
    let padded = PaddingPipeline::pad(config.clone()).run(&p).layout;
    let est = estimate_miss_rate(&p, &padded, &config).miss_rate();
    let sim = simulate_program(&p, &padded, &cache).miss_rate();
    assert!((est - sim).abs() < 0.02, "est {est} vs sim {sim}");
}
