//! Differential verification of the packed cache.
//!
//! `Cache` (one `tag << 1 | dirty` word per way, each set's words kept in
//! replacement order instead of timestamped, shift-based indexing) must
//! be *bit-identical* to `BaselineCache` (the original `Vec<Vec<Line>>`
//! model): the same `AccessOutcome` on every access and the same final
//! `CacheStats`, across every replacement policy, write policy, index
//! function, and associativity. The classifier, which is built on `Cache`, is
//! additionally checked against a reference classifier assembled from
//! `BaselineCache` parts.

use std::collections::HashSet;

use pad_cache_sim::{
    Access, BaselineCache, Cache, CacheConfig, ClassifiedStats, ClassifyingCache, IndexFunction,
    ReplacementPolicy, WritePolicy, XorShift64Star,
};

/// A mixed trace: strided bursts (the kernel-like common case, which
/// hits its set's most recent line) interleaved with uniform random
/// accesses (which exercise eviction and victim selection).
fn mixed_trace(seed: u64, len: usize, span: u64) -> Vec<Access> {
    let mut rng = XorShift64Star::new(seed);
    let mut trace = Vec::with_capacity(len);
    while trace.len() < len {
        if rng.below(4) == 0 {
            // A unit-stride burst of doubles from a random base.
            let cursor = rng.below(span);
            let burst = rng.range(4, 40);
            for k in 0..burst {
                if trace.len() == len {
                    break;
                }
                trace.push(Access {
                    addr: (cursor + k * 8) % span,
                    is_write: rng.below(5) == 0,
                });
            }
        } else {
            trace.push(Access {
                addr: rng.below(span),
                is_write: rng.bool(),
            });
        }
    }
    trace
}

fn configs_under_test() -> Vec<CacheConfig> {
    let mut configs = Vec::new();
    for ways in [1u32, 2, 4, 16] {
        for replacement in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            for write_policy in [
                WritePolicy::WriteBackAllocate,
                WritePolicy::WriteThroughNoAllocate,
            ] {
                for index_fn in [IndexFunction::Modulo, IndexFunction::Xor] {
                    configs.push(
                        CacheConfig::set_associative(4096, 32, ways)
                            .with_replacement(replacement)
                            .with_write_policy(write_policy)
                            .with_index_function(index_fn),
                    );
                }
            }
        }
    }
    // Degenerate geometries: fully associative, tiny, large-line.
    configs.push(CacheConfig::fully_associative(2048, 32));
    configs.push(CacheConfig::direct_mapped(64, 32));
    configs.push(CacheConfig::set_associative(16 * 1024, 128, 2));
    configs
}

#[test]
fn outcome_sequences_identical_across_policy_matrix() {
    for (i, config) in configs_under_test().into_iter().enumerate() {
        let trace = mixed_trace(0xC0FFEE + i as u64, 6000, 64 * 1024);
        let mut fast = Cache::new(config);
        let mut slow = BaselineCache::new(config);
        for (n, &a) in trace.iter().enumerate() {
            let got = fast.access(a);
            let want = slow.access(a);
            assert_eq!(
                got, want,
                "outcome diverged at access {n} ({a:?}) under {config}"
            );
        }
        assert_eq!(fast.stats(), slow.stats(), "stats diverged under {config}");
        assert_eq!(
            fast.resident_lines(),
            slow.resident_lines(),
            "residency diverged under {config}"
        );
    }
}

#[test]
fn containment_matches_after_replay() {
    let config =
        CacheConfig::set_associative(2048, 32, 4).with_replacement(ReplacementPolicy::Fifo);
    let trace = mixed_trace(7, 3000, 16 * 1024);
    let mut fast = Cache::new(config);
    let mut slow = BaselineCache::new(config);
    for &a in &trace {
        fast.access(a);
        slow.access(a);
    }
    for addr in (0..16 * 1024u64).step_by(32) {
        assert_eq!(fast.contains(addr), slow.contains(addr), "addr {addr}");
    }
}

/// Reference three-C classifier built from `BaselineCache` parts: the
/// main cache is a baseline cache, the fully-associative shadow is a
/// baseline cache too (the seed test suite proved the specialized
/// `ShadowLru` equivalent to it).
fn baseline_classified(config: CacheConfig, trace: &[Access]) -> ClassifiedStats {
    let mut main = BaselineCache::new(config);
    let mut shadow = BaselineCache::new(CacheConfig::fully_associative(
        config.size(),
        config.line_size(),
    ));
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stats = ClassifiedStats::default();
    for &a in trace {
        let line = config.line_addr(a.addr);
        let shadow_hit = shadow.access(Access::read(line)).hit;
        let first_touch = seen.insert(line);
        let outcome = main.access(a);
        if !outcome.hit {
            if first_touch {
                stats.compulsory += 1;
            } else if !shadow_hit {
                stats.capacity += 1;
            } else {
                stats.conflict += 1;
            }
        }
    }
    stats.cache = *main.stats();
    stats
}

#[test]
fn classifier_matches_baseline_composition() {
    for (i, config) in [
        CacheConfig::direct_mapped(2048, 32),
        CacheConfig::set_associative(4096, 32, 2),
        CacheConfig::direct_mapped(1024, 32).with_index_function(IndexFunction::Xor),
    ]
    .into_iter()
    .enumerate()
    {
        let trace = mixed_trace(99 + i as u64, 5000, 32 * 1024);
        let mut classifier = ClassifyingCache::new(config);
        for &a in &trace {
            classifier.access(a);
        }
        assert_eq!(
            classifier.stats(),
            baseline_classified(config, &trace),
            "classified stats diverged under {config}"
        );
    }
}

#[test]
fn kernel_trace_equivalence() {
    // A pure unit-stride kernel-shaped trace, where most accesses hit
    // their set's most recent line, must still match the baseline.
    let mut trace = Vec::new();
    for sweep in 0..4u64 {
        for i in 0..4096u64 {
            trace.push(Access::read(i * 8));
            trace.push(Access::read(32 * 1024 + i * 8));
            if sweep % 2 == 0 {
                trace.push(Access::write(64 * 1024 + i * 8));
            }
        }
    }
    for config in [
        CacheConfig::paper_base(),
        CacheConfig::set_associative(16 * 1024, 32, 4),
    ] {
        let mut fast = Cache::new(config);
        let mut slow = BaselineCache::new(config);
        for (n, &a) in trace.iter().enumerate() {
            assert_eq!(fast.access(a), slow.access(a), "access {n} under {config}");
        }
        assert_eq!(fast.stats(), slow.stats());
    }
}

#[test]
fn reset_returns_the_cache_to_its_constructed_state() {
    // A cache that ran a trace and was reset must rerun it exactly like a
    // new one: same victims (the random policy's state included), same
    // outcomes, same stats.
    for (i, config) in configs_under_test().into_iter().enumerate() {
        let trace = mixed_trace(0x5E7 + i as u64, 3000, 64 * 1024);
        let mut cache = Cache::new(config);
        cache.run_slice(&trace);
        cache.reset();
        let mut fresh = BaselineCache::new(config);
        for (n, &a) in trace.iter().enumerate() {
            assert_eq!(
                cache.access(a),
                fresh.access(a),
                "outcome diverged at access {n} after reset under {config}"
            );
        }
        assert_eq!(
            cache.stats(),
            fresh.stats(),
            "stats after reset under {config}"
        );
        assert_eq!(
            cache.resident_lines(),
            fresh.resident_lines(),
            "residency after reset under {config}"
        );
    }
}
