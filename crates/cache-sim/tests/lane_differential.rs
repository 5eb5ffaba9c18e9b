//! Differential verification of the `run_slice` kernels.
//!
//! `Cache::run_slice` routes direct-mapped and LRU write-allocate
//! configurations through specialized slice loops over one word per
//! way: a branch-free direct-mapped loop, and an LRU loop with
//! fixed-width sets at 2, 4, 8 and 16 ways and a dynamic width (`W = 0`)
//! for every other associativity. Those kernels must be *bit-identical*
//! to the seed's per-access `BaselineCache` model on any trace, at any
//! slice length, cut at any slice boundary, and interleaved with
//! `Cache::access`.
//! This suite drives seeded-random traces through every specialized
//! shape and checks the full `CacheStats` — not just misses — so a
//! divergence in writeback or write-miss accounting can't hide behind an
//! agreeing miss count. Addresses at the top of `u64` probe the word's
//! boundary: with the smallest ways `CacheConfig::try_new` accepts, 4
//! bytes, a tag fills all but two bits of it.

use pad_cache_sim::{
    Access, BaselineCache, Cache, CacheConfig, CacheStats, IndexFunction, ReplacementPolicy,
    XorShift64Star,
};

/// The unit the trace lengths and slice sizes below are built from:
/// lengths of a few `LANE`s plus ragged tails, and slices of one less,
/// exactly and one more, so every trace crosses many slice boundaries.
const LANE: usize = 128;

/// Every kernel-specialized shape: direct-mapped and each const-generic
/// associativity, the dynamic `W = 0` scan, and XOR indexing at every
/// associativity.
fn kernel_configs() -> Vec<CacheConfig> {
    let mut configs = vec![
        CacheConfig::direct_mapped(4096, 32),
        CacheConfig::direct_mapped(4096, 32).with_index_function(IndexFunction::Xor),
        CacheConfig::set_associative(4096, 32, 2),
        CacheConfig::set_associative(4096, 32, 2).with_index_function(IndexFunction::Xor),
        CacheConfig::set_associative(4096, 32, 4),
        CacheConfig::set_associative(4096, 32, 8),
    ];
    // A tiny cache so evictions and writebacks dominate.
    configs.push(CacheConfig::direct_mapped(1024, 32));
    configs.push(CacheConfig::set_associative(1024, 32, 4));
    // The 16-way kernel, and associativities without a fixed-width kernel:
    // fully associative (128 ways) and 32 ways take the dynamic scan.
    configs.push(CacheConfig::set_associative(4096, 32, 16));
    configs.push(CacheConfig::fully_associative(4096, 32));
    configs.push(CacheConfig::set_associative(4096, 32, 32));
    for ways in [4, 8, 16, 32] {
        configs.push(
            CacheConfig::set_associative(4096, 32, ways).with_index_function(IndexFunction::Xor),
        );
    }
    configs
}

/// Uniform random addresses: maximal set-index churn, worst case for the
/// branchless hit/miss mask arithmetic.
fn random_trace(seed: u64, len: usize, span: u64) -> Vec<Access> {
    let mut rng = XorShift64Star::new(seed);
    (0..len)
        .map(|_| Access {
            addr: rng.below(span),
            is_write: rng.below(3) == 0,
        })
        .collect()
}

/// Mixed locality: unit-stride bursts (hits on the set's most recent
/// word, the LRU loop's one-compare path) interleaved with random jumps
/// (exercising deeper hits, eviction, victim choice, and writebacks).
fn mixed_trace(seed: u64, len: usize, span: u64) -> Vec<Access> {
    let mut rng = XorShift64Star::new(seed);
    let mut trace = Vec::with_capacity(len);
    while trace.len() < len {
        if rng.below(3) == 0 {
            let base = rng.below(span);
            let burst = rng.range(2, 24);
            for k in 0..burst {
                if trace.len() == len {
                    break;
                }
                trace.push(Access {
                    addr: (base + k * 8) % span,
                    is_write: rng.below(4) == 0,
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

fn baseline_stats(config: CacheConfig, trace: &[Access]) -> CacheStats {
    let mut cache = BaselineCache::new(config);
    cache.run(trace.iter().copied());
    *cache.stats()
}

fn lane_stats(config: CacheConfig, trace: &[Access]) -> CacheStats {
    let mut cache = Cache::new(config);
    cache.run_slice(trace);
    *cache.stats()
}

/// Feed the same trace as a sequence of `run_slice` calls with the given
/// chunk length, so lane blocks straddle call boundaries.
fn chunked_stats(config: CacheConfig, trace: &[Access], chunk: usize) -> CacheStats {
    let mut cache = Cache::new(config);
    for piece in trace.chunks(chunk.max(1)) {
        cache.run_slice(piece);
    }
    *cache.stats()
}

#[test]
fn lane_width_assumption() {
    // The kernels carry their state (set contents in recency order)
    // from one `run_slice` call to the next. The length-targeted tests
    // below cut traces at `LANE - 1`, `LANE` and `LANE + 1` and feed
    // traces of only a few `LANE`s; a much larger unit would leave them
    // too few slice boundaries to cross, so pin its size here.
    assert!(LANE.is_power_of_two() && LANE <= 256);
}

#[test]
fn seeded_random_traces_match_baseline() {
    for config in kernel_configs() {
        for seed in [1u64, 0xDEAD_BEEF, 0x9E37_79B9_7F4A_7C15] {
            let trace = random_trace(seed, 4 * LANE + 33, 1 << 16);
            assert_eq!(
                lane_stats(config, &trace),
                baseline_stats(config, &trace),
                "lane kernel diverged on random trace (seed {seed:#x}, config {config:?})"
            );
        }
    }
}

#[test]
fn mixed_locality_traces_match_baseline() {
    for config in kernel_configs() {
        for seed in [7u64, 0xABCD_EF01] {
            let trace = mixed_trace(seed, 6 * LANE + 5, 1 << 15);
            assert_eq!(
                lane_stats(config, &trace),
                baseline_stats(config, &trace),
                "lane kernel diverged on mixed trace (seed {seed:#x}, config {config:?})"
            );
        }
    }
}

#[test]
fn odd_length_tails_match_baseline() {
    // Lengths chosen around the lane-block width: empty, single access,
    // sub-block, one-less/exact/one-more, and multi-block with ragged
    // tails. The final partial block takes the `n < LANE` path in the
    // precompute fill.
    let lengths = [
        0usize,
        1,
        2,
        31,
        97,
        LANE - 1,
        LANE,
        LANE + 1,
        2 * LANE - 1,
        2 * LANE,
        3 * LANE + 17,
    ];
    for config in kernel_configs() {
        for &len in &lengths {
            let trace = mixed_trace(0x5EED ^ len as u64, len, 1 << 14);
            assert_eq!(
                lane_stats(config, &trace),
                baseline_stats(config, &trace),
                "lane kernel diverged at trace length {len} (config {config:?})"
            );
        }
    }
}

#[test]
fn chunk_boundary_straddles_are_invisible() {
    // The same trace must produce identical stats whether it arrives as
    // one `run_slice` call or as many calls of awkward sizes: kernel
    // state (set contents in recency order) must carry across call
    // boundaries exactly.
    let chunk_sizes = [1usize, 3, 63, LANE - 1, LANE, LANE + 1, 300, 1024];
    for config in kernel_configs() {
        let trace = mixed_trace(0xC0FFEE, 5 * LANE + 41, 1 << 15);
        let reference = baseline_stats(config, &trace);
        assert_eq!(
            lane_stats(config, &trace),
            reference,
            "one-shot diverged ({config:?})"
        );
        for &chunk in &chunk_sizes {
            assert_eq!(
                chunked_stats(config, &trace, chunk),
                reference,
                "chunked run_slice (chunk {chunk}) diverged from one-shot ({config:?})"
            );
        }
    }
}

#[test]
fn write_heavy_traces_match_baseline() {
    // All-write and all-read extremes: the branchless dirty/writeback
    // mask arithmetic collapses to its endpoints here, which is where a
    // sign error in a mask would surface.
    for config in kernel_configs() {
        let mut rng = XorShift64Star::new(42);
        let writes: Vec<Access> = (0..3 * LANE + 9)
            .map(|_| Access {
                addr: rng.below(1 << 13),
                is_write: true,
            })
            .collect();
        let reads: Vec<Access> = writes
            .iter()
            .map(|a| Access {
                is_write: false,
                ..*a
            })
            .collect();
        for trace in [&writes, &reads] {
            assert_eq!(
                lane_stats(config, trace),
                baseline_stats(config, trace),
                "lane kernel diverged on uniform read/write trace ({config:?})"
            );
        }
    }
}

#[test]
fn access_and_run_slice_interleave() {
    // One cache fed alternately by `Cache::access` and `run_slice`, in
    // pieces of random length: every per-access outcome, residency after
    // every piece, and the final stats must match the baseline model.
    for config in kernel_configs() {
        let trace = mixed_trace(0x1A7E, 6 * LANE + 11, 1 << 15);
        let mut rng = XorShift64Star::new(0x5111CE);
        let mut cache = Cache::new(config);
        let mut baseline = BaselineCache::new(config);
        let mut rest = &trace[..];
        let mut per_access = true;
        while !rest.is_empty() {
            let len = (rng.range(1, 2 * LANE as u64) as usize).min(rest.len());
            let (piece, tail) = rest.split_at(len);
            if per_access {
                for (n, &a) in piece.iter().enumerate() {
                    assert_eq!(
                        cache.access(a),
                        baseline.access(a),
                        "access {n} of a piece ({a:?}) under {config:?}"
                    );
                }
            } else {
                cache.run_slice(piece);
                baseline.run(piece.iter().copied());
            }
            for a in piece {
                assert_eq!(
                    cache.contains(a.addr),
                    baseline.contains(a.addr),
                    "residency of {:#x} under {config:?}",
                    a.addr
                );
            }
            per_access = !per_access;
            rest = tail;
        }
        assert_eq!(cache.stats(), baseline.stats(), "{config:?}");
        assert_eq!(
            cache.resident_lines(),
            baseline.resident_lines(),
            "{config:?}"
        );
    }
}

#[test]
fn addresses_at_the_top_of_u64_match_baseline() {
    // Within 2^12 of `u64::MAX`, a 4-byte cache's tags fill 62 bits and
    // an 8-byte cache's 61: the largest tags a word must hold, since
    // `CacheConfig::try_new` refuses caches of 1 and 2 bytes.
    for line in [1u64, 2] {
        for size in [4u64, 8] {
            for index in [IndexFunction::Modulo, IndexFunction::Xor] {
                let config = CacheConfig::direct_mapped(size, line).with_index_function(index);
                // Cold reads of the top lines first — the largest tags
                // the geometry has, each landing in an empty set — then
                // random accesses, a quarter of them to the top 16 bytes.
                let mut rng = XorShift64Star::new(size << 8 | line);
                let trace: Vec<Access> = (0..8)
                    .map(|k| Access::read(u64::MAX - k))
                    .chain((0..4 * LANE + 7).map(|_| {
                        let span = if rng.below(4) == 0 { 16 } else { 1 << 12 };
                        Access {
                            addr: u64::MAX - rng.below(span),
                            is_write: rng.bool(),
                        }
                    }))
                    .collect();
                let mut cache = Cache::new(config);
                let mut baseline = BaselineCache::new(config);
                for (n, &a) in trace.iter().enumerate() {
                    assert_eq!(
                        cache.access(a),
                        baseline.access(a),
                        "access {n} ({a:?}) under {config:?}"
                    );
                }
                let reference = *baseline.stats();
                assert_eq!(lane_stats(config, &trace), reference, "{config:?}");
                for chunk in [1, LANE - 1, LANE + 1] {
                    assert_eq!(
                        chunked_stats(config, &trace, chunk),
                        reference,
                        "chunk {chunk} under {config:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn multi_way_caches_at_the_top_of_u64_match_baseline() {
    // A tag's width depends on the bytes one way holds, not on the
    // cache's size: 2- and 4-way caches of 8 to 32 bytes whose ways hold
    // 4 and 8 bytes hold tags of 62 and 61 bits, the word's limit.
    for ways in [2u32, 4] {
        for way_bytes in [4u64, 8] {
            for line in [1u64, 2] {
                for replacement in [
                    ReplacementPolicy::Lru,
                    ReplacementPolicy::Fifo,
                    ReplacementPolicy::Random,
                ] {
                    for index in [IndexFunction::Modulo, IndexFunction::Xor] {
                        let config =
                            CacheConfig::set_associative(way_bytes * ways as u64, line, ways)
                                .with_replacement(replacement)
                                .with_index_function(index);
                        // Cold reads of the top lines, then random
                        // accesses, a quarter of them to the top 64 bytes
                        // so sets fill and evict.
                        let mut rng =
                            XorShift64Star::new(way_bytes << 16 | u64::from(ways) << 8 | line);
                        let trace: Vec<Access> = (0..16)
                            .map(|k| Access::read(u64::MAX - k))
                            .chain((0..4 * LANE + 7).map(|_| {
                                let span = if rng.below(4) == 0 { 64 } else { 1 << 12 };
                                Access {
                                    addr: u64::MAX - rng.below(span),
                                    is_write: rng.bool(),
                                }
                            }))
                            .collect();
                        let mut cache = Cache::new(config);
                        let mut baseline = BaselineCache::new(config);
                        for (n, &a) in trace.iter().enumerate() {
                            assert_eq!(
                                cache.access(a),
                                baseline.access(a),
                                "access {n} ({a:?}) under {config:?}"
                            );
                        }
                        let reference = *baseline.stats();
                        assert_eq!(lane_stats(config, &trace), reference, "{config:?}");
                        for chunk in [1, LANE - 1, LANE + 1] {
                            assert_eq!(
                                chunked_stats(config, &trace, chunk),
                                reference,
                                "chunk {chunk} under {config:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
