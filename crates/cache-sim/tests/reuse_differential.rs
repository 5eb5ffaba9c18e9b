//! Differential suite for the single-pass reuse-distance engine and the
//! classifier's fully-associative shadow.
//!
//! Two independent implementations answer the same question:
//!
//! 1. The reuse histogram's `misses_at(C)` — derived from one stack-
//!    distance walk — must equal a full fully-associative LRU simulation
//!    (`Cache::new(CacheConfig::fully_associative(..))`) at *every*
//!    power-of-two capacity, on dozens of randomized traces, and equal
//!    `ShadowLru`'s miss count for reuses either side of every bucket
//!    boundary up to 2^12 lines.
//! 2. `ClassifyingCache` must produce byte-identical per-access classes
//!    and final stats to the shadow-simulation classifier, built here
//!    from the public `ShadowLru` reference model: on random traces, on
//!    cyclic sweeps of `C − 1`, `C` and `C + 1` lines, and with `C` above
//!    the lines touched.
//! 3. On traces shaped to reach every internal path of the engine —
//!    long enough to compact, sparse enough to leave the paged last-use
//!    table for a hash map (from the start or mid-trace), lines arriving
//!    below the table's base, addresses wrapped near `u64::MAX` —
//!    `ReuseAnalyzer` and `SampledReuseAnalyzer` at rate 1 produce
//!    exactly the histogram of a naive move-to-front stack
//!    (`reference::NaiveStack`), whose miss counts match `ShadowLru`'s,
//!    and `ClassifyingCache` matches the shadow-simulation classifier
//!    access by access.

use std::collections::HashSet;

use pad_cache_sim::reference::NaiveStack;
use pad_cache_sim::{
    Access, Cache, CacheConfig, ClassifiedStats, ClassifyingCache, MissClass, ReuseAnalyzer,
    ReuseHistogram, ReuseStack, SampledReuseAnalyzer, ShadowLru, XorShift64Star,
};

const LINE: u64 = 32;
const TRACE_LEN: usize = 512;
const SEEDS: u64 = 50;

/// A random trace mixing reads and writes over a bounded line pool, with
/// in-line byte offsets so line extraction is exercised too.
fn random_trace(seed: u64) -> Vec<Access> {
    let mut rng = XorShift64Star::new(seed);
    // Vary the footprint per seed: tight pools produce deep reuse,
    // wide pools produce mostly-cold streams.
    let pool = 1 << (3 + (seed % 6)); // 8..=256 distinct lines
    (0..TRACE_LEN)
        .map(|_| {
            let addr = rng.below(pool) * LINE + rng.below(LINE);
            if rng.bool() {
                Access::write(addr)
            } else {
                Access::read(addr)
            }
        })
        .collect()
}

/// Power-of-two capacities (in lines) from 1 up to and past the trace
/// length, so the cold-only regime is covered as well.
fn pow2_capacities() -> Vec<u64> {
    let mut caps = Vec::new();
    let mut c = 1u64;
    while c <= 2 * TRACE_LEN as u64 {
        caps.push(c);
        c *= 2;
    }
    caps
}

#[test]
fn reuse_miss_counts_match_fully_associative_simulation() {
    for seed in 1..=SEEDS {
        let trace = random_trace(seed);
        let mut analyzer = ReuseAnalyzer::new(LINE);
        analyzer.run_slice(&trace);
        let hist = analyzer.histogram();
        assert_eq!(hist.accesses(), trace.len() as u64);

        for &capacity in &pow2_capacities() {
            let config = CacheConfig::fully_associative(capacity * LINE, LINE);
            let mut cache = Cache::new(config);
            cache.run_slice(&trace);
            assert_eq!(
                hist.misses_at(capacity),
                cache.stats().misses,
                "seed {seed}: histogram diverged from simulation at capacity {capacity} lines"
            );
        }
    }
}

#[test]
fn reuse_cold_count_is_the_distinct_line_count() {
    for seed in 1..=SEEDS {
        let trace = random_trace(seed);
        let mut analyzer = ReuseAnalyzer::new(LINE);
        analyzer.run_slice(&trace);
        let distinct: HashSet<u64> = trace.iter().map(|a| a.addr / LINE).collect();
        assert_eq!(
            analyzer.histogram().cold(),
            distinct.len() as u64,
            "seed {seed}"
        );
        // Large-enough capacities keep every line resident: only cold
        // misses remain, for any capacity past the largest distance.
        let cap = analyzer
            .histogram()
            .max_distance()
            .map_or(1, |d| (d + 1).next_power_of_two());
        assert_eq!(analyzer.histogram().misses_at(cap), distinct.len() as u64);
    }
}

/// The pre-refactor classifier, verbatim: a per-capacity `ShadowLru`
/// shadow simulation plus an explicit first-touch set next to the main
/// cache. The production `ClassifyingCache` must never diverge from it.
struct LegacyClassifier {
    main: Cache,
    shadow: ShadowLru,
    seen_lines: HashSet<u64>,
    stats: ClassifiedStats,
}

impl LegacyClassifier {
    fn new(config: CacheConfig) -> Self {
        let capacity = (config.size() / config.line_size()) as usize;
        LegacyClassifier {
            main: Cache::new(config),
            shadow: ShadowLru::new(capacity),
            seen_lines: HashSet::new(),
            stats: ClassifiedStats::default(),
        }
    }

    fn access(&mut self, access: Access) -> Option<MissClass> {
        let line = self.main.config().line_addr(access.addr);
        let shadow_hit = self.shadow.access(line);
        let first_touch = self.seen_lines.insert(line);
        let outcome = self.main.access(access);
        self.stats.cache = *self.main.stats();
        if outcome.hit {
            return None;
        }
        let class = if first_touch {
            MissClass::Compulsory
        } else if !shadow_hit {
            MissClass::Capacity
        } else {
            MissClass::Conflict
        };
        match class {
            MissClass::Compulsory => self.stats.compulsory += 1,
            MissClass::Capacity => self.stats.capacity += 1,
            MissClass::Conflict => self.stats.conflict += 1,
        }
        Some(class)
    }
}

#[test]
fn classifier_is_bit_identical_to_the_shadow_simulation_classifier() {
    let configs = [
        CacheConfig::direct_mapped(1024, 32),
        CacheConfig::direct_mapped(4 * 1024, 32),
        CacheConfig::set_associative(2 * 1024, 32, 2),
        CacheConfig::set_associative(4 * 1024, 64, 4),
        CacheConfig::fully_associative(1024, 32),
        CacheConfig::direct_mapped(32, 32), // capacity-1 edge case
    ];
    for seed in 1..=SEEDS {
        let trace = random_trace(seed);
        for config in configs {
            let mut legacy = LegacyClassifier::new(config);
            let mut current = ClassifyingCache::new(config);
            for (i, &access) in trace.iter().enumerate() {
                assert_eq!(
                    current.access(access),
                    legacy.access(access),
                    "seed {seed}, config {config:?}: class diverged at access {i}"
                );
            }
            assert_eq!(
                current.stats(),
                legacy.stats,
                "seed {seed}, config {config:?}: final stats diverged"
            );
        }
    }
}

/// Accesses per engine-path trace: several compactions' worth (the
/// engine compacts every ~4096 ticks at these footprints).
const LONG_LEN: u64 = 24_000;

/// Reads of line `line(i, rng)` at access `i`, with in-line byte offsets.
fn line_trace(
    seed: u64,
    line_size: u64,
    line: impl Fn(u64, &mut XorShift64Star) -> u64,
) -> Vec<Access> {
    let mut rng = XorShift64Star::new(seed);
    (0..LONG_LEN)
        .map(|i| {
            let line = line(i, &mut rng);
            Access::read(line.wrapping_mul(line_size) | rng.below(line_size))
        })
        .collect()
}

/// Every engine front end against the naive stack, the stack's miss
/// counts against `ShadowLru` over line ids, and the classifier against
/// the shadow-simulation classifier, access by access. `hashed` is
/// whether the trace is sparse enough to leave the paged table.
fn assert_engines_match_naive(trace: &[Access], line_size: u64, label: &str, hashed: bool) {
    let expected = NaiveStack::histogram(trace, line_size);
    let mut exact = ReuseAnalyzer::new(line_size);
    exact.run_slice(trace);
    assert_eq!(exact.histogram(), &expected, "{label}: ReuseAnalyzer");
    assert!(
        exact.compactions() > 0,
        "{label}: the trace never compacted"
    );
    assert_eq!(exact.is_hashed(), hashed, "{label}: ReuseAnalyzer table");
    let mut sampled = SampledReuseAnalyzer::new(line_size, 0);
    sampled.run_slice(trace);
    assert_eq!(
        sampled.histogram(),
        &expected,
        "{label}: SampledReuseAnalyzer"
    );

    let config = CacheConfig::set_associative(64 * line_size, line_size, 2);
    let mut legacy = LegacyClassifier::new(config);
    let mut current = ClassifyingCache::new(config);
    for (i, &access) in trace.iter().enumerate() {
        assert_eq!(
            current.access(access),
            legacy.access(access),
            "{label}: class diverged at access {i}"
        );
    }
    assert_eq!(
        current.is_hashed(),
        hashed,
        "{label}: ClassifyingCache table"
    );
    for capacity in [1u64, 8, 64] {
        let mut shadow = ShadowLru::new(capacity as usize);
        let misses = trace
            .iter()
            .filter(|a| !shadow.access(a.addr / line_size))
            .count();
        assert_eq!(
            expected.misses_at(capacity),
            misses as u64,
            "{label}: fully-associative misses at {capacity} lines"
        );
    }
}

#[test]
fn long_dense_traces_compact_and_stay_exact() {
    for seed in 1..=4u64 {
        // A hot pool plus a wide cold one: deep and shallow reuse both.
        let pool = 256 << seed;
        let trace = line_trace(seed, LINE, |_, rng| {
            if rng.bool() {
                rng.below(64)
            } else {
                rng.below(pool)
            }
        });
        assert_engines_match_naive(&trace, LINE, &format!("dense seed {seed}"), false);
    }
}

#[test]
fn sparse_lines_use_the_hash_map_and_stay_exact() {
    // Lines 2^24 apart: a page and 2^14 directory entries per line.
    let trace = line_trace(21, LINE, |_, rng| rng.below(600) << 24);
    assert_engines_match_naive(&trace, LINE, "sparse", true);
}

#[test]
fn a_switch_from_dense_to_sparse_mid_trace_stays_exact() {
    let trace = line_trace(22, LINE, |i, rng| {
        if i >= LONG_LEN / 2 && rng.below(4) == 0 {
            (1 << 36) + (rng.below(300) << 20)
        } else {
            rng.below(400)
        }
    });
    assert_engines_match_naive(&trace, LINE, "dense then sparse", true);
}

#[test]
fn lines_arriving_below_the_table_base_stay_exact() {
    // A footprint sliding downwards: most new lines land below every
    // line seen so far.
    let trace = line_trace(23, LINE, |i, rng| 5_000_000 - i / 8 + rng.below(256));
    assert_engines_match_naive(&trace, LINE, "descending", false);
}

#[test]
fn addresses_wrapped_near_u64_max_stay_exact() {
    // Addresses either side of the wrap point, as a walk with negative
    // offsets produces them: far apart as line numbers at 32-byte lines,
    // neighbours modulo 2^64 at 1-byte lines.
    for line_size in [LINE, 1] {
        let trace = line_trace(24, line_size, |_, rng| rng.below(700).wrapping_sub(350));
        assert_engines_match_naive(
            &trace,
            line_size,
            &format!("wrapped, line {line_size}"),
            line_size == LINE,
        );
    }
}

#[test]
fn reuses_either_side_of_each_bucket_boundary_match_shadow_lru() {
    // Lines 0..=d, then line 0 again at stack distance exactly d, for d
    // at 2^k − 1, 2^k and 2^k + 1: the first and last of one bucket and
    // the first of the next, at 1 line and at the three capacities around
    // the boundary. `ShadowLru` scans its lines on each eviction, so k
    // stops at 12.
    for k in 0..=12u32 {
        for d in [(1u64 << k) - 1, 1 << k, (1 << k) + 1] {
            let lines: Vec<u64> = (0..=d).chain([0]).collect();
            let mut stack = ReuseStack::new();
            let mut hist = ReuseHistogram::new();
            for &line in &lines {
                hist.record(stack.access(line));
            }
            for capacity in [1, 1 << k.saturating_sub(1), 1 << k, 2 << k] {
                let mut shadow = ShadowLru::new(capacity as usize);
                let misses = lines.iter().filter(|&&l| !shadow.access(l)).count();
                assert_eq!(
                    hist.misses_at(capacity),
                    misses as u64,
                    "distance {d}, capacity {capacity} lines"
                );
            }
        }
    }
}

#[test]
fn capacities_between_powers_of_two_are_answered_at_the_power_below() {
    for seed in 1..=SEEDS {
        let trace = random_trace(seed);
        let mut analyzer = ReuseAnalyzer::new(LINE);
        analyzer.run_slice(&trace);
        let hist = analyzer.histogram();
        assert_eq!(hist.misses_at(0), trace.len() as u64, "seed {seed}");
        assert_eq!(hist.misses_at(3), hist.misses_at(2), "seed {seed}");
        for k in 0..10 {
            let at_power = hist.misses_at(1 << k);
            for capacity in (1 << k) + 1..2 << k {
                assert_eq!(hist.misses_at(capacity), at_power, "seed {seed}");
            }
        }
    }
}

/// `ClassifyingCache` against the shadow-simulation classifier, access by
/// access and in final stats; returns the finished classifier.
fn assert_classifier_matches_legacy(
    config: CacheConfig,
    trace: &[Access],
    label: &str,
) -> ClassifyingCache {
    let mut legacy = LegacyClassifier::new(config);
    let mut current = ClassifyingCache::new(config);
    for (i, &access) in trace.iter().enumerate() {
        assert_eq!(
            current.access(access),
            legacy.access(access),
            "{label}, {config:?}: class diverged at access {i}"
        );
    }
    assert_eq!(current.stats(), legacy.stats, "{label}, {config:?}");
    current
}

#[test]
fn cyclic_sweeps_around_the_capacity_match_the_shadow_simulation_classifier() {
    // Sweeps of C − 1 and C lines fit the fully-associative shadow (every
    // warm miss is a conflict); C + 1 lines thrash it (every warm miss is
    // a capacity miss). C = 1 is the single-node list.
    for capacity in [1u64, 2, 4, 8, 64, 512] {
        let bytes = capacity * LINE;
        let mut configs = vec![
            CacheConfig::direct_mapped(bytes, LINE),
            CacheConfig::fully_associative(bytes, LINE),
        ];
        if capacity >= 2 {
            configs.push(CacheConfig::set_associative(bytes, LINE, 2));
        }
        for lines in [capacity - 1, capacity, capacity + 1] {
            if lines == 0 {
                continue;
            }
            // Sweeps with a random line now and then, so reuses come at
            // depths other than the sweep's.
            let mut rng = XorShift64Star::new(capacity * 3 + lines);
            let trace: Vec<Access> = (0..6 * lines + 64)
                .map(|i| {
                    let line = if rng.below(8) == 0 {
                        rng.below(lines)
                    } else {
                        i % lines
                    };
                    Access::read(line * LINE + rng.below(LINE))
                })
                .collect();
            for config in &configs {
                let label = format!("{lines}-line sweep, capacity {capacity}");
                let stats = assert_classifier_matches_legacy(*config, &trace, &label).stats();
                if lines <= capacity {
                    assert_eq!(stats.capacity, 0, "{label}");
                }
            }
        }
    }
}

#[test]
fn a_capacity_above_the_lines_touched_never_takes_a_capacity_miss() {
    for seed in 1..=SEEDS {
        let trace = random_trace(seed);
        for config in [
            CacheConfig::direct_mapped(4096 * LINE, LINE),
            CacheConfig::set_associative(1024 * LINE, LINE, 4),
        ] {
            let stats =
                assert_classifier_matches_legacy(config, &trace, &format!("seed {seed}")).stats();
            assert_eq!(stats.capacity, 0, "seed {seed}");
        }
    }
}

#[test]
fn evictions_from_a_hashed_shadow_table_match_the_shadow_simulation_classifier() {
    // Sweeps of 65 lines 2^24 apart through a 64-line cache: the table is
    // hashed, and every warm access evicts and re-misses there.
    let mut rng = XorShift64Star::new(31);
    let trace: Vec<Access> = (0..LONG_LEN)
        .map(|i| {
            let line = if rng.below(8) == 0 {
                rng.below(65)
            } else {
                i % 65
            };
            Access::read((line << 24) * LINE)
        })
        .collect();
    for config in [
        CacheConfig::direct_mapped(64 * LINE, LINE),
        CacheConfig::fully_associative(64 * LINE, LINE),
    ] {
        let current = assert_classifier_matches_legacy(config, &trace, "sparse sweep");
        assert!(current.is_hashed(), "{config:?}: the sparse lines hash");
        assert!(current.stats().capacity > 0, "{config:?}");
    }
}
