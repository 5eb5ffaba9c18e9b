//! Cache geometry against analytic miss counts.
//!
//! For 8 KiB caches with 32-byte lines at 1, 2, 4, 8 and 16 ways, under
//! modulo and XOR indexing, W+1 distinct lines built into one set with
//! `CacheConfig::line_addr_from` must thrash LRU: every access of a
//! cyclic sweep misses. W of them must fit: only the cold misses. The
//! expected counts come from the geometry, not from another engine, so
//! a set-mapping bug that the `run_slice` kernels and the baseline model
//! share fails here even though `lane_differential` would pass.

use pad_cache_sim::{Access, BaselineCache, Cache, CacheConfig, ClassifyingCache, IndexFunction};

const ROUNDS: u64 = 10;
const SET: u64 = 5;

fn geometries() -> Vec<(u64, CacheConfig)> {
    let mut out = Vec::new();
    for ways in [1u32, 2, 4, 8, 16] {
        for index in [IndexFunction::Modulo, IndexFunction::Xor] {
            let config =
                CacheConfig::set_associative(8 * 1024, 32, ways).with_index_function(index);
            out.push((u64::from(ways), config));
        }
    }
    out
}

/// `count` distinct lines that `config` places in set [`SET`].
fn conflict_set(config: &CacheConfig, count: u64) -> Vec<u64> {
    let lines: Vec<u64> = (1..=count)
        .map(|tag| config.line_addr_from(SET, tag))
        .collect();
    for &addr in &lines {
        assert_eq!(config.set_of(addr), SET, "{config}: {addr:#x}");
    }
    lines
}

/// [`ROUNDS`] cyclic sweeps over `lines`.
fn cycle(lines: &[u64]) -> Vec<Access> {
    (0..ROUNDS)
        .flat_map(|_| lines.iter().map(|&addr| Access::read(addr)))
        .collect()
}

/// Misses of the `run_slice` kernels and of the per-access baseline model.
fn misses(config: CacheConfig, trace: &[Access]) -> [u64; 2] {
    let mut kernels = Cache::new(config);
    kernels.run_slice(trace);
    let mut baseline = BaselineCache::new(config);
    for &access in trace {
        baseline.access(access);
    }
    [kernels.stats().misses, baseline.stats().misses]
}

#[test]
fn one_line_more_than_the_ways_thrashes_lru() {
    for (ways, config) in geometries() {
        let trace = cycle(&conflict_set(&config, ways + 1));
        assert_eq!(misses(config, &trace), [ROUNDS * (ways + 1); 2], "{config}");
    }
}

#[test]
fn as_many_lines_as_ways_take_only_cold_misses() {
    for (ways, config) in geometries() {
        let trace = cycle(&conflict_set(&config, ways));
        assert_eq!(misses(config, &trace), [ways; 2], "{config}");
    }
}

#[test]
fn the_thrash_classifies_as_cold_then_conflict() {
    for (ways, config) in geometries() {
        let trace = cycle(&conflict_set(&config, ways + 1));
        let mut cache = ClassifyingCache::new(config);
        cache.run_slice(&trace);
        let stats = cache.stats();
        assert_eq!(stats.compulsory, ways + 1, "{config}");
        assert_eq!(stats.conflict, ROUNDS * (ways + 1) - (ways + 1), "{config}");
        assert_eq!(stats.capacity, 0, "{config}");
    }
}

#[test]
fn xor_indexing_spreads_a_modulo_conflict_set() {
    for (ways, config) in geometries() {
        if config.index_function() != IndexFunction::Xor {
            continue;
        }
        let modulo = config.with_index_function(IndexFunction::Modulo);
        let trace = cycle(&conflict_set(&modulo, ways + 1));
        assert_eq!(misses(config, &trace), [ways + 1; 2], "{config}");
    }
}
