//! Reference simulations for the equivalence tests: the interpreted walk
//! ([`for_each_access`]) fed into each simulator one access at a time,
//! sharing no code with the compiled, chunked [`crate::simulate_batch`]
//! path they check.

use pad_cache_sim::{
    Cache, CacheConfig, CacheStats, ClassifiedStats, ClassifyingCache, Hierarchy, LevelStats,
    VictimCache, VictimStats,
};
use pad_core::DataLayout;
use pad_ir::Program;

use crate::generate::for_each_access;

pub(crate) fn simulate_program(
    program: &Program,
    layout: &DataLayout,
    config: &CacheConfig,
) -> CacheStats {
    let mut cache = Cache::new(*config);
    for_each_access(program, layout, |a| {
        cache.access(a);
    });
    *cache.stats()
}

pub(crate) fn simulate_classified(
    program: &Program,
    layout: &DataLayout,
    config: &CacheConfig,
) -> ClassifiedStats {
    let mut cache = ClassifyingCache::new(*config);
    for_each_access(program, layout, |a| {
        cache.access(a);
    });
    cache.stats()
}

pub(crate) fn simulate_victim(
    program: &Program,
    layout: &DataLayout,
    config: &CacheConfig,
    victim_lines: usize,
) -> VictimStats {
    let mut cache = VictimCache::new(*config, victim_lines);
    for_each_access(program, layout, |a| {
        cache.access(a);
    });
    *cache.stats()
}

pub(crate) fn simulate_hierarchy(
    program: &Program,
    layout: &DataLayout,
    configs: &[CacheConfig],
) -> Vec<LevelStats> {
    let mut h = Hierarchy::new(configs.to_vec());
    for_each_access(program, layout, |a| h.access(a));
    h.stats()
}
