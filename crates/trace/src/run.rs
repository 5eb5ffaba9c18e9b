//! Trace-driven simulation entry points: each one is a one-sink
//! [`simulate_batch`] call, so every simulation runs the compiled walk.

use pad_cache_sim::{CacheConfig, CacheStats, ClassifiedStats, LevelStats, VictimStats};
use pad_core::{CacheParams, DataLayout, PaddingConfig};
use pad_ir::Program;

use crate::batch::{simulate_batch, BatchRequest};

/// Simulates the program's address stream through one cache and returns
/// the statistics.
pub fn simulate_program(
    program: &Program,
    layout: &DataLayout,
    config: &CacheConfig,
) -> CacheStats {
    let request = BatchRequest::new().with_plain(*config);
    simulate_batch(program, layout, &request).plain[0]
}

/// Simulates with three-C miss classification (conflict / capacity /
/// compulsory).
pub fn simulate_classified(
    program: &Program,
    layout: &DataLayout,
    config: &CacheConfig,
) -> ClassifiedStats {
    let request = BatchRequest::new().with_classified(*config);
    simulate_batch(program, layout, &request).classified[0]
}

/// Simulates through a cache augmented with a `victim_lines`-entry
/// victim buffer (Jouppi's hardware alternative to padding; see the
/// hardware ablation bench).
pub fn simulate_victim(
    program: &Program,
    layout: &DataLayout,
    config: &CacheConfig,
    victim_lines: usize,
) -> VictimStats {
    let request = BatchRequest::new().with_victim(*config, victim_lines);
    simulate_batch(program, layout, &request).victim[0]
}

/// Simulates through a multi-level hierarchy, returning per-level
/// statistics.
pub fn simulate_hierarchy(
    program: &Program,
    layout: &DataLayout,
    configs: &[CacheConfig],
) -> Vec<LevelStats> {
    let request = BatchRequest::new().with_hierarchy(configs.iter().copied());
    let mut results = simulate_batch(program, layout, &request);
    results.hierarchy.swap_remove(0)
}

/// Derives the padding analysis parameters matching a simulated cache
/// (same `C_s` and `L_s`, paper-default `M` and bounds).
///
/// # Panics
///
/// Never panics for a valid [`CacheConfig`], whose geometry invariants are
/// a superset of [`PaddingConfig`]'s.
pub fn padding_config_for(cache: &CacheConfig) -> PaddingConfig {
    PaddingConfig::multi_level(vec![CacheParams::new(cache.size(), cache.line_size())
        .expect("CacheConfig geometry is always valid for the analysis")])
    .expect("one level supplied")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_core::PaddingPipeline;
    use pad_ir::{ArrayBuilder, Loop, Stmt, Subscript};

    /// Figure 1: severe inter-variable conflicts in a dot product.
    fn dot(n: i64) -> Program {
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
        b.build().expect("valid")
    }

    #[test]
    fn padding_rescues_the_dot_product() {
        let cache = CacheConfig::paper_base();
        let p = dot(2048); // exactly one cache of doubles per array
        let original = simulate_program(&p, &DataLayout::original(&p), &cache);
        assert!(original.miss_rate() > 0.99, "unpadded: every access misses");

        let outcome = PaddingPipeline::pad(padding_config_for(&cache)).run(&p);
        let padded = simulate_program(&p, &outcome.layout, &cache);
        // With bases separated, only cold misses remain: one per 32-byte
        // line, i.e. a miss every 4 doubles.
        assert!(
            padded.miss_rate() < 0.26,
            "padded rate {}",
            padded.miss_rate()
        );
    }

    #[test]
    fn classification_sees_the_conflicts() {
        let cache = CacheConfig::paper_base();
        let p = dot(2048);
        let classified = simulate_classified(&p, &DataLayout::original(&p), &cache);
        assert!(classified.conflict_share() > 0.7);

        let outcome = PaddingPipeline::pad(padding_config_for(&cache)).run(&p);
        let after = simulate_classified(&p, &outcome.layout, &cache);
        assert_eq!(after.conflict, 0, "PAD removed every conflict miss");
    }

    #[test]
    fn higher_associativity_also_rescues() {
        // The paper's Figure 9 comparison in miniature: 2-way
        // associativity fixes what padding fixes.
        let p = dot(2048);
        let two_way = CacheConfig::set_associative(16 * 1024, 32, 2);
        let stats = simulate_program(&p, &DataLayout::original(&p), &two_way);
        assert!(stats.miss_rate() < 0.26);
    }

    #[test]
    fn hierarchy_simulation_runs() {
        let p = dot(2048);
        let levels = simulate_hierarchy(
            &p,
            &DataLayout::original(&p),
            &[
                CacheConfig::direct_mapped(16 * 1024, 32),
                CacheConfig::set_associative(256 * 1024, 64, 4),
            ],
        );
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].stats.accesses, 2 * 2048);
        assert!(levels[1].stats.accesses >= levels[1].stats.misses);
    }

    #[test]
    fn padding_config_mirrors_cache() {
        let pc = padding_config_for(&CacheConfig::paper_base());
        assert_eq!(pc.primary().size, 16 * 1024);
        assert_eq!(pc.primary().line, 32);
    }
}
