//! Multi-level cache hierarchies.
//!
//! Section 2.1.2 of the paper notes the padding analysis "can easily be
//! generalized for multilevel caches" by testing conflict distances against
//! each level's configuration. This module provides the matching simulation
//! substrate: an inclusive-on-miss hierarchy where each level is only
//! consulted when the level above misses.

use crate::cache::{Access, Cache};
use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// Per-level statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelStats {
    /// Level index (0 is closest to the processor).
    pub level: usize,
    /// That level's counters. `accesses` at level *n+1* equals the misses
    /// of level *n* (plus writebacks, which propagate as writes).
    pub stats: CacheStats,
}

/// A stack of caches, L1 first.
///
/// # Example
///
/// ```
/// use pad_cache_sim::{Access, CacheConfig, Hierarchy};
///
/// let mut h = Hierarchy::new(vec![
///     CacheConfig::direct_mapped(1024, 32),
///     CacheConfig::set_associative(16 * 1024, 32, 4),
/// ]);
/// h.access(Access::read(0));
/// h.access(Access::read(0));
/// let levels = h.stats();
/// assert_eq!(levels[0].stats.accesses, 2);
/// assert_eq!(levels[1].stats.accesses, 1); // only the L1 miss reached L2
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    levels: Vec<Cache>,
    /// The stream reaching the current level and the one it passes to
    /// the next, kept between chunks so that neither allocates once they
    /// have grown: each access can pass down a miss and a writeback, so
    /// a stream can double at every level.
    current: Vec<Access>,
    next: Vec<Access>,
}

impl Hierarchy {
    /// Builds a hierarchy from level configurations, L1 first.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(configs: Vec<CacheConfig>) -> Self {
        assert!(!configs.is_empty(), "a hierarchy needs at least one level");
        Hierarchy {
            levels: configs.into_iter().map(Cache::new).collect(),
            current: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Performs an access; misses propagate downward, and dirty evictions
    /// propagate as writes to the next level.
    pub fn access(&mut self, access: Access) {
        self.run_slice(std::slice::from_ref(&access));
    }

    /// Runs a whole trace.
    pub fn run<I: IntoIterator<Item = Access>>(&mut self, trace: I) {
        for access in trace {
            self.access(access);
        }
    }

    /// Runs a contiguous batch of accesses (the batched engine's chunk
    /// hand-off) level by level: no level's state depends on the levels
    /// below it, so each level but the last takes the whole stream the
    /// level above passed down, in order, and passes on its own; the last
    /// takes its stream through [`Cache::run_slice`].
    pub fn run_slice(&mut self, trace: &[Access]) {
        let Hierarchy {
            levels,
            current,
            next,
        } = self;
        let (last, above) = levels.split_last_mut().expect("levels nonempty");
        let mut stream = trace;
        for level in above {
            next.clear();
            for &a in stream {
                let outcome = level.access(a);
                if !outcome.hit {
                    next.push(a);
                }
                if let (true, Some(victim)) = (outcome.writeback, outcome.evicted) {
                    next.push(Access::write(victim));
                }
            }
            std::mem::swap(current, next);
            stream = current;
        }
        last.run_slice(stream);
    }

    /// Snapshots per-level statistics.
    pub fn stats(&self) -> Vec<LevelStats> {
        self.levels
            .iter()
            .enumerate()
            .map(|(level, c)| LevelStats {
                level,
                stats: *c.stats(),
            })
            .collect()
    }

    /// The individual caches, L1 first.
    pub fn levels(&self) -> &[Cache] {
        &self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_sees_only_l1_misses() {
        let mut h = Hierarchy::new(vec![
            CacheConfig::direct_mapped(128, 32),
            CacheConfig::direct_mapped(1024, 32),
        ]);
        for _ in 0..4 {
            for i in 0..8u64 {
                h.access(Access::read(i * 32));
            }
        }
        let s = h.stats();
        assert_eq!(s[0].stats.accesses, 32);
        // The 8-line working set thrashes the 4-line L1 but fits in L2.
        assert!(s[1].stats.accesses >= 8);
        assert!(s[1].stats.misses <= 8);
    }

    #[test]
    fn dirty_evictions_reach_l2_as_writes() {
        let mut h = Hierarchy::new(vec![
            CacheConfig::direct_mapped(64, 32), // 2 lines
            CacheConfig::direct_mapped(1024, 32),
        ]);
        h.access(Access::write(0));
        h.access(Access::write(64)); // evicts dirty line 0 from L1
        let s = h.stats();
        assert!(
            s[1].stats.writes >= 1,
            "L2 should absorb the L1 writeback: {:?}",
            s[1].stats
        );
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_hierarchy_panics() {
        let _ = Hierarchy::new(vec![]);
    }

    #[test]
    fn single_level_behaves_like_cache() {
        let cfg = CacheConfig::direct_mapped(128, 32);
        let mut h = Hierarchy::new(vec![cfg]);
        let mut c = Cache::new(cfg);
        for i in 0..100u64 {
            let a = Access::read((i * 13) % 512);
            h.access(a);
            c.access(a);
        }
        assert_eq!(h.stats()[0].stats, *c.stats());
    }
}
