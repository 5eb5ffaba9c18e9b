//! Three-C miss classification (compulsory / capacity / conflict).
//!
//! The paper targets *conflict* misses specifically; this module lets the
//! experiment harness report how much of a miss-rate change is actually
//! conflict elimination. Classification follows Hill's model: a miss is
//! **compulsory** if the line was never referenced before, **capacity** if
//! a fully-associative LRU cache of equal capacity would also miss, and
//! **conflict** otherwise.
//!
//! The capacity test is answered by the single-pass reuse-distance engine
//! ([`crate::ReuseStack`]): a fully-associative LRU cache of `C` lines
//! hits exactly when the line was seen before and its stack distance is
//! `< C` (the LRU inclusion property), so one engine replaces the
//! per-capacity shadow simulations this module used to run — and its
//! never-evicting line map doubles as the first-touch set.

use std::collections::HashMap;

use crate::cache::{Access, Cache};
use crate::config::CacheConfig;
use crate::reuse::ReuseStack;
use crate::stats::CacheStats;

/// A fully-associative LRU reference model: hash-indexed lines so hits
/// are O(1), with each miss paying an O(capacity) eviction scan.
/// Behaviourally identical to
/// `Cache::new(CacheConfig::fully_associative(..))`, which the tests
/// verify.
///
/// This is the *legacy* shadow the classifier ran once per capacity; the
/// classifier now derives the same answer from [`ReuseStack`] in a single
/// pass, and the differential suite pins the two paths against each
/// other. It remains public only as a reference oracle: the independent
/// model the tests compare against, and the baseline the
/// `bench_simulator` classification-speedup measurement times against.
///
/// # Example
///
/// ```
/// use pad_cache_sim::ShadowLru;
///
/// let mut s = ShadowLru::new(2);
/// assert!(!s.access(0)); // cold
/// assert!(!s.access(1)); // cold
/// assert!(s.access(0)); // still resident
/// assert!(!s.access(2)); // evicts line 1 (the LRU)
/// assert!(!s.access(1)); // line 1 was evicted
/// ```
#[derive(Debug, Clone)]
pub struct ShadowLru {
    lines: HashMap<u64, u64>, // line address -> last-use tick
    capacity: usize,
    tick: u64,
}

impl ShadowLru {
    /// Creates a shadow holding `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-line cache cannot allocate).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ShadowLru capacity must be nonzero");
        ShadowLru {
            lines: HashMap::with_capacity(capacity + 1),
            capacity,
            tick: 0,
        }
    }

    /// Returns `true` on hit; allocates (evicting the LRU line) on miss.
    ///
    /// Cost: O(1) on hit, O(capacity) on a miss that evicts. The tick
    /// counter is guarded against wraparound: at `u64::MAX` accesses the
    /// ticks are renumbered by recency rank, preserving LRU order, so
    /// recency comparisons never see a wrapped counter.
    pub fn access(&mut self, line: u64) -> bool {
        if self.tick == u64::MAX {
            self.renumber_ticks();
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(last) = self.lines.get_mut(&line) {
            *last = tick;
            return true;
        }
        if self.lines.len() == self.capacity {
            let victim = self
                .lines
                .iter()
                .min_by_key(|&(_, &t)| t)
                .map(|(&l, _)| l)
                .expect("capacity > 0");
            self.lines.remove(&victim);
        }
        self.lines.insert(line, tick);
        false
    }

    /// Reassigns ticks densely by recency rank. Order-preserving, so the
    /// LRU victim choice is unchanged; afterwards `tick <= capacity`.
    fn renumber_ticks(&mut self) {
        let mut by_recency: Vec<(u64, u64)> = self.lines.iter().map(|(&l, &t)| (t, l)).collect();
        by_recency.sort_unstable();
        for (rank, &(_, line)) in by_recency.iter().enumerate() {
            self.lines.insert(line, rank as u64 + 1);
        }
        self.tick = by_recency.len() as u64;
    }
}

/// Classification of a single miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First-ever reference to the line.
    Compulsory,
    /// A fully-associative cache of the same capacity also misses.
    Capacity,
    /// Caused purely by limited associativity — the padding target.
    Conflict,
}

/// Statistics including the three-C breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifiedStats {
    /// Plain cache statistics of the main (set-associative) cache.
    pub cache: CacheStats,
    /// Misses to never-before-seen lines.
    pub compulsory: u64,
    /// Misses a fully-associative LRU cache of equal capacity also takes.
    pub capacity: u64,
    /// Misses attributable to limited associativity.
    pub conflict: u64,
}

impl ClassifiedStats {
    /// Fraction of all accesses that conflict-miss, as a percentage.
    pub fn conflict_rate_percent(&self) -> f64 {
        if self.cache.accesses == 0 {
            0.0
        } else {
            100.0 * self.conflict as f64 / self.cache.accesses as f64
        }
    }

    /// Fraction of misses that are conflict misses, in `[0, 1]`.
    pub fn conflict_share(&self) -> f64 {
        if self.cache.misses == 0 {
            0.0
        } else {
            self.conflict as f64 / self.cache.misses as f64
        }
    }
}

/// A cache paired with a single-pass reuse-distance engine for miss
/// classification.
///
/// # Example
///
/// ```
/// use pad_cache_sim::{Access, CacheConfig, ClassifyingCache, MissClass};
///
/// let mut c = ClassifyingCache::new(CacheConfig::direct_mapped(128, 32));
/// assert_eq!(c.access(Access::read(0)), Some(MissClass::Compulsory));
/// assert_eq!(c.access(Access::read(128)), Some(MissClass::Compulsory));
/// // 0 and 128 conflict in a 4-set direct-mapped cache but both fit in a
/// // fully-associative one, so the re-miss is a conflict miss.
/// assert_eq!(c.access(Access::read(0)), Some(MissClass::Conflict));
/// ```
#[derive(Debug, Clone)]
pub struct ClassifyingCache {
    main: Cache,
    /// One stack-distance engine answers both classifier questions:
    /// `None` ⇒ first touch (compulsory), and `Some(k)` with
    /// `k >= capacity` ⇒ the equal-capacity fully-associative LRU cache
    /// misses too (capacity miss).
    reuse: ReuseStack,
    /// Log2 of the line size: the stack is fed line numbers, which pack
    /// its last-use table densely.
    line_shift: u32,
    capacity_lines: u64,
    /// The three-C counts; `cache` stays default, since [`Self::stats`]
    /// reads the main cache's counters.
    classes: ClassifiedStats,
}

impl ClassifyingCache {
    /// Creates the classifying pair for the given main-cache
    /// configuration.
    pub fn new(config: CacheConfig) -> Self {
        ClassifyingCache {
            main: Cache::new(config),
            reuse: ReuseStack::new(),
            line_shift: config.line_size().trailing_zeros(),
            capacity_lines: config.size() / config.line_size(),
            classes: ClassifiedStats::default(),
        }
    }

    /// Performs one access; returns the miss class, or `None` on a hit.
    pub fn access(&mut self, access: Access) -> Option<MissClass> {
        let distance = self.reuse.access(access.addr >> self.line_shift);
        let outcome = self.main.access(access);
        if outcome.hit {
            return None;
        }
        let class = match distance {
            None => MissClass::Compulsory,
            Some(k) if k >= self.capacity_lines => MissClass::Capacity,
            Some(_) => MissClass::Conflict,
        };
        match class {
            MissClass::Compulsory => self.classes.compulsory += 1,
            MissClass::Capacity => self.classes.capacity += 1,
            MissClass::Conflict => self.classes.conflict += 1,
        }
        Some(class)
    }

    /// Runs a whole trace.
    pub fn run<I: IntoIterator<Item = Access>>(&mut self, trace: I) {
        for access in trace {
            self.access(access);
        }
    }

    /// Runs a contiguous batch of accesses (the batched engine's chunk
    /// hand-off).
    pub fn run_slice(&mut self, trace: &[Access]) {
        for &access in trace {
            self.access(access);
        }
    }

    /// The accumulated classified statistics.
    pub fn stats(&self) -> ClassifiedStats {
        ClassifiedStats {
            cache: *self.main.stats(),
            ..self.classes
        }
    }

    /// The main (set-associative) cache.
    pub fn main(&self) -> &Cache {
        &self.main
    }

    /// Whether the reuse engine's last-use table went to the hash map
    /// ([`ReuseStack::is_hashed`]).
    pub fn is_hashed(&self) -> bool {
        self.reuse.is_hashed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_partition_misses() {
        let mut c = ClassifyingCache::new(CacheConfig::direct_mapped(128, 32));
        for i in 0..2000u64 {
            c.access(Access::read((i * 37) % 1024));
        }
        let s = c.stats();
        assert_eq!(s.compulsory + s.capacity + s.conflict, s.cache.misses);
        assert!(s.cache.misses > 0);
    }

    #[test]
    fn pure_streaming_is_compulsory_only() {
        let mut c = ClassifyingCache::new(CacheConfig::direct_mapped(128, 32));
        for i in 0..32u64 {
            c.access(Access::read(i * 32));
        }
        let s = c.stats();
        assert_eq!(s.compulsory, 32);
        assert_eq!(s.capacity, 0);
        assert_eq!(s.conflict, 0);
    }

    #[test]
    fn capacity_misses_when_working_set_exceeds_cache() {
        // 4-line cache; loop over 8 lines repeatedly: even fully-assoc LRU
        // misses everything after the cold pass.
        let mut c = ClassifyingCache::new(CacheConfig::fully_associative(128, 32));
        for _ in 0..4 {
            for i in 0..8u64 {
                c.access(Access::read(i * 32));
            }
        }
        let s = c.stats();
        assert_eq!(
            s.conflict, 0,
            "fully associative cache has no conflict misses"
        );
        assert_eq!(s.compulsory, 8);
        assert!(s.capacity > 0);
    }

    #[test]
    fn severe_conflict_pattern_is_classified_conflict() {
        // The motivating pattern of the paper's Figure 1: two arrays whose
        // base addresses collide mod the cache size.
        let mut c = ClassifyingCache::new(CacheConfig::direct_mapped(128, 32));
        for i in 0..16u64 {
            c.access(Access::read(i * 8));
            c.access(Access::read(1024 + i * 8));
        }
        let s = c.stats();
        assert!(s.conflict > 0);
        assert!(s.conflict > s.capacity, "severe conflicts dominate: {s:?}");
    }

    #[test]
    fn shadow_lru_matches_the_generic_fully_associative_cache() {
        // The legacy shadow must agree hit-for-hit with the general
        // simulator configured fully-associative.
        let config = CacheConfig::fully_associative(1024, 32);
        let mut generic = Cache::new(config);
        let mut shadow = ShadowLru::new((config.size() / config.line_size()) as usize);
        for i in 0..20_000u64 {
            let addr = (i.wrapping_mul(2654435761)) % 8192;
            let a = Access::read(addr);
            let generic_hit = generic.access(a).hit;
            let shadow_hit = shadow.access(config.line_addr(addr));
            assert_eq!(
                generic_hit, shadow_hit,
                "diverged at access {i} (addr {addr})"
            );
        }
    }

    #[test]
    fn reuse_stack_matches_shadow_lru_hit_for_hit() {
        // The inclusion-property equivalence the classifier now relies
        // on: shadow hit ⟺ seen before ∧ distance < capacity.
        let capacity = 64u64;
        let mut shadow = ShadowLru::new(capacity as usize);
        let mut stack = ReuseStack::new();
        for i in 0..20_000u64 {
            let line = (i.wrapping_mul(2654435761)) % 257;
            let shadow_hit = shadow.access(line);
            let stack_hit = matches!(stack.access(line), Some(k) if k < capacity);
            assert_eq!(
                shadow_hit, stack_hit,
                "diverged at access {i} (line {line})"
            );
        }
    }

    #[test]
    fn shadow_lru_capacity_one_keeps_only_the_mru_line() {
        let mut s = ShadowLru::new(1);
        assert!(!s.access(7));
        assert!(s.access(7)); // immediate reuse hits
        assert!(!s.access(8)); // any other line evicts
        assert!(!s.access(7)); // and the evicted line re-misses
        assert!(s.access(7));
    }

    #[test]
    fn shadow_lru_at_or_above_working_set_never_evicts() {
        // capacity >= trace length >= distinct lines: only cold misses.
        let trace: Vec<u64> = (0..50).map(|i| i % 10).collect();
        let mut s = ShadowLru::new(trace.len());
        let misses = trace.iter().filter(|&&l| !s.access(l)).count();
        assert_eq!(misses, 10, "exactly one cold miss per distinct line");
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn shadow_lru_rejects_zero_capacity() {
        let _ = ShadowLru::new(0);
    }

    #[test]
    fn shadow_lru_tick_overflow_renumbers_and_preserves_lru_order() {
        let mut s = ShadowLru::new(3);
        assert!(!s.access(1));
        assert!(!s.access(2));
        assert!(!s.access(3));
        // Force the guard on the very next access.
        s.tick = u64::MAX;
        assert!(s.access(1), "resident line still hits across renumbering");
        assert!(
            s.tick < 100,
            "ticks were renumbered densely, got {}",
            s.tick
        );
        // LRU order survived renumbering: 2 is now least recent.
        assert!(!s.access(4), "miss evicts the LRU line");
        assert!(s.access(3), "line 3 outranked line 2 after renumbering");
        assert!(!s.access(2), "line 2 was the eviction victim");
    }

    #[test]
    fn conflict_rates() {
        let s = ClassifiedStats {
            cache: CacheStats {
                accesses: 100,
                misses: 10,
                ..Default::default()
            },
            compulsory: 2,
            capacity: 3,
            conflict: 5,
        };
        assert!((s.conflict_rate_percent() - 5.0).abs() < 1e-12);
        assert!((s.conflict_share() - 0.5).abs() < 1e-12);
    }
}
