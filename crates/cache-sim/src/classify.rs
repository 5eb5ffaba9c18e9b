//! Three-C miss classification (compulsory / capacity / conflict).
//!
//! The paper targets *conflict* misses specifically; this module lets the
//! experiment harness report how much of a miss-rate change is actually
//! conflict elimination. Classification follows Hill's model: a miss is
//! **compulsory** if the line was never referenced before, **capacity** if
//! a fully-associative LRU cache of equal capacity would also miss, and
//! **conflict** otherwise.
//!
//! The capacity test asks one question per access, "would a
//! fully-associative LRU cache of `C` lines miss?", and the classifier
//! answers it by simulating that one cache: a `C`-line recency list over
//! the reuse engine's paged (or hashed) line table, O(1) per access. Each
//! line it evicts keeps a "seen" mark in the table, so the same lookup
//! also answers "first touch?".

use crate::cache::{Access, Cache};
use crate::config::CacheConfig;
use crate::reuse::LastUse;
use crate::stats::CacheStats;

/// Table word of a line that was seen and is not resident; a resident
/// line's word is its node id plus 2, a line never seen has 0.
const SEEN: u64 = 1;

/// One resident line of the [`Shadow`], linked in recency order.
#[derive(Debug, Clone, Copy)]
struct Node {
    line: u64,
    /// The next more recent node; the head's `prev` is the tail.
    prev: u32,
    /// The next less recent node; the tail's `next` is the head.
    next: u32,
}

/// A fully-associative LRU cache of `capacity` lines that remembers every
/// line it has seen: a circular doubly linked list of resident lines,
/// most recent at `head`, over a [`LastUse`] table holding each line's
/// node (or [`SEEN`]). Nodes are grown on demand, up to
/// `min(capacity, distinct lines)`.
#[derive(Debug, Clone)]
struct Shadow {
    table: LastUse,
    /// Distinct lines seen, which bounds how far a paged table may grow.
    distinct: u64,
    nodes: Vec<Node>,
    head: u32,
    capacity: u64,
}

impl Shadow {
    fn new(capacity: u64) -> Self {
        Shadow {
            table: LastUse::default(),
            distinct: 0,
            nodes: Vec::new(),
            head: 0,
            capacity,
        }
    }

    /// Accesses `line`: `None` if the cache holds it, otherwise the class
    /// of its miss here — compulsory for a first touch, capacity for a
    /// line seen and since evicted.
    #[inline]
    fn access(&mut self, line: u64) -> Option<MissClass> {
        let head = self.head as usize;
        if self.nodes.get(head).is_some_and(|n| n.line == line) {
            return None;
        }
        let slot = self.table.slot(line, self.distinct);
        let word = *slot;
        if word > SEEN {
            self.move_to_front((word - 2) as u32);
            return None;
        }
        // The node the miss fills: a new one while there is room, else
        // the least recent, the head's predecessor.
        let grow = (self.nodes.len() as u64) < self.capacity;
        let fill = if grow {
            u32::try_from(self.nodes.len()).expect("shadow node ids fit in u32")
        } else {
            self.nodes[head].prev
        };
        *slot = u64::from(fill) + 2;
        if grow {
            self.nodes.push(Node {
                line,
                prev: fill,
                next: fill,
            });
            if fill > 0 {
                self.link_at_front(fill);
            }
        } else {
            let evicted = std::mem::replace(&mut self.nodes[fill as usize].line, line);
            *self.table.slot(evicted, self.distinct) = SEEN;
        }
        self.head = fill;
        if word == 0 {
            self.distinct += 1;
            Some(MissClass::Compulsory)
        } else {
            Some(MissClass::Capacity)
        }
    }

    /// Unlinks resident node `n` (not the head) and makes it the head.
    fn move_to_front(&mut self, n: u32) {
        let Node { prev, next, .. } = self.nodes[n as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
        self.link_at_front(n);
        self.head = n;
    }

    /// Links unlinked node `n` between the tail and the head.
    fn link_at_front(&mut self, n: u32) {
        let head = self.head;
        let tail = self.nodes[head as usize].prev;
        self.nodes[n as usize].prev = tail;
        self.nodes[n as usize].next = head;
        self.nodes[tail as usize].next = n;
        self.nodes[head as usize].prev = n;
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

/// A cache paired with a fully-associative LRU shadow of equal capacity
/// for miss classification.
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
    /// Answers both classifier questions: a first touch is compulsory,
    /// a line it does not hold is a capacity miss.
    shadow: Shadow,
    /// Log2 of the line size: the shadow is fed line numbers, which pack
    /// its table densely.
    line_shift: u32,
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
            shadow: Shadow::new(config.size() / config.line_size()),
            line_shift: config.line_size().trailing_zeros(),
            classes: ClassifiedStats::default(),
        }
    }

    /// Performs one access; returns the miss class, or `None` on a hit.
    pub fn access(&mut self, access: Access) -> Option<MissClass> {
        let shadow = self.shadow.access(access.addr >> self.line_shift);
        if self.main.access(access).hit {
            return None;
        }
        let class = shadow.unwrap_or(MissClass::Conflict);
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

    /// Whether the shadow's line table went to the hash map, as
    /// [`crate::ReuseStack::is_hashed`] does for the same lines.
    pub fn is_hashed(&self) -> bool {
        self.shadow.table.is_hashed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ShadowLru;
    use crate::reuse::ReuseStack;

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
        // The inclusion property the reuse histogram's miss counts rely
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
    fn the_shadow_grows_its_nodes_with_the_lines_it_holds() {
        // A 2^40-line shadow: nodes for the lines seen, never the
        // capacity, and a reuse at any depth hits.
        let mut s = Shadow::new(1 << 40);
        for line in 0..1000u64 {
            assert_eq!(s.access(line * 3), Some(MissClass::Compulsory));
        }
        assert_eq!(s.nodes.len(), 1000);
        for line in (0..1000u64).rev() {
            assert_eq!(s.access(line * 3), None, "line {line}");
        }
        assert_eq!(s.nodes.len(), 1000);
    }

    #[test]
    fn the_shadow_matches_shadow_lru_at_every_small_capacity() {
        for capacity in 1..=9u64 {
            let mut shadow = Shadow::new(capacity);
            let mut reference = ShadowLru::new(capacity as usize);
            let mut seen = std::collections::HashSet::new();
            for i in 0..4_000u64 {
                let line = (i.wrapping_mul(2654435761) >> 3) % 13;
                let hit = reference.access(line);
                let want = if seen.insert(line) {
                    Some(MissClass::Compulsory)
                } else {
                    (!hit).then_some(MissClass::Capacity)
                };
                assert_eq!(shadow.access(line), want, "capacity {capacity}, access {i}");
            }
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
