//! The core set-associative cache model.
//!
//! A cache keeps one `u64` word per way: `tag << 1 | dirty`, or
//! [`INVALID`] while the way is empty. A set's words sit side by side and
//! stay in replacement order, so recency is a word's position rather than
//! a timestamp:
//!
//! - LRU: most recent first. A hit moves its word to the front. A miss
//!   drops the last word — the least recent line, or an empty way — and
//!   shifts the others back.
//! - FIFO: newest first. A hit never moves; a miss is LRU's.
//! - Random: [`crate::BaselineCache`]'s positions, because it picks its
//!   victim by index. The set fills by appending; once it is full, the
//!   victim's slot takes the last word and the new word goes last.
//!
//! Under every policy a set's valid words form a prefix, so an empty way
//! is dropped before any line is evicted, and it needs no validity test:
//! its word matches no tag and has its dirty bit clear.
//!
//! [`CacheConfig::try_new`] refuses ways of fewer than 4 bytes, whose
//! tags could fill all 64 bits and leave no room for the dirty bit, so
//! every cache fits this one store.
//!
//! Set index and tag are shifts and masks of the address (the geometry
//! is always a power of two), computed inline per access.
//!
//! [`Cache::run_slice`] runs the paper's dominant shapes through tight
//! slice loops with their counters in locals: direct-mapped write-allocate
//! caches through one word load and one word store per access with no
//! branch, and LRU write-allocate caches through one loop, monomorphized
//! at 2, 4, 8 and 16 ways, in which a hit on the set's most recent line —
//! the common case in the paper's kernels — costs one compare. The
//! `flat_equivalence` and `lane_differential` suites verify the whole
//! model access-for-access against [`crate::BaselineCache`].

use crate::config::{CacheConfig, WritePolicy};
use crate::index::IndexFunction;
use crate::replacement::ReplacementPolicy;
use crate::stats::CacheStats;

/// One memory access: an address plus read/write flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    /// Byte address.
    pub addr: u64,
    /// True for stores.
    pub is_write: bool,
}

impl Access {
    /// A load of `addr`.
    pub fn read(addr: u64) -> Self {
        Access {
            addr,
            is_write: false,
        }
    }

    /// A store to `addr`.
    pub fn write(addr: u64) -> Self {
        Access {
            addr,
            is_write: true,
        }
    }
}

/// What happened on a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The access hit in the cache.
    pub hit: bool,
    /// A dirty line was written back to service this access.
    pub writeback: bool,
    /// The line address of the evicted victim, if any line was evicted.
    pub evicted: Option<u64>,
}

const HIT: AccessOutcome = AccessOutcome {
    hit: true,
    writeback: false,
    evicted: None,
};

const MISS: AccessOutcome = AccessOutcome {
    hit: false,
    writeback: false,
    evicted: None,
};

/// An empty way's word. [`CacheConfig::try_new`] accepts only ways of
/// `2^k ≥ 4` bytes, whose tags stay below `2^(64 - k) ≤ 2^62`, so no
/// valid word `tag << 1 | dirty` reaches it; and its dirty bit is clear,
/// so dropping it writes nothing back.
const INVALID: u64 = !1;

/// The seed of the random-replacement xorshift state.
const RNG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Where a line lives: the shift/mask forms of [`CacheConfig::set_of`]
/// and [`CacheConfig::tag_of`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Geometry {
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
    xor_index: bool,
}

impl Geometry {
    fn new(config: &CacheConfig) -> Self {
        Geometry {
            line_shift: config.line_size().trailing_zeros(),
            set_shift: config.num_sets().trailing_zeros(),
            set_mask: config.num_sets() - 1,
            xor_index: config.index_function() == IndexFunction::Xor,
        }
    }

    /// The line number of `addr`.
    #[inline(always)]
    pub(crate) fn line(self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The set `line` maps to.
    #[inline(always)]
    pub(crate) fn set(self, line: u64) -> usize {
        let folded = if self.xor_index {
            line ^ (line >> self.set_shift)
        } else {
            line
        };
        (folded & self.set_mask) as usize
    }

    /// The tag `line` carries within its set.
    #[inline(always)]
    fn tag(self, line: u64) -> u64 {
        line >> self.set_shift
    }

    /// The byte address of the line with `tag` in `set`: the inverse of
    /// [`Geometry::set`] and [`Geometry::tag`], which unfolds the XOR of
    /// the tag's low bits into the set.
    #[inline(always)]
    fn line_addr(self, set: usize, tag: u64) -> u64 {
        let low = if self.xor_index {
            set as u64 ^ (tag & self.set_mask)
        } else {
            set as u64
        };
        (tag << self.set_shift | low) << self.line_shift
    }
}

/// A single-level set-associative cache.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    geometry: Geometry,
    ways: usize,
    lru: bool,
    write_allocate: bool,
    /// `sets × ways` words in replacement order; set `s` owns
    /// `words[s * ways .. (s + 1) * ways]`.
    words: Vec<u64>,
    stats: CacheStats,
    /// Deterministic xorshift state for random replacement.
    rng_state: u64,
}

impl Cache {
    /// Creates an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        let ways = config.ways() as usize;
        Cache {
            config,
            geometry: Geometry::new(&config),
            ways,
            lru: config.replacement() == ReplacementPolicy::Lru,
            write_allocate: config.write_policy() == WritePolicy::WriteBackAllocate,
            words: vec![INVALID; config.num_sets() as usize * ways],
            stats: CacheStats::default(),
            rng_state: RNG_SEED,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The address arithmetic this cache indexes with, shared with the
    /// set-heat tracker in [`crate::heat`].
    pub(crate) fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Statistics accumulated since construction or the last
    /// [`Cache::reset`].
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Returns the cache to its constructed state: empty, statistics
    /// cleared, and the random-replacement state back at its seed, so a
    /// rerun picks the same victims as a new cache.
    pub fn reset(&mut self) {
        self.words.fill(INVALID);
        self.stats = CacheStats::default();
        self.rng_state = RNG_SEED;
    }

    /// Performs one access and updates statistics.
    #[inline]
    pub fn access(&mut self, access: Access) -> AccessOutcome {
        self.stats.record_access(access.is_write);
        let line_no = self.geometry.line(access.addr);
        if self.ways == 1 {
            self.access_direct_mapped(access, line_no)
        } else {
            self.access_multi_way(access, line_no)
        }
    }

    /// [`Cache::access`] on a one-way set: one word read, at most one
    /// written. The set's sole line is the victim under every policy, so
    /// the random state is never drawn. The classifier, victim, heat and
    /// hierarchy sinks run the paper's base cache through here, and the
    /// multi-way path's scan and shifts cost them about a fifth of this
    /// path's rate.
    #[inline]
    fn access_direct_mapped(&mut self, access: Access, line_no: u64) -> AccessOutcome {
        let set = self.geometry.set(line_no);
        let tag = self.geometry.tag(line_no);
        let word = self.words[set];
        if word >> 1 == tag {
            self.stats.record_hit(access.is_write);
            self.words[set] = word | u64::from(access.is_write && self.write_allocate);
            return HIT;
        }
        self.stats.record_miss(access.is_write);
        if access.is_write && !self.write_allocate {
            return MISS;
        }
        // Past the no-allocate return, a miss dirties its line iff it
        // stores.
        self.words[set] = tag << 1 | u64::from(access.is_write);
        self.evict(set, word)
    }

    /// [`Cache::access`] on a multi-way set: a scan for the tag, then at
    /// most one shift of the set's words.
    #[inline]
    fn access_multi_way(&mut self, access: Access, line_no: u64) -> AccessOutcome {
        let set = self.geometry.set(line_no);
        let tag = self.geometry.tag(line_no);
        let words = &mut self.words[set * self.ways..(set + 1) * self.ways];
        if let Some(way) = words.iter().position(|&word| word >> 1 == tag) {
            self.stats.record_hit(access.is_write);
            words[way] |= u64::from(access.is_write && self.write_allocate);
            if way > 0 && self.lru {
                words[..=way].rotate_right(1);
            }
            return HIT;
        }
        self.stats.record_miss(access.is_write);
        if access.is_write && !self.write_allocate {
            return MISS;
        }
        let word = tag << 1 | u64::from(access.is_write);
        let last = words.len() - 1;
        let dropped = if self.config.replacement() != ReplacementPolicy::Random {
            // LRU and FIFO: the new word goes first, the last one drops.
            let dropped = words[last];
            words.copy_within(..last, 1);
            words[0] = word;
            dropped
        } else if let Some(empty) = words.iter().position(|&w| w == INVALID) {
            // Random, by `BaselineCache`'s positions: `push`, or
            // `swap_remove` of the victim and then `push`.
            words[empty] = word;
            INVALID
        } else {
            let victim = random_way(&mut self.rng_state, words.len());
            let dropped = words[victim];
            words[victim] = words[last];
            words[last] = word;
            dropped
        };
        self.evict(set, dropped)
    }

    /// The outcome of a miss that allocated in `set` and dropped the word
    /// `dropped` from it, counting its writeback.
    #[inline]
    fn evict(&mut self, set: usize, dropped: u64) -> AccessOutcome {
        if dropped == INVALID {
            return MISS;
        }
        let writeback = dropped & 1 != 0;
        self.stats.writebacks += u64::from(writeback);
        AccessOutcome {
            hit: false,
            writeback,
            evicted: Some(self.geometry.line_addr(set, dropped >> 1)),
        }
    }

    /// Runs a whole trace through the cache.
    pub fn run<I: IntoIterator<Item = Access>>(&mut self, trace: I) {
        for access in trace {
            self.access(access);
        }
    }

    /// Runs a contiguous batch of accesses — the tight loop the batched
    /// simulation engine feeds with chunks of the compiled trace.
    ///
    /// Direct-mapped and LRU caches that allocate on writes — the
    /// shapes of the paper's sweeps — dispatch once per slice to a
    /// specialized loop; every other configuration takes the general
    /// [`Cache::access`] path. Both produce identical statistics and
    /// contents.
    pub fn run_slice(&mut self, trace: &[Access]) {
        if self.write_allocate && self.ways == 1 {
            self.run_slice_dm_write_allocate(trace);
        } else if self.write_allocate && self.lru {
            // Monomorphize the common associativities so each set is a
            // fixed-width array (`W = 0` keeps a dynamic width for every
            // other associativity, e.g. fully associative organizations).
            match self.ways {
                2 => self.run_slice_lru_write_allocate::<2>(trace),
                4 => self.run_slice_lru_write_allocate::<4>(trace),
                8 => self.run_slice_lru_write_allocate::<8>(trace),
                16 => self.run_slice_lru_write_allocate::<16>(trace),
                _ => self.run_slice_lru_write_allocate::<0>(trace),
            }
        } else {
            for &access in trace {
                self.access(access);
            }
        }
    }

    /// Slice loop for direct-mapped write-allocate caches: one word load
    /// and one word store per access, and no branch.
    ///
    /// Hit, miss and writeback are 0/1 masks feeding the counters, and
    /// the set's word is stored unconditionally — after any
    /// write-allocate access a one-way set holds exactly the accessed
    /// line, dirty iff this access stores or it hit a dirty line. An
    /// empty set's [`INVALID`] word never matches a tag and has its dirty
    /// bit clear, so it needs no validity test. A same-line check would
    /// save the set arithmetic and the load, but its branch costs more
    /// than they do. Counters live in locals and are flushed once per
    /// slice.
    fn run_slice_dm_write_allocate(&mut self, trace: &[Access]) {
        let geometry = self.geometry;
        // Exactly one word per set: indexing with a masked set lets the
        // compiler drop the bounds checks.
        let words = &mut self.words[..=geometry.set_mask as usize];
        let mut tally = Tally::default();
        for &Access { addr, is_write } in trace {
            let line_no = geometry.line(addr);
            let set = geometry.set(line_no);
            let tag = geometry.tag(line_no);
            let word = words[set];
            let hit = u64::from(word >> 1 == tag);
            let miss = hit ^ 1;
            tally.writes += u64::from(is_write);
            tally.misses += miss;
            tally.write_misses += miss & u64::from(is_write);
            tally.writebacks += miss & word & 1;
            words[set] = tag << 1 | u64::from(is_write) | (hit & word);
        }
        tally.flush(&mut self.stats, trace.len() as u64);
    }

    /// Slice loop for multi-way LRU write-allocate caches: the same set
    /// updates as [`Cache::access`], with statistics kept in locals and
    /// flushed once per slice.
    ///
    /// A hit on the set's front word — the most recent line — costs one
    /// compare and one store. A deeper hit rotates its word to the front;
    /// a miss drops the last word and shifts the others back, and the
    /// dropped word's dirty bit is the writeback, since an empty way's is
    /// clear. When `W` matches the configured associativity the set is a
    /// `W`-word array, so the scan and the shifts have a fixed width;
    /// `W = 0` reads the width from the cache.
    fn run_slice_lru_write_allocate<const W: usize>(&mut self, trace: &[Access]) {
        debug_assert!(W == 0 || W == self.ways);
        let geometry = self.geometry;
        let ways = if W == 0 { self.ways } else { W };
        let mut tally = Tally::default();
        for &Access { addr, is_write } in trace {
            let line_no = geometry.line(addr);
            let base = geometry.set(line_no) * ways;
            let tag = geometry.tag(line_no);
            let set = &mut self.words[base..base + ways];
            tally.writes += u64::from(is_write);
            if set[0] >> 1 == tag {
                set[0] |= u64::from(is_write);
                continue;
            }
            if let Some(way) = set.iter().position(|&word| word >> 1 == tag) {
                // A loop, not `copy_within`: its `memmove` call costs more
                // than the few words a deeper hit shifts.
                let word = set[way] | u64::from(is_write);
                for w in (1..=way).rev() {
                    set[w] = set[w - 1];
                }
                set[0] = word;
                continue;
            }
            let dropped = set[ways - 1];
            tally.misses += 1;
            tally.write_misses += u64::from(is_write);
            tally.writebacks += dropped & 1;
            set.copy_within(..ways - 1, 1);
            set[0] = tag << 1 | u64::from(is_write);
        }
        tally.flush(&mut self.stats, trace.len() as u64);
    }

    /// True if the line containing `addr` is currently resident.
    pub fn contains(&self, addr: u64) -> bool {
        let line_no = self.geometry.line(addr);
        let set = self.geometry.set(line_no);
        let tag = self.geometry.tag(line_no);
        let base = set * self.ways;
        self.words[base..base + self.ways]
            .iter()
            .any(|&word| word >> 1 == tag)
    }

    /// Valid lines in `set`.
    fn occupancy(&self, set: usize) -> usize {
        let base = set * self.ways;
        self.words[base..base + self.ways]
            .iter()
            .filter(|&&word| word != INVALID)
            .count()
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        (0..self.config.num_sets() as usize)
            .map(|set| self.occupancy(set))
            .sum()
    }

    /// How full the sets are: element `i` counts the sets currently
    /// holding exactly `i` valid lines (the vector has `ways + 1`
    /// elements). A direct-mapped cache yields a two-element vector;
    /// under conflict-heavy traffic the top bucket saturates while
    /// capacity sits unused in the rest — exactly the skew padding is
    /// meant to remove, which is why the telemetry sampler exports this.
    pub fn occupancy_histogram(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.ways + 1];
        for set in 0..self.config.num_sets() as usize {
            counts[self.occupancy(set)] += 1;
        }
        counts
    }

    /// Lines evicted since construction, derived as allocations minus
    /// currently resident lines (write misses allocate only under
    /// write-allocate). Saturates at zero if statistics were reset while
    /// contents were kept.
    pub fn evictions(&self) -> u64 {
        let allocations = if self.write_allocate {
            self.stats.misses
        } else {
            self.stats.read_misses
        };
        allocations.saturating_sub(self.resident_lines() as u64)
    }
}

/// Draws the next random victim among `ways` ways (xorshift64*).
fn random_way(state: &mut u64, ways: usize) -> usize {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % ways as u64) as usize
}

/// A slice kernel's counters, kept in locals and flushed once per slice
/// (`reads`, `hits` and `read_misses` follow from the totals).
#[derive(Default)]
struct Tally {
    writes: u64,
    misses: u64,
    write_misses: u64,
    writebacks: u64,
}

impl Tally {
    fn flush(self, stats: &mut CacheStats, accesses: u64) {
        stats.accesses += accesses;
        stats.writes += self.writes;
        stats.reads += accesses - self.writes;
        stats.misses += self.misses;
        stats.hits += accesses - self.misses;
        stats.write_misses += self.write_misses;
        stats.read_misses += self.misses - self.write_misses;
        stats.writebacks += self.writebacks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheConfig {
        CacheConfig::direct_mapped(128, 32) // 4 sets
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(small());
        assert!(!c.access(Access::read(0)).hit);
        assert!(c.access(Access::read(0)).hit);
        assert!(c.access(Access::read(31)).hit, "same line hits");
        assert!(!c.access(Access::read(32)).hit, "next line misses");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = Cache::new(small());
        c.access(Access::read(0));
        c.access(Access::read(128)); // same set, different tag -> evicts
        assert!(!c.access(Access::read(0)).hit);
    }

    #[test]
    fn two_way_avoids_that_conflict() {
        let mut c = Cache::new(CacheConfig::set_associative(128, 32, 2));
        c.access(Access::read(0));
        c.access(Access::read(128));
        assert!(c.access(Access::read(0)).hit);
        assert!(c.access(Access::read(128)).hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(CacheConfig::set_associative(128, 32, 2));
        // Set 0 holds lines 0 and 128; touch 0 again, then allocate 256.
        c.access(Access::read(0));
        c.access(Access::read(128));
        c.access(Access::read(0));
        let outcome = c.access(Access::read(256));
        assert_eq!(outcome.evicted, Some(128));
        assert!(c.contains(0));
        assert!(!c.contains(128));
    }

    #[test]
    fn fifo_evicts_oldest_allocation() {
        let cfg =
            CacheConfig::set_associative(128, 32, 2).with_replacement(ReplacementPolicy::Fifo);
        let mut c = Cache::new(cfg);
        c.access(Access::read(0));
        c.access(Access::read(128));
        c.access(Access::read(0)); // does NOT refresh FIFO order
        let outcome = c.access(Access::read(256));
        assert_eq!(outcome.evicted, Some(0));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = Cache::new(small());
        c.access(Access::write(0));
        let outcome = c.access(Access::read(128));
        assert!(outcome.writeback);
        assert_eq!(c.stats().writebacks, 1);

        // A clean line evicts silently.
        let outcome = c.access(Access::read(0));
        assert!(!outcome.writeback);
    }

    #[test]
    fn write_through_does_not_allocate() {
        let cfg = small().with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut c = Cache::new(cfg);
        assert!(!c.access(Access::write(0)).hit);
        assert!(!c.contains(0));
        // But a write hit updates the line in place.
        c.access(Access::read(0));
        assert!(c.access(Access::write(0)).hit);
    }

    #[test]
    fn write_through_store_miss_clears_the_fast_path() {
        // After a no-allocate store miss the stored line is NOT resident;
        // an immediate same-line access must not pretend it is.
        let cfg = small().with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut c = Cache::new(cfg);
        assert!(!c.access(Access::write(64)).hit);
        assert!(!c.access(Access::read(64)).hit, "line was never allocated");
        assert!(c.access(Access::read(64)).hit);
    }

    #[test]
    fn random_replacement_is_deterministic() {
        let cfg =
            CacheConfig::set_associative(128, 32, 2).with_replacement(ReplacementPolicy::Random);
        let trace: Vec<Access> = (0u64..1000)
            .map(|i| Access::read((i * 7919) % 4096))
            .collect();
        let mut a = Cache::new(cfg);
        let mut b = Cache::new(cfg);
        a.run(trace.clone());
        b.run(trace);
        assert_eq!(a.stats().misses, b.stats().misses);
    }

    #[test]
    fn stats_balance() {
        let mut c = Cache::new(small());
        for i in 0..100u64 {
            c.access(Access {
                addr: (i * 13) % 512,
                is_write: i % 3 == 0,
            });
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert_eq!(s.reads + s.writes, s.accesses);
        assert_eq!(s.read_misses + s.write_misses, s.misses);
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = Cache::new(small());
        c.access(Access::read(0));
        c.reset();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().accesses, 0);
        assert!(!c.access(Access::read(0)).hit);
    }

    #[test]
    fn evicted_line_address_round_trips() {
        let cfg = CacheConfig::direct_mapped(1024, 32);
        let mut c = Cache::new(cfg);
        c.access(Access::read(5 * 32));
        let outcome = c.access(Access::read(5 * 32 + 1024));
        assert_eq!(outcome.evicted, Some(5 * 32));
    }

    #[test]
    fn same_line_fast_path_keeps_lru_fresh() {
        // Touch line 0 repeatedly, twice in a row each time, then
        // allocate another line into the set: line 0 must have stayed
        // most recent.
        let mut c = Cache::new(CacheConfig::set_associative(128, 32, 2));
        c.access(Access::read(128));
        for _ in 0..5 {
            c.access(Access::read(0));
            c.access(Access::read(8)); // same line
        }
        let outcome = c.access(Access::read(256));
        assert_eq!(
            outcome.evicted,
            Some(128),
            "LRU order tracked through fast path"
        );
        assert!(c.contains(0));
    }

    #[test]
    fn same_line_fast_path_dirties_on_write() {
        let mut c = Cache::new(small());
        c.access(Access::read(0));
        c.access(Access::write(8)); // same line
        let outcome = c.access(Access::read(128));
        assert!(outcome.writeback, "fast-path store marked the line dirty");
    }

    #[test]
    fn specialized_dm_slice_equals_per_access_run() {
        let trace: Vec<Access> = (0u64..4000)
            .map(|i| Access {
                addr: (i.wrapping_mul(2654435761) ^ (i * 72)) % 16384,
                is_write: i % 3 == 0,
            })
            .collect();
        let dm = CacheConfig::direct_mapped(1024, 32);
        let w4 = CacheConfig::set_associative(1024, 32, 4);
        for cfg in [
            dm,
            dm.with_index_function(crate::IndexFunction::Xor),
            dm.with_replacement(ReplacementPolicy::Fifo),
            dm.with_replacement(ReplacementPolicy::Random),
            w4,
            w4.with_index_function(crate::IndexFunction::Xor),
            w4.with_replacement(ReplacementPolicy::Fifo),
            w4.with_replacement(ReplacementPolicy::Random),
            CacheConfig::set_associative(1024, 32, 2),
            CacheConfig::set_associative(2048, 32, 16),
            CacheConfig::fully_associative(1024, 32),
        ] {
            let mut per_access = Cache::new(cfg);
            let mut sliced = Cache::new(cfg);
            per_access.run(trace.iter().copied());
            for chunk in trace.chunks(97) {
                sliced.run_slice(chunk);
            }
            assert_eq!(per_access.stats(), sliced.stats(), "{cfg:?}");
            for addr in (0..16384).step_by(32) {
                assert_eq!(
                    per_access.contains(addr),
                    sliced.contains(addr),
                    "{cfg:?} addr {addr}"
                );
            }
        }
    }

    #[test]
    fn run_slice_equals_run() {
        let trace: Vec<Access> = (0u64..500)
            .map(|i| Access {
                addr: (i * 57) % 4096,
                is_write: i % 7 == 0,
            })
            .collect();
        let mut a = Cache::new(CacheConfig::set_associative(1024, 32, 4));
        let mut b = Cache::new(CacheConfig::set_associative(1024, 32, 4));
        a.run(trace.iter().copied());
        b.run_slice(&trace);
        assert_eq!(a.stats(), b.stats());
    }
}
