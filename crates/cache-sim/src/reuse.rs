//! Single-pass reuse-distance (stack-distance) analysis.
//!
//! One walk over a trace computes, for every access, the number of
//! *distinct other lines* touched since that line's previous access — its
//! LRU stack distance. By the LRU inclusion property, a fully-associative
//! LRU cache of capacity `C` lines hits exactly when the line has been
//! seen before **and** its stack distance is `< C`. Recording the
//! distances in a histogram therefore yields the *exact* miss count of
//! every fully-associative capacity at once:
//!
//! ```text
//! misses(C) = cold_misses + Σ_{d ≥ C} histogram[d]
//! ```
//!
//! This replaces the one-shadow-per-capacity approach (`ShadowLru`) with a
//! single engine, and is what powers the miss-ratio-curve experiment
//! (`fig_mrc`) and the three-C classifier's capacity test.
//!
//! The engine numbers accesses with *ticks* and keeps two structures:
//!
//! * a **last-use table**, line → tick of its latest access. While the
//!   line span it covers stays within `SPAN_FACTOR` slots per distinct
//!   line plus `SPAN_SLACK`, it is a flat `Vec<u64>` indexed by
//!   `line - base`: one indexed load per access, no hashing. The first
//!   line that would stretch it further converts it, once and for good,
//!   to a std `HashMap` (sparse external traces, SHARDS-sampled lines),
//!   so memory stays O(distinct lines) for any input and keys from
//!   outside the program keep the default hasher.
//! * the **live ticks** — each line's latest — as a bitset, plus a
//!   Fenwick tree over the popcounts of its 64-tick words. A reuse's
//!   stack distance is the number of live ticks after the line's
//!   previous one: the live count minus that tick's rank, where rank is
//!   a tree prefix over whole words plus one masked popcount.
//!
//! Every operation is O(log(ticks / 64)). Once ticks outnumber live lines
//! 4×, compaction renumbers each live tick to its rank, read straight off
//! the bitset, so memory stays O(distinct lines), not O(trace length).
//!
//! ```
//! use pad_cache_sim::{Access, ReuseAnalyzer};
//!
//! let mut r = ReuseAnalyzer::new(32);
//! for _ in 0..4 {
//!     for line in 0..8u64 {
//!         r.access(Access::read(line * 32));
//!     }
//! }
//! let h = r.histogram();
//! // 8 lines cycled: a 8-line fully-associative LRU holds them all...
//! assert_eq!(h.misses_at(8), 8); // ...so only the cold pass misses,
//! assert_eq!(h.misses_at(4), 32); // while half the lines thrash everything.
//! ```

use std::collections::HashMap;

use crate::cache::Access;

/// The flat last-use table may cover at most `SPAN_FACTOR` line slots per
/// distinct line, plus `SPAN_SLACK`, before it becomes a hash map.
const SPAN_FACTOR: u64 = 8;

/// Slack on top of `SPAN_FACTOR`: lets a trace's first touches of a
/// few far-apart arrays (a few MiB of address space) stay flat.
const SPAN_SLACK: u64 = 1 << 16;

/// Line id → tick of its latest access, 0 for a line never seen.
#[derive(Debug, Clone)]
enum LastUse {
    /// `ticks[i]` is the slot of line `base + i` (mod 2^64).
    Flat {
        base: u64,
        ticks: Vec<u64>,
    },
    Hashed(HashMap<u64, u64>),
}

impl Default for LastUse {
    fn default() -> Self {
        LastUse::Flat {
            base: 0,
            ticks: Vec::new(),
        }
    }
}

impl LastUse {
    /// The slot of `line` (0 if the line is new). `distinct` lines are in
    /// the table, which sets how far a flat table may stretch.
    #[inline]
    fn slot(&mut self, line: u64, distinct: u64) -> &mut u64 {
        if let LastUse::Flat { base, ticks } = self {
            if line.wrapping_sub(*base) >= ticks.len() as u64 {
                self.make_room(line, distinct);
            }
        }
        match self {
            LastUse::Flat { base, ticks } => &mut ticks[line.wrapping_sub(*base) as usize],
            LastUse::Hashed(map) => map.entry(line).or_insert(0),
        }
    }

    /// Stretches a flat table to cover `line`, towards whichever end is
    /// nearer, or converts it to a hash map if that would exceed the
    /// span bound.
    #[cold]
    #[inline(never)]
    fn make_room(&mut self, line: u64, distinct: u64) {
        let LastUse::Flat { base, ticks } = self else {
            return;
        };
        let len = ticks.len() as u64;
        if len == 0 {
            *base = line;
            ticks.push(0);
            return;
        }
        let above = line.wrapping_sub(base.wrapping_add(len - 1));
        let below = base.wrapping_sub(line);
        let need = len.saturating_add(above.min(below));
        let limit = (distinct + 1)
            .saturating_mul(SPAN_FACTOR)
            .saturating_add(SPAN_SLACK);
        if need > limit {
            let mut map = HashMap::with_capacity(distinct as usize + 1);
            for (i, &tick) in ticks.iter().enumerate() {
                if tick != 0 {
                    map.insert(base.wrapping_add(i as u64), tick);
                }
            }
            *self = LastUse::Hashed(map);
        } else if above <= below {
            ticks.resize(need as usize, 0);
        } else {
            // Grow downwards with headroom, so a descending stream pays
            // amortized O(1) per new line for the shift.
            let grown_len = need.max(len.saturating_mul(2).min(limit));
            let mut grown = vec![0; grown_len as usize];
            grown[(grown_len - len) as usize..].copy_from_slice(ticks);
            *base = base.wrapping_add(len).wrapping_sub(grown_len);
            *ticks = grown;
        }
    }

    /// Applies `f` to every seen line's tick.
    fn for_each_tick(&mut self, f: impl FnMut(&mut u64)) {
        match self {
            LastUse::Flat { ticks, .. } => ticks.iter_mut().filter(|t| **t != 0).for_each(f),
            LastUse::Hashed(map) => map.values_mut().for_each(f),
        }
    }
}

fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

/// Mask of bits `0..=bit` of a word.
fn through(bit: u64) -> u64 {
    u64::MAX >> (63 - bit)
}

/// The live ticks as a bitset, with a Fenwick tree over the popcounts of
/// its 64-tick words for O(log(ticks / 64)) rank queries.
#[derive(Debug, Clone)]
struct LiveTicks {
    words: Vec<u64>,
    /// `tree[w + 1]` is word `w`'s Fenwick node; `tree[0]` is unused.
    tree: Vec<u64>,
}

impl Default for LiveTicks {
    fn default() -> Self {
        LiveTicks {
            words: Vec::new(),
            tree: vec![0],
        }
    }
}

impl LiveTicks {
    /// Adds `tick`, which is above every tick added before.
    fn push(&mut self, tick: u64) {
        let w = (tick / 64) as usize;
        while self.words.len() <= w {
            // A Fenwick node at `i` covers words `(i - lowbit(i), i]`:
            // its sum is that of the nodes nested inside that range.
            let i = self.tree.len();
            let (mut sum, mut j) = (0, i - 1);
            while j > i - lowbit(i) {
                sum += self.tree[j];
                j -= lowbit(j);
            }
            self.words.push(0);
            self.tree.push(sum);
        }
        self.words[w] |= 1 << (tick % 64);
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += lowbit(i);
        }
    }

    /// Removes live `tick`.
    fn remove(&mut self, tick: u64) {
        let w = (tick / 64) as usize;
        self.words[w] &= !(1 << (tick % 64));
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += lowbit(i);
        }
    }

    /// Number of live ticks at or below live `tick`.
    fn rank(&self, tick: u64) -> u64 {
        let w = (tick / 64) as usize;
        let mut sum = u64::from((self.words[w] & through(tick % 64)).count_ones());
        let mut i = w;
        while i > 0 {
            sum += self.tree[i];
            i -= lowbit(i);
        }
        sum
    }

    /// Makes exactly ticks `1..=n` live, in O(n / 64).
    fn reset_to(&mut self, n: u64) {
        let len = (n / 64) as usize + 1;
        self.words.clear();
        self.words.resize(len, u64::MAX);
        self.words[0] &= !1; // tick 0 is never issued
        self.words[len - 1] &= through(n % 64);
        self.tree.clear();
        self.tree.push(0);
        self.tree
            .extend(self.words.iter().map(|w| u64::from(w.count_ones())));
        for i in 1..self.tree.len() {
            let j = i + lowbit(i);
            if j < self.tree.len() {
                self.tree[j] += self.tree[i];
            }
        }
    }
}

/// Compaction threshold: never compact below this many ticks, so short
/// traces skip the machinery entirely.
const COMPACT_MIN: u64 = 1 << 12;

/// The single-pass stack-distance engine over abstract line ids.
///
/// [`access`](ReuseStack::access) returns `None` for a first-ever touch
/// (a *cold* reference) or `Some(k)` where `k` is the number of distinct
/// other lines referenced since this line's previous access. A
/// fully-associative LRU cache of `C` lines hits exactly the accesses
/// with `Some(k)` where `k < C`.
///
/// # Example
///
/// ```
/// use pad_cache_sim::ReuseStack;
///
/// let mut s = ReuseStack::new();
/// assert_eq!(s.access(10), None); // cold
/// assert_eq!(s.access(20), None); // cold
/// assert_eq!(s.access(10), Some(1)); // one distinct line (20) in between
/// assert_eq!(s.access(10), Some(0)); // immediate reuse
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReuseStack {
    last: LastUse,
    live: LiveTicks,
    /// The latest tick issued; ticks start at 1.
    tick: u64,
    /// Distinct lines seen, which is also the number of live ticks.
    distinct: u64,
    /// Most recently accessed line: same-line reuse (distance 0) skips
    /// all table and tree work, which is the common case for cache-line
    /// streams.
    mru: Option<u64>,
    compactions: u64,
}

impl ReuseStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        ReuseStack::default()
    }

    /// Records one access to `line`; returns its stack distance, or
    /// `None` if the line was never seen before.
    pub fn access(&mut self, line: u64) -> Option<u64> {
        if self.mru == Some(line) {
            // The line's tick is already the maximum: distance 0, and
            // re-ticking it cannot change any other line's distance.
            return Some(0);
        }
        self.mru = Some(line);
        self.tick += 1;
        let prev = std::mem::replace(self.last.slot(line, self.distinct), self.tick);
        let distance = if prev == 0 {
            self.distinct += 1;
            None
        } else {
            // Stack distance = live ticks after `prev` = live lines minus
            // those at or before `prev` (which includes `prev` itself).
            let k = self.distinct - self.live.rank(prev);
            self.live.remove(prev);
            Some(k)
        };
        self.live.push(self.tick);
        self.maybe_compact();
        distance
    }

    /// Number of distinct lines seen so far.
    pub fn distinct_lines(&self) -> usize {
        self.distinct as usize
    }

    /// How many times tick compaction ran (telemetry/diagnostics).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Renumbers each live tick to its rank once ticks reach 4x the live
    /// line count, bounding memory at O(distinct lines). A pass over the
    /// table plus one over the bitset, amortized over the `3 * live`
    /// accesses since the previous compaction.
    fn maybe_compact(&mut self) {
        if self.tick < COMPACT_MIN || self.tick < 4 * self.distinct {
            return;
        }
        // Live ticks before each word: an exclusive prefix sum.
        let mut before = Vec::with_capacity(self.live.words.len());
        let mut sum = 0u64;
        for w in &self.live.words {
            before.push(sum);
            sum += u64::from(w.count_ones());
        }
        let words = &self.live.words;
        self.last.for_each_tick(|t| {
            let w = (*t / 64) as usize;
            *t = before[w] + u64::from((words[w] & through(*t % 64)).count_ones());
        });
        self.live.reset_to(self.distinct);
        self.tick = self.distinct;
        self.compactions += 1;
    }
}

/// A reuse-distance histogram: cold (first-touch) count plus a count per
/// stack distance.
///
/// Merging two histograms is element-wise addition, so chunk-local
/// histograms from parallel workers combine into exactly the histogram a
/// serial pass over the concatenated *distances* would produce —
/// associative and commutative by construction.
///
/// # Example
///
/// ```
/// use pad_cache_sim::{Access, ReuseAnalyzer};
///
/// let mut r = ReuseAnalyzer::new(32);
/// for addr in [0u64, 32, 0, 32, 64, 0] {
///     r.access(Access::read(addr));
/// }
/// let h = r.histogram();
/// assert_eq!(h.cold(), 3); // lines 0, 1, 2
/// assert_eq!(h.accesses(), 6);
/// assert_eq!(h.misses_at(2), 4); // line 0's last reuse (distance 2) misses
/// assert_eq!(h.misses_at(4), 3); // everything warm hits
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReuseHistogram {
    cold: u64,
    /// `counts[d]` = number of accesses with stack distance exactly `d`.
    /// Invariant: the last element, if any, is nonzero — so structural
    /// equality is semantic equality.
    counts: Vec<u64>,
}

impl ReuseHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        ReuseHistogram::default()
    }

    /// Records one access outcome as returned by [`ReuseStack::access`].
    pub fn record(&mut self, distance: Option<u64>) {
        self.record_weighted(distance, 1);
    }

    /// Records one access outcome carrying `weight` accesses' worth of
    /// evidence — the primitive the SHARDS-style sampled analyzer
    /// ([`crate::SampledReuseAnalyzer`]) scales its observations with.
    /// `weight == 0` records nothing (the element-wise merge and the
    /// trailing-nonzero invariant both stay intact).
    pub fn record_weighted(&mut self, distance: Option<u64>, weight: u64) {
        if weight == 0 {
            return;
        }
        match distance {
            None => self.cold += weight,
            Some(d) => {
                let d = d as usize;
                if d >= self.counts.len() {
                    self.counts.resize(d + 1, 0);
                }
                self.counts[d] += weight;
            }
        }
    }

    /// Number of cold (first-touch) accesses — equivalently, the number
    /// of distinct lines in the trace.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Total accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.cold + self.counts.iter().sum::<u64>()
    }

    /// The per-distance counts (index = stack distance).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Largest stack distance observed, or `None` if every access was
    /// cold (or none were recorded).
    pub fn max_distance(&self) -> Option<u64> {
        self.counts.len().checked_sub(1).map(|d| d as u64)
    }

    /// Adds `other` into `self` element-wise.
    pub fn merge(&mut self, other: &ReuseHistogram) {
        self.cold += other.cold;
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (acc, &c) in self.counts.iter_mut().zip(&other.counts) {
            *acc += c;
        }
    }

    /// Exact miss count of a fully-associative LRU cache holding
    /// `capacity_lines` lines: every cold access misses, plus every reuse
    /// at distance ≥ capacity.
    pub fn misses_at(&self, capacity_lines: u64) -> u64 {
        let from = (capacity_lines as usize).min(self.counts.len());
        self.cold + self.counts[from..].iter().sum::<u64>()
    }

    /// Miss ratio (in `[0, 1]`) of a fully-associative LRU cache of
    /// `capacity_lines` lines; 0 when no accesses were recorded.
    pub fn miss_ratio_at(&self, capacity_lines: u64) -> f64 {
        let accesses = self.accesses();
        if accesses == 0 {
            0.0
        } else {
            self.misses_at(capacity_lines) as f64 / accesses as f64
        }
    }

    /// The power-of-two capacities worth querying: 1, 2, 4, ... up to and
    /// including the first capacity at which only cold misses remain.
    pub fn pow2_capacities(&self) -> Vec<u64> {
        let mut caps = vec![1u64];
        let max = self.max_distance().unwrap_or(0);
        while *caps.last().expect("non-empty") <= max {
            let next = caps.last().expect("non-empty") * 2;
            caps.push(next);
        }
        caps
    }
}

/// Address-level front end: maps accesses to lines and feeds a
/// [`ReuseStack`], accumulating a [`ReuseHistogram`].
///
/// This is the reuse sink the batched engine
/// (`pad_trace::BatchRequest::with_reuse`) drives chunk-by-chunk.
#[derive(Debug, Clone)]
pub struct ReuseAnalyzer {
    line_shift: u32,
    stack: ReuseStack,
    hist: ReuseHistogram,
}

impl ReuseAnalyzer {
    /// Creates an analyzer for the given line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is zero or not a power of two (same contract
    /// as [`crate::CacheConfig`]).
    pub fn new(line_size: u64) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line_size must be a nonzero power of two, got {line_size}"
        );
        ReuseAnalyzer {
            line_shift: line_size.trailing_zeros(),
            stack: ReuseStack::new(),
            hist: ReuseHistogram::new(),
        }
    }

    /// The line size this analyzer buckets addresses by.
    pub fn line_size(&self) -> u64 {
        1u64 << self.line_shift
    }

    /// Records one access (reads and writes are equivalent: the model
    /// assumes allocate-on-miss, matching the default write-allocate
    /// simulator configuration).
    pub fn access(&mut self, access: Access) {
        let distance = self.stack.access(access.addr >> self.line_shift);
        self.hist.record(distance);
    }

    /// Records a contiguous batch of accesses (the batched engine's
    /// chunk hand-off).
    pub fn run_slice(&mut self, trace: &[Access]) {
        for &access in trace {
            self.access(access);
        }
    }

    /// Records a whole trace.
    pub fn run<I: IntoIterator<Item = Access>>(&mut self, trace: I) {
        for access in trace {
            self.access(access);
        }
    }

    /// The histogram accumulated so far.
    pub fn histogram(&self) -> &ReuseHistogram {
        &self.hist
    }

    /// Consumes the analyzer, yielding its histogram.
    pub fn into_histogram(self) -> ReuseHistogram {
        self.hist
    }

    /// Number of distinct lines seen so far.
    pub fn distinct_lines(&self) -> usize {
        self.stack.distinct_lines()
    }

    /// Tick-compaction count (telemetry/diagnostics).
    pub fn compactions(&self) -> u64 {
        self.stack.compactions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64Star;

    /// O(n²) reference: explicit LRU stack with move-to-front.
    #[derive(Default)]
    struct NaiveStack {
        stack: Vec<u64>, // most recent first
    }

    impl NaiveStack {
        fn access(&mut self, line: u64) -> Option<u64> {
            let pos = self.stack.iter().position(|&l| l == line);
            if let Some(p) = pos {
                self.stack.remove(p);
            }
            self.stack.insert(0, line);
            pos.map(|p| p as u64)
        }
    }

    #[test]
    fn basic_distances() {
        let mut s = ReuseStack::new();
        assert_eq!(s.access(1), None);
        assert_eq!(s.access(2), None);
        assert_eq!(s.access(3), None);
        assert_eq!(s.access(1), Some(2));
        assert_eq!(s.access(1), Some(0));
        assert_eq!(s.access(2), Some(2));
        assert_eq!(s.distinct_lines(), 3);
    }

    #[test]
    fn matches_naive_stack_on_random_traces() {
        for seed in 1..=20u64 {
            let mut rng = XorShift64Star::new(seed);
            let mut fast = ReuseStack::new();
            let mut naive = NaiveStack::default();
            for i in 0..2000 {
                let line = rng.below(64);
                assert_eq!(
                    fast.access(line),
                    naive.access(line),
                    "seed {seed} diverged at access {i} (line {line})"
                );
            }
        }
    }

    #[test]
    fn compaction_preserves_distances_and_bounds_memory() {
        // Two lines alternating for far longer than COMPACT_MIN: ticks
        // keep growing, so compaction must fire — and distances must stay
        // exactly 1 throughout.
        let mut s = ReuseStack::new();
        s.access(0);
        s.access(1);
        for i in 0..3 * COMPACT_MIN {
            assert_eq!(s.access(i % 2), Some(1), "at access {i}");
        }
        assert!(s.compactions() > 0, "compaction never ran");
        assert!(
            s.tick <= COMPACT_MIN + 4 * s.distinct,
            "ticks grew unboundedly: {} ticks for {} lines",
            s.tick,
            s.distinct
        );
        assert_eq!(s.live.words.len() as u64, s.tick / 64 + 1);
    }

    #[test]
    fn compaction_matches_naive_under_many_lines() {
        let mut rng = XorShift64Star::new(99);
        let mut fast = ReuseStack::new();
        let mut naive = NaiveStack::default();
        for i in 0..6 * COMPACT_MIN {
            let line = rng.below(512);
            assert_eq!(
                fast.access(line),
                naive.access(line),
                "diverged at access {i}"
            );
        }
        assert!(fast.compactions() > 0);
    }

    /// Slots a flat table holds, or `None` once it has become a hash map.
    fn flat_len(s: &ReuseStack) -> Option<usize> {
        match &s.last {
            LastUse::Flat { ticks, .. } => Some(ticks.len()),
            LastUse::Hashed(_) => None,
        }
    }

    /// Feeds `lines` to the engine and the naive stack side by side.
    fn assert_matches_naive(s: &mut ReuseStack, lines: impl IntoIterator<Item = u64>) {
        let mut naive = NaiveStack::default();
        for (i, line) in lines.into_iter().enumerate() {
            assert_eq!(
                s.access(line),
                naive.access(line),
                "access {i} (line {line:#x})"
            );
        }
    }

    #[test]
    fn far_apart_lines_do_not_allocate_their_span() {
        // 10^5 lines 2^30 apart span ~2^47 slots; the table must stay
        // O(distinct lines) and the distances exact.
        let mut s = ReuseStack::new();
        for i in 0..100_000u64 {
            assert_eq!(s.access(i << 30), None);
        }
        assert_eq!(flat_len(&s), None, "sparse lines convert to a hash map");
        assert_eq!(s.access(0), Some(99_999));
        assert_eq!(s.access(99_999 << 30), Some(1));
        assert_eq!(s.distinct_lines(), 100_000);
    }

    #[test]
    fn dense_lines_stay_flat_within_the_span_bound() {
        let mut rng = XorShift64Star::new(7);
        let mut s = ReuseStack::new();
        // Two arrays 40K lines apart: the slack keeps one table.
        let lines: Vec<u64> = (0..3 * COMPACT_MIN)
            .map(|_| rng.below(300) + if rng.bool() { 40_000 } else { 0 })
            .collect();
        assert_matches_naive(&mut s, lines);
        // Growing downwards doubles, so at most twice the span.
        assert!(flat_len(&s).is_some_and(|len| len <= 2 * 40_300));
        assert!(s.compactions() > 0);
    }

    #[test]
    fn flat_table_switches_to_hashed_mid_trace_and_stays_exact() {
        let mut rng = XorShift64Star::new(11);
        let mut s = ReuseStack::new();
        let mut naive = NaiveStack::default();
        for i in 0..4 * COMPACT_MIN {
            // Dense for the first half, then a far-away pool joins.
            let line = if i >= 2 * COMPACT_MIN && rng.bool() {
                (1 << 40) + rng.below(64) * (1 << 20)
            } else {
                rng.below(256)
            };
            assert_eq!(s.access(line), naive.access(line), "access {i}");
            if i == 2 * COMPACT_MIN - 1 {
                assert!(flat_len(&s).is_some(), "dense prefix stays flat");
            }
        }
        assert_eq!(flat_len(&s), None, "the far pool forced the hash map");
        assert!(s.compactions() > 0);
    }

    #[test]
    fn lines_below_the_table_base_grow_it_downwards() {
        // A descending stream starts the table at its highest line; every
        // new line lands below the base.
        let mut s = ReuseStack::new();
        let lines = (0..3 * COMPACT_MIN).map(|i| 1_000_000 - (i % 2_000) * 3);
        assert_matches_naive(&mut s, lines);
        let len = flat_len(&s).expect("a dense descending stream stays flat");
        assert!(len <= (8 * 2_000 + (1 << 16)) as usize, "{len} slots");
        assert!(s.compactions() > 0);
    }

    #[test]
    fn wrapped_line_ids_near_the_top_of_the_range_are_exact() {
        // Line ids either side of the u64 wrap point are neighbours in a
        // flat table indexed modulo 2^64.
        let mut rng = XorShift64Star::new(5);
        let mut s = ReuseStack::new();
        let lines: Vec<u64> = (0..2 * COMPACT_MIN)
            .map(|_| rng.below(128).wrapping_sub(64))
            .collect();
        assert_matches_naive(&mut s, lines);
        assert!(flat_len(&s).is_some_and(|len| len <= 2 * 128));
        let mut far = ReuseStack::new();
        assert_matches_naive(&mut far, [u64::MAX, 0, u64::MAX / 2, u64::MAX, 0, 1]);
    }

    #[test]
    fn histogram_miss_counts() {
        let mut h = ReuseHistogram::new();
        h.record(None);
        h.record(None);
        h.record(Some(0));
        h.record(Some(1));
        h.record(Some(3));
        assert_eq!(h.cold(), 2);
        assert_eq!(h.accesses(), 5);
        assert_eq!(h.max_distance(), Some(3));
        assert_eq!(h.misses_at(1), 2 + 2); // distances 1 and 3 miss
        assert_eq!(h.misses_at(2), 2 + 1); // distance 3 misses
        assert_eq!(h.misses_at(4), 2); // only cold
        assert!((h.miss_ratio_at(4) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_is_elementwise() {
        let mut a = ReuseHistogram::new();
        a.record(None);
        a.record(Some(2));
        let mut b = ReuseHistogram::new();
        b.record(Some(0));
        b.record(Some(2));
        b.record(Some(5));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.cold(), 1);
        assert_eq!(merged.accesses(), 5);
        assert_eq!(merged.counts()[2], 2);
        assert_eq!(merged.counts()[5], 1);
        // Merging in the other order gives the identical value.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(merged, other);
    }

    #[test]
    fn pow2_capacities_cover_the_curve() {
        let mut h = ReuseHistogram::new();
        h.record(None);
        h.record(Some(5));
        assert_eq!(h.pow2_capacities(), vec![1, 2, 4, 8]);
        // 8 > max distance 5, so misses_at(8) is cold-only.
        assert_eq!(h.misses_at(8), h.cold());
        let empty = ReuseHistogram::new();
        assert_eq!(empty.pow2_capacities(), vec![1]);
    }

    #[test]
    fn analyzer_buckets_addresses_into_lines() {
        let mut r = ReuseAnalyzer::new(32);
        assert_eq!(r.line_size(), 32);
        // Same 32-byte line: one cold access then distance-0 reuse.
        r.access(Access::read(0));
        r.access(Access::read(31));
        r.access(Access::write(1));
        assert_eq!(r.histogram().cold(), 1);
        assert_eq!(r.histogram().counts(), &[2]);
        assert_eq!(r.distinct_lines(), 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn analyzer_rejects_non_pow2_line_size() {
        let _ = ReuseAnalyzer::new(48);
    }
}
