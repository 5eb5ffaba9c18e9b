//! Reference models: plain, slow implementations kept only as oracles.
//!
//! Each answers the same question as an engine of this crate with the
//! most direct data structure, and shares no code with it: the tests pin
//! the engines against these, and `bench_simulator` times the classifier
//! against [`ShadowLru`].

use std::collections::HashMap;

use crate::cache::Access;
use crate::reuse::ReuseHistogram;

/// A fully-associative LRU reference model: hash-indexed lines so hits
/// are O(1), with each miss paying an O(capacity) eviction scan.
/// Behaviourally identical to
/// `Cache::new(CacheConfig::fully_associative(..))`, which the tests
/// verify.
///
/// This is the *legacy* shadow the classifier once ran per capacity;
/// [`crate::ClassifyingCache`] keeps an O(1) shadow of its own, and the
/// differential suite pins the two against each other.
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
    pub(crate) tick: u64,
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

/// The O(n · depth) stack-distance reference: an explicit LRU stack of
/// line ids with move-to-front, the oracle of [`crate::ReuseStack`].
///
/// # Example
///
/// ```
/// use pad_cache_sim::reference::NaiveStack;
///
/// let mut s = NaiveStack::new();
/// assert_eq!(s.access(10), None); // cold
/// assert_eq!(s.access(20), None);
/// assert_eq!(s.access(10), Some(1)); // line 20 in between
/// ```
#[derive(Debug, Clone, Default)]
pub struct NaiveStack {
    /// Most recent first.
    stack: Vec<u64>,
}

impl NaiveStack {
    /// An empty stack.
    pub fn new() -> Self {
        NaiveStack::default()
    }

    /// Records one access to `line`; returns its depth in the stack (its
    /// stack distance), or `None` if the line was never seen before.
    pub fn access(&mut self, line: u64) -> Option<u64> {
        let depth = self.stack.iter().position(|&l| l == line);
        if let Some(depth) = depth {
            self.stack.remove(depth);
        }
        self.stack.insert(0, line);
        depth.map(|d| d as u64)
    }

    /// The reuse histogram of `trace` at `line_size`-byte lines.
    pub fn histogram(trace: &[Access], line_size: u64) -> ReuseHistogram {
        let mut stack = NaiveStack::new();
        let mut histogram = ReuseHistogram::new();
        for access in trace {
            histogram.record(stack.access(access.addr / line_size));
        }
        histogram
    }
}
