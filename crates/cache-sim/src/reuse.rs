//! Single-pass reuse-distance (stack-distance) analysis.
//!
//! One walk over a trace computes, for every access, the number of
//! *distinct other lines* touched since that line's previous access — its
//! LRU stack distance. By the LRU inclusion property, a fully-associative
//! LRU cache of capacity `C` lines hits exactly when the line has been
//! seen before **and** its stack distance is `< C`. Every miss-ratio
//! query asks a power-of-two capacity `C = 2^k`, and the distances
//! `≥ 2^k` are whole power-of-two buckets, so a log2 histogram of the
//! distances ([`ReuseHistogram`], at most 65 counts) yields the *exact*
//! miss count of every such capacity at once:
//!
//! ```text
//! misses(2^k) = cold_misses + Σ_{b ≥ k+1} bucket[b],   bucket b ≥ 1 = [2^(b−1), 2^b)
//! ```
//!
//! This replaces the one-shadow-per-capacity approach (`ShadowLru`) with a
//! single engine, and is what powers the miss-ratio-curve experiment
//! (`fig_mrc`), the advisor's curve and `padtool ingest --mrc`.
//!
//! The engine keeps the `FRONT` (16) most recent distinct lines in a
//! move-to-front array, the *front tier*: a reuse found there at position
//! `p` is at distance `p`, which is most reuses in a loop nest's line
//! stream. A line pushed off the array's end is *demoted*: it gets the
//! next *tick*, and two structures rank the deep lines by tick:
//!
//! * a **last-use table**, line → its tick (stale while the line sits in
//!   the front tier; its next demotion rewrites it). While it
//!   covers at most `SPAN_FACTOR` slots per distinct line plus
//!   `SPAN_SLACK`, it is *paged*: a directory over fixed pages of
//!   `PAGE` line slots, each page allocated on its first touch, so an
//!   access costs two dependent loads and no hashing, and a first-touch
//!   burst across many large arrays costs one page per array. The first
//!   page that would take it past the bound converts it, once and for
//!   good, to a std `HashMap` (sparse external traces, SHARDS-sampled
//!   lines), so memory stays O(distinct lines) for any input and keys
//!   from outside the program keep the default hasher.
//! * the **live ticks** — each deep line's — as a bitset. The newest
//!   `HOT_WORDS` 64-tick words form a hot window with a live count per
//!   word; a Fenwick tree covers the popcounts of the older, frozen
//!   words. Ticks are issued in demotion order, which is recency order,
//!   so a deep line's stack distance is `FRONT` plus the number of live
//!   ticks after its own: for a tick in the window, one masked popcount
//!   of its word plus the later words' counts; otherwise the live count
//!   minus that tick's rank, a tree prefix over whole words plus one
//!   masked popcount.
//!
//! Every operation is O(FRONT + log(ticks / 64)). Once ticks outnumber
//! deep lines 4×, compaction renumbers each live tick to its rank, read
//! straight off the bitset, so memory stays O(distinct lines), not
//! O(trace length).
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

/// The paged last-use table may hold at most `SPAN_FACTOR` slots (page
/// slots plus directory entries) per distinct line, plus `SPAN_SLACK`,
/// before it becomes a hash map.
const SPAN_FACTOR: u64 = 8;

/// Slack on top of `SPAN_FACTOR`: 64 pages' worth, so a trace's first
/// touches of dozens of large arrays stay paged.
const SPAN_SLACK: u64 = 1 << 16;

/// Log2 of the lines per page of the last-use table.
const PAGE_SHIFT: u32 = 10;

/// Line slots per page of the last-use table.
const PAGE: usize = 1 << PAGE_SHIFT;

/// One page of the last-use table: the slots of `PAGE` consecutive lines.
type Page = Box<[u64; PAGE]>;

/// Line id → a word per line, 0 until one is stored: the tick of the
/// line's latest demotion here, the shadow's node or "seen" mark in
/// [`crate::ClassifyingCache`].
#[derive(Debug, Clone)]
pub(crate) enum LastUse {
    /// `dir[i]`, once allocated, holds the slots of lines
    /// `base + i * PAGE ..` (mod 2^64); `base` is a multiple of `PAGE`.
    Paged {
        base: u64,
        dir: Vec<Option<Page>>,
        /// Allocated pages (the `Some` entries of `dir`).
        pages: u64,
    },
    Hashed(HashMap<u64, u64>),
}

impl Default for LastUse {
    fn default() -> Self {
        LastUse::Paged {
            base: 0,
            dir: Vec::new(),
            pages: 0,
        }
    }
}

impl LastUse {
    /// The slot of `line` (0 if the line is new). `distinct` lines are in
    /// the table, which sets how far a paged table may grow.
    #[inline]
    pub(crate) fn slot(&mut self, line: u64, distinct: u64) -> &mut u64 {
        // The hit path checks, then indexes, with no call in between, so
        // the compiler folds the two lookups into one.
        if !self.has_page(line) {
            return self.slot_without_page(line, distinct);
        }
        let LastUse::Paged { base, dir, .. } = self else {
            unreachable!("only a paged table has pages");
        };
        page_slot(*base, dir, line)
    }

    /// Whether the table is paged and `line`'s page is allocated.
    fn has_page(&self, line: u64) -> bool {
        let LastUse::Paged { base, dir, .. } = self else {
            return false;
        };
        let page = (line.wrapping_sub(*base) >> PAGE_SHIFT) as usize;
        matches!(dir.get(page), Some(Some(_)))
    }

    /// [`LastUse::slot`] for a line with no allocated page: a hashed
    /// table's every access, a paged table's first touch of a page.
    fn slot_without_page(&mut self, line: u64, distinct: u64) -> &mut u64 {
        if let LastUse::Paged { .. } = self {
            self.make_room(line, distinct);
        }
        match self {
            LastUse::Paged { base, dir, .. } => page_slot(*base, dir, line),
            LastUse::Hashed(map) => map.entry(line).or_insert(0),
        }
    }

    /// Allocates the page holding `line`, first stretching the directory
    /// towards whichever end is nearer, or converts the table to a hash
    /// map if that would exceed the span bound.
    #[cold]
    #[inline(never)]
    fn make_room(&mut self, line: u64, distinct: u64) {
        let LastUse::Paged { base, dir, pages } = self else {
            return;
        };
        let first = line >> PAGE_SHIFT << PAGE_SHIFT;
        if dir.is_empty() {
            *base = first;
            dir.push(None);
        }
        // Directory entries that reach `first` growing up, and down.
        let len = dir.len() as u64;
        let up = (first.wrapping_sub(*base) >> PAGE_SHIFT) + 1;
        let down = len + (base.wrapping_sub(first) >> PAGE_SHIFT);
        let entries = len.max(up.min(down));
        let slots = (*pages + 1) << PAGE_SHIFT;
        let limit = (distinct + 1)
            .saturating_mul(SPAN_FACTOR)
            .saturating_add(SPAN_SLACK);
        if slots.saturating_add(entries) > limit {
            let mut map = HashMap::with_capacity(distinct as usize + 1);
            for (i, page) in dir.iter().enumerate() {
                let Some(page) = page else { continue };
                let start = base.wrapping_add((i as u64) << PAGE_SHIFT);
                for (j, &tick) in page.iter().enumerate() {
                    if tick != 0 {
                        map.insert(start.wrapping_add(j as u64), tick);
                    }
                }
            }
            *self = LastUse::Hashed(map);
            return;
        }
        if entries > len && up <= down {
            dir.resize(entries as usize, None);
        } else if entries > len {
            // Grow downwards with headroom, so a descending stream pays
            // amortized O(1) per new page for the shift.
            let grown_len = entries.max(len.saturating_mul(2).min(limit - slots));
            let mut grown = Vec::with_capacity(grown_len as usize);
            grown.resize((grown_len - len) as usize, None);
            grown.append(dir);
            *base = base.wrapping_sub((grown_len - len) << PAGE_SHIFT);
            *dir = grown;
        }
        let i = (line.wrapping_sub(*base) >> PAGE_SHIFT) as usize;
        dir[i] = Some(vec![0; PAGE].try_into().expect("PAGE slots"));
        *pages += 1;
    }

    /// Whether the table has left its pages for the hash map.
    pub(crate) fn is_hashed(&self) -> bool {
        matches!(self, LastUse::Hashed(_))
    }

    /// Applies `f` to every seen line's tick.
    fn for_each_tick(&mut self, mut f: impl FnMut(&mut u64)) {
        match self {
            LastUse::Paged { dir, .. } => {
                for page in dir.iter_mut().flatten() {
                    page.iter_mut().filter(|t| **t != 0).for_each(&mut f);
                }
            }
            LastUse::Hashed(map) => map.values_mut().for_each(f),
        }
    }
}

/// The slot of `line` in a paged table whose page for it is allocated.
fn page_slot(base: u64, dir: &mut [Option<Page>], line: u64) -> &mut u64 {
    let offset = line.wrapping_sub(base);
    let page = dir[(offset >> PAGE_SHIFT) as usize]
        .as_mut()
        .expect("the line's page is allocated");
    &mut page[offset as usize % PAGE]
}

fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

/// Mask of bits `0..=bit` of a word.
fn through(bit: u64) -> u64 {
    u64::MAX >> (63 - bit)
}

/// Bitset words in the live ticks' hot window.
const HOT_WORDS: usize = 4;

/// The live ticks as a bitset. The newest `HOT_WORDS` words are the hot
/// window, zero past the latest tick, with a plain live count per word;
/// a Fenwick tree over the popcounts of the older, frozen words answers
/// their rank queries in O(log(ticks / 64)).
#[derive(Debug, Clone)]
struct LiveTicks {
    /// Frozen words, then the window's words.
    words: Vec<u64>,
    /// `hot[j]` is the popcount of window word `j`.
    hot: [u64; HOT_WORDS],
    /// `tree[w + 1]` is frozen word `w`'s Fenwick node; `tree[0]` is
    /// unused, so `tree.len() - 1` words are frozen.
    tree: Vec<u64>,
}

impl Default for LiveTicks {
    fn default() -> Self {
        LiveTicks {
            words: vec![0; HOT_WORDS],
            hot: [0; HOT_WORDS],
            tree: vec![0],
        }
    }
}

impl LiveTicks {
    /// Number of frozen words, which is also the window's first word.
    fn frozen(&self) -> usize {
        self.tree.len() - 1
    }

    /// Adds `tick`, which is above every tick added before, sliding the
    /// window up to it: each word leaving the window joins the tree.
    fn push(&mut self, tick: u64) {
        let w = (tick / 64) as usize;
        while self.words.len() <= w {
            // A Fenwick node at `i` covers words `(i - lowbit(i), i]`:
            // its sum is that word's count plus the nodes nested inside
            // that range.
            let i = self.tree.len();
            let (mut sum, mut j) = (self.hot[0], i - 1);
            while j > i - lowbit(i) {
                sum += self.tree[j];
                j -= lowbit(j);
            }
            self.tree.push(sum);
            self.hot.rotate_left(1);
            self.hot[HOT_WORDS - 1] = 0;
            self.words.push(0);
        }
        self.words[w] |= 1 << (tick % 64);
        let j = w - self.frozen();
        self.hot[j] += 1;
    }

    /// Removes live `tick`; returns the number of live ticks above it.
    /// `live` is the number of live ticks.
    fn take(&mut self, tick: u64, live: u64) -> u64 {
        let (w, bit) = ((tick / 64) as usize, tick % 64);
        let frozen = self.frozen();
        let above = if w >= frozen {
            // Every tick above lies in the window: the bits above `tick`
            // in its word, plus the later words' counts.
            let j = w - frozen;
            let mut above = u64::from((self.words[w] >> bit >> 1).count_ones());
            for (k, &count) in self.hot.iter().enumerate() {
                if k > j {
                    above += count;
                }
            }
            self.hot[j] -= 1;
            above
        } else {
            let above = live - self.rank(tick);
            let mut i = w + 1;
            while i < self.tree.len() {
                self.tree[i] -= 1;
                i += lowbit(i);
            }
            above
        };
        self.words[w] &= !(1 << bit);
        above
    }

    /// Number of live ticks at or below live frozen `tick`.
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

    /// Makes exactly ticks `1..=n` live, in O(n / 64), with tick `n` in
    /// the window's last word (or in the first `HOT_WORDS` words).
    fn reset_to(&mut self, n: u64) {
        let top = (n / 64) as usize;
        let len = (top + 1).max(HOT_WORDS);
        self.words.clear();
        self.words.resize(len, 0);
        self.words[..top].fill(u64::MAX);
        self.words[top] = through(n % 64);
        self.words[0] &= !1; // tick 0 is never issued
        let frozen = len - HOT_WORDS;
        for (count, word) in self.hot.iter_mut().zip(&self.words[frozen..]) {
            *count = u64::from(word.count_ones());
        }
        self.tree.clear();
        self.tree.push(0);
        self.tree.extend(
            self.words[..frozen]
                .iter()
                .map(|w| u64::from(w.count_ones())),
        );
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

/// Lines in the front tier: the most recent distinct lines, held in
/// recency order ahead of the tick engine.
const FRONT: usize = 16;

/// The single-pass stack-distance engine over abstract line ids.
///
/// [`access`](ReuseStack::access) returns `None` for a first-ever touch
/// (a *cold* reference) or `Some(k)` where `k` is the number of distinct
/// other lines referenced since this line's previous access. A
/// fully-associative LRU cache of `C` lines hits exactly the accesses
/// with `Some(k)` where `k < C`.
///
/// Two tiers answer it. The `FRONT` most recent distinct lines sit in a
/// move-to-front array in recency order, so a hit at position `p` is at
/// distance `p`. Every other line is *deep*: the tick engine holds the
/// tick it was issued when it left the array. Every array line is more
/// recent than every deep line, and ticks are issued in demotion order,
/// which is recency order, so a deep line's distance is `FRONT` plus the
/// live ticks above its own. A line's table slot keeps a stale tick while
/// the line sits in the array; its demotion rewrites it.
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
    /// The front tier, most recent first: the line at distance `p` is
    /// `front[p]`.
    front: [u64; FRONT],
    /// Lines in the front tier; `FRONT` from the `FRONT`-th distinct line
    /// on.
    len: usize,
    last: LastUse,
    live: LiveTicks,
    /// The latest tick issued (one per demotion); ticks start at 1.
    tick: u64,
    /// Distinct lines seen.
    distinct: u64,
    compactions: u64,
}

impl ReuseStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        ReuseStack::default()
    }

    /// Records one access to `line`; returns its stack distance, or
    /// `None` if the line was never seen before.
    #[inline]
    pub fn access(&mut self, line: u64) -> Option<u64> {
        // A full front tier scans a constant `FRONT` slots, which the
        // compiler unrolls.
        let scan = if self.len == FRONT {
            self.scan(line, FRONT)
        } else {
            self.scan(line, self.len)
        };
        match scan {
            Ok(distance) => Some(distance),
            Err(out) => self.access_deep(line, out),
        }
    }

    /// Looks `line` up among the `n` most recent lines, moving each line
    /// it passes back one place and `line` to the front: `Ok` of its
    /// distance, or `Err` of the line pushed out of position `n - 1`
    /// (`line` itself when `n` is 0).
    #[inline(always)]
    fn scan(&mut self, line: u64, n: usize) -> Result<u64, u64> {
        let mut carry = line;
        for (p, slot) in self.front[..n].iter_mut().enumerate() {
            let held = std::mem::replace(slot, carry);
            if held == line {
                return Ok(p as u64);
            }
            carry = held;
        }
        Err(carry)
    }

    /// [`access`](Self::access) for a line outside the front tier: a
    /// first touch, or a deep line whose tick the engine ranks. The line
    /// has taken the front, and `out` has left the tier's end: a full
    /// tier demotes it with a new tick, a filling one keeps it.
    fn access_deep(&mut self, line: u64, out: u64) -> Option<u64> {
        let prev = *self.last.slot(line, self.distinct);
        let deep = self.deep();
        let distance = if prev == 0 {
            self.distinct += 1;
            None
        } else {
            Some(FRONT as u64 + self.live.take(prev, deep))
        };
        if self.len == FRONT {
            self.tick += 1;
            *self.last.slot(out, self.distinct) = self.tick;
            self.live.push(self.tick);
            self.maybe_compact();
        } else {
            self.front[self.len] = out;
            self.len += 1;
        }
        distance
    }

    /// Deep lines, which is also the number of live ticks.
    fn deep(&self) -> u64 {
        self.distinct - self.len as u64
    }

    /// Number of distinct lines seen so far.
    pub fn distinct_lines(&self) -> usize {
        self.distinct as usize
    }

    /// How many times tick compaction ran (telemetry/diagnostics).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether the last-use table has left its pages for the hash map,
    /// which it does once and for good when the lines seen are too
    /// sparse to page (telemetry/diagnostics).
    pub fn is_hashed(&self) -> bool {
        self.last.is_hashed()
    }

    /// Renumbers each live tick to its rank once ticks reach 4x the deep
    /// line count, bounding memory at O(distinct lines). A pass over the
    /// table plus one over the bitset, amortized over the `3 * deep`
    /// demotions since the previous compaction. Array lines' stale ticks
    /// are renumbered too, to values nothing reads.
    fn maybe_compact(&mut self) {
        let deep = self.deep();
        if self.tick < COMPACT_MIN || self.tick < 4 * deep {
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
        self.live.reset_to(deep);
        self.tick = deep;
        self.compactions += 1;
    }
}

/// Buckets of a [`ReuseHistogram`]: bucket 0 holds distance 0 and bucket
/// `b ≥ 1` distances `[2^(b−1), 2^b)`, so 65 cover every `u64`.
const BUCKETS: usize = 65;

/// The bucket of stack distance `d`, which is also the first bucket a
/// `d`-line fully-associative LRU cache misses on when `d` is a power of
/// two (or zero).
fn bucket(d: u64) -> usize {
    (u64::BITS - d.leading_zeros()) as usize
}

/// A log2 reuse-distance histogram: the cold (first-touch) count plus a
/// count per power-of-two bucket of stack distance — bucket 0 is distance
/// 0, bucket `b ≥ 1` is `[2^(b−1), 2^b)`.
///
/// A fully-associative LRU cache of `C = 2^k` lines misses on exactly the
/// distances `≥ 2^k`, which are whole buckets `k + 1` and up, so every
/// power-of-two capacity (and 0) is answered exactly from at most 65
/// counts. Any other capacity is answered at the largest power of two
/// below it: an upper bound on its misses.
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
/// assert_eq!(h.misses_at(3), h.misses_at(2)); // answered at 2 lines
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseHistogram {
    cold: u64,
    /// `counts[b]` = number of accesses with a stack distance in bucket
    /// `b`.
    counts: [u64; BUCKETS],
}

impl Default for ReuseHistogram {
    fn default() -> Self {
        ReuseHistogram {
            cold: 0,
            counts: [0; BUCKETS],
        }
    }
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
    /// The distance lands in its power-of-two bucket; `weight == 0`
    /// records nothing.
    pub fn record_weighted(&mut self, distance: Option<u64>, weight: u64) {
        match distance {
            None => self.cold += weight,
            Some(d) => self.counts[bucket(d)] += weight,
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

    /// The per-bucket counts (index = bucket: 0 is distance 0, `b ≥ 1` is
    /// `[2^(b−1), 2^b)`), up to the last nonzero one.
    pub fn counts(&self) -> &[u64] {
        let len = self
            .counts
            .iter()
            .rposition(|&c| c != 0)
            .map_or(0, |b| b + 1);
        &self.counts[..len]
    }

    /// The largest distance of the top nonzero bucket, `2^b − 1` for
    /// bucket `b`: a bound on the largest stack distance observed, exact
    /// at a power of two minus one. `None` if every access was cold (or
    /// none were recorded).
    pub fn max_distance(&self) -> Option<u64> {
        let b = self.counts().len().checked_sub(1)? as u32;
        Some(u64::MAX.checked_shr(u64::BITS - b).unwrap_or(0))
    }

    /// Adds `other` into `self` element-wise.
    pub fn merge(&mut self, other: &ReuseHistogram) {
        self.cold += other.cold;
        for (acc, &c) in self.counts.iter_mut().zip(&other.counts) {
            *acc += c;
        }
    }

    /// Exact miss count of a fully-associative LRU cache holding
    /// `capacity_lines` lines, for a power of two or 0: every cold access
    /// misses, plus every reuse at distance ≥ capacity. Any other
    /// capacity is answered at the largest power of two below it, an
    /// upper bound on its misses.
    pub fn misses_at(&self, capacity_lines: u64) -> u64 {
        self.cold + self.counts[bucket(capacity_lines)..].iter().sum::<u64>()
    }

    /// Miss ratio (in `[0, 1]`) of a fully-associative LRU cache of
    /// `capacity_lines` lines; 0 when no accesses were recorded. Exact at
    /// a power of two or 0, and rounded down to a power of two otherwise,
    /// as in [`misses_at`](Self::misses_at).
    pub fn miss_ratio_at(&self, capacity_lines: u64) -> f64 {
        ratio(self.misses_at(capacity_lines), self.accesses())
    }

    /// [`miss_ratio_at`](Self::miss_ratio_at) at each of `capacities`
    /// (in lines, ascending): a whole miss-ratio curve.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` is not in ascending order.
    ///
    /// # Example
    ///
    /// ```
    /// use pad_cache_sim::ReuseHistogram;
    ///
    /// let mut h = ReuseHistogram::new();
    /// for d in [None, None, Some(0), Some(1), Some(3)] {
    ///     h.record(d);
    /// }
    /// let caps = h.pow2_capacities();
    /// let curve: Vec<f64> = caps.iter().map(|&c| h.miss_ratio_at(c)).collect();
    /// assert_eq!(h.miss_ratios(&caps), curve);
    /// ```
    pub fn miss_ratios(&self, capacities: &[u64]) -> Vec<f64> {
        assert!(
            capacities.is_sorted(),
            "capacities must be in ascending order"
        );
        capacities.iter().map(|&c| self.miss_ratio_at(c)).collect()
    }

    /// The power-of-two capacities worth querying: 1, 2, 4, ... up to and
    /// including the first capacity at which only cold misses remain
    /// (2^63 at most).
    pub fn pow2_capacities(&self) -> Vec<u64> {
        let top = self.counts().len().saturating_sub(1).min(63);
        (0..=top).map(|b| 1u64 << b).collect()
    }
}

/// `misses / accesses`, or 0 when no accesses were recorded.
fn ratio(misses: u64, accesses: u64) -> f64 {
    if accesses == 0 {
        0.0
    } else {
        misses as f64 / accesses as f64
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

    /// Number of distinct lines seen so far.
    pub fn distinct_lines(&self) -> usize {
        self.stack.distinct_lines()
    }

    /// Tick-compaction count (telemetry/diagnostics).
    pub fn compactions(&self) -> u64 {
        self.stack.compactions()
    }

    /// Whether the walk's last-use table went to the hash map
    /// ([`ReuseStack::is_hashed`]).
    pub fn is_hashed(&self) -> bool {
        self.stack.is_hashed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::NaiveStack;
    use crate::rng::XorShift64Star;

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
        // `FRONT + 1` lines cycled for far longer than COMPACT_MIN: every
        // access demotes a line, so ticks keep growing and compaction must
        // fire — and distances must stay exactly `FRONT` throughout.
        const LINES: u64 = FRONT as u64 + 1;
        let mut s = ReuseStack::new();
        for line in 0..LINES {
            assert_eq!(s.access(line), None);
        }
        for i in 0..3 * COMPACT_MIN {
            assert_eq!(s.access(i % LINES), Some(FRONT as u64), "at access {i}");
        }
        assert!(s.compactions() > 0, "compaction never ran");
        assert!(
            s.tick <= COMPACT_MIN + 4 * s.deep(),
            "ticks grew unboundedly: {} ticks for {} deep lines",
            s.tick,
            s.deep()
        );
        // The bitset spans the ticks (with the window zero-padded to
        // HOT_WORDS words), not the accesses.
        assert_eq!(
            s.live.words.len() as u64,
            (s.tick / 64 + 1).max(HOT_WORDS as u64)
        );
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

    /// `(pages, directory entries)` of a paged table, or `None` once it
    /// has become a hash map.
    fn paging(s: &ReuseStack) -> Option<(u64, usize)> {
        match &s.last {
            LastUse::Paged { dir, pages, .. } => Some((*pages, dir.len())),
            LastUse::Hashed(_) => None,
        }
    }

    /// Feeds `lines` to the engine and the naive stack side by side,
    /// checking after every access that a paged table holds no more page
    /// slots plus directory entries than the span bound allows.
    fn assert_matches_naive(s: &mut ReuseStack, lines: impl IntoIterator<Item = u64>) {
        let mut naive = NaiveStack::default();
        for (i, line) in lines.into_iter().enumerate() {
            assert_eq!(
                s.access(line),
                naive.access(line),
                "access {i} (line {line:#x})"
            );
            if let Some((pages, entries)) = paging(s) {
                let held = (pages << PAGE_SHIFT) + entries as u64;
                let budget = SPAN_FACTOR * s.distinct + SPAN_SLACK;
                assert!(held <= budget, "access {i}: {held} slots > {budget}");
            }
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
        assert!(s.is_hashed(), "sparse lines convert to a hash map");
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
        // One page per array, one directory entry per page of the span.
        assert_eq!(paging(&s), Some((2, 40)));
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
                assert!(!s.is_hashed(), "dense prefix stays paged");
            }
        }
        assert!(s.is_hashed(), "the far pool forced the hash map");
        assert!(s.compactions() > 0);
    }

    #[test]
    fn lines_below_the_table_base_grow_it_downwards() {
        // A descending stream starts the table at its highest line; every
        // new page lands below the base.
        let mut s = ReuseStack::new();
        let lines = (0..3 * COMPACT_MIN).map(|i| 1_000_000 - (i % 2_000) * 3);
        assert_matches_naive(&mut s, lines);
        let (pages, entries) = paging(&s).expect("a dense descending stream stays paged");
        // Lines 994_003..=1_000_000 lie on pages 970..=976; growing
        // downwards at most doubles the directory.
        assert_eq!(pages, 7);
        assert!(entries <= 2 * 7, "{entries} directory entries");
        assert!(s.compactions() > 0);
    }

    #[test]
    fn wrapped_line_ids_near_the_top_of_the_range_are_exact() {
        // Line ids either side of the u64 wrap point are neighbours in a
        // table indexed modulo 2^64.
        let mut rng = XorShift64Star::new(5);
        let mut s = ReuseStack::new();
        let lines: Vec<u64> = (0..2 * COMPACT_MIN)
            .map(|_| rng.below(128).wrapping_sub(64))
            .collect();
        assert_matches_naive(&mut s, lines);
        // The 128-line span touches the last page and the first: two
        // pages, two directory entries.
        assert_eq!(paging(&s), Some((2, 2)));
        let mut far = ReuseStack::new();
        assert_matches_naive(&mut far, [u64::MAX, 0, u64::MAX / 2, u64::MAX, 0, 1]);
    }

    #[test]
    fn page_numbers_wrapping_at_u64_max_stay_paged() {
        // Sweeps across the wrap point, downwards from line 4_999 and
        // upwards from line -5_000, then random reuse over the span:
        // pages -5..=-1 and 0..=4 are neighbours in the directory.
        let mut rng = XorShift64Star::new(13);
        for down in [true, false] {
            let sweep = (0..2_500u64).map(|i| {
                let up = i * 4;
                if down {
                    4_999u64.wrapping_sub(up)
                } else {
                    up.wrapping_sub(5_000)
                }
            });
            let reuse: Vec<u64> = (0..COMPACT_MIN)
                .map(|_| (rng.below(2_500) * 4).wrapping_sub(5_000))
                .collect();
            let mut s = ReuseStack::new();
            assert_matches_naive(&mut s, sweep.chain(reuse));
            let (pages, entries) = paging(&s).expect("the wrapped span stays paged");
            assert_eq!(pages, 10, "descending {down}");
            assert!(entries <= 2 * 10, "descending {down}: {entries} entries");
        }
    }

    #[test]
    fn round_robin_first_touches_of_many_large_arrays_stay_paged() {
        // 17 arrays of 2^16 lines, touched round-robin from the first
        // access (as a loop over many arrays does): the span reaches
        // 17 * 2^16 lines while only a handful are known, but each array
        // costs one page.
        const ARRAYS: u64 = 17;
        let mut rng = XorShift64Star::new(17);
        let sweep = (0..256u64).flat_map(|j| (0..ARRAYS).map(move |a| (a << 16) + j));
        let reuse: Vec<u64> = (0..2 * COMPACT_MIN)
            .map(|_| (rng.below(ARRAYS) << 16) + rng.below(300))
            .collect();
        let mut s = ReuseStack::new();
        assert_matches_naive(&mut s, sweep.chain(reuse));
        assert!(!s.is_hashed(), "a dense round-robin walk stays paged");
        assert_eq!(paging(&s).map(|(pages, _)| pages), Some(ARRAYS));
    }

    #[test]
    fn the_table_grows_within_the_span_budget_until_it_hashes() {
        // Lines drawn from a range that doubles every 256 accesses: the
        // table pages the dense start, then (checked after every access
        // by `assert_matches_naive`) stops at the budget and hashes.
        let mut rng = XorShift64Star::new(19);
        let lines: Vec<u64> = (0..3_000u64)
            .map(|i| rng.below(1 << (10 + i / 256)))
            .collect();
        let mut start = ReuseStack::new();
        assert_matches_naive(&mut start, lines[..512].iter().copied());
        assert!(!start.is_hashed(), "the dense start stays paged");
        let mut s = ReuseStack::new();
        assert_matches_naive(&mut s, lines);
        assert!(s.is_hashed(), "the sparse tail exceeds the budget");
    }

    /// The window's live counts are its words' popcounts.
    fn assert_window_counts(s: &ReuseStack) {
        let window = &s.live.words[s.live.frozen()..];
        let popcounts: Vec<u64> = window.iter().map(|w| u64::from(w.count_ones())).collect();
        assert_eq!(popcounts, s.live.hot, "at tick {}", s.tick);
    }

    #[test]
    fn reuses_at_the_hot_window_boundary_match_naive() {
        // After `n` first touches, lines `0..n - FRONT` have left the array
        // in order, so line `t - 1` holds tick `t`. Reuse the newest
        // frozen tick, or the oldest hot one, for many `n`.
        let front = FRONT as u64;
        for n in (4 * 64 + front..9 * 64 + front).step_by(5) {
            for hot in [false, true] {
                let mut s = ReuseStack::new();
                let mut naive = NaiveStack::default();
                for line in 0..n {
                    assert_eq!(s.access(line), naive.access(line));
                }
                let edge = s.live.frozen() as u64 * 64;
                assert!(edge > 0, "n = {n} freezes words");
                let tick = if hot { edge } else { edge - 1 };
                let line = tick - 1;
                assert_eq!(s.access(line), naive.access(line), "n {n}, tick {tick}");
                // The newest and oldest remaining lines on either side.
                for line in [n - 1, 0, edge, line.saturating_sub(1)] {
                    assert_eq!(s.access(line), naive.access(line), "n {n}, line {line}");
                    assert_window_counts(&s);
                }
            }
        }
    }

    #[test]
    fn compactions_with_live_hot_words_match_naive() {
        // 600 lines: after a compaction the ticks fill ten words, four of
        // them hot, so reuses take both paths on the renumbered ticks.
        let mut rng = XorShift64Star::new(23);
        let mut s = ReuseStack::new();
        let mut naive = NaiveStack::default();
        let mut compactions = 0;
        for i in 0..4 * COMPACT_MIN {
            let line = rng.below(600);
            assert_eq!(s.access(line), naive.access(line), "access {i}");
            if s.compactions() > compactions {
                compactions = s.compactions();
                let frozen = s.live.frozen();
                assert_eq!(s.live.words.len(), frozen + HOT_WORDS);
                assert!(frozen > 0, "ticks 1..={} reach past the window", s.tick);
                assert!(s.live.words[frozen..].iter().any(|&w| w != 0));
                assert_window_counts(&s);
            }
        }
        assert!(compactions >= 2, "{compactions} compactions");
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
    fn histogram_buckets_span_every_u64_distance() {
        let mut h = ReuseHistogram::new();
        for d in [0, 1, 2, 3, 4, 7, 8, u64::MAX >> 1, u64::MAX] {
            h.record(Some(d));
        }
        // Buckets 0, 1, 2, 2, 3, 3, 4, 63, 64.
        assert_eq!(h.counts().len(), BUCKETS);
        assert_eq!(h.counts()[2], 2);
        assert_eq!(h.counts()[3], 2);
        assert_eq!(h.max_distance(), Some(u64::MAX));
        assert_eq!(h.misses_at(0), 9);
        assert_eq!(h.misses_at(4), 5); // 4 and up: 4, 7, 8, 2^63 - 1, u64::MAX
        assert_eq!(h.misses_at(5), h.misses_at(4)); // answered at 4 lines
        assert_eq!(h.misses_at(1 << 63), 1);
        assert_eq!(h.misses_at(u64::MAX), 1);
        let caps = h.pow2_capacities();
        assert_eq!(caps.len(), 64);
        assert_eq!(caps.last(), Some(&(1 << 63)));
        let mut empty = ReuseHistogram::new();
        assert_eq!(empty.max_distance(), None);
        empty.record(Some(0));
        assert_eq!(empty.max_distance(), Some(0));
        assert_eq!(empty.pow2_capacities(), vec![1]);
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
        // Distance 5 is in bucket 3, [4, 8).
        assert_eq!(merged.counts()[3], 1);
        // Merging in the other order gives the identical value.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(merged, other);
    }

    #[test]
    fn miss_ratios_match_miss_ratio_at_bit_for_bit() {
        let mut rng = XorShift64Star::new(29);
        let mut h = ReuseHistogram::new();
        assert_eq!(h.miss_ratios(&[0, 1, 8]), vec![0.0; 3]);
        for _ in 0..5_000 {
            let span = 1 << rng.below(12);
            h.record((rng.below(8) != 0).then(|| rng.below(span)));
        }
        let mut caps = h.pow2_capacities();
        caps.extend([0, 3, 3, 100, 1 << 20, u64::MAX]);
        caps.sort_unstable();
        let expected: Vec<u64> = caps.iter().map(|&c| h.miss_ratio_at(c).to_bits()).collect();
        let got: Vec<u64> = h.miss_ratios(&caps).iter().map(|r| r.to_bits()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn miss_ratios_reject_unsorted_capacities() {
        let _ = ReuseHistogram::new().miss_ratios(&[4, 2]);
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
