//! The walk memo: each (access stream, sink) simulated once per run.
//!
//! A figure sweep simulates a kernel's original, PADLITE and PAD layouts
//! on overlapping caches, and wherever a heuristic leaves a layout
//! unchanged the same stream meets the same cache again; the advisor's
//! exact answers walk layouts a search's confirmations already walked.
//! A [`WalkMemo`] installed on a thread ([`WalkMemo::run`]) makes
//! [`crate::simulate_batch`] look each requested sink up first and walk
//! once for the sinks it lacks, or not at all.
//!
//! **Key.** The compiled access stream, fingerprinted after compiling:
//! every loop's bounds and step and every reference's address form, with
//! bases and element sizes folded in, and its write flag — not the
//! program's name or display form, so identical streams share entries —
//! plus the sink's `Spec`: its kind and full configuration (size, line,
//! ways, replacement, write policy and index function of every cache;
//! victim lines; line size and sample exponent of a reuse analysis). Keys
//! are 128 bits from two SipHash instances under random per-memo keys.
//!
//! **Entries.** Results as words: a plain cache's eight counters, a
//! classified cache's eleven, a victim cache's four, eight per
//! hierarchy level, and a reuse histogram's cold count and buckets up to
//! the last nonzero one, each stored and restored by its own `Spec`. At
//! most [`WALK_MEMO_CAPACITY`] are kept, the oldest evicted first. Heat
//! sinks get no key: their reports grow with the set count.
//!
//! **Concurrency.** A call claims the sinks it walks; another call that
//! wants a claimed sink waits for it rather than walking it again, and
//! walks it itself only if the claimant panicked. A call waits only
//! after publishing its own claims, so two calls never wait on each
//! other.
//!
//! **Scope.** Nothing is memoized unless a memo is installed: a
//! `simulate_batch` outside one walks every sink, as it always did.
//! `pad_bench::pool` runs its claimer threads under the submitting
//! thread's memo, so a pooled run shares one.

use std::cell::RefCell;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use pad_cache_sim::{CacheStats, ClassifiedStats, LevelStats, ReuseHistogram, VictimStats};

use crate::batch::{walk, BatchRequest, BatchResults, Outcome, Spec};
use crate::compiled::CompiledTrace;

/// Results a [`WalkMemo`] holds before each insert evicts its oldest.
pub const WALK_MEMO_CAPACITY: usize = 4096;

thread_local! {
    static INSTALLED: RefCell<Option<Arc<WalkMemo>>> = const { RefCell::new(None) };
}

/// A bounded memo of simulation results, shared by every thread it is
/// installed on (see the module docs).
pub struct WalkMemo {
    entries: Mutex<Entries>,
    /// Signalled whenever claims are released.
    released: Condvar,
    hashers: [RandomState; 2],
    hits: AtomicU64,
    misses: AtomicU64,
    walks: AtomicU64,
}

/// What a [`WalkMemo`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Sinks answered from the memo, including those another call was
    /// walking.
    pub hits: u64,
    /// Sinks walked because the memo lacked them.
    pub misses: u64,
    /// `simulate_batch` walks of a stream.
    pub walks: u64,
    /// Results held now.
    pub entries: usize,
}

/// Entries by key, with keys in insertion order for eviction, and the
/// keys some call is walking now.
#[derive(Default)]
struct Entries {
    map: HashMap<u128, Box<[u64]>>,
    order: VecDeque<u128>,
    claimed: HashSet<u128>,
}

impl Entries {
    /// Inserts a result the memo lacked (only a claim's holder inserts,
    /// and only a key absent from the map can be claimed), evicting the
    /// oldest first when full, so neither collection outgrows the bound.
    fn insert(&mut self, key: u128, words: Box<[u64]>) {
        if self.order.len() == WALK_MEMO_CAPACITY {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, words);
        self.order.push_back(key);
    }
}

impl std::fmt::Debug for WalkMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalkMemo")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for WalkMemo {
    fn default() -> Self {
        WalkMemo::new()
    }
}

impl WalkMemo {
    /// An empty memo.
    pub fn new() -> Self {
        WalkMemo {
            entries: Mutex::default(),
            released: Condvar::new(),
            hashers: [RandomState::new(), RandomState::new()],
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            walks: AtomicU64::new(0),
        }
    }

    /// The memo installed on the calling thread, if any.
    pub fn installed() -> Option<Arc<WalkMemo>> {
        INSTALLED.with(|m| m.borrow().clone())
    }

    /// Runs `f` with this memo installed on the calling thread, then
    /// reinstates whatever was installed before, also when `f` panics.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pad_cache_sim::CacheConfig;
    /// use pad_core::DataLayout;
    /// use pad_trace::{simulate_batch, BatchRequest, WalkMemo};
    ///
    /// let program = pad_kernels::jacobi::spec(32);
    /// let layout = DataLayout::original(&program);
    /// let request = BatchRequest::new().with_plain(CacheConfig::paper_base());
    /// let memo = Arc::new(WalkMemo::new());
    /// let (cold, warm) = memo.run(|| {
    ///     let cold = simulate_batch(&program, &layout, &request);
    ///     (cold, simulate_batch(&program, &layout, &request))
    /// });
    /// assert_eq!(cold, warm);
    /// assert_eq!((memo.stats().walks, memo.stats().hits), (1, 1));
    /// assert!(WalkMemo::installed().is_none());
    /// ```
    pub fn run<T>(self: &Arc<Self>, f: impl FnOnce() -> T) -> T {
        struct Reinstate(Option<Arc<WalkMemo>>);
        impl Drop for Reinstate {
            fn drop(&mut self) {
                let previous = self.0.take();
                INSTALLED.with(|m| *m.borrow_mut() = previous);
            }
        }
        let _reinstate = Reinstate(INSTALLED.with(|m| m.replace(Some(Arc::clone(self)))));
        f()
    }

    /// Lookups, walks and entries so far.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            walks: self.walks.load(Ordering::Relaxed),
            entries: self.lock().map.len(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Entries> {
        // Every update leaves the entries whole, so a panic elsewhere
        // while the lock was held leaves nothing half-written.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`crate::simulate_batch`] under this memo: every memoized sink of
    /// `request` from its entry, the rest (and every heat sink) from one
    /// walk of `trace`, whose results are then memoized. A sink another
    /// call is walking is waited for, then looked up again.
    pub(crate) fn simulate(&self, trace: &CompiledTrace, request: &BatchRequest) -> BatchResults {
        let stream = self.stream(trace);
        let specs = &request.specs;
        // Heat sinks get no key: the first walk feeds them.
        let keys: Vec<Option<u128>> = (specs.iter())
            .map(|spec| spec.memoized().then(|| key(&stream, spec)))
            .collect();
        let mut found: Vec<Option<Outcome>> = specs.iter().map(|_| None).collect();
        let mut todo: Vec<usize> = (0..specs.len()).collect();
        let mut missed = 0;
        while !todo.is_empty() {
            // Indices into `specs` this pass walks, and those (with their
            // keys) another call is walking now.
            let (mut mine, mut waits) = (Vec::new(), Vec::new());
            let mut claim = Claim {
                memo: self,
                keys: Vec::new(),
            };
            {
                let mut entries = self.lock();
                for i in todo {
                    let Some(key) = keys[i] else {
                        mine.push(i);
                        continue;
                    };
                    if let Some(words) = entries.map.get(&key) {
                        found[i] = Some(decode(&specs[i], words));
                    } else if !entries.claimed.insert(key) {
                        waits.push((i, key));
                    } else {
                        claim.keys.push(key);
                        mine.push(i);
                    }
                }
            }
            if !mine.is_empty() {
                self.walks.fetch_add(1, Ordering::Relaxed);
                let to_walk = BatchRequest {
                    specs: mine.iter().map(|&i| specs[i].clone()).collect(),
                };
                let outcomes = walk(trace, &to_walk);
                missed += claim.keys.len();
                let walked = mine.iter().zip(&outcomes);
                claim.publish(walked.filter_map(|(&i, o)| Some((keys[i]?, encode(o)))));
                for (i, outcome) in mine.into_iter().zip(outcomes) {
                    found[i] = Some(outcome);
                }
            }
            drop(claim);
            if !waits.is_empty() {
                let mut entries = self.lock();
                while waits.iter().any(|(_, key)| entries.claimed.contains(key)) {
                    entries = (self.released.wait(entries)).unwrap_or_else(PoisonError::into_inner);
                }
            }
            // Usually hits now; a sink whose walk panicked is claimed
            // and walked here.
            todo = waits.into_iter().map(|(i, _)| i).collect();
        }
        let looked_up = keys.iter().flatten().count();
        self.record((looked_up - missed) as u64, missed as u64);
        BatchResults::from_outcomes(found.into_iter().map(|o| o.expect("every sink answered")))
    }

    /// Both key hashers, fed `trace`'s stream; [`key`] finishes them.
    fn stream(&self, trace: &CompiledTrace) -> [DefaultHasher; 2] {
        self.hashers.each_ref().map(|s| {
            let mut h = s.build_hasher();
            trace.hash_stream(&mut h);
            h
        })
    }

    /// Counts one call's lookups, here and, with metrics on, in
    /// `pad_sim_memo_total{outcome="hit"|"miss"}`.
    fn record(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        if !pad_telemetry::metrics_enabled() {
            return;
        }
        static COUNTERS: OnceLock<[Arc<pad_telemetry::Counter>; 2]> = OnceLock::new();
        let [hit, miss] = COUNTERS.get_or_init(|| {
            ["hit", "miss"].map(|outcome| {
                pad_telemetry::registry()
                    .counter_with("pad_sim_memo_total", &[("outcome", outcome)])
            })
        });
        hit.add(hits);
        miss.add(misses);
    }
}

/// The keys one call is walking. Publishing or dropping it releases
/// them, so a call that panics mid-walk leaves no one waiting.
struct Claim<'m> {
    memo: &'m WalkMemo,
    keys: Vec<u128>,
}

impl Claim<'_> {
    /// Memoizes the walked results and releases their keys.
    fn publish(&mut self, results: impl Iterator<Item = (u128, Box<[u64]>)>) {
        let mut entries = self.memo.lock();
        for (key, words) in results {
            entries.insert(key, words);
        }
        self.release(&mut entries);
    }

    fn release(&mut self, entries: &mut Entries) {
        for key in self.keys.drain(..) {
            entries.claimed.remove(&key);
        }
        self.memo.released.notify_all();
    }
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        if !self.keys.is_empty() {
            let mut entries = self.memo.lock();
            self.release(&mut entries);
        }
    }
}

/// The memo key of `spec` on the stream `stream` was fed.
fn key(stream: &[DefaultHasher; 2], spec: &Spec) -> u128 {
    let [hi, lo] = stream.clone().map(|mut h| {
        spec.hash(&mut h);
        h.finish()
    });
    (u128::from(hi) << 64) | u128::from(lo)
}

fn stats_words(s: &CacheStats) -> [u64; 8] {
    [
        s.accesses,
        s.reads,
        s.writes,
        s.hits,
        s.misses,
        s.read_misses,
        s.write_misses,
        s.writebacks,
    ]
}

fn stats_from(w: &[u64]) -> CacheStats {
    CacheStats {
        accesses: w[0],
        reads: w[1],
        writes: w[2],
        hits: w[3],
        misses: w[4],
        read_misses: w[5],
        write_misses: w[6],
        writebacks: w[7],
    }
}

/// A memoized sink's outcome as memo words.
fn encode(outcome: &Outcome) -> Box<[u64]> {
    match outcome {
        Outcome::Plain(stats) => Box::new(stats_words(stats)),
        Outcome::Classified(c) => (stats_words(&c.cache).into_iter())
            .chain([c.compulsory, c.capacity, c.conflict])
            .collect(),
        Outcome::Victim(v) => Box::new([v.accesses, v.main_hits, v.victim_hits, v.misses]),
        Outcome::Hierarchy(levels) => levels.iter().flat_map(|l| stats_words(&l.stats)).collect(),
        Outcome::Reuse(hist) => std::iter::once(hist.cold())
            .chain(hist.counts().iter().copied())
            .collect(),
        Outcome::Heat(_) => unreachable!("heat sinks get no key"),
    }
}

/// The outcome of `spec` from the words [`encode`] made of it.
fn decode(spec: &Spec, w: &[u64]) -> Outcome {
    match spec {
        Spec::Plain(_) => Outcome::Plain(stats_from(w)),
        Spec::Classified(_) => Outcome::Classified(ClassifiedStats {
            cache: stats_from(w),
            compulsory: w[8],
            capacity: w[9],
            conflict: w[10],
        }),
        Spec::Victim(..) => Outcome::Victim(VictimStats {
            accesses: w[0],
            main_hits: w[1],
            victim_hits: w[2],
            misses: w[3],
        }),
        Spec::Hierarchy(_) => Outcome::Hierarchy(
            (w.chunks_exact(8).enumerate())
                .map(|(level, w)| LevelStats {
                    level,
                    stats: stats_from(w),
                })
                .collect(),
        ),
        Spec::Reuse(..) => {
            let mut hist = ReuseHistogram::new();
            hist.record_weighted(None, w[0]);
            for (bucket, &count) in w[1..].iter().enumerate() {
                // Bucket 0 is distance 0; bucket b ≥ 1 starts at 2^(b−1).
                let distance = bucket.checked_sub(1).map_or(0, |b| 1u64 << b);
                hist.record_weighted(Some(distance), count);
            }
            Outcome::Reuse(Box::new(hist))
        }
        Spec::Heat(_) => unreachable!("heat sinks get no key"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pad_cache_sim::{Access, CacheConfig, ReuseAnalyzer};
    use pad_core::DataLayout;

    /// The results `words` decode to as `spec`'s.
    fn decoded(spec: &Spec, words: &[u64]) -> BatchResults {
        BatchResults::from_outcomes([decode(spec, words)])
    }

    #[test]
    fn entries_decode_to_the_histogram_they_encode() {
        let mut r = ReuseAnalyzer::new(1);
        for i in 0..5_000u64 {
            r.access(Access::read(i * i % 1_021));
        }
        let mut wide = ReuseHistogram::new();
        for d in [0, 1, 2, 3, 1 << 40, u64::MAX] {
            wide.record(Some(d));
        }
        for hist in [ReuseHistogram::new(), r.histogram().clone(), wide] {
            let words = encode(&Outcome::Reuse(Box::new(hist.clone())));
            assert_eq!(words.len(), 1 + hist.counts().len());
            assert_eq!(decoded(&Spec::Reuse(1, 0), &words).reuse, [hist]);
        }
    }

    #[test]
    fn entries_decode_to_the_stats_they_encode() {
        let stats = |k: u64| CacheStats {
            accesses: k,
            reads: k + 1,
            writes: k + 2,
            hits: k + 3,
            misses: k + 4,
            read_misses: k + 5,
            write_misses: k + 6,
            writebacks: k + 7,
        };
        let dm = CacheConfig::direct_mapped(1024, 32);
        let words = encode(&Outcome::Plain(stats(1)));
        assert_eq!(decoded(&Spec::Plain(dm), &words).plain, [stats(1)]);
        let classified = ClassifiedStats {
            cache: stats(10),
            compulsory: 1,
            capacity: 2,
            conflict: 3,
        };
        let words = encode(&Outcome::Classified(classified));
        assert_eq!(
            decoded(&Spec::Classified(dm), &words).classified,
            [classified]
        );
        let victim = VictimStats {
            accesses: 9,
            main_hits: 5,
            victim_hits: 3,
            misses: 1,
        };
        let words = encode(&Outcome::Victim(victim));
        assert_eq!(decoded(&Spec::Victim(dm, 4), &words).victim, [victim]);
        let levels: Vec<LevelStats> = (0..3)
            .map(|level| LevelStats {
                level,
                stats: stats(100 * level as u64),
            })
            .collect();
        let words = encode(&Outcome::Hierarchy(levels.clone()));
        let hierarchy = Spec::Hierarchy(vec![dm; 3]);
        assert_eq!(decoded(&hierarchy, &words).hierarchy, [levels]);
    }

    #[test]
    fn keys_separate_layouts_and_line_sizes() {
        let memo = WalkMemo::new();
        let reuse_key = |program: &pad_ir::Program, layout: &DataLayout, line: u64| {
            let trace = CompiledTrace::compile(program, layout);
            key(&memo.stream(&trace), &Spec::Reuse(line, 0))
        };
        let program = pad_kernels::jacobi::spec(32);
        let original = DataLayout::original(&program);
        let mut moved = original.clone();
        let (id, _) = program.arrays_with_ids().nth(1).expect("two arrays");
        moved.set_base_addr(id, original.base_addr(id) + 64);
        let k = reuse_key(&program, &original, 32);
        assert_eq!(k, reuse_key(&program, &original.clone(), 32), "stable");
        assert_ne!(k, reuse_key(&program, &moved, 32), "layout");
        assert_ne!(k, reuse_key(&program, &original, 64), "line size");

        // Twins that differ only in the last array's element size: equal
        // bases and dims at the original layout, but 8- against 4-byte
        // strides through `B`.
        let twin = |name: &str, elem: &str| {
            pad_ir::parse(&format!(
                "program {name}\narray A(64, 64)\narray B(64, 64){elem}\n\
                 do j = 1, 64\n  do i = 1, 64\n    t = A(i, j) + B(i, j)\n  end\nend\n"
            ))
            .expect("twin parses")
        };
        let (eight, four) = (twin("twin", ""), twin("twin", " elem 4"));
        let (at8, at4) = (DataLayout::original(&eight), DataLayout::original(&four));
        for (id, _) in eight.arrays_with_ids() {
            assert_eq!(
                (at8.base_addr(id), at8.dims(id)),
                (at4.base_addr(id), at4.dims(id))
            );
        }
        assert_ne!(
            reuse_key(&eight, &at8, 32),
            reuse_key(&four, &at4, 32),
            "element size"
        );
        // The name is not part of the stream.
        let renamed = twin("other", "");
        assert_eq!(
            reuse_key(&eight, &at8, 32),
            reuse_key(&renamed, &DataLayout::original(&renamed), 32),
            "name"
        );
    }
}
