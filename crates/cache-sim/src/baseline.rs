//! The original pointer-chasing cache model, kept as a reference.
//!
//! [`crate::Cache`] now stores its lines in a single contiguous
//! `sets × ways` array with a same-line fast path. This module preserves
//! the original `Vec<Vec<Line>>` implementation verbatim so that the
//! equivalence suite can assert, access for access, that the optimized
//! model produces identical [`AccessOutcome`] sequences and statistics
//! under every replacement policy, write policy, and index function. It
//! is also the "seed serial path" baseline the simulator-throughput
//! benchmark measures speedups against.
//!
//! Do not optimize this module: its value is being the simple, obviously
//! correct model.

use crate::cache::{Access, AccessOutcome};
use crate::config::{CacheConfig, WritePolicy};
use crate::replacement::ReplacementPolicy;
use crate::stats::CacheStats;

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// LRU timestamp or FIFO insertion order, depending on policy.
    order: u64,
}

/// The original single-level set-associative cache model
/// (`Vec<Vec<Line>>` storage, per-access linear search, no fast paths).
///
/// A reference oracle only: the equivalence suites, `bench_simulator`'s
/// seed engine and the benchmark's output checks compare against it,
/// while every production simulation runs [`crate::Cache`].
#[derive(Debug, Clone)]
pub struct BaselineCache {
    config: CacheConfig,
    /// `sets[s]` holds up to `ways` valid lines.
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    tick: u64,
    /// Deterministic xorshift state for random replacement.
    rng_state: u64,
}

impl BaselineCache {
    /// Creates an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets() as usize;
        BaselineCache {
            config,
            sets: vec![Vec::new(); num_sets],
            stats: CacheStats::default(),
            tick: 0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated since construction.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Performs one access and updates statistics.
    pub fn access(&mut self, access: Access) -> AccessOutcome {
        self.tick += 1;
        self.stats.record_access(access.is_write);

        let set_idx = self.config.set_of(access.addr) as usize;
        let tag = self.config.tag_of(access.addr);
        let lru = self.config.replacement() == ReplacementPolicy::Lru;
        let tick = self.tick;

        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
            if lru {
                line.order = tick;
            }
            line.dirty |=
                access.is_write && self.config.write_policy() == WritePolicy::WriteBackAllocate;
            self.stats.record_hit(access.is_write);
            return AccessOutcome {
                hit: true,
                writeback: false,
                evicted: None,
            };
        }

        // Miss.
        self.stats.record_miss(access.is_write);
        if access.is_write && self.config.write_policy() == WritePolicy::WriteThroughNoAllocate {
            // Store miss without allocation: memory is updated directly.
            return AccessOutcome {
                hit: false,
                writeback: false,
                evicted: None,
            };
        }

        let mut writeback = false;
        let mut evicted = None;
        if set.len() == self.config.ways() as usize {
            let victim_idx = self.pick_victim(set_idx);
            let victim = self.sets[set_idx].swap_remove(victim_idx);
            writeback = victim.dirty;
            evicted = Some(self.config.line_addr_from(set_idx as u64, victim.tag));
            if writeback {
                self.stats.writebacks += 1;
            }
        }
        let dirty = access.is_write && self.config.write_policy() == WritePolicy::WriteBackAllocate;
        self.sets[set_idx].push(Line {
            tag,
            dirty,
            order: tick,
        });
        AccessOutcome {
            hit: false,
            writeback,
            evicted,
        }
    }

    /// Runs a whole trace through the cache.
    pub fn run<I: IntoIterator<Item = Access>>(&mut self, trace: I) {
        for access in trace {
            self.access(access);
        }
    }

    /// True if the line containing `addr` is currently resident.
    pub fn contains(&self, addr: u64) -> bool {
        let set = &self.sets[self.config.set_of(addr) as usize];
        let tag = self.config.tag_of(addr);
        set.iter().any(|l| l.tag == tag)
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn pick_victim(&mut self, set_idx: usize) -> usize {
        let set = &self.sets[set_idx];
        match self.config.replacement() {
            // For LRU `order` is the last-use tick; for FIFO it is the
            // allocation tick. Either way the minimum is the victim.
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.order)
                .map(|(i, _)| i)
                .expect("victim selection only runs on full sets"),
            ReplacementPolicy::Random => {
                // xorshift64*
                let mut x = self.rng_state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng_state = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % set.len() as u64) as usize
            }
        }
    }
}
