//! Victim caches (Jouppi, ISCA 1990).
//!
//! The paper's related work lists the victim cache as the classic
//! *hardware* remedy for conflict misses: a small fully-associative
//! buffer that catches lines just evicted from a direct-mapped cache, so
//! ping-ponging pairs hit the buffer instead of memory. Implementing it
//! lets the ablation benches answer the natural question: how much of the
//! padding win would a 4-line victim buffer have delivered for free?

use std::fmt;

use crate::cache::{Access, Cache};
use crate::config::{CacheConfig, WritePolicy};

/// Statistics of a [`VictimCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VictimStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits in the main cache.
    pub main_hits: u64,
    /// Main-cache misses rescued by the victim buffer.
    pub victim_hits: u64,
    /// Misses that went all the way to memory.
    pub misses: u64,
}

impl VictimStats {
    /// Miss rate to memory, in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Miss rate as a percentage.
    pub fn miss_rate_percent(&self) -> f64 {
        100.0 * self.miss_rate()
    }
}

impl fmt::Display for VictimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} main hits, {} victim hits, {} misses ({:.2}%)",
            self.accesses,
            self.main_hits,
            self.victim_hits,
            self.misses,
            self.miss_rate_percent()
        )
    }
}

/// A main cache augmented with a small fully-associative victim buffer.
///
/// On a main-cache miss the victim buffer is probed; a buffer hit swaps
/// the line back into the main cache (and the main cache's evictee into
/// the buffer), costing no memory access. Evicted main-cache lines always
/// enter the buffer, displacing the entry that entered first.
///
/// Under [`WritePolicy::WriteThroughNoAllocate`] a store that misses the
/// main cache allocates nothing there. If the buffer holds its line, the
/// store is a victim hit that writes the buffered line in place: the line
/// stays in the buffer at its position, and nothing else moves.
///
/// # Example
///
/// ```
/// use pad_cache_sim::{Access, CacheConfig, VictimCache};
///
/// // Two addresses that thrash a direct-mapped cache...
/// let mut vc = VictimCache::new(CacheConfig::direct_mapped(128, 32), 4);
/// for _ in 0..10 {
///     vc.access(Access::read(0));
///     vc.access(Access::read(128));
/// }
/// // ...ping-pong within the victim buffer after the two cold misses.
/// assert_eq!(vc.stats().misses, 2);
/// ```
#[derive(Debug, Clone)]
pub struct VictimCache {
    main: Cache,
    /// Victim lines, most recently inserted last.
    buffer: Vec<u64>,
    capacity: usize,
    stats: VictimStats,
}

impl VictimCache {
    /// Creates a victim-buffered cache with `victim_lines` buffer
    /// entries (Jouppi found 1–5 entries remove most conflict misses).
    ///
    /// # Panics
    ///
    /// Panics if `victim_lines == 0`.
    pub fn new(config: CacheConfig, victim_lines: usize) -> Self {
        assert!(victim_lines > 0, "a victim cache needs at least one line");
        VictimCache {
            main: Cache::new(config),
            buffer: Vec::with_capacity(victim_lines),
            capacity: victim_lines,
            stats: VictimStats::default(),
        }
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &VictimStats {
        &self.stats
    }

    /// The main cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        self.main.config()
    }

    /// Performs one access; returns `true` when it was serviced without
    /// going to memory.
    pub fn access(&mut self, access: Access) -> bool {
        self.stats.accesses += 1;
        let outcome = self.main.access(access);
        if outcome.hit {
            // A line enters the buffer only when the main cache evicts it
            // and leaves it on that line's next allocating main miss — the
            // only time the main cache can hold it again — so a main hit
            // has no buffered copy to drop, and it evicts nothing.
            self.stats.main_hits += 1;
            return true;
        }
        let config = self.main.config();
        let line = config.line_addr(access.addr);
        let allocated = !access.is_write || config.write_policy() == WritePolicy::WriteBackAllocate;
        let rescued = if let Some(pos) = self.buffer.iter().position(|&l| l == line) {
            // Unless the main cache just allocated the line, the buffer
            // keeps the only cached copy.
            if allocated {
                self.buffer.remove(pos);
            }
            self.stats.victim_hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        };
        // An allocating miss may have evicted a line from the main cache;
        // it moves into the buffer. A no-allocate store evicted nothing.
        self.absorb_eviction(outcome.evicted);
        rescued
    }

    fn absorb_eviction(&mut self, evicted: Option<u64>) {
        if let Some(victim) = evicted {
            if self.buffer.len() == self.capacity {
                self.buffer.remove(0);
            }
            self.buffer.push(victim);
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WritePolicy, XorShift64Star};

    #[test]
    fn rescues_pingpong_pairs() {
        let mut vc = VictimCache::new(CacheConfig::direct_mapped(128, 32), 2);
        for _ in 0..50 {
            vc.access(Access::read(0));
            vc.access(Access::read(128));
        }
        let s = vc.stats();
        assert_eq!(s.misses, 2, "only the cold misses reach memory");
        assert_eq!(s.victim_hits, 98);
    }

    #[test]
    fn small_buffer_cannot_rescue_wide_conflicts() {
        // Four lines rotating through one set overwhelm a 1-line buffer.
        let mut vc = VictimCache::new(CacheConfig::direct_mapped(128, 32), 1);
        for _ in 0..10 {
            for k in 0..4u64 {
                vc.access(Access::read(k * 128));
            }
        }
        let s = vc.stats();
        assert!(s.misses > 4, "buffer too small: {s}");
    }

    #[test]
    fn buffer_bounded_and_stats_balance() {
        let mut vc = VictimCache::new(CacheConfig::direct_mapped(128, 32), 3);
        for i in 0..1000u64 {
            vc.access(Access {
                addr: (i * 37) % 2048,
                is_write: i % 4 == 0,
            });
        }
        let s = *vc.stats();
        assert_eq!(s.accesses, s.main_hits + s.victim_hits + s.misses);
        assert!(vc.buffer.len() <= 3);
    }

    #[test]
    fn buffered_lines_are_never_resident_in_the_main_cache() {
        for write_policy in [
            WritePolicy::WriteBackAllocate,
            WritePolicy::WriteThroughNoAllocate,
        ] {
            let config = CacheConfig::set_associative(256, 32, 2).with_write_policy(write_policy);
            let mut vc = VictimCache::new(config, 3);
            let mut rng = XorShift64Star::new(0x71C7);
            for i in 0..4000u64 {
                // Unit-stride runs for main hits, random jumps for
                // evictions and buffer rescues.
                let addr = if rng.below(3) == 0 {
                    rng.below(2048)
                } else {
                    (i * 8) % 2048
                };
                vc.access(Access {
                    addr,
                    is_write: rng.below(4) == 0,
                });
                for &line in &vc.buffer {
                    assert!(
                        !vc.main.contains(line),
                        "{write_policy:?}: buffered line {line:#x} is resident after access {i}"
                    );
                }
            }
            let s = vc.stats();
            assert!(s.main_hits > 0 && s.victim_hits > 0 && s.misses > 0, "{s}");
        }
    }

    #[test]
    fn a_no_allocate_store_keeps_its_buffered_line() {
        // 128 evicts line 0 into the buffer. The store to 0 misses the
        // main cache and does not allocate there, so the buffer keeps the
        // line and the next read of it is rescued too.
        let config = CacheConfig::direct_mapped(128, 32)
            .with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut vc = VictimCache::new(config, 2);
        let served: Vec<bool> = [
            Access::read(0),
            Access::read(128),
            Access::write(0),
            Access::read(0),
        ]
        .into_iter()
        .map(|a| vc.access(a))
        .collect();
        assert_eq!(served, [false, false, true, true]);
        assert_eq!(vc.stats().victim_hits, 2);
        assert_eq!(vc.stats().misses, 2);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_lines_panics() {
        let _ = VictimCache::new(CacheConfig::direct_mapped(128, 32), 0);
    }
}
