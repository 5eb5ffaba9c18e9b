//! Periodic telemetry sampling of cache counters.
//!
//! The batched simulation engine owns the access loop, so it cannot
//! cheaply emit a counter event per access; instead it carries a
//! [`Sampler`] per sink and pokes it at chunk boundaries. The sampler
//! emits a `cache`-category counter event every `interval` simulated
//! accesses (`pad_telemetry::sample_interval`, 2^20 in `events` mode),
//! carrying the cumulative hit/miss/eviction counts, resident-line
//! count, and the set-occupancy histogram of the level it watches.

use pad_telemetry::{Event, Value};

use crate::cache::Cache;

/// Emits one cache-counter event per `interval` simulated accesses.
///
/// Construction returns `None` when `interval` is zero (sampling
/// disabled), so callers hold an `Option<Sampler>` and the disabled path
/// costs one `is_some` check per chunk.
#[derive(Debug)]
pub struct Sampler {
    name: String,
    interval: u64,
    next: u64,
}

impl Sampler {
    /// A sampler named `name` (conventionally `"{trace}/{config}"`)
    /// firing every `interval` accesses, or `None` when `interval == 0`.
    pub fn new(name: impl Into<String>, interval: u64) -> Option<Self> {
        if interval == 0 {
            return None;
        }
        Some(Sampler {
            name: name.into(),
            interval,
            next: interval,
        })
    }

    /// Pokes the sampler with the watched cache's cumulative access
    /// count; emits one event per crossed interval boundary (collapsed
    /// into a single event when a large chunk crosses several).
    pub fn tick(&mut self, cache: &Cache) {
        let accesses = cache.stats().accesses;
        if accesses < self.next {
            return;
        }
        while self.next <= accesses {
            self.next += self.interval;
        }
        self.sample(cache);
    }

    /// Emits one sample unconditionally (used for the end-of-walk flush
    /// so short walks still produce at least one data point).
    pub fn sample(&self, cache: &Cache) {
        let stats = cache.stats();
        let occupancy = cache
            .occupancy_histogram()
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("/");
        pad_telemetry::emit(|| {
            Event::counter(
                "cache",
                self.name.clone(),
                vec![
                    ("accesses", Value::U64(stats.accesses)),
                    ("hits", Value::U64(stats.hits)),
                    ("misses", Value::U64(stats.misses)),
                    ("evictions", Value::U64(cache.evictions())),
                    ("resident", Value::U64(cache.resident_lines() as u64)),
                    ("occupancy", Value::Str(occupancy)),
                ],
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Access;
    use crate::config::CacheConfig;

    #[test]
    fn zero_interval_disables_sampling() {
        assert!(Sampler::new("t/dm", 0).is_none());
    }

    #[test]
    fn tick_advances_past_large_chunks() {
        // 10k accesses against a 1k interval: `next` must land beyond the
        // current count, not fire 10 times on the next tick.
        let mut cache = Cache::new(CacheConfig::direct_mapped(1024, 32));
        for i in 0..10_000u64 {
            cache.access(Access::read((i * 32) % 4096));
        }
        let mut sampler = Sampler::new("t/dm", 1000).expect("enabled");
        sampler.tick(&cache);
        assert_eq!(sampler.next, 11_000);
        // No boundary crossed since: tick is a no-op.
        sampler.tick(&cache);
        assert_eq!(sampler.next, 11_000);
    }

    #[test]
    fn occupancy_histogram_counts_sets_by_fill() {
        let mut cache = Cache::new(CacheConfig::set_associative(256, 32, 2)); // 4 sets
        let histogram = cache.occupancy_histogram();
        assert_eq!(histogram, vec![4, 0, 0], "cold cache: all sets empty");
        cache.access(Access::read(0)); // set 0: 1 line
        cache.access(Access::read(128)); // set 0: 2 lines
        cache.access(Access::read(32)); // set 1: 1 line
        assert_eq!(cache.occupancy_histogram(), vec![2, 1, 1]);
    }

    #[test]
    fn evictions_are_allocations_minus_resident() {
        let mut cache = Cache::new(CacheConfig::direct_mapped(128, 32)); // 4 sets
        cache.access(Access::read(0));
        assert_eq!(cache.evictions(), 0);
        cache.access(Access::read(128)); // conflicts with line 0
        assert_eq!(cache.evictions(), 1);
        cache.access(Access::read(32));
        assert_eq!(cache.evictions(), 1, "new set, no eviction");
    }
}
