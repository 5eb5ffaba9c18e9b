//! Access statistics.

use std::fmt;

/// Counters accumulated by a [`crate::Cache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Loads.
    pub reads: u64,
    /// Stores.
    pub writes: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Load misses.
    pub read_misses: u64,
    /// Store misses.
    pub write_misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 for an empty trace.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Miss rate as a percentage, the unit used in every figure of the
    /// paper.
    pub fn miss_rate_percent(&self) -> f64 {
        100.0 * self.miss_rate()
    }

    pub(crate) fn record_access(&mut self, is_write: bool) {
        self.accesses += 1;
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
    }

    pub(crate) fn record_hit(&mut self, _is_write: bool) {
        self.hits += 1;
    }

    pub(crate) fn record_miss(&mut self, is_write: bool) {
        self.misses += 1;
        if is_write {
            self.write_misses += 1;
        } else {
            self.read_misses += 1;
        }
    }

    /// Component-wise sum of two statistics records (e.g. across multiple
    /// loop nests simulated separately).
    #[must_use]
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            accesses: self.accesses + other.accesses,
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            read_misses: self.read_misses + other.read_misses,
            write_misses: self.write_misses + other.write_misses,
            writebacks: self.writebacks + other.writebacks,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} misses ({:.2}%), {} writebacks",
            self.accesses,
            self.misses,
            self.miss_rate_percent(),
            self.writebacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = CacheStats {
            accesses: 200,
            hits: 150,
            misses: 50,
            ..Default::default()
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.miss_rate_percent() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn merge_adds_componentwise() {
        let a = CacheStats {
            accesses: 10,
            misses: 2,
            hits: 8,
            ..Default::default()
        };
        let b = CacheStats {
            accesses: 5,
            misses: 5,
            hits: 0,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.accesses, 15);
        assert_eq!(m.misses, 7);
        assert_eq!(m.hits, 8);
    }

    #[test]
    fn display_mentions_miss_rate() {
        let s = CacheStats {
            accesses: 4,
            misses: 1,
            hits: 3,
            ..Default::default()
        };
        assert!(s.to_string().contains("25.00%"));
    }
}
