//! Cache configuration.

use std::error::Error;
use std::fmt;

use crate::index::IndexFunction;
use crate::replacement::ReplacementPolicy;

/// How the cache handles stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Write-back with write-allocate: stores allocate lines and dirty
    /// them; dirty victims are written back. This is the policy the paper
    /// assumes ("our transformations assume a write-allocating/write-back
    /// cache").
    #[default]
    WriteBackAllocate,
    /// Write-through without allocation: stores that miss go straight to
    /// memory and do not fill a line.
    WriteThroughNoAllocate,
}

impl fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WritePolicy::WriteBackAllocate => f.write_str("write-back/write-allocate"),
            WritePolicy::WriteThroughNoAllocate => f.write_str("write-through/no-allocate"),
        }
    }
}

/// Errors constructing a [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Cache size or line size was zero or not a power of two.
    NotPowerOfTwo {
        /// Which quantity was malformed.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// Line size exceeds cache size.
    LineLargerThanCache {
        /// Line size in bytes.
        line: u64,
        /// Cache size in bytes.
        size: u64,
    },
    /// Associativity is zero or exceeds the number of lines.
    BadAssociativity {
        /// Requested ways.
        ways: u32,
        /// Total number of lines in the cache.
        lines: u64,
    },
    /// A way holds fewer than 4 bytes (`size / ways < 4`), which takes a
    /// 1- or 2-byte line. Such a way's tags can fill all 64 bits of the
    /// word a cache keeps per way, leaving no bit for its dirty flag.
    WayTooSmall {
        /// Bytes one way holds.
        way_bytes: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { what, value } => {
                write!(f, "{what} must be a nonzero power of two, got {value}")
            }
            ConfigError::LineLargerThanCache { line, size } => {
                write!(f, "line size {line} exceeds cache size {size}")
            }
            ConfigError::BadAssociativity { ways, lines } => {
                write!(
                    f,
                    "associativity {ways} invalid for a cache of {lines} lines"
                )
            }
            ConfigError::WayTooSmall { way_bytes } => {
                write!(f, "way size {way_bytes} B is below the 4-byte minimum")
            }
        }
    }
}

impl Error for ConfigError {}

/// A cache configuration: total size, line size, associativity, and
/// policies.
///
/// Sizes are in bytes and must be powers of two (true of every
/// configuration in the paper and of real hardware of the era).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size: u64,
    line_size: u64,
    ways: u32,
    replacement: ReplacementPolicy,
    write_policy: WritePolicy,
    index_fn: IndexFunction,
}

impl CacheConfig {
    /// The paper's base configuration: 16 KiB direct-mapped, 32 B lines.
    pub fn paper_base() -> Self {
        CacheConfig::direct_mapped(16 * 1024, 32)
    }

    /// A direct-mapped cache.
    ///
    /// # Panics
    ///
    /// Panics if the sizes are not nonzero powers of two with
    /// `line_size <= size`. Use [`CacheConfig::try_new`] for fallible
    /// construction.
    pub fn direct_mapped(size: u64, line_size: u64) -> Self {
        CacheConfig::try_new(size, line_size, 1).expect("invalid direct-mapped configuration")
    }

    /// A `ways`-way set-associative cache with LRU replacement.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry; use [`CacheConfig::try_new`] to handle
    /// errors.
    pub fn set_associative(size: u64, line_size: u64, ways: u32) -> Self {
        CacheConfig::try_new(size, line_size, ways).expect("invalid set-associative configuration")
    }

    /// A fully-associative cache with LRU replacement (associativity equal
    /// to the number of lines).
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry.
    pub fn fully_associative(size: u64, line_size: u64) -> Self {
        let lines = size / line_size.max(1);
        CacheConfig::try_new(size, line_size, lines as u32)
            .expect("invalid fully-associative configuration")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if sizes are not nonzero powers of two,
    /// the line is larger than the cache, `ways` does not evenly divide
    /// the line count, or a way would hold fewer than 4 bytes.
    pub fn try_new(size: u64, line_size: u64, ways: u32) -> Result<Self, ConfigError> {
        if size == 0 || !size.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "cache size",
                value: size,
            });
        }
        if line_size == 0 || !line_size.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                value: line_size,
            });
        }
        if line_size > size {
            return Err(ConfigError::LineLargerThanCache {
                line: line_size,
                size,
            });
        }
        let lines = size / line_size;
        if ways == 0 || u64::from(ways) > lines || !lines.is_multiple_of(u64::from(ways)) {
            return Err(ConfigError::BadAssociativity { ways, lines });
        }
        let way_bytes = size / u64::from(ways);
        if way_bytes < 4 {
            return Err(ConfigError::WayTooSmall { way_bytes });
        }
        Ok(CacheConfig {
            size,
            line_size,
            ways,
            replacement: ReplacementPolicy::Lru,
            write_policy: WritePolicy::default(),
            index_fn: IndexFunction::default(),
        })
    }

    /// Returns this configuration with a different replacement policy.
    #[must_use]
    pub fn with_replacement(mut self, policy: ReplacementPolicy) -> Self {
        self.replacement = policy;
        self
    }

    /// Returns this configuration with a different write policy.
    #[must_use]
    pub fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.write_policy = policy;
        self
    }

    /// Returns this configuration with a different set-index placement
    /// function (XOR placement is the hardware alternative to padding
    /// discussed in the paper's related work).
    #[must_use]
    pub fn with_index_function(mut self, index_fn: IndexFunction) -> Self {
        self.index_fn = index_fn;
        self
    }

    /// Returns this configuration with a different associativity.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is invalid for the geometry.
    #[must_use]
    pub fn with_ways(self, ways: u32) -> Self {
        CacheConfig::try_new(self.size, self.line_size, ways)
            .expect("invalid associativity for this geometry")
            .with_replacement(self.replacement)
            .with_write_policy(self.write_policy)
            .with_index_function(self.index_fn)
    }

    /// Total capacity in bytes (`C_s`).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Line size in bytes (`L_s`).
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Associativity in ways (`k`); 1 means direct-mapped.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> u64 {
        self.size / self.line_size
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_lines() / u64::from(self.ways)
    }

    /// True when every line lives in a single set.
    pub fn is_fully_associative(&self) -> bool {
        self.num_sets() == 1
    }

    /// Replacement policy.
    pub fn replacement(&self) -> ReplacementPolicy {
        self.replacement
    }

    /// Write policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.write_policy
    }

    /// Set-index placement function.
    pub fn index_function(&self) -> IndexFunction {
        self.index_fn
    }

    /// The set index for an address.
    pub fn set_of(&self, addr: u64) -> u64 {
        self.index_fn.set_of(addr / self.line_size, self.num_sets())
    }

    /// The tag for an address (line address divided by set count). The
    /// pair `(set, tag)` identifies a line uniquely under every
    /// [`IndexFunction`].
    pub fn tag_of(&self, addr: u64) -> u64 {
        (addr / self.line_size) / self.num_sets()
    }

    /// Reconstructs the byte address of a line from its `(set, tag)`
    /// pair (used to report evicted victims).
    pub fn line_addr_from(&self, set: u64, tag: u64) -> u64 {
        self.index_fn.line_from(set, tag, self.num_sets()) * self.line_size
    }

    /// The line-aligned address containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_size - 1)
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let assoc = if self.ways == 1 {
            "direct-mapped".to_string()
        } else if self.is_fully_associative() {
            "fully-associative".to_string()
        } else {
            format!("{}-way", self.ways)
        };
        write!(
            f,
            "{}B {assoc} cache, {}B lines, {}, {}",
            self.size, self.line_size, self.replacement, self.write_policy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_geometry() {
        let c = CacheConfig::paper_base();
        assert_eq!(c.size(), 16384);
        assert_eq!(c.line_size(), 32);
        assert_eq!(c.ways(), 1);
        assert_eq!(c.num_lines(), 512);
        assert_eq!(c.num_sets(), 512);
    }

    #[test]
    fn set_and_tag() {
        let c = CacheConfig::direct_mapped(1024, 32); // 32 sets
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(32), 1);
        assert_eq!(c.set_of(1024), 0);
        assert_ne!(c.tag_of(0), c.tag_of(1024));
        assert_eq!(c.line_addr(33), 32);
    }

    #[test]
    fn fully_associative_has_one_set() {
        let c = CacheConfig::fully_associative(1024, 32);
        assert!(c.is_fully_associative());
        assert_eq!(c.num_sets(), 1);
        assert_eq!(c.ways(), 32);
        assert_eq!(c.set_of(12345), 0);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(matches!(
            CacheConfig::try_new(1000, 32, 1),
            Err(ConfigError::NotPowerOfTwo {
                what: "cache size",
                ..
            })
        ));
        assert!(matches!(
            CacheConfig::try_new(1024, 33, 1),
            Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                ..
            })
        ));
        assert!(matches!(
            CacheConfig::try_new(32, 64, 1),
            Err(ConfigError::LineLargerThanCache { .. })
        ));
        assert!(matches!(
            CacheConfig::try_new(1024, 32, 0),
            Err(ConfigError::BadAssociativity { .. })
        ));
        assert!(matches!(
            CacheConfig::try_new(1024, 32, 64),
            Err(ConfigError::BadAssociativity { .. })
        ));
        // Ways of 1 and 2 bytes: direct-mapped, set-associative and fully
        // associative, at 1- and 2-byte lines.
        for (size, line, ways, way_bytes) in [
            (1, 1, 1, 1),
            (2, 1, 1, 2),
            (2, 2, 1, 2),
            (8, 1, 4, 2),
            (64, 1, 64, 1),
            (64, 2, 32, 2),
        ] {
            assert_eq!(
                CacheConfig::try_new(size, line, ways),
                Err(ConfigError::WayTooSmall { way_bytes }),
                "{size} B, {line} B lines, {ways} ways"
            );
        }
        // Ways of 4 bytes are the smallest accepted.
        assert!(CacheConfig::try_new(4, 1, 1).is_ok());
        assert!(CacheConfig::try_new(64, 2, 16).is_ok());
    }

    #[test]
    fn with_ways_preserves_policies() {
        let c = CacheConfig::paper_base()
            .with_replacement(ReplacementPolicy::Fifo)
            .with_write_policy(WritePolicy::WriteThroughNoAllocate)
            .with_ways(4);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.replacement(), ReplacementPolicy::Fifo);
        assert_eq!(c.write_policy(), WritePolicy::WriteThroughNoAllocate);
    }

    #[test]
    fn display_mentions_shape() {
        let text = CacheConfig::paper_base().to_string();
        assert!(text.contains("direct-mapped"));
        let text = CacheConfig::set_associative(16384, 32, 4).to_string();
        assert!(text.contains("4-way"));
    }
}
