//! Padding-heuristic parameters.

use std::error::Error;
use std::fmt;

/// One cache level's geometry, as the padding analysis sees it: total size
/// `C_s` and line size `L_s`, both in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Cache size `C_s` in bytes (power of two).
    pub size: u64,
    /// Line size `L_s` in bytes (power of two).
    pub line: u64,
}

impl CacheParams {
    /// Constructs and validates a level.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if either quantity is zero or not a power
    /// of two, or if the line exceeds the cache.
    pub fn new(size: u64, line: u64) -> Result<Self, ConfigError> {
        if size == 0 || !size.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "cache size",
                value: size,
            });
        }
        if line == 0 || !line.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                value: line,
            });
        }
        if line > size {
            return Err(ConfigError::LineLargerThanCache { line, size });
        }
        Ok(CacheParams { size, line })
    }
}

/// Errors constructing a [`PaddingConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A size was zero or not a power of two.
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
    /// No cache levels were supplied.
    NoLevels,
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
            ConfigError::NoLevels => f.write_str("padding requires at least one cache level"),
        }
    }
}

impl Error for ConfigError {}

/// Parameters shared by all padding heuristics.
///
/// The defaults are the paper's: minimum inter-variable separation
/// `M = 4` cache lines (justified by Figure 13) and `LINPAD2`'s `j*`
/// capped at 129 (Section 2.3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaddingConfig {
    levels: Vec<CacheParams>,
    /// Minimum separation `M` between equally-sized variables, in cache
    /// lines.
    pub min_separation_lines: u64,
    /// Cap on `LINPAD2`'s `j*` (129 in the paper).
    pub linpad2_j_cap: u64,
}

impl PaddingConfig {
    /// A single-level configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`CacheParams::new`] validation failures.
    pub fn new(cache_size: u64, line_size: u64) -> Result<Self, ConfigError> {
        Ok(
            PaddingConfig::multi_level(vec![CacheParams::new(cache_size, line_size)?])
                .expect("one level supplied"),
        )
    }

    /// A multi-level configuration: conflict distances are tested against
    /// every level and padding clears all of them (the generalization
    /// sketched at the end of Section 2.1.2 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoLevels`] if `levels` is empty.
    pub fn multi_level(levels: Vec<CacheParams>) -> Result<Self, ConfigError> {
        if levels.is_empty() {
            return Err(ConfigError::NoLevels);
        }
        Ok(PaddingConfig {
            levels,
            min_separation_lines: 4,
            linpad2_j_cap: 129,
        })
    }

    /// The paper's base configuration: 16 KiB cache, 32 B lines.
    pub fn paper_base() -> Self {
        PaddingConfig::new(16 * 1024, 32).expect("base configuration is valid")
    }

    /// Returns this configuration with a different minimum separation `M`
    /// (in cache lines). Used by the Figure 13 sweep.
    #[must_use]
    pub fn with_min_separation_lines(mut self, m: u64) -> Self {
        self.min_separation_lines = m;
        self
    }

    /// Returns this configuration with a different `j*` cap for `LINPAD2`
    /// (used by the `j*` ablation bench).
    #[must_use]
    pub fn with_linpad2_j_cap(mut self, cap: u64) -> Self {
        self.linpad2_j_cap = cap;
        self
    }

    /// All cache levels, L1 first.
    pub fn levels(&self) -> &[CacheParams] {
        &self.levels
    }

    /// The primary (L1) level.
    pub fn primary(&self) -> CacheParams {
        self.levels[0]
    }

    /// The minimum separation `M` in bytes for a given level.
    pub fn m_bytes(&self, level: CacheParams) -> u64 {
        self.min_separation_lines * level.line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_base_values() {
        let c = PaddingConfig::paper_base();
        assert_eq!(c.primary().size, 16 * 1024);
        assert_eq!(c.primary().line, 32);
        assert_eq!(c.min_separation_lines, 4);
        assert_eq!(c.m_bytes(c.primary()), 128);
        assert_eq!(c.linpad2_j_cap, 129);
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(matches!(
            PaddingConfig::new(1000, 32),
            Err(ConfigError::NotPowerOfTwo {
                what: "cache size",
                ..
            })
        ));
        assert!(matches!(
            PaddingConfig::new(1024, 0),
            Err(ConfigError::NotPowerOfTwo {
                what: "line size",
                ..
            })
        ));
        assert!(matches!(
            PaddingConfig::new(16, 32),
            Err(ConfigError::LineLargerThanCache { .. })
        ));
        assert!(matches!(
            PaddingConfig::multi_level(vec![]),
            Err(ConfigError::NoLevels)
        ));
    }

    #[test]
    fn builders_override_fields() {
        let c = PaddingConfig::paper_base()
            .with_min_separation_lines(8)
            .with_linpad2_j_cap(64);
        assert_eq!(c.min_separation_lines, 8);
        assert_eq!(c.linpad2_j_cap, 64);
    }

    #[test]
    fn multi_level_order_preserved() {
        let c = PaddingConfig::multi_level(vec![
            CacheParams::new(16 * 1024, 32).unwrap(),
            CacheParams::new(1024 * 1024, 64).unwrap(),
        ])
        .unwrap();
        assert_eq!(c.levels().len(), 2);
        assert_eq!(c.primary().size, 16 * 1024);
    }
}
