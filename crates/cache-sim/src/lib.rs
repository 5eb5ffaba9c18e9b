//! Trace-driven cache simulation.
//!
//! This crate stands in for the Sun SHADE simulator used in Rivera & Tseng,
//! *Data Transformations for Eliminating Conflict Misses* (PLDI 1998). It
//! simulates set-associative caches with configurable size, line size,
//! associativity, replacement policy, and write policy, and additionally
//! classifies misses as *compulsory*, *capacity*, or *conflict* (Hill's
//! three-C model) by running a fully-associative LRU shadow cache of equal
//! capacity alongside the main cache.
//!
//! The paper's base configuration is a 16 KiB direct-mapped cache with 32 B
//! lines, write-allocate and write-back:
//!
//! ```
//! use pad_cache_sim::{Access, Cache, CacheConfig};
//!
//! let config = CacheConfig::direct_mapped(16 * 1024, 32);
//! let mut cache = Cache::new(config);
//! // Two addresses one cache-size apart conflict in a direct-mapped cache.
//! for _ in 0..8 {
//!     cache.access(Access::read(0));
//!     cache.access(Access::read(16 * 1024));
//! }
//! assert_eq!(cache.stats().hits, 0);
//! assert_eq!(cache.stats().misses, 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod cache;
mod classify;
mod config;
mod heat;
mod hierarchy;
mod index;
pub mod reference;
mod replacement;
mod reuse;
mod rng;
mod sample;
mod shards;
mod stats;
mod victim;

pub use baseline::BaselineCache;
pub use cache::{Access, AccessOutcome, Cache};
pub use classify::{ClassifiedStats, ClassifyingCache, MissClass};
pub use config::{CacheConfig, ConfigError, WritePolicy};
pub use heat::{HeatClass, SetHeatReport, SetHeatRow, SetHeatTracker};
pub use hierarchy::{Hierarchy, LevelStats};
pub use index::IndexFunction;
pub use reference::ShadowLru;
pub use replacement::ReplacementPolicy;
pub use reuse::{ReuseAnalyzer, ReuseHistogram, ReuseStack};
pub use rng::{splitmix64, SplitMix64, XorShift64Star};
pub use sample::Sampler;
pub use shards::{SampledReuseAnalyzer, MAX_SAMPLE_LOG2};
pub use stats::CacheStats;
pub use victim::{VictimCache, VictimStats};
