//! Per-set heat diagnostics: *which* sets conflict, not just how much.
//!
//! Aggregate miss counts say a layout conflicts; they do not say where.
//! Rivera & Tseng's padding transformations work precisely because
//! conflict misses concentrate in a few cache sets — the arrays' base
//! addresses alias a narrow band of indices while the rest of the cache
//! idles. This module measures that concentration directly: a
//! [`SetHeatTracker`] wraps a [`Cache`], tallies accesses, misses, and
//! evictions per set, and classifies every set on a four-rung ladder
//! (after ChampSim's set-heat replacement strategy, see SNIPPETS.md)
//! by comparing its eviction count against the cache-wide mean:
//!
//! | class | condition (S sets, T total evictions, e this set) |
//! |-----------|-----------------------------------|
//! | very-hot  | `e·S ≥ 2·T` (≥ 2× the mean)       |
//! | hot       | `e·S ≥ T` (≥ the mean)            |
//! | cold      | `4·e·S ≥ T` (≥ ¼ of the mean)     |
//! | very-cold | below ¼ of the mean (or `T == 0`) |
//!
//! All thresholds are exact integer comparisons (`u128` products, no
//! division), so classification is deterministic and platform-independent.
//! Evictions rather than raw misses drive the ladder because cold misses
//! inflate every set exactly once, while evictions count only capacity
//! and conflict pressure — a set that is very-hot here is a set the
//! XOR-indexing and victim-cache scenarios can actually help.
//!
//! Each access's set comes from the inner cache's own shift/mask address
//! arithmetic, computed inline, so the tally follows exactly the set the
//! cache indexes, XOR folding included.

use crate::cache::{Access, Cache};
use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// One rung of the set-heat ladder. Ordering is hottest-first so
/// `sort_by_key(|r| r.class)` lists the conflict sets on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HeatClass {
    /// Eviction count at least twice the per-set mean.
    VeryHot,
    /// Eviction count at least the per-set mean.
    Hot,
    /// Eviction count at least a quarter of the per-set mean.
    Cold,
    /// Eviction count below a quarter of the per-set mean (including
    /// every set of an eviction-free run).
    VeryCold,
}

impl HeatClass {
    /// Stable lowercase label used in CSV exports and telemetry keys.
    pub fn as_str(self) -> &'static str {
        match self {
            HeatClass::VeryHot => "very-hot",
            HeatClass::Hot => "hot",
            HeatClass::Cold => "cold",
            HeatClass::VeryCold => "very-cold",
        }
    }

    /// All classes, hottest first (the order of
    /// [`SetHeatReport::class_counts`]).
    pub const ALL: [HeatClass; 4] = [
        HeatClass::VeryHot,
        HeatClass::Hot,
        HeatClass::Cold,
        HeatClass::VeryCold,
    ];
}

/// Classifies one set's eviction count against the cache-wide totals.
/// `sets` is the number of sets, `total` the cache-wide eviction count.
#[inline]
fn classify(evictions: u64, sets: u64, total: u64) -> HeatClass {
    if total == 0 {
        return HeatClass::VeryCold;
    }
    let scaled = evictions as u128 * sets as u128;
    let total = total as u128;
    if scaled >= 2 * total {
        HeatClass::VeryHot
    } else if scaled >= total {
        HeatClass::Hot
    } else if 4 * scaled >= total {
        HeatClass::Cold
    } else {
        HeatClass::VeryCold
    }
}

/// One set's measurements and classification in a [`SetHeatReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetHeatRow {
    /// Set index.
    pub set: u64,
    /// Accesses that indexed into this set (same-line fast-path hits
    /// included — the tally is taken before the cache short-circuits
    /// any access).
    pub accesses: u64,
    /// Misses charged to this set.
    pub misses: u64,
    /// Evictions this set performed (always ≤ misses).
    pub evictions: u64,
    /// The ladder rung `evictions` lands on.
    pub class: HeatClass,
}

/// The classified per-set histogram produced by
/// [`SetHeatTracker::report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetHeatReport {
    rows: Vec<SetHeatRow>,
    class_counts: [u64; 4],
    total_evictions: u64,
}

impl SetHeatReport {
    /// Per-set rows in set-index order.
    pub fn rows(&self) -> &[SetHeatRow] {
        &self.rows
    }

    /// Number of sets per [`HeatClass`], in [`HeatClass::ALL`] order.
    pub fn class_counts(&self) -> [u64; 4] {
        self.class_counts
    }

    /// Number of sets in the tracked cache.
    pub fn num_sets(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Cache-wide eviction count the ladder was normalized against.
    pub fn total_evictions(&self) -> u64 {
        self.total_evictions
    }

    /// Rows sorted hottest-first (by class rung, then eviction count,
    /// then set index) — the "which sets conflict" view.
    pub fn hottest(&self) -> Vec<SetHeatRow> {
        let mut rows = self.rows.clone();
        rows.sort_by_key(|r| (r.class, std::cmp::Reverse(r.evictions), r.set));
        rows
    }
}

/// A [`Cache`] instrumented with per-set access/miss/eviction tallies.
///
/// Simulation results are identical to running the inner cache directly
/// (same [`Cache::access`] walk, pinned by a differential test); the
/// tracker only adds three `u64` counters per set.
#[derive(Debug, Clone)]
pub struct SetHeatTracker {
    cache: Cache,
    accesses: Vec<u64>,
    misses: Vec<u64>,
    evictions: Vec<u64>,
}

impl SetHeatTracker {
    /// Builds a tracker simulating `config`.
    pub fn new(config: CacheConfig) -> Self {
        let cache = Cache::new(config);
        let sets = cache.config().num_sets() as usize;
        SetHeatTracker {
            cache,
            accesses: vec![0; sets],
            misses: vec![0; sets],
            evictions: vec![0; sets],
        }
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &CacheConfig {
        self.cache.config()
    }

    /// Aggregate statistics of the inner cache.
    pub fn stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Runs one access, attributing its outcome to the indexed set.
    #[inline]
    pub fn access(&mut self, access: Access) {
        let geometry = self.cache.geometry();
        let set = geometry.set(geometry.line(access.addr));
        self.accesses[set] += 1;
        let outcome = self.cache.access(access);
        self.misses[set] += u64::from(!outcome.hit);
        self.evictions[set] += u64::from(outcome.evicted.is_some());
    }

    /// Runs a batch of accesses (the batched engine's chunk hand-off).
    pub fn run_slice(&mut self, trace: &[Access]) {
        for &access in trace {
            self.access(access);
        }
    }

    /// Classifies the tallies accumulated so far.
    pub fn report(&self) -> SetHeatReport {
        let sets = self.accesses.len() as u64;
        let total: u64 = self.evictions.iter().sum();
        let mut class_counts = [0u64; 4];
        let rows: Vec<SetHeatRow> = (0..sets as usize)
            .map(|s| {
                let class = classify(self.evictions[s], sets, total);
                class_counts[HeatClass::ALL.iter().position(|&c| c == class).unwrap()] += 1;
                SetHeatRow {
                    set: s as u64,
                    accesses: self.accesses[s],
                    misses: self.misses[s],
                    evictions: self.evictions[s],
                    class,
                }
            })
            .collect();
        SetHeatReport {
            rows,
            class_counts,
            total_evictions: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64Star;

    fn cfg_dm() -> CacheConfig {
        // 16 sets of one 32-byte way.
        CacheConfig::try_new(512, 32, 1).unwrap()
    }

    #[test]
    fn tracker_matches_plain_cache_and_tallies_reconcile() {
        let mut rng = XorShift64Star::new(21);
        let trace: Vec<Access> = (0..10_000)
            .map(|_| {
                let addr = rng.below(1 << 14);
                if rng.below(3) == 0 {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                }
            })
            .collect();
        let cfg = CacheConfig::try_new(2048, 32, 4).unwrap();
        let mut plain = Cache::new(cfg);
        let mut heat = SetHeatTracker::new(cfg);
        plain.run_slice(&trace);
        heat.run_slice(&trace);
        // Same walk, same statistics.
        assert_eq!(plain.stats(), heat.stats());
        let report = heat.report();
        let accesses: u64 = report.rows().iter().map(|r| r.accesses).sum();
        let misses: u64 = report.rows().iter().map(|r| r.misses).sum();
        assert_eq!(accesses, plain.stats().accesses);
        assert_eq!(misses, plain.stats().misses);
        assert_eq!(report.num_sets(), 16);
        assert_eq!(report.class_counts().iter().sum::<u64>(), 16);
        for row in report.rows() {
            assert!(row.evictions <= row.misses, "set {}", row.set);
        }
    }

    #[test]
    fn single_access_and_slice_paths_agree() {
        let mut rng = XorShift64Star::new(5);
        let trace: Vec<Access> = (0..3000)
            .map(|_| Access::read(rng.below(1 << 12)))
            .collect();
        let mut a = SetHeatTracker::new(cfg_dm());
        let mut b = SetHeatTracker::new(cfg_dm());
        a.run_slice(&trace);
        for &acc in &trace {
            b.access(acc);
        }
        assert_eq!(a.report(), b.report());
    }

    #[test]
    fn conflict_storm_concentrates_in_one_very_hot_set() {
        // Two arrays whose base addresses alias set 0 of a direct-mapped
        // cache — the paper's canonical conflict pattern. Every eviction
        // lands in set 0; all other sets stay very-cold.
        let cfg = cfg_dm();
        let stride = cfg.size(); // 512: same set, different tags
        let mut heat = SetHeatTracker::new(cfg);
        for _ in 0..500 {
            heat.access(Access::read(0));
            heat.access(Access::read(stride));
        }
        let report = heat.report();
        assert_eq!(report.rows()[0].class, HeatClass::VeryHot);
        assert!(report.rows()[0].evictions > 900);
        for row in &report.rows()[1..] {
            assert_eq!(row.class, HeatClass::VeryCold, "set {}", row.set);
            assert_eq!(row.accesses, 0);
        }
        assert_eq!(report.class_counts(), [1, 0, 0, 15]);
        assert_eq!(report.hottest()[0].set, 0);
    }

    #[test]
    fn uniform_pressure_classifies_every_set_hot() {
        // A cyclic scan over 2× capacity evicts from every set at the
        // same rate: e·S == T exactly, the `hot` rung's lower edge.
        let cfg = cfg_dm();
        let lines = 2 * cfg.size() / cfg.line_size();
        let mut heat = SetHeatTracker::new(cfg);
        for _round in 0..100 {
            for i in 0..lines {
                heat.access(Access::read(i * 32));
            }
        }
        let report = heat.report();
        for row in report.rows() {
            assert_eq!(row.class, HeatClass::Hot, "set {}", row.set);
        }
    }

    #[test]
    fn eviction_free_run_is_all_very_cold() {
        let mut heat = SetHeatTracker::new(cfg_dm());
        for i in 0..16u64 {
            heat.access(Access::read(i * 32));
            heat.access(Access::read(i * 32)); // hit
        }
        let report = heat.report();
        assert_eq!(report.total_evictions(), 0);
        for row in report.rows() {
            assert_eq!(row.class, HeatClass::VeryCold);
            assert_eq!(row.misses, 1);
            assert_eq!(row.accesses, 2);
        }
    }

    #[test]
    fn xor_indexed_geometry_uses_the_folded_set_lane() {
        // With XOR indexing the attribution must follow the folded
        // index, not the plain one — verified by reconciling against the
        // inner cache's stats under a stride trace that XOR folding
        // spreads across sets.
        let cfg = cfg_dm().with_index_function(crate::IndexFunction::Xor);
        let mut heat = SetHeatTracker::new(cfg);
        let trace: Vec<Access> = (0..4096).map(|i| Access::read(i * 512)).collect();
        heat.run_slice(&trace);
        let report = heat.report();
        let touched = report.rows().iter().filter(|r| r.accesses > 0).count();
        assert!(
            touched > 1,
            "XOR folding must spread the stride across sets"
        );
        let misses: u64 = report.rows().iter().map(|r| r.misses).sum();
        assert_eq!(misses, heat.stats().misses);
    }

    #[test]
    fn classify_ladder_edges() {
        // 16 sets, 32 total evictions → mean 2.
        assert_eq!(classify(4, 16, 32), HeatClass::VeryHot); // 2× mean
        assert_eq!(classify(3, 16, 32), HeatClass::Hot);
        assert_eq!(classify(2, 16, 32), HeatClass::Hot); // exactly mean
        assert_eq!(classify(1, 16, 32), HeatClass::Cold); // half mean
        assert_eq!(classify(0, 16, 32), HeatClass::VeryCold);
        assert_eq!(classify(0, 16, 0), HeatClass::VeryCold); // T == 0
                                                             // u128 products: no overflow at u64 extremes.
        assert_eq!(classify(u64::MAX, u64::MAX, 1), HeatClass::VeryHot);
    }
}
