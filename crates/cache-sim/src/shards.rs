//! SHARDS-style fixed-rate sampled reuse-distance analysis.
//!
//! The exact engine ([`crate::ReuseAnalyzer`]) keeps a last-use slot and
//! a live-tick bit per distinct line, and pays O(log n) per access; its
//! log2 histogram holds at most 65 counts whatever the distances.
//! For multi-billion-access traces from real programs that is still too
//! much state and too much time to spend on every access. SHARDS
//! (Waldspurger et al., *Efficient MRC Construction with SHARDS*) shows
//! that *spatially hashed sampling* preserves the shape of the miss-ratio
//! curve: pick lines, not accesses — a line is either always sampled or
//! never sampled, decided by a hash of its address against a fixed
//! threshold — and the reuse distances measured inside the sampled
//! sub-stream are, in expectation, the true distances scaled by the
//! sampling rate.
//!
//! This implementation uses rates of the form `R = 2^-k` so the rescaling
//! stays in exact integer arithmetic:
//!
//! * a line is sampled iff the top `k` bits of `splitmix64(line)` are
//!   all zero (probability `2^-k` under the avalanching hash);
//! * a sampled reuse at sub-stream distance `d` is recorded as distance
//!   `d << k` with weight `2^k` (each sampled access stands in for `2^k`
//!   accesses of its class);
//! * cold (first-touch) observations carry the same weight, so the
//!   distinct-line estimate scales identically.
//!
//! `k` is the exactness knob: `k = 0` samples every line, takes the same
//! code path through [`ReuseStack`], and produces a histogram
//! **bit-identical** to the exact analyzer (pinned by a unit test here
//! and by the kernel differential suite in `pad-trace-ingest`). Larger
//! `k` cuts state and time by ~`2^k` while the sampled MRC stays within
//! the error bound documented in EXPERIMENTS.md: the stack holds ~`2^-k`
//! of the distinct lines, and the rescaled distances `d << k` land in the
//! same 65 power-of-two buckets as exact ones, so the histogram does not
//! grow with them.
//!
//! ```
//! use pad_cache_sim::{Access, ReuseAnalyzer, SampledReuseAnalyzer};
//!
//! let mut exact = ReuseAnalyzer::new(32);
//! let mut sampled = SampledReuseAnalyzer::new(32, 0); // k = 0: exact
//! for i in 0..1000u64 {
//!     let a = Access::read((i % 100) * 32);
//!     exact.access(a);
//!     sampled.access(a);
//! }
//! assert_eq!(exact.histogram(), sampled.histogram());
//! ```

use crate::cache::Access;
use crate::reuse::{ReuseHistogram, ReuseStack};
use crate::rng::splitmix64;

/// Largest supported `log2(1/rate)`. At `2^-20` a billion-access trace
/// keeps ~a thousand sampled accesses — any sparser and the histogram is
/// noise; the cap also keeps the `distance << k` rescaling far from
/// overflow for any real trace.
pub const MAX_SAMPLE_LOG2: u32 = 20;

/// The sampled reuse-distance front end: same shape as
/// [`crate::ReuseAnalyzer`], but only lines passing the hash threshold
/// enter the stack, and recorded observations are rescaled by the
/// sampling rate.
#[derive(Debug, Clone)]
pub struct SampledReuseAnalyzer {
    line_shift: u32,
    /// `log2(1/rate)`; 0 = exact.
    sample_log2: u32,
    stack: ReuseStack,
    hist: ReuseHistogram,
    total: u64,
    sampled: u64,
}

impl SampledReuseAnalyzer {
    /// Creates an analyzer sampling lines at rate `2^-sample_log2`.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a nonzero power of two or
    /// `sample_log2 > MAX_SAMPLE_LOG2`.
    pub fn new(line_size: u64, sample_log2: u32) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line_size must be a nonzero power of two, got {line_size}"
        );
        assert!(
            sample_log2 <= MAX_SAMPLE_LOG2,
            "sample_log2 must be <= {MAX_SAMPLE_LOG2}, got {sample_log2}"
        );
        SampledReuseAnalyzer {
            line_shift: line_size.trailing_zeros(),
            sample_log2,
            stack: ReuseStack::new(),
            hist: ReuseHistogram::new(),
            total: 0,
            sampled: 0,
        }
    }

    /// The line size addresses are bucketed by.
    pub fn line_size(&self) -> u64 {
        1u64 << self.line_shift
    }

    /// `log2(1/rate)`: the exactness knob this analyzer was built with.
    pub fn sample_log2(&self) -> u32 {
        self.sample_log2
    }

    /// True if `line` passes the spatial hash threshold.
    #[inline]
    fn sampled_line(&self, line: u64) -> bool {
        self.sample_log2 == 0 || splitmix64(line) >> (64 - self.sample_log2) == 0
    }

    /// Records one access. Unsampled lines cost one hash; sampled lines
    /// take the exact engine's O(log n) path and record a rescaled
    /// observation.
    pub fn access(&mut self, access: Access) {
        self.total += 1;
        let line = access.addr >> self.line_shift;
        if !self.sampled_line(line) {
            return;
        }
        self.sampled += 1;
        let distance = self.stack.access(line);
        self.hist.record_weighted(
            distance.map(|d| d << self.sample_log2),
            1u64 << self.sample_log2,
        );
    }

    /// Records a contiguous batch of accesses (the chunked readers'
    /// hand-off unit).
    pub fn run_slice(&mut self, trace: &[Access]) {
        for &access in trace {
            self.access(access);
        }
    }

    /// The rescaled histogram accumulated so far. `accesses()` on it
    /// estimates the *total* trace length (sampled count × `2^k`), not
    /// the sampled count.
    pub fn histogram(&self) -> &ReuseHistogram {
        &self.hist
    }

    /// Accesses seen (sampled or not).
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Accesses whose line passed the hash threshold.
    pub fn sampled_accesses(&self) -> u64 {
        self.sampled
    }

    /// Tick-compaction count (telemetry/diagnostics).
    pub fn compactions(&self) -> u64 {
        self.stack.compactions()
    }

    /// Whether the sampled stack's last-use table went to the hash map
    /// ([`ReuseStack::is_hashed`]).
    pub fn is_hashed(&self) -> bool {
        self.stack.is_hashed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::ReuseAnalyzer;
    use crate::rng::XorShift64Star;

    fn random_trace(seed: u64, len: usize, lines: u64) -> Vec<Access> {
        let mut rng = XorShift64Star::new(seed);
        (0..len)
            .map(|_| {
                let addr = rng.below(lines) * 32 + rng.below(32);
                if rng.below(4) == 0 {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                }
            })
            .collect()
    }

    #[test]
    fn k_zero_is_bit_identical_to_exact() {
        let trace = random_trace(7, 20_000, 512);
        let mut exact = ReuseAnalyzer::new(32);
        let mut sampled = SampledReuseAnalyzer::new(32, 0);
        exact.run_slice(&trace);
        sampled.run_slice(&trace);
        assert_eq!(exact.histogram(), sampled.histogram());
        assert_eq!(sampled.sampled_accesses(), sampled.total_accesses());
    }

    #[test]
    fn sampling_is_spatial_and_deterministic() {
        // A line is all-in or all-out: running the same trace twice (or
        // the trace split into slices) gives identical histograms.
        let trace = random_trace(11, 30_000, 1024);
        let mut a = SampledReuseAnalyzer::new(32, 3);
        let mut b = SampledReuseAnalyzer::new(32, 3);
        a.run_slice(&trace);
        for chunk in trace.chunks(777) {
            b.run_slice(chunk);
        }
        assert_eq!(a.histogram(), b.histogram());
        assert_eq!(a.sampled_accesses(), b.sampled_accesses());
        assert!(
            a.sampled_accesses() > 0,
            "rate 1/8 over 1024 lines samples something"
        );
        assert!(
            a.sampled_accesses() < a.total_accesses(),
            "something is filtered"
        );
    }

    #[test]
    fn rescaled_totals_estimate_the_trace() {
        // Uniform random lines: the weighted access total should land
        // within a loose factor of the real trace length.
        let trace = random_trace(13, 100_000, 4096);
        let mut s = SampledReuseAnalyzer::new(32, 4);
        s.run_slice(&trace);
        let est = s.histogram().accesses() as f64;
        let real = trace.len() as f64;
        assert!(
            (est / real - 1.0).abs() < 0.25,
            "estimated {est} accesses vs {real} real"
        );
        // State really is cut by ~2^k: each distinct sampled line's cold
        // access weighs 2^k.
        assert!(s.histogram().cold() >> 4 < 4096 / 8);
    }

    #[test]
    fn sampled_mrc_tracks_exact_mrc_on_a_scan_mix() {
        // Cyclic scan over 256 lines + a hot set of 8: the exact MRC has
        // a sharp knee; the sampled one must follow it within a coarse
        // bound at every power-of-two capacity.
        let mut trace = Vec::new();
        for round in 0..200u64 {
            for i in 0..256u64 {
                trace.push(Access::read(i * 32));
                if i % 32 == 0 {
                    trace.push(Access::read(((round + i) % 8) * 32));
                }
            }
        }
        let mut exact = ReuseAnalyzer::new(32);
        let mut sampled = SampledReuseAnalyzer::new(32, 3);
        exact.run_slice(&trace);
        sampled.run_slice(&trace);
        for cap in [1u64, 4, 16, 64, 256, 1024] {
            let e = exact.histogram().miss_ratio_at(cap);
            let s = sampled.histogram().miss_ratio_at(cap);
            assert!(
                (e - s).abs() <= 0.08,
                "capacity {cap}: exact {e:.4} vs sampled {s:.4}"
            );
        }
    }

    #[test]
    fn sampled_state_is_a_fraction_of_the_lines_and_65_counts() {
        // Two passes over 2^18 lines: every second-pass reuse is at
        // distance ~2^18 (rescaled ~2^18 too), which a per-distance
        // histogram would hold as ~2^18 counts.
        const LINES: u64 = 1 << 18;
        let mut s = SampledReuseAnalyzer::new(32, 8);
        for _ in 0..2 {
            for line in 0..LINES {
                s.access(Access::read(line * 32));
            }
        }
        assert!(s.histogram().cold() >> 8 < (LINES >> 8) * 2);
        assert!(s.histogram().counts().len() <= 65);
        assert_eq!(s.histogram().miss_ratio_at(1), 1.0);
    }

    #[test]
    fn weighted_record_zero_weight_is_a_no_op() {
        let mut h = ReuseHistogram::new();
        h.record_weighted(Some(3), 0);
        h.record_weighted(None, 0);
        assert_eq!(h, ReuseHistogram::new());
    }

    #[test]
    #[should_panic(expected = "sample_log2")]
    fn rejects_oversized_sampling_exponent() {
        let _ = SampledReuseAnalyzer::new(32, MAX_SAMPLE_LOG2 + 1);
    }
}
