//! A small log2-bucketed histogram for duration and count distributions.

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i)` (bucket 0 counts zeros
/// and ones). Sixty-five buckets cover the whole `u64` range, so the type
/// is allocation-free after construction and merging is element-wise —
/// exactly what per-thread aggregation needs.
///
/// # Example
///
/// ```
/// use pad_telemetry::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1u64, 2, 3, 100, 200] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(50.0) <= 100);
/// assert!(h.percentile(100.0) >= 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Number of buckets: one per power of two over the `u64` range,
    /// plus the shared zeros-and-ones bucket.
    pub const BUCKETS: usize = 65;

    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Reconstructs a histogram from raw bucket counts (the live
    /// metrics layer folds its atomic shards through this to reuse
    /// [`Histogram::percentile`]). `max` caps the last occupied
    /// bucket's upper bound, exactly as if the samples had been
    /// recorded one by one.
    pub fn from_buckets(buckets: [u64; Self::BUCKETS], max: u64) -> Self {
        Histogram {
            buckets,
            count: buckets.iter().sum(),
            max,
        }
    }

    /// The bucket `value` falls in (`[2^(i-1), 2^i)`; bucket 0 holds
    /// zeros and ones).
    pub fn bucket_index(value: u64) -> usize {
        (63 - value.max(1).leading_zeros()) as usize
    }

    fn bucket_of(value: u64) -> usize {
        Self::bucket_index(value)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// An upper bound on the `p`-th percentile (the top of the bucket the
    /// percentile falls in; the recorded maximum caps the last bucket).
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let target = target.max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let top = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return top.min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
    }

    #[test]
    fn percentiles_bound_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        assert!(p99 >= 990, "p99 = {p99}");
        assert_eq!(h.percentile(100.0), 1000);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn single_sample_pins_every_percentile() {
        let mut h = Histogram::new();
        h.record(37);
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 37, "p{p}");
        }
    }

    #[test]
    fn percentile_extremes_clamp() {
        let mut h = Histogram::new();
        for v in [1u64, 8, 64, 512] {
            h.record(v);
        }
        // p=0 clamps to the first sample's bucket; p=100 is the max.
        assert!(h.percentile(0.0) >= 1);
        assert!(h.percentile(-5.0) >= 1, "below-range p clamps to 0");
        assert_eq!(h.percentile(100.0), 512);
        assert_eq!(h.percentile(250.0), 512, "above-range p clamps to 100");
    }

    #[test]
    fn merge_then_percentile_matches_single_histogram() {
        let mut whole = Histogram::new();
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for v in 1..=1000u64 {
            whole.record(v);
            if v % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(left.percentile(p), whole.percentile(p), "p{p}");
        }
    }

    #[test]
    fn from_buckets_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 100, 70_000] {
            h.record(v);
        }
        let rebuilt = Histogram::from_buckets(h.buckets, h.max());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.count(), 5);
        assert_eq!(rebuilt.percentile(100.0), 70_000);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000);
    }
}
