//! Order statistics, digests and the metric record the report prints.

/// One reported number: name, value, unit, and the sample count behind
/// it (`None` for counts and ratios that are not sampled).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` spells it.
    pub name: &'static str,
    /// Measured value, unrounded.
    pub value: f64,
    /// Unit as `BENCHMARK.json` spells it.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric summarizing `samples` samples.
    pub fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name, value, unit, samples: Some(samples) }
    }

    /// A metric that is a count or ratio, not a sample summary.
    pub fn exact(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit, samples: None }
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p`-quantile (`0 < p < 1`) of `samples`, linearly interpolated
/// between closest ranks. Refused (`None`) unless at least
/// [`MIN_BEYOND`] samples lie beyond it, so a tail figure is never a
/// single sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || ((n as f64) * (1.0 - p)).floor() < MIN_BEYOND as f64 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (n - 1) as f64;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    let hi = (lo + 1).min(n - 1);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of a non-empty sample (no tail requirement: used for
/// repeated set-up measurements).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a over a byte stream, for answer digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_refuse_thin_tails() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(100.5));
        // rank 0.95 * 199 = 189.05 -> between 190 and 191.
        let p95 = percentile(&v, 0.95).expect("10 samples beyond p95 of 200");
        assert!((p95 - 190.05).abs() < 1e-9, "{p95}");
        assert_eq!(percentile(&v[..199], 0.95), None, "9 beyond is too few");
        assert_eq!(percentile(&v, 0.99), None);
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.5));
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 6.0, 7.0, 10.0, 0.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0];
        assert_eq!(percentile(&shuffled, 0.5), Some(9.5));
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.eat(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
    }
}
