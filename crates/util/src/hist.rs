//! Log-scaled latency histograms for the paper's latency studies.
//!
//! Figure 8 of the paper plots the cumulative distribution of per-operation
//! latency; Tables 2 and 3 report averages. An HDR-style histogram — log2
//! major buckets with linear sub-buckets — records a sample with two shifts
//! and keeps ~3% relative error across nine orders of magnitude, which is
//! plenty for reproducing CDF shape.

/// Number of linear sub-buckets per power-of-two major bucket (2^5).
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range. The largest index is
/// `(63 - SUB_BITS) * SUB + (2 * SUB - 1)`.
const BUCKETS: usize = ((63 - SUB_BITS) as u64 * SUB + 2 * SUB) as usize;

/// A fixed-size histogram of `u64` samples (nanoseconds, by convention).
///
/// Recording never allocates; merging and querying are O(#buckets).
///
/// ```
/// use lcrq_util::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for ns in [100, 200, 300, 400, 1_000] { h.record(ns); }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(50.0) >= 200 && h.percentile(50.0) <= 320);
/// assert!(h.max() >= 1_000);
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        // Linear region: exact, one value per bucket.
        v as usize
    } else {
        // v >> exp lies in [SUB, 2*SUB); indices are contiguous with the
        // linear region (exp = 0 yields index = v for v in [SUB, 2*SUB)).
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let exp = msb - SUB_BITS;
        (exp as u64 * SUB + (v >> exp)) as usize
    }
}

/// Largest value mapping to bucket `i` (used as the reported quantile value,
/// making percentiles conservative upper bounds).
#[inline]
fn bucket_high(i: usize) -> u64 {
    let i = i as u64;
    if i < 2 * SUB {
        // exp = 0: exact buckets.
        i
    } else {
        let exp = i / SUB - 1;
        let off = i - exp * SUB; // in [SUB, 2*SUB)
                                 // All values v with (v >> exp) == off, i.e. [off<<exp, (off+1)<<exp).
        let high = ((off as u128 + 1) << exp) - 1;
        u64::try_from(high).unwrap_or(u64::MAX)
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (`u64::MAX` if empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at or below which `p` percent of samples fall (bucket-quantized
    /// upper bound). `p` is clamped to `[0, 100]`. Returns 0 if empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Fraction of samples `<= bound`, in `[0, 1]` (the CDF of Figure 8).
    pub fn fraction_at_or_below(&self, bound: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let idx = bucket_index(bound);
        let below: u64 = self.counts[..=idx].iter().sum();
        below as f64 / self.count as f64
    }

    /// Adds all samples from `other` into `self`.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl core::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_nondecreasing() {
        let mut prev = 0;
        for v in (0..100_000u64).chain((0..50).map(|i| 1u64 << i)) {
            let b = bucket_index(v);
            assert!(b >= prev || v < 100_000, "v={v}");
            if v >= 100_000 {
                prev = b;
            }
        }
    }

    #[test]
    fn bucket_high_contains_its_values() {
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 123_456, u64::MAX / 2] {
            let i = bucket_index(v);
            assert!(bucket_high(i) >= v, "v={v} i={i} high={}", bucket_high(i));
            if i > 0 {
                assert!(bucket_high(i - 1) < v, "v={v} maps above its bucket");
            }
        }
    }

    #[test]
    fn max_value_does_not_overflow_bucket_table() {
        assert!(bucket_index(u64::MAX) < BUCKETS);
        let _ = bucket_high(BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        for p in [0.0, 25.0, 50.0, 75.0, 100.0] {
            let q = h.percentile(p);
            assert!(q < SUB);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB - 1);
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.fraction_at_or_below(1_000), 0.0);
    }

    #[test]
    fn percentiles_are_ordered() {
        let mut h = LatencyHistogram::new();
        let mut rng = crate::XorShift64Star::new(1);
        for _ in 0..10_000 {
            h.record(rng.next_below(1_000_000));
        }
        let mut last = 0;
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let q = h.percentile(p);
            assert!(q >= last, "p={p}");
            last = q;
        }
        assert_eq!(h.percentile(100.0), h.max());
    }

    #[test]
    fn percentile_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0) as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.05, "p50={p50}");
        let p99 = h.percentile(99.0) as f64;
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.05, "p99={p99}");
    }

    #[test]
    fn fraction_at_or_below_tracks_counts() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 1_000_000] {
            h.record(v);
        }
        assert!((h.fraction_at_or_below(10) - 0.75).abs() < 1e-12);
        assert!((h.fraction_at_or_below(u64::MAX) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        let mut rng = crate::XorShift64Star::new(3);
        for i in 0..5_000 {
            let v = rng.next_below(1 << 30);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for p in [10.0, 50.0, 95.0] {
            assert_eq!(a.percentile(p), all.percentile(p));
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20.0);
    }
}
