//! Medians, quartiles and a latency histogram.

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spreads printed here are the spreads the driver computes. One value
/// stands for all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Distance between the quartiles as a share of the median: the spread the
/// driver holds against a metric's bound.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

const EXACT: u64 = 2048; // one bucket per nanosecond below this
const EXACT_BITS: u32 = 11;
const SUB_BITS: u32 = 7; // 128 buckets per octave above: under 0.8 % wide
const OCTAVES: u32 = 31; // up to 2^42 ns, about 73 minutes
const BUCKETS: usize = EXACT as usize + ((OCTAVES as usize) << SUB_BITS);

/// Nanosecond histogram: exact below 2 µs, 128 buckets per octave above.
/// Percentiles interpolate inside a bucket, so two runs never print the
/// same value only because they share a bucket.
#[derive(Clone)]
pub struct Hist {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            buckets: vec![0; BUCKETS],
            count: 0,
            max: 0,
        }
    }

    #[inline]
    fn index(v: u64) -> usize {
        if v < EXACT {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let e = e.min(EXACT_BITS + OCTAVES - 1);
        let sub = (v >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        EXACT as usize + (((e - EXACT_BITS) as usize) << SUB_BITS) + sub as usize
    }

    /// Lower edge and width of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        if (i as u64) < EXACT {
            return (i as f64, 1.0);
        }
        let k = i - EXACT as usize;
        let e = EXACT_BITS + (k >> SUB_BITS) as u32;
        let sub = (k & ((1 << SUB_BITS) - 1)) as u64;
        let width = 1u64 << (e - SUB_BITS);
        ((((1 << SUB_BITS) + sub) * width) as f64, width as f64)
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value below which a share `p` of the samples lies; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = p.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, width) = Self::bounds(i);
                return lo + width * (rank - below as f64) / c as f64;
            }
            below += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 10, 7], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), (1.5, 3.0, 8.5));
    }

    #[test]
    fn histogram_percentiles_stay_within_a_bucket_of_the_truth() {
        let mut h = Hist::new();
        for v in 0..100_000u64 {
            h.record(v * 37);
        }
        for p in [0.5, 0.9, 0.99] {
            let truth = p * 100_000.0 * 37.0;
            let got = h.percentile(p);
            assert!((got - truth).abs() / truth < 0.01, "p{p}: {got} vs {truth}");
        }
        assert_eq!(h.max(), 99_999 * 37);
        for i in [0, 5, 2047, 2048, 2049, 5000, BUCKETS - 1] {
            let (lo, w) = Hist::bounds(i);
            assert_eq!(Hist::index(lo as u64), i);
            assert_eq!(Hist::index((lo + w) as u64 - 1), i);
        }
    }
}
