//! Multi-run summary statistics for the arena harness.
//!
//! The chaoran fast-wait-free-queue driver (SNIPPETS.md snippet 2) reports
//! the **mean** of up to ten runs together with the **standard deviation**
//! and a **margin of error**; the wCQ paper (arXiv:2201.02179) evaluates
//! the same way. This module reproduces that reporting: sample mean,
//! sample (n−1) standard deviation, and a 95 % confidence half-width from
//! Student's t distribution — the margin of error the `pairwise` arena
//! writes into `results/BENCH_arena.json`.

/// Two-sided 97.5 % Student's t quantiles for 1–30 degrees of freedom;
/// larger samples fall back to the normal quantile 1.96. Values are the
/// standard table entries (Abramowitz & Stegun 26.7), which is plenty for
/// a margin-of-error readout.
const T_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The 97.5 % t quantile for `df` degrees of freedom (95 % two-sided
/// confidence). `df = 0` has no defined interval; callers never ask for it
/// (a single sample reports a zero margin instead).
pub fn t_quantile_975(df: usize) -> f64 {
    match df {
        0 => f64::NAN,
        1..=30 => T_975[df - 1],
        _ => 1.96,
    }
}

/// Summary of one sample set (one contender × thread-count cell's measured
/// runs, in Mops/s).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single sample).
    pub stddev: f64,
    /// 95 % confidence half-width: `t(0.975, n−1) · stddev / √n`
    /// (0 for a single sample — no spread information, not certainty).
    pub moe: f64,
}

impl Summary {
    /// Summarizes `samples`. Returns `None` for an empty slice or when any
    /// sample is non-finite (NaN/±∞) — a NaN throughput means the run
    /// itself was broken, and silently averaging it would launder the
    /// failure into a plausible-looking number.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Some(Self {
                n,
                mean,
                stddev: 0.0,
                moe: 0.0,
            });
        }
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
        let stddev = var.sqrt();
        let moe = t_quantile_975(n - 1) * stddev / (n as f64).sqrt();
        Some(Self {
            n,
            mean,
            stddev,
            moe,
        })
    }

    /// The margin of error as a percentage of the mean (what the chaoran
    /// driver prints); 0 when the mean is 0.
    pub fn moe_pct(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            100.0 * self.moe / self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() <= eps
    }

    #[test]
    fn mean_and_stddev_match_closed_form() {
        // Textbook set: mean 5, sample variance 32/7, stddev √(32/7).
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert!(close(s.mean, 5.0, 1e-12), "mean {}", s.mean);
        let expect = (32.0f64 / 7.0).sqrt();
        assert!(close(s.stddev, expect, 1e-12), "stddev {}", s.stddev);
        // moe = t(0.975, 7) · stddev / √8
        let moe = 2.365 * expect / 8.0f64.sqrt();
        assert!(close(s.moe, moe, 1e-9), "moe {}", s.moe);
    }

    #[test]
    fn constant_samples_have_zero_spread() {
        let s = Summary::from_samples(&[3.25; 10]).unwrap();
        assert!(close(s.mean, 3.25, 1e-12));
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.moe, 0.0);
        assert_eq!(s.moe_pct(), 0.0);
    }

    #[test]
    fn two_samples_use_the_wide_t_quantile() {
        // n=2: stddev = |a−b|/√2, moe = 12.706 · stddev / √2.
        let s = Summary::from_samples(&[1.0, 3.0]).unwrap();
        assert!(close(s.mean, 2.0, 1e-12));
        assert!(close(s.stddev, 2.0f64.sqrt(), 1e-12));
        assert!(close(s.moe, 12.706 * 2.0f64.sqrt() / 2.0f64.sqrt(), 1e-9));
        assert!(s.moe > s.stddev, "tiny samples must report wide margins");
    }

    #[test]
    fn single_sample_has_zero_margin_not_nan() {
        let s = Summary::from_samples(&[7.5]).unwrap();
        assert_eq!((s.n, s.mean), (1, 7.5));
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.moe, 0.0);
        assert!(s.moe.is_finite() && s.stddev.is_finite());
    }

    #[test]
    fn nan_and_infinite_samples_are_rejected() {
        assert!(Summary::from_samples(&[1.0, f64::NAN, 2.0]).is_none());
        assert!(Summary::from_samples(&[f64::INFINITY]).is_none());
        assert!(Summary::from_samples(&[1.0, f64::NEG_INFINITY]).is_none());
        assert!(Summary::from_samples(&[]).is_none());
    }

    #[test]
    fn moe_pct_scales_with_the_mean() {
        let s = Summary::from_samples(&[9.0, 10.0, 11.0]).unwrap();
        assert!(close(s.moe_pct(), 100.0 * s.moe / 10.0, 1e-9));
        let zero = Summary::from_samples(&[0.0, 0.0]).unwrap();
        assert_eq!(zero.moe_pct(), 0.0);
    }

    #[test]
    fn t_table_boundaries() {
        assert!(t_quantile_975(0).is_nan());
        assert!(close(t_quantile_975(1), 12.706, 1e-9));
        assert!(close(t_quantile_975(30), 2.042, 1e-9));
        assert!(close(t_quantile_975(31), 1.96, 1e-9));
        assert!(close(t_quantile_975(1000), 1.96, 1e-9));
        // Quantiles decrease toward the normal limit.
        for df in 1..40 {
            assert!(t_quantile_975(df) >= t_quantile_975(df + 1) - 1e-12);
        }
    }
}
