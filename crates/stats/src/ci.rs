//! Confidence intervals for the mean.
//!
//! The paper reports three-trial measurements with 99 % confidence
//! intervals; [`ConfidenceInterval`] implements the Student-t interval the
//! experiment harness attaches to every latency series.

use crate::summary::Summary;

/// A two-sided confidence interval around a sample mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    mean: f64,
    half_width: f64,
    level: f64,
}

impl ConfidenceInterval {
    /// Computes a confidence interval for the mean of `samples` at the
    /// given confidence `level` (e.g. `0.99`).
    ///
    /// Returns `None` for fewer than two samples (the interval is
    /// undefined).
    pub fn from_samples(samples: &[f64], level: f64) -> Option<Self> {
        let s = Summary::from_samples(samples);
        if s.count() < 2 {
            return None;
        }
        let t = t_critical(level, s.count() - 1);
        Some(Self { mean: s.mean(), half_width: t * s.std_error(), level })
    }

    /// Sample mean at the interval's centre.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// The confidence level (e.g. 0.99).
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.half_width)
    }
}

/// Two-sided Student-t critical value for the given confidence level and
/// degrees of freedom.
///
/// Tabulated for the levels the experiments use (90 %, 95 %, 99 %) at
/// small degrees of freedom, falling back to the normal-approximation z
/// value for large `df` or other levels.
pub fn t_critical(level: f64, df: usize) -> f64 {
    // Rows: df 1..=30; columns chosen per level below.
    const T95: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    const T99: [f64; 30] = [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
        2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
        2.771, 2.763, 2.756, 2.750,
    ];
    const T90: [f64; 30] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
        1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
        1.703, 1.701, 1.699, 1.697,
    ];
    let df = df.max(1);
    let table = if (level - 0.99).abs() < 1e-9 {
        Some(&T99)
    } else if (level - 0.95).abs() < 1e-9 {
        Some(&T95)
    } else if (level - 0.90).abs() < 1e-9 {
        Some(&T90)
    } else {
        None
    };
    match table {
        Some(t) if df <= 30 => t[df - 1],
        Some(t) => {
            // Beyond the table the t-distribution is close to normal; use
            // the df=30 entry relaxed toward the z-value.
            let z = z_value(level);
            let t30 = t[29];
            // Simple 1/df interpolation between t30 and z.
            z + (t30 - z) * 30.0 / df as f64
        }
        None => z_value(level),
    }
}

/// Two-sided standard-normal critical value for common levels.
fn z_value(level: f64) -> f64 {
    if (level - 0.99).abs() < 1e-9 {
        2.576
    } else if (level - 0.95).abs() < 1e-9 {
        1.960
    } else if (level - 0.90).abs() < 1e-9 {
        1.645
    } else {
        // Rough inverse via bisection on erf-based CDF approximation.
        let target = 0.5 + level / 2.0;
        let (mut lo, mut hi) = (0.0_f64, 10.0_f64);
        for _ in 0..80 {
            let mid = (lo + hi) / 2.0;
            if normal_cdf(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) / 2.0
    }
}

/// Standard normal CDF via the Abramowitz–Stegun erf approximation.
fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26, max error ~1.5e-7.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn too_few_samples_is_none() {
        assert!(ConfidenceInterval::from_samples(&[1.0], 0.99).is_none());
        assert!(ConfidenceInterval::from_samples(&[], 0.99).is_none());
    }

    #[test]
    fn three_trials_99pct() {
        // df = 2, t = 9.925; samples mean 10, sd 1.
        let ci = ConfidenceInterval::from_samples(&[9.0, 10.0, 11.0], 0.99).unwrap();
        assert!((ci.mean() - 10.0).abs() < 1e-12);
        let expected_hw = 9.925 * 1.0 / 3.0_f64.sqrt();
        assert!((ci.half_width() - expected_hw).abs() < 1e-9);
        assert!(ci.contains(10.0));
        assert!(!ci.contains(100.0));
    }

    #[test]
    fn wider_at_higher_confidence() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let c90 = ConfidenceInterval::from_samples(&xs, 0.90).unwrap();
        let c99 = ConfidenceInterval::from_samples(&xs, 0.99).unwrap();
        assert!(c99.half_width() > c90.half_width());
    }

    #[test]
    fn t_approaches_z_for_large_df() {
        let t = t_critical(0.95, 10_000);
        assert!((t - 1.960).abs() < 0.01, "t={t}");
    }

    #[test]
    fn generic_level_reasonable() {
        // 98% two-sided z is about 2.326.
        let z = t_critical(0.98, 100_000);
        assert!((z - 2.326).abs() < 0.02, "z={z}");
    }

    #[test]
    fn erf_sanity() {
        // The A&S approximation has ~1.5e-7 absolute error.
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427).abs() < 1e-3);
        assert!((erf(-1.0) + 0.8427).abs() < 1e-3);
    }
}
