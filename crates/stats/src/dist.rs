//! Distribution samplers implemented from first principles.
//!
//! `rand_distr` is not available in the offline dependency set, so the
//! samplers the workload and performance simulators need are implemented
//! here: [`Exponential`] (inverse CDF), [`LogNormal`] (Box–Muller),
//! [`Pareto`] (inverse CDF), and [`Categorical`] (cumulative-weight
//! table).
//!
//! All samplers implement [`rand::distributions::Distribution<f64>`] (or
//! `<usize>` for the discrete ones), so they compose with any
//! [`rand::Rng`].

use rand::distributions::Distribution;
use rand::Rng;
use std::fmt;

/// Error constructing a distribution from invalid parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A parameter that must be strictly positive was not.
    NonPositive {
        /// Human-readable parameter name.
        param: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A weight table was empty or summed to zero.
    DegenerateWeights,
    /// A parameter was not finite.
    NotFinite {
        /// Human-readable parameter name.
        param: &'static str,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::NonPositive { param, value } => {
                write!(f, "parameter `{param}` must be positive, got {value}")
            }
            DistError::DegenerateWeights => {
                write!(f, "weight table was empty or summed to zero")
            }
            DistError::NotFinite { param } => {
                write!(f, "parameter `{param}` must be finite")
            }
        }
    }
}

impl std::error::Error for DistError {}

fn check_positive(param: &'static str, value: f64) -> Result<f64, DistError> {
    if !value.is_finite() {
        return Err(DistError::NotFinite { param });
    }
    if value <= 0.0 {
        return Err(DistError::NonPositive { param, value });
    }
    Ok(value)
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Sampled by inverse-CDF: `-ln(1-U)/lambda`.
///
/// # Example
///
/// ```
/// # use gsf_stats::dist::Exponential;
/// let d = Exponential::new(4.0)?;
/// assert_eq!(d.mean(), 0.25);
/// # Ok::<(), gsf_stats::dist::DistError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::NonPositive`] if `lambda <= 0` and
    /// [`DistError::NotFinite`] if it is NaN or infinite.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        Ok(Self { lambda: check_positive("lambda", lambda)? })
    }

    /// Creates an exponential distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns an error if `mean` is not strictly positive and finite.
    pub fn with_mean(mean: f64) -> Result<Self, DistError> {
        let mean = check_positive("mean", mean)?;
        Self::new(1.0 / mean)
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Analytic mean, `1/lambda`.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

impl Distribution<f64> for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1-U in (0,1]; ln is finite.
        let u: f64 = rng.gen::<f64>();
        -(1.0 - u).max(f64::MIN_POSITIVE).ln() / self.lambda
    }
}

/// Lognormal distribution parameterized by the mean and sigma of the
/// underlying normal (`mu`, `sigma`).
///
/// Sampled via Box–Muller. Commonly used here for service times, which are
/// right-skewed with occasional stragglers — the property that produces
/// realistic tail-latency knees in the queueing simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal from the underlying normal's `mu` and `sigma`.
    ///
    /// # Errors
    ///
    /// Returns an error if `sigma` is not strictly positive and finite, or
    /// `mu` is not finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !mu.is_finite() {
            return Err(DistError::NotFinite { param: "mu" });
        }
        Ok(Self { mu, sigma: check_positive("sigma", sigma)? })
    }

    /// Creates a lognormal with a target arithmetic `mean` and a shape
    /// `sigma` of the underlying normal.
    ///
    /// Solves `mean = exp(mu + sigma^2/2)` for `mu`.
    ///
    /// # Errors
    ///
    /// Returns an error if `mean` or `sigma` is not strictly positive and
    /// finite.
    pub fn with_mean(mean: f64, sigma: f64) -> Result<Self, DistError> {
        let mean = check_positive("mean", mean)?;
        let sigma = check_positive("sigma", sigma)?;
        Self::new(mean.ln() - sigma * sigma / 2.0, sigma)
    }

    /// Analytic arithmetic mean, `exp(mu + sigma^2/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// `mu` of the underlying normal.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// `sigma` of the underlying normal.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Distribution<f64> for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller: one normal variate per sample (we discard the pair's
        // second half for simplicity; throughput is not a concern here).
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// Pareto (Type I) distribution with scale `x_min` and shape `alpha`.
///
/// Used for heavy-tailed VM lifetimes: most VMs are short-lived while a
/// small mass lives for a long time, matching public cloud traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with scale `x_min` and shape `alpha`.
    ///
    /// # Errors
    ///
    /// Returns an error if either parameter is not strictly positive and
    /// finite.
    pub fn new(x_min: f64, alpha: f64) -> Result<Self, DistError> {
        Ok(Self { x_min: check_positive("x_min", x_min)?, alpha: check_positive("alpha", alpha)? })
    }

    /// Analytic mean; infinite when `alpha <= 1`.
    pub fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.x_min / (self.alpha - 1.0)
        }
    }

    /// The scale (minimum value).
    pub fn x_min(&self) -> f64 {
        self.x_min
    }

    /// The shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Distribution<f64> for Pareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>();
        self.x_min / (1.0 - u).max(f64::MIN_POSITIVE).powf(1.0 / self.alpha)
    }
}

/// Categorical distribution over `{0, ..., n-1}` with arbitrary weights.
///
/// Used to assign application classes to VMs proportionally to fleet
/// core-hours (Table III of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Creates a categorical distribution from non-negative weights.
    ///
    /// Weights are normalized internally.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::DegenerateWeights`] if `weights` is empty, sums
    /// to zero, or contains a negative or non-finite entry.
    pub fn new(weights: &[f64]) -> Result<Self, DistError> {
        if weights.is_empty() {
            return Err(DistError::DegenerateWeights);
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(DistError::DegenerateWeights);
            }
            total += w;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return Err(DistError::DegenerateWeights);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Ok(Self { cumulative })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the distribution has no categories (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }
}

impl Distribution<usize> for Categorical {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cumulative.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => (i + 1).min(self.cumulative.len() - 1),
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::rng::SeedFactory;

    fn sample_mean<D: Distribution<f64>>(d: &D, n: usize) -> f64 {
        let mut rng = SeedFactory::new(99).stream("dist-tests");
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_rejects_bad_params() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::with_mean(0.0).is_err());
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(3.0).unwrap();
        let m = sample_mean(&d, 200_000);
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn lognormal_mean_matches() {
        let d = LogNormal::with_mean(2.0, 0.5).unwrap();
        assert!((d.mean() - 2.0).abs() < 1e-12);
        let m = sample_mean(&d, 200_000);
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn lognormal_rejects_bad_params() {
        assert!(LogNormal::new(f64::INFINITY, 1.0).is_err());
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::with_mean(-1.0, 0.5).is_err());
    }

    #[test]
    fn pareto_mean_matches() {
        let d = Pareto::new(1.0, 3.0).unwrap();
        assert!((d.mean() - 1.5).abs() < 1e-12);
        let m = sample_mean(&d, 400_000);
        assert!((m - 1.5).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn pareto_infinite_mean_flagged() {
        let d = Pareto::new(1.0, 0.9).unwrap();
        assert!(d.mean().is_infinite());
    }

    #[test]
    fn pareto_samples_at_least_x_min() {
        let d = Pareto::new(2.5, 1.2).unwrap();
        let mut rng = SeedFactory::new(1).stream("pareto");
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 2.5);
        }
    }

    #[test]
    fn categorical_rejects_degenerate() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[1.0, -0.5]).is_err());
        assert!(Categorical::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn categorical_empirical_matches_weights() {
        let c = Categorical::new(&[32.0, 27.0, 24.0, 11.0, 4.0, 1.0]).unwrap();
        let mut rng = SeedFactory::new(4).stream("cat");
        let n = 300_000;
        let mut counts = [0usize; 6];
        for _ in 0..n {
            counts[c.sample(&mut rng)] += 1;
        }
        let expected = [0.3232, 0.2727, 0.2424, 0.1111, 0.0404, 0.0101];
        for k in 0..6 {
            let emp = counts[k] as f64 / n as f64;
            assert!((emp - expected[k]).abs() < 0.01, "class {k}: {emp}");
        }
    }

    #[test]
    fn categorical_zero_weight_class_never_sampled() {
        let c = Categorical::new(&[1.0, 0.0, 1.0]).unwrap();
        let mut rng = SeedFactory::new(5).stream("cat0");
        for _ in 0..50_000 {
            assert_ne!(c.sample(&mut rng), 1);
        }
    }
}
