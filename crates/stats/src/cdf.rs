//! Empirical cumulative distribution functions.
//!
//! Figures 9 and 10 of the paper are CDFs across traces/servers; this
//! module provides the container that backs them and the `(x, F(x))`
//! series the experiment harness writes out.

/// An empirical CDF over a finite sample.
///
/// # Example
///
/// ```
/// # use gsf_stats::cdf::EmpiricalCdf;
/// let cdf = EmpiricalCdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.eval(2.5), 0.5);
/// assert_eq!(cdf.quantile(1.0), Some(4.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds a CDF from samples; non-finite samples are dropped.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: the fraction of samples `<= x`. Returns 0 for an empty CDF.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile by closest-rank interpolation; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        crate::percentile::percentile_sorted(&self.sorted, q)
    }

    /// Minimum sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The underlying sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Renders the CDF as `(x, F(x))` pairs at each distinct sample —
    /// the series plotted in the paper's Figs. 9 and 10.
    pub fn series(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut out = Vec::with_capacity(n);
        let mut i = 0;
        while i < n {
            let x = self.sorted[i];
            // Advance past duplicates so F jumps once per distinct value.
            let mut j = i + 1;
            while j < n && self.sorted[j] == x {
                j += 1;
            }
            out.push((x, j as f64 / n as f64));
            i = j;
        }
        out
    }
}

impl FromIterator<f64> for EmpiricalCdf {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self::from_samples(iter.into_iter().collect())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf_behaves() {
        let cdf = EmpiricalCdf::from_samples(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.eval(1.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
        assert!(cdf.series().is_empty());
    }

    #[test]
    fn eval_is_right_continuous_step() {
        let cdf = EmpiricalCdf::from_samples(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.0), 0.75);
        assert_eq!(cdf.eval(3.0), 1.0);
        assert_eq!(cdf.eval(9.0), 1.0);
    }

    #[test]
    fn series_jumps_once_per_distinct_value() {
        let cdf = EmpiricalCdf::from_samples(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(cdf.series(), vec![(1.0, 0.25), (2.0, 0.75), (3.0, 1.0)]);
    }

    #[test]
    fn non_finite_samples_dropped() {
        let cdf = EmpiricalCdf::from_samples(vec![f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn quantile_bounds() {
        let cdf = EmpiricalCdf::from_samples(vec![5.0, 1.0, 3.0]);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(5.0));
        assert_eq!(cdf.min(), Some(1.0));
        assert_eq!(cdf.max(), Some(5.0));
    }
}
