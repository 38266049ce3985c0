//! Exact percentile estimation.
//!
//! The performance simulator reports p95/p99 tail latencies (Figs. 7–8 of
//! the paper). [`Percentiles`] collects samples and computes exact order
//! statistics.

/// Computes the `q`-quantile (`q` in `[0, 1]`) of an already **sorted**
/// slice by linear interpolation between closest ranks.
///
/// Returns `None` for an empty slice.
///
/// # Example
///
/// ```
/// # use gsf_stats::percentile::percentile_sorted;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile_sorted(&xs, 0.5), Some(2.5));
/// assert_eq!(percentile_sorted(&xs, 1.0), Some(4.0));
/// ```
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Collects samples and computes exact percentiles on demand.
///
/// Maintains an insertion buffer and sorts lazily, so repeated queries are
/// cheap. All latencies in the tail-latency experiments flow through this.
#[derive(Debug, Clone, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a collector with pre-allocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        Self { samples: Vec::with_capacity(n), sorted: true }
    }

    /// Records a sample. Non-finite samples are ignored (and would
    /// otherwise poison sorting).
    pub fn record(&mut self, x: f64) {
        if x.is_finite() {
            self.samples.push(x);
            self.sorted = false;
        }
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile of the recorded samples; `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        self.ensure_sorted();
        percentile_sorted(&self.samples, q)
    }

    /// Convenience: the 95th percentile.
    pub fn p95(&mut self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Arithmetic mean of the recorded samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Maximum recorded sample; `None` when empty.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Returns the samples, sorted ascending.
    pub fn into_sorted(mut self) -> Vec<f64> {
        self.ensure_sorted();
        self.samples
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }
}

impl Extend<f64> for Percentiles {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Percentiles {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut p = Percentiles::new();
        p.extend(iter);
        p
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_is_none() {
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert!(Percentiles::new().quantile(0.5).is_none());
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile_sorted(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile_sorted(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0];
        assert_eq!(percentile_sorted(&xs, 0.25), Some(12.5));
    }

    #[test]
    fn collector_matches_direct_computation() {
        let mut p: Percentiles = (1..=100).map(|i| i as f64).collect();
        assert_eq!(p.quantile(0.95), Some(95.05));
        assert_eq!(p.mean(), Some(50.5));
        assert_eq!(p.max(), Some(100.0));
    }

    #[test]
    fn collector_ignores_non_finite() {
        let mut p = Percentiles::new();
        p.record(f64::NAN);
        p.record(f64::INFINITY);
        p.record(1.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.quantile(0.5), Some(1.0));
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut p: Percentiles = (0..1000).map(|i| ((i * 37) % 997) as f64).collect();
        let q50 = p.quantile(0.5).unwrap();
        let q95 = p.quantile(0.95).unwrap();
        let q99 = p.quantile(0.99).unwrap();
        assert!(q50 <= q95 && q95 <= q99);
    }
}
