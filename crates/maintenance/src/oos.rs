//! Out-of-service overheads via Little's law (§V).
//!
//! The fraction of servers out of service equals repair rate × mean
//! repair time (Little's law with repairs-in-progress as the "system").
//! `C_OOS` compares the carbon cost of those out-of-service servers
//! between SKUs: repair rate × relative server count × relative
//! per-server emissions.

/// The paper's mean time to repair a server (§V), in days.
pub const PAPER_REPAIR_DAYS: f64 = 5.0;

/// Fraction of servers out of service: `repair_rate` (per 100 servers
/// per year) × `repair_days` mean time to repair.
///
/// # Example
///
/// ```
/// use gsf_maintenance::{oos_fraction, PAPER_REPAIR_DAYS};
/// // 3 repairs per 100 servers per year, 5-day repairs:
/// // ~0.04 % of servers are out of service at any time.
/// let f = oos_fraction(3.0, PAPER_REPAIR_DAYS);
/// assert!((f - 3.0 / 100.0 * 5.0 / 365.0).abs() < 1e-12);
/// ```
pub fn oos_fraction(repair_rate_per_100: f64, repair_days: f64) -> f64 {
    (repair_rate_per_100 / 100.0) * (repair_days / 365.0)
}

/// The §V `C_OOS` comparison between a baseline SKU and a GreenSKU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoosComparison {
    /// Baseline `C_OOS` (repair rate × 1 × 1).
    pub baseline: f64,
    /// GreenSKU `C_OOS` (repair rate × relative server count × relative
    /// per-server emissions).
    pub greensku: f64,
}

impl CoosComparison {
    /// Computes `C_OOS` for both SKUs.
    ///
    /// * `baseline_repair_rate`, `green_repair_rate` — post-FIP repair
    ///   rates per 100 servers;
    /// * `green_servers_per_baseline` — GreenSKUs needed per baseline
    ///   server for the same workload (the paper measures 0.66);
    /// * `green_emissions_ratio` — GreenSKU per-server emissions over
    ///   baseline per-server emissions (the paper uses 1.262).
    pub fn compute(
        baseline_repair_rate: f64,
        green_repair_rate: f64,
        green_servers_per_baseline: f64,
        green_emissions_ratio: f64,
    ) -> Self {
        Self {
            baseline: baseline_repair_rate,
            greensku: green_repair_rate * green_servers_per_baseline * green_emissions_ratio,
        }
    }

    /// The paper's §V numbers: 3.0 and 3.6 repair rates, 0.66 servers,
    /// 1.262 emissions ratio.
    pub fn paper() -> Self {
        Self::compute(3.0, 3.6, 0.66, 1.262)
    }

    /// GreenSKU maintenance overhead relative to baseline
    /// (`greensku / baseline − 1`); the paper finds ≈ −1 % (negligible).
    pub fn relative_overhead(&self) -> f64 {
        self.greensku / self.baseline - 1.0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn paper_coos_golden() {
        // §V: C_OOS = 3.0 for baseline, ≈2.98 for GreenSKU-Full.
        let c = CoosComparison::paper();
        assert!((c.baseline - 3.0).abs() < 1e-12);
        assert!((c.greensku - 2.998).abs() < 0.01, "{}", c.greensku);
        // Overhead is negligible (within ±2 %).
        assert!(c.relative_overhead().abs() < 0.02);
    }

    #[test]
    fn oos_fraction_scales_linearly() {
        let base = oos_fraction(3.0, 5.0);
        assert!((oos_fraction(6.0, 5.0) - 2.0 * base).abs() < 1e-15);
        assert!((oos_fraction(3.0, 10.0) - 2.0 * base).abs() < 1e-15);
        assert_eq!(oos_fraction(0.0, 5.0), 0.0);
    }

    #[test]
    fn more_servers_or_emissions_increase_coos() {
        let a = CoosComparison::compute(3.0, 3.6, 0.66, 1.262);
        let b = CoosComparison::compute(3.0, 3.6, 1.0, 1.262);
        let c = CoosComparison::compute(3.0, 3.6, 0.66, 2.0);
        assert!(b.greensku > a.greensku);
        assert!(c.greensku > a.greensku);
    }
}
