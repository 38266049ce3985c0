//! Fail-In-Place: deactivating failed DIMMs/SSDs instead of repairing
//! the server (Hyrax), which converts a fraction of media failures into
//! non-repairs.

use crate::afr::ServerAfr;

/// FIP policy: what fraction of DRAM/SSD failures are absorbed in place.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FipPolicy {
    /// Effectiveness in [0, 1]; the paper uses a conservative 0.75.
    pub effectiveness: f64,
}

impl FipPolicy {
    /// The paper's conservative 75 % effectiveness.
    pub fn paper() -> Self {
        Self { effectiveness: 0.75 }
    }

    /// FIP disabled.
    pub fn disabled() -> Self {
        Self { effectiveness: 0.0 }
    }

    /// Repair rate (per 100 servers per year) after FIP absorbs its
    /// share of media failures.
    ///
    /// # Panics
    ///
    /// Panics if effectiveness is outside `[0, 1]`.
    pub fn repair_rate(&self, afr: &ServerAfr) -> f64 {
        assert!((0.0..=1.0).contains(&self.effectiveness), "FIP effectiveness must be in [0,1]");
        afr.total - self.effectiveness * afr.repairable_by_fip
    }
}

impl Default for FipPolicy {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn paper_repair_rates_golden() {
        // §V: 4.8 → 3.0 for the baseline, 7.2 → 3.6 for GreenSKU-Full.
        let fip = FipPolicy::paper();
        assert!((fip.repair_rate(&ServerAfr::baseline()) - 3.0).abs() < 1e-12);
        assert!((fip.repair_rate(&ServerAfr::greensku_full()) - 3.6).abs() < 1e-12);
    }

    #[test]
    fn disabled_fip_repairs_everything() {
        let fip = FipPolicy::disabled();
        assert!((fip.repair_rate(&ServerAfr::baseline()) - 4.8).abs() < 1e-12);
    }

    #[test]
    fn full_effectiveness_leaves_other_failures() {
        let fip = FipPolicy { effectiveness: 1.0 };
        assert!((fip.repair_rate(&ServerAfr::greensku_full()) - 2.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "effectiveness")]
    fn rejects_out_of_range() {
        FipPolicy { effectiveness: 1.5 }.repair_rate(&ServerAfr::baseline());
    }

    #[test]
    fn fip_helps_greensku_more_in_absolute_terms() {
        let fip = FipPolicy::paper();
        let saved_base = ServerAfr::baseline().total - fip.repair_rate(&ServerAfr::baseline());
        let saved_full =
            ServerAfr::greensku_full().total - fip.repair_rate(&ServerAfr::greensku_full());
        assert!(saved_full > saved_base);
    }
}
