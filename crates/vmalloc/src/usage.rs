//! Core-hour usage accounting, the substrate for per-VM carbon
//! attribution (§IV-A: the model must "allow attributing emissions to
//! VMs").

use std::collections::BTreeMap;

/// Core-seconds consumed per application index, split by pool.
///
/// The per-pool maps are `BTreeMap`s so every float reduction over them
/// ([`Self::total_baseline_core_hours`] and friends) accumulates in
/// ascending app-index order — a `HashMap` here summed `values()` in a
/// per-instance random order, so totals differed in the last bits
/// between otherwise identical runs (the same bug class `ServerState`'s
/// VM map had).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UsageLedger {
    baseline_core_s: BTreeMap<u16, f64>,
    green_core_s: BTreeMap<u16, f64>,
}

impl UsageLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed residency on the baseline pool.
    pub fn record_baseline(&mut self, app_index: u16, cores: u32, seconds: f64) {
        *self.baseline_core_s.entry(app_index).or_default() += f64::from(cores) * seconds.max(0.0);
    }

    /// Records a completed residency on the green pool.
    pub fn record_green(&mut self, app_index: u16, cores: u32, seconds: f64) {
        *self.green_core_s.entry(app_index).or_default() += f64::from(cores) * seconds.max(0.0);
    }

    /// Core-hours an application consumed on baseline servers.
    pub fn baseline_core_hours(&self, app_index: u16) -> f64 {
        self.baseline_core_s.get(&app_index).copied().unwrap_or(0.0) / 3600.0
    }

    /// Core-hours an application consumed on GreenSKUs.
    pub fn green_core_hours(&self, app_index: u16) -> f64 {
        self.green_core_s.get(&app_index).copied().unwrap_or(0.0) / 3600.0
    }

    /// Total core-hours across the baseline pool.
    pub fn total_baseline_core_hours(&self) -> f64 {
        self.baseline_core_s.values().sum::<f64>() / 3600.0
    }

    /// Total core-hours across the green pool.
    pub fn total_green_core_hours(&self) -> f64 {
        self.green_core_s.values().sum::<f64>() / 3600.0
    }

    /// Merges another ledger into this one, per-app in ascending app
    /// order on both pools — the sharded replay's fixed-order
    /// reduction (see [`crate::shard`]). Merging into an empty ledger
    /// reproduces `other` bit-for-bit (`0.0 + x == x` for the
    /// non-negative core-seconds recorded here).
    pub(crate) fn merge(&mut self, other: &UsageLedger) {
        for (&app, &core_s) in &other.baseline_core_s {
            *self.baseline_core_s.entry(app).or_default() += core_s;
        }
        for (&app, &core_s) in &other.green_core_s {
            *self.green_core_s.entry(app).or_default() += core_s;
        }
    }

    /// Application indices with any recorded usage, ascending.
    pub fn app_indices(&self) -> Vec<u16> {
        let mut idx: Vec<u16> =
            self.baseline_core_s.keys().chain(self.green_core_s.keys()).copied().collect();
        idx.sort_unstable();
        idx.dedup();
        idx
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut l = UsageLedger::new();
        l.record_baseline(3, 8, 3600.0);
        l.record_baseline(3, 4, 1800.0);
        l.record_green(3, 10, 7200.0);
        assert!((l.baseline_core_hours(3) - 10.0).abs() < 1e-9);
        assert!((l.green_core_hours(3) - 20.0).abs() < 1e-9);
        assert_eq!(l.baseline_core_hours(4), 0.0);
        assert_eq!(l.app_indices(), vec![3]);
    }

    #[test]
    fn negative_durations_clamped() {
        let mut l = UsageLedger::new();
        l.record_green(1, 8, -5.0);
        assert_eq!(l.total_green_core_hours(), 0.0);
    }

    #[test]
    fn totals_bitwise_independent_of_recording_order() {
        // Magnitudes chosen so float addition is order-sensitive:
        // 1e16 + 1.0 + 1.0 summed left-to-right loses one unit
        // ((1e16 + 1.0) == 1e16) while (1.0 + 1.0) + 1e16 does not.
        // The ledger must therefore fix the summation order (ascending
        // app index), making totals bitwise equal no matter the order
        // apps were recorded in.
        let contributions: [(u16, f64); 3] = [(0, 1e16), (1, 1.0), (2, 1.0)];
        let total_of = |order: &[usize]| {
            let mut l = UsageLedger::new();
            for &i in order {
                let (app, secs) = contributions[i];
                l.record_baseline(app, 1, secs);
            }
            l.total_baseline_core_hours().to_bits()
        };
        let reference = total_of(&[0, 1, 2]);
        for order in [[1, 0, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1], [0, 2, 1]] {
            assert_eq!(total_of(&order), reference);
        }
        // And the fixed order is ascending app index: 1e16 first.
        assert_eq!(f64::from_bits(reference), (1e16 + 1.0 + 1.0) / 3600.0);
    }

    #[test]
    fn totals_sum_across_apps() {
        let mut l = UsageLedger::new();
        l.record_baseline(0, 2, 3600.0);
        l.record_baseline(1, 4, 3600.0);
        assert!((l.total_baseline_core_hours() - 6.0).abs() < 1e-9);
        assert_eq!(l.app_indices(), vec![0, 1]);
    }
}
