//! Per-application carbon attribution (§IV-A).
//!
//! The carbon model's output is deliberately amortized "at a hardware
//! resource granularity that allows attributing emissions to VMs". This
//! module closes that loop: it combines the allocation simulator's
//! [`UsageLedger`] (core-hours per application, per pool) with per-core
//! emission *rates* (kg CO₂e per core-hour, from the lifetime-amortized
//! assessments) into the per-application carbon report a cloud customer
//! would see.

use gsf_carbon::Assessment;
use gsf_vmalloc::UsageLedger;
use gsf_workloads::ApplicationModel;

/// Carbon attributed to one application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppAttribution {
    /// Application name.
    pub app: String,
    /// Core-hours on baseline servers.
    pub baseline_core_hours: f64,
    /// Core-hours on GreenSKUs.
    pub green_core_hours: f64,
    /// Attributed emissions, kg CO₂e.
    pub kg_co2e: f64,
}

/// A full attribution report for one replayed cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionReport {
    /// Per-application rows, descending by attributed emissions.
    pub apps: Vec<AppAttribution>,
    /// kg CO₂e per baseline core-hour used.
    pub baseline_rate: f64,
    /// kg CO₂e per green core-hour used.
    pub green_rate: f64,
}

impl AttributionReport {
    /// Builds the report.
    ///
    /// Emission rates derive from each SKU's lifetime-amortized per-core
    /// total divided by the lifetime hours, so a VM's attributed carbon
    /// is `core-hours × rate` on whichever pool hosted it.
    pub fn new(
        usage: &UsageLedger,
        apps: &[ApplicationModel],
        baseline: &Assessment,
        green: &Assessment,
        lifetime_hours: f64,
    ) -> Self {
        assert!(lifetime_hours > 0.0, "lifetime must be positive");
        let baseline_rate = baseline.total_per_core().get() / lifetime_hours;
        let green_rate = green.total_per_core().get() / lifetime_hours;
        let mut rows: Vec<AppAttribution> = usage
            .app_indices()
            .into_iter()
            .map(|idx| {
                let b = usage.baseline_core_hours(idx);
                let g = usage.green_core_hours(idx);
                let name = apps
                    .get(usize::from(idx) % apps.len().max(1))
                    .map_or_else(|| format!("app-{idx}"), |a| a.name().to_string());
                AppAttribution {
                    app: name,
                    baseline_core_hours: b,
                    green_core_hours: g,
                    kg_co2e: b * baseline_rate + g * green_rate,
                }
            })
            .collect();
        rows.sort_by(|a, b| b.kg_co2e.total_cmp(&a.kg_co2e));
        Self { apps: rows, baseline_rate, green_rate }
    }

    /// Total attributed emissions.
    pub fn total_kg(&self) -> f64 {
        self.apps.iter().map(|a| a.kg_co2e).sum()
    }

    /// The emissions the same usage would have caused on an all-baseline
    /// cluster — the per-customer savings view.
    pub fn counterfactual_all_baseline_kg(&self) -> f64 {
        self.apps
            .iter()
            .map(|a| (a.baseline_core_hours + a.green_core_hours) * self.baseline_rate)
            .sum()
    }

    /// Fractional attributed savings vs the all-baseline counterfactual.
    ///
    /// Note: this is the *customer-visible* number; it ignores the
    /// scaling-factor inflation already baked into green core-hours, so
    /// it is an upper bound on the fleet-level savings.
    pub fn attributed_savings(&self) -> f64 {
        let cf = self.counterfactual_all_baseline_kg();
        if cf <= 0.0 {
            0.0
        } else {
            1.0 - self.total_kg() / cf
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_carbon::datasets::open_source;
    use gsf_carbon::{CarbonModel, ModelParams};
    use gsf_workloads::catalog;

    fn assessments() -> (Assessment, Assessment) {
        let carbon = CarbonModel::new(ModelParams::default_open_source());
        (
            carbon.assess(&open_source::baseline_gen3()).unwrap(),
            carbon.assess(&open_source::greensku_full()).unwrap(),
        )
    }

    fn ledger() -> UsageLedger {
        let mut l = UsageLedger::new();
        l.record_baseline(0, 8, 3600.0 * 10.0); // Redis: 80 baseline core-h
        l.record_green(0, 8, 3600.0 * 10.0); // Redis: 80 green core-h
        l.record_green(8, 10, 3600.0 * 20.0); // Moses: 200 green core-h
        l
    }

    #[test]
    fn attribution_sums_and_orders() {
        let (b, g) = assessments();
        let report = AttributionReport::new(&ledger(), &catalog::applications(), &b, &g, 52_560.0);
        assert_eq!(report.apps.len(), 2);
        // Moses consumed more green core-hours: attributed more carbon.
        assert_eq!(report.apps[0].app, "Moses");
        let manual: f64 =
            80.0 * report.baseline_rate + 80.0 * report.green_rate + 200.0 * report.green_rate;
        assert!((report.total_kg() - manual).abs() < 1e-9);
    }

    #[test]
    fn green_rate_below_baseline_rate() {
        let (b, g) = assessments();
        let report = AttributionReport::new(&ledger(), &catalog::applications(), &b, &g, 52_560.0);
        assert!(report.green_rate < report.baseline_rate);
        // So attributed savings are positive for green-hosted usage.
        assert!(report.attributed_savings() > 0.0);
    }

    #[test]
    fn counterfactual_uses_baseline_rate_for_everything() {
        let (b, g) = assessments();
        let report = AttributionReport::new(&ledger(), &catalog::applications(), &b, &g, 52_560.0);
        let expected = (80.0 + 80.0 + 200.0) * report.baseline_rate;
        assert!((report.counterfactual_all_baseline_kg() - expected).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_empty_report() {
        let (b, g) = assessments();
        let report =
            AttributionReport::new(&UsageLedger::new(), &catalog::applications(), &b, &g, 52_560.0);
        assert!(report.apps.is_empty());
        assert_eq!(report.total_kg(), 0.0);
        assert_eq!(report.attributed_savings(), 0.0);
    }

    #[test]
    #[should_panic(expected = "lifetime")]
    fn rejects_zero_lifetime() {
        let (b, g) = assessments();
        AttributionReport::new(&UsageLedger::new(), &catalog::applications(), &b, &g, 0.0);
    }
}
