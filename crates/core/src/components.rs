//! The GSF component interfaces (Fig. 6) and their default,
//! production-faithful implementations.
//!
//! GSF's claim is that the *relationships* between components are fixed
//! while each component's *implementation* is cloud-specific. These
//! traits encode the relationships — each trait's methods are exactly
//! the inputs/outputs the paper's Fig. 6 draws between boxes — and the
//! `Default*` structs implement them the way §V does for Azure.

use gsf_carbon::{Assessment, CarbonError, CarbonModel, ModelParams, ServerSpec};
use gsf_maintenance::{ComponentAfrs, FipPolicy, ServerAfr};
use gsf_perf::{MemoryPlacement, ScalingFactor, SkuPerfProfile};
use gsf_workloads::{ApplicationModel, ServerGeneration};

/// Carbon-model component: SKU design → amortized CO₂e per core.
pub trait CarbonComponent {
    /// Assesses a SKU at data-center level.
    ///
    /// # Errors
    ///
    /// Implementations return a [`CarbonError`] when the SKU or model
    /// parameters are invalid.
    fn assess(&self, sku: &ServerSpec) -> Result<Assessment, CarbonError>;
}

/// Performance component: (GreenSKU, baseline, app) → scaling factor.
pub trait PerformanceComponent {
    /// The scaling factor for `app` on the GreenSKU relative to the
    /// baseline of `generation`.
    fn scaling_factor(&self, app: &ApplicationModel, generation: ServerGeneration)
        -> ScalingFactor;
}

/// Maintenance component: SKU device counts → repair rate per 100
/// servers after Fail-In-Place.
pub trait MaintenanceComponent {
    /// Post-FIP repair rate for a server with the given DIMM/SSD counts.
    fn repair_rate(&self, dimms: u32, ssds: u32) -> f64;

    /// Fraction of servers out of service given the repair rate.
    fn oos_fraction(&self, repair_rate: f64) -> f64;
}

/// Default carbon component: the `gsf-carbon` model.
#[derive(Debug, Clone)]
pub struct DefaultCarbon {
    model: CarbonModel,
}

impl DefaultCarbon {
    /// Creates the component with the given model parameters.
    pub fn new(params: ModelParams) -> Self {
        Self { model: CarbonModel::new(params) }
    }

    /// The wrapped model.
    pub fn model(&self) -> &CarbonModel {
        &self.model
    }
}

impl CarbonComponent for DefaultCarbon {
    fn assess(&self, sku: &ServerSpec) -> Result<Assessment, CarbonError> {
        self.model.assess(sku)
    }
}

/// Default performance component: the `gsf-perf` slowdown model and
/// capacity-matching scaling rule.
#[derive(Debug, Clone)]
pub struct DefaultPerformance {
    green: SkuPerfProfile,
    placement: MemoryPlacement,
}

impl DefaultPerformance {
    /// Creates the component for a GreenSKU profile under a memory
    /// placement policy.
    pub fn new(green: SkuPerfProfile, placement: MemoryPlacement) -> Self {
        Self { green, placement }
    }
}

impl PerformanceComponent for DefaultPerformance {
    fn scaling_factor(
        &self,
        app: &ApplicationModel,
        generation: ServerGeneration,
    ) -> ScalingFactor {
        gsf_perf::scaling::scaling_for_generation(app, &self.green, self.placement, generation)
    }
}

/// Default maintenance component: paper AFRs, 75 % FIP, 5-day repairs.
#[derive(Debug, Clone)]
pub struct DefaultMaintenance {
    afrs: ComponentAfrs,
    fip: FipPolicy,
    repair_days: f64,
}

impl DefaultMaintenance {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self { afrs: ComponentAfrs::paper(), fip: FipPolicy::paper(), repair_days: 5.0 }
    }
}

impl Default for DefaultMaintenance {
    fn default() -> Self {
        Self::paper()
    }
}

impl MaintenanceComponent for DefaultMaintenance {
    fn repair_rate(&self, dimms: u32, ssds: u32) -> f64 {
        self.fip.repair_rate(&ServerAfr::new(&self.afrs, dimms, ssds))
    }

    fn oos_fraction(&self, repair_rate: f64) -> f64 {
        gsf_maintenance::oos_fraction(repair_rate, self.repair_days)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_carbon::datasets::open_source;
    use gsf_workloads::catalog;

    #[test]
    fn default_carbon_assesses_table_viii_skus() {
        let carbon = DefaultCarbon::new(ModelParams::default_open_source());
        for sku in open_source::table_viii_skus() {
            let a = carbon.assess(&sku).unwrap();
            assert!(a.total_per_core().get() > 0.0, "{}", sku.name());
        }
    }

    #[test]
    fn default_performance_matches_perf_crate() {
        let perf = DefaultPerformance::new(
            SkuPerfProfile::greensku_efficient(),
            MemoryPlacement::LocalOnly,
        );
        let redis = catalog::by_name("Redis").unwrap();
        assert_eq!(perf.scaling_factor(&redis, ServerGeneration::Gen3), ScalingFactor::One);
        let silo = catalog::by_name("Silo").unwrap();
        assert_eq!(
            perf.scaling_factor(&silo, ServerGeneration::Gen3),
            ScalingFactor::MoreThanOnePointFive
        );
    }

    #[test]
    fn default_maintenance_golden_rates() {
        let m = DefaultMaintenance::paper();
        assert!((m.repair_rate(12, 6) - 3.0).abs() < 1e-12);
        assert!((m.repair_rate(20, 14) - 3.6).abs() < 1e-12);
        let oos = m.oos_fraction(3.0);
        assert!(oos > 0.0 && oos < 0.01);
    }

    #[test]
    fn components_usable_as_trait_objects() {
        let carbon: Box<dyn CarbonComponent> =
            Box::new(DefaultCarbon::new(ModelParams::default_open_source()));
        let a = carbon.assess(&open_source::baseline_gen3()).unwrap();
        assert_eq!(a.sku(), "Baseline (Gen3)");
        let maint: Box<dyn MaintenanceComponent> = Box::new(DefaultMaintenance::paper());
        assert!(maint.repair_rate(12, 6) > 0.0);
    }
}
