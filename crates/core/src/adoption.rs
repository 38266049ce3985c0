//! Adoption component (§IV-C, §V implementation): does running an
//! application on the GreenSKU save carbon while meeting its
//! performance goals?
//!
//! An application adopts the GreenSKU if the carbon to serve it there —
//! scaling factor × GreenSKU CO₂e-per-core — is below the carbon on the
//! baseline SKU (1 × baseline CO₂e-per-core); applications whose scaling
//! factor is ">1.5" never adopt. [`decide`] is that rule. The
//! [`VmRouter`](crate::VmRouter) tabulates it through an
//! [`AdoptionModel`] for every catalog application and baseline
//! generation, and design-space search applies it against Gen3.

use gsf_carbon::Assessment;
use gsf_perf::ScalingFactor;
use gsf_workloads::ServerGeneration;
use std::sync::Arc;

/// The outcome of an adoption decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdoptionDecision {
    /// Run on the GreenSKU, scaling VM cores and memory by `factor`.
    Adopt {
        /// The scaling factor applied to the VM's resources.
        factor: f64,
    },
    /// Stay on the baseline: scaling cannot match performance at all.
    RejectPerformance,
    /// Stay on the baseline: scaling would cost more carbon than it
    /// saves.
    RejectCarbon {
        /// The scaling factor that was evaluated.
        factor: f64,
    },
}

impl AdoptionDecision {
    /// Whether the app adopts the GreenSKU.
    pub fn adopts(&self) -> bool {
        matches!(self, AdoptionDecision::Adopt { .. })
    }

    /// The adopting scaling factor, if any.
    pub fn factor(&self) -> Option<f64> {
        match self {
            AdoptionDecision::Adopt { factor } => Some(*factor),
            _ => None,
        }
    }
}

/// The §IV-C rule: adopt at `factor` when `factor × green_per_core` is
/// below `baseline_per_core` (both kg CO₂e per core).
pub fn decide(
    factor: ScalingFactor,
    green_per_core: f64,
    baseline_per_core: f64,
) -> AdoptionDecision {
    match factor.value() {
        None => AdoptionDecision::RejectPerformance,
        Some(f) if f * green_per_core < baseline_per_core => AdoptionDecision::Adopt { factor: f },
        Some(f) => AdoptionDecision::RejectCarbon { factor: f },
    }
}

/// The carbon side of the rule: the GreenSKU's CO₂e per core and each
/// baseline generation's.
#[derive(Debug, Clone, Copy)]
pub struct AdoptionModel {
    green_per_core: f64,
    /// Indexed by `ServerGeneration as usize`.
    baseline_per_core: [f64; 3],
}

impl AdoptionModel {
    /// Builds the model from precomputed assessments. A generation
    /// missing from `baselines` keeps a NaN baseline, which no product
    /// is below, so every application stays on that generation's
    /// baseline.
    pub fn from_assessments(
        green: &Assessment,
        baselines: &[(ServerGeneration, Arc<Assessment>)],
    ) -> Self {
        let mut baseline_per_core = [f64::NAN; 3];
        for (generation, assessment) in baselines {
            baseline_per_core[*generation as usize] = assessment.total_per_core().get();
        }
        Self { green_per_core: green.total_per_core().get(), baseline_per_core }
    }

    /// Decides adoption, at the application's scaling `factor`, against
    /// the baseline of `generation`.
    pub fn decide(&self, factor: ScalingFactor, generation: ServerGeneration) -> AdoptionDecision {
        decide(factor, self.green_per_core, self.baseline_per_core[generation as usize])
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use gsf_carbon::datasets::open_source;
    use gsf_carbon::{CarbonModel, ModelParams, ServerSpec};
    use gsf_perf::scaling::scaling_for_generation;
    use gsf_perf::{MemoryPlacement, SkuPerfProfile};
    use gsf_workloads::{catalog, ApplicationModel, FleetMix};

    fn assess(sku: &ServerSpec) -> Arc<Assessment> {
        Arc::new(CarbonModel::new(ModelParams::default_open_source()).assess(sku).unwrap())
    }

    fn model() -> AdoptionModel {
        AdoptionModel::from_assessments(
            &assess(&open_source::greensku_full()),
            &[
                (ServerGeneration::Gen1, assess(&open_source::baseline_gen1())),
                (ServerGeneration::Gen2, assess(&open_source::baseline_gen2())),
                (ServerGeneration::Gen3, assess(&open_source::baseline_gen3())),
            ],
        )
    }

    /// `app`'s decision against Gen3, at its GreenSKU-CXL scaling factor
    /// under Pond placement.
    fn decide_gen3(m: &AdoptionModel, app: &ApplicationModel) -> AdoptionDecision {
        let perf = SkuPerfProfile::greensku_cxl();
        let factor =
            scaling_for_generation(app, &perf, MemoryPlacement::Pond, ServerGeneration::Gen3);
        m.decide(factor, ServerGeneration::Gen3)
    }

    fn by_name(name: &str) -> ApplicationModel {
        catalog::by_name(name).unwrap()
    }

    #[test]
    fn scale_out_apps_adopt_vs_gen3() {
        let m = model();
        for name in ["Redis", "Shore", "Img-DNN", "Caddy", "Envoy"] {
            let d = decide_gen3(&m, &by_name(name));
            assert_eq!(d, AdoptionDecision::Adopt { factor: 1.0 }, "{name}");
        }
    }

    #[test]
    fn unscalable_apps_rejected_on_performance() {
        let m = model();
        for name in ["Masstree", "Silo"] {
            let d = decide_gen3(&m, &by_name(name));
            assert_eq!(d, AdoptionDecision::RejectPerformance, "{name}");
        }
    }

    #[test]
    fn scaled_apps_adopt_when_carbon_still_favors_green() {
        // Moses needs 1.25× cores; GreenSKU-Full's per-core carbon is
        // ~26 % below Gen3's, so 1.25 × green < 1 × base holds.
        let d = decide_gen3(&model(), &by_name("Moses"));
        assert_eq!(d.factor(), Some(1.25));
    }

    #[test]
    fn majority_of_core_hours_adopt_vs_gen3() {
        // The paper's packing study assumes broad adoption; Table III
        // rejects only Masstree and Silo vs Gen3 (2 of 4 big-data apps).
        let m = model();
        let rate = FleetMix::standard().weighted_fraction(|app| decide_gen3(&m, app).adopts());
        assert!(rate > 0.7 && rate < 1.0, "adoption rate {rate}");
    }

    #[test]
    fn carbon_rejection_branch_reachable() {
        // With a GreenSKU as carbon-expensive as the baseline, scaled
        // apps must reject on carbon.
        let gen3 = assess(&open_source::baseline_gen3());
        let m = AdoptionModel::from_assessments(
            &gen3, // "green" = baseline itself
            &[(ServerGeneration::Gen3, Arc::clone(&gen3))],
        );
        let d = decide_gen3(&m, &by_name("Moses"));
        assert_eq!(d, AdoptionDecision::RejectCarbon { factor: 1.25 });
        assert!(!d.adopts());
        assert_eq!(d.factor(), None);
    }

    #[test]
    fn missing_generation_stays_on_baseline() {
        let m = AdoptionModel::from_assessments(
            &assess(&open_source::greensku_full()),
            &[(ServerGeneration::Gen3, assess(&open_source::baseline_gen3()))],
        );
        assert!(m.decide(ScalingFactor::One, ServerGeneration::Gen3).adopts());
        let d = m.decide(ScalingFactor::One, ServerGeneration::Gen1);
        assert_eq!(d, AdoptionDecision::RejectCarbon { factor: 1.0 });
    }
}
