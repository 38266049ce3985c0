//! Adoption component (§IV-C, §V implementation): does running an
//! application on the GreenSKU save carbon while meeting its
//! performance goals?
//!
//! An application adopts the GreenSKU if the carbon to serve it there —
//! scaling factor × GreenSKU CO₂e-per-core — is below the carbon on the
//! baseline SKU (1 × baseline CO₂e-per-core); applications whose scaling
//! factor is ">1.5" never adopt.

use crate::components::{CarbonComponent, PerformanceComponent};
use gsf_carbon::{Assessment, CarbonError, ServerSpec};
use gsf_perf::ScalingFactor;
use gsf_workloads::{ApplicationModel, ServerGeneration};
use std::collections::BTreeMap;

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

/// The adoption model: carbon assessments for the GreenSKU and every
/// baseline generation, combined with the performance component's
/// scaling factors.
pub struct AdoptionModel {
    green_per_core: f64,
    baseline_per_core: BTreeMap<ServerGeneration, f64>,
}

impl AdoptionModel {
    /// Builds the model by assessing the GreenSKU and baseline SKUs with
    /// `carbon`.
    ///
    /// # Errors
    ///
    /// Propagates assessment failures.
    pub fn new(
        carbon: &dyn CarbonComponent,
        green: &ServerSpec,
        baselines: &[(ServerGeneration, ServerSpec)],
    ) -> Result<Self, CarbonError> {
        let green_per_core = carbon.assess(green)?.total_per_core().get();
        let mut baseline_per_core = BTreeMap::new();
        for (generation, sku) in baselines {
            baseline_per_core.insert(*generation, carbon.assess(sku)?.total_per_core().get());
        }
        Ok(Self { green_per_core, baseline_per_core })
    }

    /// Builds the model from precomputed assessments.
    pub fn from_assessments(
        green: &Assessment,
        baselines: &[(ServerGeneration, Assessment)],
    ) -> Self {
        Self {
            green_per_core: green.total_per_core().get(),
            baseline_per_core: baselines
                .iter()
                .map(|(g, a)| (*g, a.total_per_core().get()))
                .collect(),
        }
    }

    /// GreenSKU CO₂e per core used by the model.
    pub fn green_per_core(&self) -> f64 {
        self.green_per_core
    }

    /// Decides adoption for `app` against the baseline of `generation`,
    /// with the scaling factor supplied by `perf`.
    ///
    /// # Panics
    ///
    /// Panics if `generation` was not supplied at construction.
    pub fn decide(
        &self,
        perf: &dyn PerformanceComponent,
        app: &ApplicationModel,
        generation: ServerGeneration,
    ) -> AdoptionDecision {
        let base_per_core = *self
            .baseline_per_core
            .get(&generation)
            // gsf-lint: allow(P1) -- documented "# Panics" contract: a generation missing at construction is a caller bug, not a model state
            .unwrap_or_else(|| panic!("no baseline assessment for {generation}"));
        match perf.scaling_factor(app, generation) {
            ScalingFactor::MoreThanOnePointFive => AdoptionDecision::RejectPerformance,
            factor => {
                let f = factor.value().expect("finite scaling factor");
                if f * self.green_per_core < base_per_core {
                    AdoptionDecision::Adopt { factor: f }
                } else {
                    AdoptionDecision::RejectCarbon { factor: f }
                }
            }
        }
    }

    /// The core-hour-weighted fraction of the fleet mix that adopts
    /// against `generation` (a summary statistic the experiments report).
    pub fn adoption_rate(
        &self,
        perf: &dyn PerformanceComponent,
        mix: &gsf_workloads::FleetMix,
        generation: ServerGeneration,
    ) -> f64 {
        mix.weighted_fraction(|app| self.decide(perf, app, generation).adopts())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::components::{DefaultCarbon, DefaultPerformance};
    use gsf_carbon::datasets::open_source;
    use gsf_carbon::ModelParams;
    use gsf_perf::{MemoryPlacement, SkuPerfProfile};
    use gsf_workloads::{catalog, FleetMix};

    fn model() -> AdoptionModel {
        let carbon = DefaultCarbon::new(ModelParams::default_open_source());
        AdoptionModel::new(
            &carbon,
            &open_source::greensku_full(),
            &[
                (ServerGeneration::Gen1, open_source::baseline_gen1()),
                (ServerGeneration::Gen2, open_source::baseline_gen2()),
                (ServerGeneration::Gen3, open_source::baseline_gen3()),
            ],
        )
        .unwrap()
    }

    fn perf() -> DefaultPerformance {
        DefaultPerformance::new(SkuPerfProfile::greensku_cxl(), MemoryPlacement::Pond)
    }

    #[test]
    fn scale_out_apps_adopt_vs_gen3() {
        let m = model();
        let p = perf();
        for name in ["Redis", "Shore", "Img-DNN", "Caddy", "Envoy"] {
            let d = m.decide(&p, &catalog::by_name(name).unwrap(), ServerGeneration::Gen3);
            assert_eq!(d, AdoptionDecision::Adopt { factor: 1.0 }, "{name}");
        }
    }

    #[test]
    fn unscalable_apps_rejected_on_performance() {
        let m = model();
        let p = perf();
        for name in ["Masstree", "Silo"] {
            let d = m.decide(&p, &catalog::by_name(name).unwrap(), ServerGeneration::Gen3);
            assert_eq!(d, AdoptionDecision::RejectPerformance, "{name}");
        }
    }

    #[test]
    fn scaled_apps_adopt_when_carbon_still_favors_green() {
        // Moses needs 1.25× cores; GreenSKU-Full's per-core carbon is
        // ~26 % below Gen3's, so 1.25 × green < 1 × base holds.
        let m = model();
        let d = m.decide(&perf(), &catalog::by_name("Moses").unwrap(), ServerGeneration::Gen3);
        assert_eq!(d.factor(), Some(1.25));
    }

    #[test]
    fn majority_of_core_hours_adopt_vs_gen3() {
        // The paper's packing study assumes broad adoption; Table III
        // rejects only Masstree and Silo vs Gen3 (2 of 4 big-data apps).
        let m = model();
        let rate = m.adoption_rate(&perf(), &FleetMix::standard(), ServerGeneration::Gen3);
        assert!(rate > 0.7 && rate < 1.0, "adoption rate {rate}");
    }

    #[test]
    fn carbon_rejection_branch_reachable() {
        // With a GreenSKU as carbon-expensive as the baseline, scaled
        // apps must reject on carbon.
        let carbon = DefaultCarbon::new(ModelParams::default_open_source());
        let m = AdoptionModel::new(
            &carbon,
            &open_source::baseline_gen3(), // "green" = baseline itself
            &[(ServerGeneration::Gen3, open_source::baseline_gen3())],
        )
        .unwrap();
        let d = m.decide(&perf(), &catalog::by_name("Moses").unwrap(), ServerGeneration::Gen3);
        assert_eq!(d, AdoptionDecision::RejectCarbon { factor: 1.25 });
        assert!(!d.adopts());
        assert_eq!(d.factor(), None);
    }

    #[test]
    #[should_panic(expected = "no baseline assessment")]
    fn missing_generation_panics() {
        let carbon = DefaultCarbon::new(ModelParams::default_open_source());
        let m = AdoptionModel::new(
            &carbon,
            &open_source::greensku_full(),
            &[(ServerGeneration::Gen3, open_source::baseline_gen3())],
        )
        .unwrap();
        m.decide(&perf(), &catalog::by_name("Redis").unwrap(), ServerGeneration::Gen1);
    }
}
