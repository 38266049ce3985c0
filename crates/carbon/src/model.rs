//! The carbon model: CO₂e-per-core assessment and SKU-vs-SKU savings.

use crate::error::CarbonError;
use crate::params::ModelParams;
use crate::rack::RackFill;
use crate::server::ServerSpec;
use crate::units::{KgCo2e, Watts};

/// The carbon model component of GSF.
///
/// Wraps [`ModelParams`] and evaluates [`ServerSpec`]s into amortized
/// CO₂e-per-core values at rack and data-center level.
#[derive(Debug, Clone, PartialEq)]
pub struct CarbonModel {
    params: ModelParams,
}

/// The result of assessing one SKU: operational and embodied emissions
/// amortized per core over the server lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    sku: String,
    servers_per_rack: u32,
    cores_per_rack: u32,
    server_power: Watts,
    op_per_core: KgCo2e,
    emb_per_core: KgCo2e,
}

impl Assessment {
    /// The assessed SKU's name.
    pub fn sku(&self) -> &str {
        &self.sku
    }

    /// Servers per rack (`N_s`).
    pub fn servers_per_rack(&self) -> u32 {
        self.servers_per_rack
    }

    /// Cores per rack.
    pub fn cores_per_rack(&self) -> u32 {
        self.cores_per_rack
    }

    /// Average server power (`P_s`).
    pub fn server_power(&self) -> Watts {
        self.server_power
    }

    /// Operational emissions per core over the lifetime.
    pub fn op_per_core(&self) -> KgCo2e {
        self.op_per_core
    }

    /// Embodied emissions per core.
    pub fn emb_per_core(&self) -> KgCo2e {
        self.emb_per_core
    }

    /// Total (operational + embodied) emissions per core.
    pub fn total_per_core(&self) -> KgCo2e {
        self.op_per_core + self.emb_per_core
    }

    /// Per-server total emissions (per-core total × cores per server).
    pub fn total_per_server(&self) -> KgCo2e {
        self.total_per_core() * (f64::from(self.cores_per_rack) / f64::from(self.servers_per_rack))
    }
}

/// Relative savings of a GreenSKU against a baseline SKU, per core
/// (the rows of Tables IV and VIII).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SavingsReport {
    /// Fractional operational savings (positive = GreenSKU better).
    pub operational: f64,
    /// Fractional embodied savings.
    pub embodied: f64,
    /// Fractional total savings.
    pub total: f64,
}

impl SavingsReport {
    /// Computes savings of `green` relative to `baseline`.
    pub fn relative(baseline: &Assessment, green: &Assessment) -> Self {
        fn frac(base: KgCo2e, new: KgCo2e) -> f64 {
            // gsf-lint: allow(N2) -- exact division-by-zero sentinel: only a bitwise zero base makes the ratio below undefined
            if base.get() == 0.0 {
                0.0
            } else {
                1.0 - new.get() / base.get()
            }
        }
        Self {
            operational: frac(baseline.op_per_core(), green.op_per_core()),
            embodied: frac(baseline.emb_per_core(), green.emb_per_core()),
            total: frac(baseline.total_per_core(), green.total_per_core()),
        }
    }
}

impl CarbonModel {
    /// Creates a carbon model with the given parameters.
    pub fn new(params: ModelParams) -> Self {
        Self { params }
    }

    /// The model's parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Assesses a SKU at **rack level**: no PUE, no data-center
    /// overheads. This is the configuration of the paper's §V worked
    /// example (31 kg CO₂e per core for GreenSKU-CXL).
    ///
    /// # Errors
    ///
    /// Returns an error if the parameters are invalid or the server does
    /// not fit the rack.
    pub fn assess_rack(&self, server: &ServerSpec) -> Result<Assessment, CarbonError> {
        self.params.validate()?;
        let fill = RackFill::pack(server, &self.params.rack)?;
        let op_rack = fill
            .rack_power()
            .operational_emissions(self.params.lifetime, self.params.carbon_intensity);
        let cores = f64::from(fill.cores());
        Ok(Assessment {
            sku: server.name().to_string(),
            servers_per_rack: fill.servers(),
            cores_per_rack: fill.cores(),
            server_power: fill.server_power(),
            op_per_core: op_rack / cores,
            emb_per_core: fill.rack_embodied() / cores,
        })
    }

    /// Assesses a SKU at **data-center level**: rack emissions plus the
    /// per-rack shares of networking/storage power and embodied
    /// emissions and the building, with IT power multiplied by PUE.
    ///
    /// This is the per-core metric behind Tables IV/VIII and the cluster
    /// savings sweeps.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameters are invalid or the server does
    /// not fit the rack.
    pub fn assess(&self, server: &ServerSpec) -> Result<Assessment, CarbonError> {
        self.params.validate()?;
        let fill = RackFill::pack(server, &self.params.rack)?;
        let o = &self.params.overheads;
        let it_power = fill.rack_power() + o.network_storage_power_per_rack;
        let dc_power = it_power * o.pue;
        let op_rack =
            dc_power.operational_emissions(self.params.lifetime, self.params.carbon_intensity);
        let emb_rack = fill.rack_embodied() + o.embodied_per_rack();
        let cores = f64::from(fill.cores());
        Ok(Assessment {
            sku: server.name().to_string(),
            servers_per_rack: fill.servers(),
            cores_per_rack: fill.cores(),
            server_power: fill.server_power(),
            op_per_core: op_rack / cores,
            emb_per_core: emb_rack / cores,
        })
    }

    /// Convenience: savings of `green` vs `baseline` at DC level.
    ///
    /// # Errors
    ///
    /// Propagates assessment errors for either SKU.
    pub fn savings(
        &self,
        baseline: &ServerSpec,
        green: &ServerSpec,
    ) -> Result<SavingsReport, CarbonError> {
        let b = self.assess(baseline)?;
        let g = self.assess(green)?;
        Ok(SavingsReport::relative(&b, &g))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::component::{ComponentClass, ComponentSpec};
    use crate::units::CarbonIntensity;

    fn simple_server(name: &str, power: f64, embodied: f64, cores: u32) -> ServerSpec {
        ServerSpec::builder(name, cores, 2)
            .component(
                ComponentSpec::new(
                    "blob",
                    ComponentClass::Other,
                    1.0,
                    Watts::new(power),
                    KgCo2e::new(embodied),
                )
                .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn rack_assessment_known_numbers() {
        // 403 W, 1644 kg, 128 cores, 2U -> the worked example's numbers.
        let model = CarbonModel::new(ModelParams::worked_example());
        let a = model.assess_rack(&simple_server("cxl", 403.35, 1644.0, 128)).unwrap();
        assert_eq!(a.servers_per_rack(), 16);
        assert_eq!(a.cores_per_rack(), 2048);
        // E_emb,r = 16*1644+500 = 26804; per core 13.09.
        assert!((a.emb_per_core().get() - 26_804.0 / 2048.0).abs() < 1e-6);
        // P_r = 6953.6 W; E_op,r = 36548 kg; per core 17.85.
        assert!((a.op_per_core().get() - 17.85).abs() < 0.02);
        assert!((a.total_per_core().get() - 31.0).abs() < 0.15);
    }

    #[test]
    fn dc_assessment_adds_overheads() {
        let params = ModelParams::default_open_source();
        let model = CarbonModel::new(params);
        let rack_only = CarbonModel::new(ModelParams::worked_example());
        let s = simple_server("x", 400.0, 1500.0, 100);
        let dc = model.assess(&s).unwrap();
        let rack = rack_only.assess_rack(&s).unwrap();
        assert!(dc.op_per_core() > rack.op_per_core());
        assert!(dc.emb_per_core() > rack.emb_per_core());
    }

    #[test]
    fn savings_sign_conventions() {
        let model = CarbonModel::new(ModelParams::default_open_source());
        let base = simple_server("base", 400.0, 1500.0, 80);
        let green = simple_server("green", 400.0, 1500.0, 128);
        // Same server, more cores -> positive savings everywhere.
        let report = model.savings(&base, &green).unwrap();
        assert!(report.operational > 0.0);
        assert!(report.embodied > 0.0);
        assert!(report.total > 0.0);
        // Reverse direction -> negative savings.
        let worse = model.savings(&green, &base).unwrap();
        assert!(worse.total < 0.0);
    }

    #[test]
    fn total_is_between_op_and_emb_savings() {
        let model = CarbonModel::new(ModelParams::default_open_source());
        let base = simple_server("base", 500.0, 2000.0, 80);
        let green = simple_server("green", 450.0, 1000.0, 80);
        let r = model.savings(&base, &green).unwrap();
        let lo = r.operational.min(r.embodied);
        let hi = r.operational.max(r.embodied);
        assert!(r.total >= lo && r.total <= hi);
    }

    #[test]
    fn zero_carbon_intensity_zeroes_operational() {
        let params =
            ModelParams::default_open_source().with_carbon_intensity(CarbonIntensity::ZERO);
        let model = CarbonModel::new(params);
        let a = model.assess(&simple_server("x", 400.0, 1500.0, 100)).unwrap();
        assert_eq!(a.op_per_core(), KgCo2e::ZERO);
        assert!(a.emb_per_core().get() > 0.0);
    }

    #[test]
    fn per_server_total_consistent() {
        let model = CarbonModel::new(ModelParams::worked_example());
        let a = model.assess_rack(&simple_server("x", 403.35, 1644.0, 128)).unwrap();
        let per_server = a.total_per_server().get();
        let per_core = a.total_per_core().get();
        assert!((per_server - per_core * 128.0).abs() < 1e-6);
    }
}
