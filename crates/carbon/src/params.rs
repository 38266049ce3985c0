//! Model parameters: rack constraints, data-center overheads, lifetime,
//! and carbon intensity (the paper's Table VI).

use crate::error::CarbonError;
use crate::units::{CarbonIntensity, KgCo2e, Watts, Years};

/// Rack-level constraints and overheads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackParams {
    /// Rack space available for servers, in U (Table VI: 42U − 10U
    /// overhead = 32U).
    pub space_u: u32,
    /// Rack power capacity (Table VI: 15 kW).
    pub power_capacity: Watts,
    /// Power drawn by rack infrastructure itself (Table V "Rack misc.":
    /// 500 W).
    pub misc_power: Watts,
    /// Embodied emissions of the empty rack (Table V: 500 kg CO₂e).
    pub misc_embodied: KgCo2e,
}

impl RackParams {
    /// The paper's open-source rack parameters.
    pub fn open_source() -> Self {
        Self {
            space_u: 32,
            power_capacity: Watts::new(15_000.0),
            misc_power: Watts::new(500.0),
            misc_embodied: KgCo2e::new(500.0),
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CarbonError::InvalidParams`] if the space or power budget
    /// is zero/invalid.
    pub fn validate(&self) -> Result<(), CarbonError> {
        if self.space_u == 0 {
            return Err(CarbonError::InvalidParams { reason: "rack space is zero".into() });
        }
        if !self.power_capacity.is_valid() || self.power_capacity.get() <= 0.0 {
            return Err(CarbonError::InvalidParams {
                reason: "rack power capacity must be positive".into(),
            });
        }
        if !self.misc_power.is_valid() || !self.misc_embodied.is_valid() {
            return Err(CarbonError::InvalidParams {
                reason: "rack misc power/embodied must be non-negative".into(),
            });
        }
        if self.misc_power.get() >= self.power_capacity.get() {
            return Err(CarbonError::InvalidParams {
                reason: "rack misc power exceeds rack power capacity".into(),
            });
        }
        Ok(())
    }
}

/// Data-center-level overheads amortized onto compute racks.
///
/// The paper's DC model adds networking/storage power (`X`), their
/// embodied emissions (`Y`), the building's embodied emissions (`Z`), and
/// multiplies IT power by PUE. Azure does not publish `X`, `Y`, `Z`; the
/// per-rack shares below are **calibrated** so that the open-source
/// reproduction (Table VIII) lands on the published savings — see
/// `DESIGN.md` §1 (substitution 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataCenterOverheads {
    /// Power usage effectiveness multiplier applied to IT power.
    pub pue: f64,
    /// Networking + storage power attributed per compute rack (`X`/N_r).
    pub network_storage_power_per_rack: Watts,
    /// Networking + storage embodied emissions per compute rack (`Y`/N_r).
    pub network_storage_embodied_per_rack: KgCo2e,
    /// Building and non-IT equipment embodied per compute rack (`Z`/N_r).
    pub building_embodied_per_rack: KgCo2e,
}

impl DataCenterOverheads {
    /// Calibrated defaults for the open-source reproduction.
    pub fn open_source() -> Self {
        Self {
            pue: 1.2,
            network_storage_power_per_rack: Watts::new(204.0),
            network_storage_embodied_per_rack: KgCo2e::new(4800.0),
            building_embodied_per_rack: KgCo2e::new(3519.0),
        }
    }

    /// No DC overheads (rack-level accounting only), PUE = 1.
    pub fn none() -> Self {
        Self {
            pue: 1.0,
            network_storage_power_per_rack: Watts::ZERO,
            network_storage_embodied_per_rack: KgCo2e::ZERO,
            building_embodied_per_rack: KgCo2e::ZERO,
        }
    }

    /// Total embodied overhead per rack (`(Y+Z)/N_r`).
    pub fn embodied_per_rack(&self) -> KgCo2e {
        self.network_storage_embodied_per_rack + self.building_embodied_per_rack
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CarbonError::InvalidParams`] if PUE `< 1` or any overhead
    /// is negative/non-finite.
    pub fn validate(&self) -> Result<(), CarbonError> {
        if !self.pue.is_finite() || self.pue < 1.0 {
            return Err(CarbonError::InvalidParams {
                reason: format!("PUE must be >= 1, got {}", self.pue),
            });
        }
        if !self.network_storage_power_per_rack.is_valid()
            || !self.network_storage_embodied_per_rack.is_valid()
            || !self.building_embodied_per_rack.is_valid()
        {
            return Err(CarbonError::InvalidParams {
                reason: "data-center overheads must be non-negative".into(),
            });
        }
        Ok(())
    }
}

/// All parameters the carbon model needs (the paper's Table VI plus the
/// DC overheads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Grid carbon intensity of the consumed energy.
    pub carbon_intensity: CarbonIntensity,
    /// Server lifetime over which operational emissions accrue.
    pub lifetime: Years,
    /// Rack constraints.
    pub rack: RackParams,
    /// Data-center overheads.
    pub overheads: DataCenterOverheads,
}

impl ModelParams {
    /// The paper's open-source parameters: CI = 0.1 kg CO₂e/kWh, 6-year
    /// lifetime, Table VI rack, calibrated DC overheads.
    pub fn default_open_source() -> Self {
        Self {
            carbon_intensity: CarbonIntensity::new(0.1),
            lifetime: Years::new(6.0),
            rack: RackParams::open_source(),
            overheads: DataCenterOverheads::open_source(),
        }
    }

    /// Same as [`Self::default_open_source`] but with no DC overheads and
    /// PUE = 1; this is the configuration of the paper's §V rack-level
    /// worked example.
    pub fn worked_example() -> Self {
        Self { overheads: DataCenterOverheads::none(), ..Self::default_open_source() }
    }

    /// Returns a copy with a different carbon intensity (used by the
    /// Fig. 11/12 sweeps).
    pub fn with_carbon_intensity(mut self, ci: CarbonIntensity) -> Self {
        self.carbon_intensity = ci;
        self
    }

    /// Returns a copy with a different lifetime (used by the §VII-B
    /// lifetime-extension analysis).
    pub fn with_lifetime(mut self, lifetime: Years) -> Self {
        self.lifetime = lifetime;
        self
    }

    /// Validating constructor: assembles and checks the full parameter
    /// set in one step, so a `ModelParams` built this way is known-good
    /// before it reaches the model.
    ///
    /// # Errors
    ///
    /// Returns [`CarbonError::InvalidParams`] naming the offending field
    /// when any input is NaN, negative, or out of range.
    pub fn try_new(
        carbon_intensity: CarbonIntensity,
        lifetime: Years,
        rack: RackParams,
        overheads: DataCenterOverheads,
    ) -> Result<Self, CarbonError> {
        let params = Self { carbon_intensity, lifetime, rack, overheads };
        params.validate()?;
        Ok(params)
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CarbonError::InvalidParams`] if any sub-parameter is
    /// invalid, the lifetime is non-positive, or the carbon intensity is
    /// negative.
    pub fn validate(&self) -> Result<(), CarbonError> {
        if !self.carbon_intensity.is_valid() {
            return Err(CarbonError::InvalidParams {
                reason: "carbon intensity must be finite and non-negative".into(),
            });
        }
        if !self.lifetime.is_valid() || self.lifetime.get() <= 0.0 {
            return Err(CarbonError::InvalidParams { reason: "lifetime must be positive".into() });
        }
        self.rack.validate()?;
        self.overheads.validate()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn open_source_params_valid() {
        ModelParams::default_open_source().validate().unwrap();
        ModelParams::worked_example().validate().unwrap();
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = ModelParams::default_open_source();
        p.lifetime = Years::new(0.0);
        assert!(p.validate().is_err());

        let mut p = ModelParams::default_open_source();
        p.carbon_intensity = CarbonIntensity::new(-0.1);
        assert!(p.validate().is_err());

        let mut p = ModelParams::default_open_source();
        p.overheads.pue = 0.9;
        assert!(p.validate().is_err());

        let mut p = ModelParams::default_open_source();
        p.rack.space_u = 0;
        assert!(p.validate().is_err());

        let mut p = ModelParams::default_open_source();
        p.rack.misc_power = Watts::new(20_000.0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn try_new_accepts_paper_inputs_and_rejects_bad_ones() {
        let good = ModelParams::default_open_source();
        let built =
            ModelParams::try_new(good.carbon_intensity, good.lifetime, good.rack, good.overheads)
                .unwrap();
        assert_eq!(built, good);

        // NaN carbon intensity.
        let e = ModelParams::try_new(
            CarbonIntensity::new(f64::NAN),
            good.lifetime,
            good.rack,
            good.overheads,
        )
        .unwrap_err();
        assert!(e.to_string().contains("carbon intensity"), "{e}");

        // Negative lifetime.
        let e = ModelParams::try_new(
            good.carbon_intensity,
            Years::new(-1.0),
            good.rack,
            good.overheads,
        )
        .unwrap_err();
        assert!(e.to_string().contains("lifetime"), "{e}");

        // Sub-validator: rack misc power above capacity.
        let mut rack = good.rack;
        rack.misc_power = Watts::new(1e9);
        assert!(ModelParams::try_new(good.carbon_intensity, good.lifetime, rack, good.overheads)
            .is_err());
    }

    #[test]
    fn with_helpers_replace_fields() {
        let p = ModelParams::default_open_source()
            .with_carbon_intensity(CarbonIntensity::new(0.3))
            .with_lifetime(Years::new(8.0));
        assert_eq!(p.carbon_intensity.get(), 0.3);
        assert_eq!(p.lifetime.get(), 8.0);
    }

    #[test]
    fn worked_example_strips_overheads() {
        let p = ModelParams::worked_example();
        assert_eq!(p.overheads.pue, 1.0);
        assert_eq!(p.overheads.embodied_per_rack(), KgCo2e::ZERO);
    }
}
