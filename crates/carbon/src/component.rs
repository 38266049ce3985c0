//! Server components and their carbon characteristics.

use crate::error::CarbonError;
use crate::units::{KgCo2e, Watts};

/// Broad class of a server component, used for breakdowns (Fig. 1) and
/// for maintenance accounting (DIMM/SSD counts drive server AFR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentClass {
    /// Central processing unit.
    Cpu,
    /// Directly attached DRAM (e.g. DDR5 DIMMs).
    Dram,
    /// DRAM attached behind a CXL controller (e.g. reused DDR4).
    CxlDram,
    /// CXL memory controller card.
    CxlController,
    /// Solid-state drive.
    Ssd,
    /// Network interface card.
    Nic,
    /// Everything else: fans, chassis, boards, PSU.
    Other,
}

impl ComponentClass {
    /// Human-readable label used in tables and CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            ComponentClass::Cpu => "CPU",
            ComponentClass::Dram => "DRAM",
            ComponentClass::CxlDram => "CXL-DRAM",
            ComponentClass::CxlController => "CXL-controller",
            ComponentClass::Ssd => "SSD",
            ComponentClass::Nic => "NIC",
            ComponentClass::Other => "Other",
        }
    }

    /// All classes, in the order breakdown tables report them.
    pub fn all() -> [ComponentClass; 7] {
        [
            ComponentClass::Cpu,
            ComponentClass::Dram,
            ComponentClass::CxlDram,
            ComponentClass::CxlController,
            ComponentClass::Ssd,
            ComponentClass::Nic,
            ComponentClass::Other,
        ]
    }
}

impl std::fmt::Display for ComponentClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One component entry of a server bill of materials.
///
/// TDP and embodied emissions are **per unit of `quantity`** — for a CPU
/// the quantity is the socket count, for DRAM it is gigabytes, for SSDs
/// terabytes. The effective power contribution is
/// `quantity × tdp_per_unit × derate × loss_factor` (Eq. 1 of the paper);
/// the embodied contribution is `quantity × embodied_per_unit`, forced to
/// zero for components flagged `reused` (second-life accounting, following
/// the paper's treatment of reused DIMMs and SSDs).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    name: String,
    class: ComponentClass,
    quantity: f64,
    tdp_per_unit: Watts,
    embodied_per_unit: KgCo2e,
    derate: f64,
    loss_factor: f64,
    reused: bool,
    /// Number of physical devices (DIMMs, drives) this entry represents;
    /// drives AFR maintenance accounting. Defaults to 1.
    device_count: u32,
    /// PCIe lanes the entry consumes (CXL cards, NVMe drives, NICs);
    /// the Bergamo platform budget is 128 (§III).
    pcie_lanes: u32,
}

impl ComponentSpec {
    /// Creates a component entry.
    ///
    /// # Errors
    ///
    /// Returns [`CarbonError::InvalidComponent`] if `quantity`, `derate`
    /// or `loss_factor` are non-finite or negative, or TDP/embodied values
    /// are invalid.
    pub fn new(
        name: impl Into<String>,
        class: ComponentClass,
        quantity: f64,
        tdp_per_unit: Watts,
        embodied_per_unit: KgCo2e,
    ) -> Result<Self, CarbonError> {
        let name = name.into();
        if !quantity.is_finite() || quantity < 0.0 {
            return Err(CarbonError::InvalidComponent {
                component: name,
                reason: format!("quantity must be non-negative, got {quantity}"),
            });
        }
        if !tdp_per_unit.is_valid() || !embodied_per_unit.is_valid() {
            return Err(CarbonError::InvalidComponent {
                component: name,
                reason: "TDP and embodied emissions must be finite and non-negative".into(),
            });
        }
        Ok(Self {
            name,
            class,
            quantity,
            tdp_per_unit,
            embodied_per_unit,
            derate: 1.0,
            loss_factor: 1.0,
            reused: false,
            device_count: 1,
            pcie_lanes: 0,
        })
    }

    /// Sets the derating factor (fraction of TDP drawn on average; the
    /// paper uses 0.44 at 40 % SPEC load).
    ///
    /// # Errors
    ///
    /// Returns an error if `derate` is not in `[0, 1]`.
    pub fn with_derate(mut self, derate: f64) -> Result<Self, CarbonError> {
        if !derate.is_finite() || !(0.0..=1.0).contains(&derate) {
            return Err(CarbonError::InvalidComponent {
                component: self.name,
                reason: format!("derate must be in [0,1], got {derate}"),
            });
        }
        self.derate = derate;
        Ok(self)
    }

    /// Sets the power-electronics loss factor (e.g. 1.05 for the CPU's
    /// voltage-regulator loss).
    ///
    /// # Errors
    ///
    /// Returns an error if `loss_factor < 1` or non-finite.
    pub fn with_loss_factor(mut self, loss_factor: f64) -> Result<Self, CarbonError> {
        if !loss_factor.is_finite() || loss_factor < 1.0 {
            return Err(CarbonError::InvalidComponent {
                component: self.name,
                reason: format!("loss factor must be >= 1, got {loss_factor}"),
            });
        }
        self.loss_factor = loss_factor;
        Ok(self)
    }

    /// Marks the component as reused; embodied emissions become zero
    /// (second-life accounting).
    pub fn reused(mut self) -> Self {
        self.reused = true;
        self
    }

    /// Sets the physical device count this entry represents.
    pub fn with_device_count(mut self, count: u32) -> Self {
        self.device_count = count;
        self
    }

    /// Sets the PCIe lanes the entry consumes.
    pub fn with_pcie_lanes(mut self, lanes: u32) -> Self {
        self.pcie_lanes = lanes;
        self
    }

    /// The component's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component's class.
    pub fn class(&self) -> ComponentClass {
        self.class
    }

    /// Quantity in the component's natural unit (sockets, GB, TB, ...).
    pub fn quantity(&self) -> f64 {
        self.quantity
    }

    /// Whether the component is reused (second life).
    pub fn is_reused(&self) -> bool {
        self.reused
    }

    /// Number of physical devices represented by this entry.
    pub fn device_count(&self) -> u32 {
        self.device_count
    }

    /// PCIe lanes consumed by this entry.
    pub fn pcie_lanes(&self) -> u32 {
        self.pcie_lanes
    }

    /// Nameplate TDP of the whole entry (before derating).
    pub fn nameplate_power(&self) -> Watts {
        self.tdp_per_unit * self.quantity
    }

    /// Average power contribution after derating and losses (the term this
    /// component contributes to Eq. 1).
    pub fn average_power(&self) -> Watts {
        self.tdp_per_unit * self.quantity * self.derate * self.loss_factor
    }

    /// Embodied emissions of the entry; zero when reused.
    pub fn embodied(&self) -> KgCo2e {
        if self.reused {
            KgCo2e::ZERO
        } else {
            self.embodied_per_unit * self.quantity
        }
    }

    /// Embodied emissions the entry would carry if it were new; used by
    /// "avoided emissions" analyses.
    pub fn embodied_if_new(&self) -> KgCo2e {
        self.embodied_per_unit * self.quantity
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn cpu() -> ComponentSpec {
        ComponentSpec::new("CPU", ComponentClass::Cpu, 1.0, Watts::new(400.0), KgCo2e::new(28.3))
            .unwrap()
            .with_derate(0.44)
            .unwrap()
            .with_loss_factor(1.05)
            .unwrap()
    }

    #[test]
    fn cpu_power_matches_worked_example() {
        // 400 W * 0.44 * 1.05 = 184.8 W, the CPU term of the paper's
        // P_s = 403 W example.
        assert!((cpu().average_power().get() - 184.8).abs() < 1e-9);
    }

    #[test]
    fn reused_component_has_zero_embodied() {
        let dimm = ComponentSpec::new(
            "DDR4",
            ComponentClass::CxlDram,
            256.0,
            Watts::new(0.37),
            KgCo2e::new(1.65),
        )
        .unwrap()
        .reused();
        assert_eq!(dimm.embodied(), KgCo2e::ZERO);
        assert!((dimm.embodied_if_new().get() - 422.4).abs() < 1e-9);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(ComponentSpec::new(
            "x",
            ComponentClass::Other,
            -1.0,
            Watts::new(1.0),
            KgCo2e::new(1.0)
        )
        .is_err());
        assert!(cpu().with_derate(1.5).is_err());
        assert!(cpu().with_derate(-0.1).is_err());
        assert!(cpu().with_loss_factor(0.9).is_err());
        assert!(ComponentSpec::new(
            "x",
            ComponentClass::Other,
            1.0,
            Watts::new(f64::NAN),
            KgCo2e::new(1.0)
        )
        .is_err());
    }

    #[test]
    fn embodied_scales_with_quantity() {
        let ssd = ComponentSpec::new(
            "SSD",
            ComponentClass::Ssd,
            20.0,
            Watts::new(5.6),
            KgCo2e::new(17.3),
        )
        .unwrap();
        assert!((ssd.embodied().get() - 346.0).abs() < 1e-9);
        assert!((ssd.nameplate_power().get() - 112.0).abs() < 1e-9);
    }

    #[test]
    fn class_labels_unique() {
        let labels: std::collections::HashSet<_> =
            ComponentClass::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), ComponentClass::all().len());
    }
}
