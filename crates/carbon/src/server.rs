//! Server SKU specifications: bill of materials plus shape metadata.

use crate::component::{ComponentClass, ComponentSpec};
use crate::error::CarbonError;
use crate::units::{Gigabytes, KgCo2e, Terabytes, Watts};

/// A compute-server SKU as the carbon model sees it: a named bill of
/// materials with core count and physical form factor.
///
/// Build one with [`ServerSpec::builder`]. The paper's SKU configurations
/// (Baseline, Baseline-Resized, GreenSKU-Efficient/-CXL/-Full) ship in
/// [`crate::datasets`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    name: String,
    cores: u32,
    form_factor_u: u32,
    components: Vec<ComponentSpec>,
}

impl ServerSpec {
    /// Starts building a server with the given name, core count, and rack
    /// form factor in U.
    pub fn builder(name: impl Into<String>, cores: u32, form_factor_u: u32) -> ServerSpecBuilder {
        ServerSpecBuilder { name: name.into(), cores, form_factor_u, components: Vec::new() }
    }

    /// The SKU name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Physical cores per server.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Rack space occupied, in U.
    pub fn form_factor_u(&self) -> u32 {
        self.form_factor_u
    }

    /// The bill of materials.
    pub fn components(&self) -> &[ComponentSpec] {
        &self.components
    }

    /// Average server power: Eq. 1 of the paper,
    /// `P_s = Σ_i TDP_i · d_i · l_i`.
    pub fn average_power(&self) -> Watts {
        self.components.iter().map(ComponentSpec::average_power).sum()
    }

    /// Nameplate (undereated) power.
    pub fn nameplate_power(&self) -> Watts {
        self.components.iter().map(ComponentSpec::nameplate_power).sum()
    }

    /// Server embodied emissions (reused components count zero).
    pub fn embodied(&self) -> KgCo2e {
        self.components.iter().map(ComponentSpec::embodied).sum()
    }

    /// Embodied emissions avoided by reuse: what the reused components
    /// would have cost if bought new.
    pub fn embodied_avoided_by_reuse(&self) -> KgCo2e {
        self.components.iter().filter(|c| c.is_reused()).map(ComponentSpec::embodied_if_new).sum()
    }

    /// Average power drawn by components of one class.
    pub fn power_by_class(&self, class: ComponentClass) -> Watts {
        self.components
            .iter()
            .filter(|c| c.class() == class)
            .map(ComponentSpec::average_power)
            .sum()
    }

    /// Embodied emissions of components of one class.
    pub fn embodied_by_class(&self, class: ComponentClass) -> KgCo2e {
        self.components.iter().filter(|c| c.class() == class).map(ComponentSpec::embodied).sum()
    }

    /// Total DRAM capacity (direct + CXL-attached).
    pub fn memory_capacity(&self) -> Gigabytes {
        Gigabytes::new(
            self.components
                .iter()
                .filter(|c| matches!(c.class(), ComponentClass::Dram | ComponentClass::CxlDram))
                .map(ComponentSpec::quantity)
                .sum::<f64>()
                + 0.0, // normalize the empty sum's -0.0
        )
    }

    /// CXL-attached DRAM capacity only.
    pub fn cxl_memory_capacity(&self) -> Gigabytes {
        Gigabytes::new(
            self.components
                .iter()
                .filter(|c| c.class() == ComponentClass::CxlDram)
                .map(ComponentSpec::quantity)
                .sum::<f64>()
                + 0.0, // normalize the empty sum's -0.0
        )
    }

    /// Total SSD capacity.
    pub fn ssd_capacity(&self) -> Terabytes {
        Terabytes::new(
            self.components
                .iter()
                .filter(|c| c.class() == ComponentClass::Ssd)
                .map(ComponentSpec::quantity)
                .sum::<f64>()
                + 0.0, // normalize the empty sum's -0.0
        )
    }

    /// Number of physical devices of a class (e.g. DIMM or SSD count),
    /// used by the maintenance model's AFR accounting.
    pub fn device_count(&self, class: ComponentClass) -> u32 {
        self.components.iter().filter(|c| c.class() == class).map(ComponentSpec::device_count).sum()
    }

    /// Memory:core ratio in GB per core (the paper contrasts 9.6 for the
    /// baseline with 8 for the GreenSKUs).
    pub fn memory_per_core(&self) -> f64 {
        self.memory_capacity().get() / f64::from(self.cores)
    }

    /// Total PCIe lanes consumed by the bill of materials (§III: the
    /// GreenSKU-Full prototype uses all 128 Bergamo lanes).
    pub fn pcie_lanes(&self) -> u32 {
        self.components.iter().map(ComponentSpec::pcie_lanes).sum()
    }
}

/// Builder for [`ServerSpec`].
#[derive(Debug, Clone)]
pub struct ServerSpecBuilder {
    name: String,
    cores: u32,
    form_factor_u: u32,
    components: Vec<ComponentSpec>,
}

impl ServerSpecBuilder {
    /// Adds a component to the bill of materials.
    pub fn component(mut self, component: ComponentSpec) -> Self {
        self.components.push(component);
        self
    }

    /// Adds several components.
    pub fn components<I: IntoIterator<Item = ComponentSpec>>(mut self, iter: I) -> Self {
        self.components.extend(iter);
        self
    }

    /// Finalizes the server specification.
    ///
    /// # Errors
    ///
    /// Returns [`CarbonError::InvalidServer`] if the server has zero
    /// cores, zero form factor, or an empty bill of materials.
    pub fn build(self) -> Result<ServerSpec, CarbonError> {
        if self.cores == 0 {
            return Err(CarbonError::InvalidServer {
                sku: self.name,
                reason: "server must have at least one core".into(),
            });
        }
        if self.form_factor_u == 0 {
            return Err(CarbonError::InvalidServer {
                sku: self.name,
                reason: "form factor must be at least 1U".into(),
            });
        }
        if self.components.is_empty() {
            return Err(CarbonError::InvalidServer {
                sku: self.name,
                reason: "bill of materials is empty".into(),
            });
        }
        Ok(ServerSpec {
            name: self.name,
            cores: self.cores,
            form_factor_u: self.form_factor_u,
            components: self.components,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_server() -> ServerSpec {
        ServerSpec::builder("test", 128, 2)
            .component(
                ComponentSpec::new(
                    "CPU",
                    ComponentClass::Cpu,
                    1.0,
                    Watts::new(400.0),
                    KgCo2e::new(28.3),
                )
                .unwrap()
                .with_derate(0.44)
                .unwrap()
                .with_loss_factor(1.05)
                .unwrap(),
            )
            .component(
                ComponentSpec::new(
                    "DDR5",
                    ComponentClass::Dram,
                    768.0,
                    Watts::new(0.37),
                    KgCo2e::new(1.65),
                )
                .unwrap()
                .with_derate(0.44)
                .unwrap()
                .with_device_count(12),
            )
            .component(
                ComponentSpec::new(
                    "DDR4-CXL",
                    ComponentClass::CxlDram,
                    256.0,
                    Watts::new(0.37),
                    KgCo2e::new(1.65),
                )
                .unwrap()
                .with_derate(0.44)
                .unwrap()
                .reused()
                .with_device_count(8),
            )
            .component(
                ComponentSpec::new(
                    "SSD",
                    ComponentClass::Ssd,
                    20.0,
                    Watts::new(5.6),
                    KgCo2e::new(17.3),
                )
                .unwrap()
                .with_derate(0.44)
                .unwrap()
                .with_device_count(5),
            )
            .component(
                ComponentSpec::new(
                    "CXL ctrl",
                    ComponentClass::CxlController,
                    1.0,
                    Watts::new(5.8),
                    KgCo2e::new(2.5),
                )
                .unwrap()
                .with_derate(0.44)
                .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn power_matches_worked_example() {
        // This is the paper's GreenSKU-CXL example: P_s ≈ 403 W.
        let s = sample_server();
        assert!((s.average_power().get() - 403.35).abs() < 0.5, "{}", s.average_power());
    }

    #[test]
    fn embodied_matches_worked_example() {
        // 28.3 + 768*1.65 + 0 (reused) + 20*17.3 + 2.5 = 1644 kg.
        let s = sample_server();
        assert!((s.embodied().get() - 1644.0).abs() < 0.5, "{}", s.embodied());
    }

    #[test]
    fn capacities_and_counts() {
        let s = sample_server();
        assert_eq!(s.memory_capacity().get(), 1024.0);
        assert_eq!(s.cxl_memory_capacity().get(), 256.0);
        assert_eq!(s.ssd_capacity().get(), 20.0);
        assert_eq!(s.device_count(ComponentClass::Dram), 12);
        assert_eq!(s.device_count(ComponentClass::CxlDram), 8);
        assert_eq!(s.device_count(ComponentClass::Ssd), 5);
        assert_eq!(s.memory_per_core(), 8.0);
    }

    #[test]
    fn avoided_embodied_counts_reused_only() {
        let s = sample_server();
        assert!((s.embodied_avoided_by_reuse().get() - 256.0 * 1.65).abs() < 1e-9);
    }

    #[test]
    fn builder_validation() {
        assert!(ServerSpec::builder("x", 0, 2)
            .component(
                ComponentSpec::new(
                    "c",
                    ComponentClass::Other,
                    1.0,
                    Watts::new(1.0),
                    KgCo2e::new(1.0)
                )
                .unwrap()
            )
            .build()
            .is_err());
        assert!(ServerSpec::builder("x", 8, 0)
            .component(
                ComponentSpec::new(
                    "c",
                    ComponentClass::Other,
                    1.0,
                    Watts::new(1.0),
                    KgCo2e::new(1.0)
                )
                .unwrap()
            )
            .build()
            .is_err());
        assert!(ServerSpec::builder("x", 8, 2).build().is_err());
    }

    #[test]
    fn class_aggregation() {
        let s = sample_server();
        let cpu_power = s.power_by_class(ComponentClass::Cpu);
        assert!((cpu_power.get() - 184.8).abs() < 1e-9);
        let dram_emb = s.embodied_by_class(ComponentClass::Dram);
        assert!((dram_emb.get() - 1267.2).abs() < 1e-9);
        assert_eq!(s.embodied_by_class(ComponentClass::CxlDram), KgCo2e::ZERO);
    }
}
