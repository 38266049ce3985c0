//! Fleet-level carbon breakdown of a general-purpose data center (Fig. 1).
//!
//! Azure does not publish absolute fleet emissions; the paper gives four
//! quantitative anchors which this model is calibrated to reproduce:
//!
//! 1. with the production renewables mix (40–80 %, we use 60 %),
//!    operational emissions are ≈58 % of total emissions;
//! 2. compute servers cause ≈57 % of data-center emissions;
//! 3. within compute servers the top contributors are DRAM, SSDs, and
//!    CPUs (≈87 % together; we land within a few points of the published
//!    35 %/28 %/24 % split);
//! 4. with a hypothetical 100 % renewables mix, operational emissions
//!    drop to ≈9 % and compute servers to ≈44 % of the total.
//!
//! Anchors 1 and 4 pin the renewable *lifecycle* carbon intensity at 3 %
//! of the grid's — consistent with wind/solar lifecycle intensities.
//!
//! Quantities are expressed in relative units (the paper's Fig. 1 shows
//! percentages only), with operational entries given **at grid carbon
//! intensity** and scaled by the effective renewables mix at query time.

use crate::component::ComponentClass;

/// Lifecycle carbon intensity of renewable energy relative to the grid.
pub const RENEWABLE_CI_FRACTION: f64 = 0.03;

/// Azure's typical renewables fraction (the paper reports 40–80 %).
pub const DEFAULT_RENEWABLE_FRACTION: f64 = 0.6;

/// Top-level emission categories of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FleetCategory {
    /// General-purpose compute servers.
    ComputeServers,
    /// Storage servers (HDD arrays).
    StorageServers,
    /// Network servers and switches.
    NetworkServers,
    /// Cooling and power-distribution equipment.
    CoolingAndPower,
    /// The building shell.
    Building,
}

impl FleetCategory {
    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            FleetCategory::ComputeServers => "Compute servers",
            FleetCategory::StorageServers => "Storage servers",
            FleetCategory::NetworkServers => "Network servers",
            FleetCategory::CoolingAndPower => "Cooling & power distribution",
            FleetCategory::Building => "Building",
        }
    }

    /// All categories in report order.
    pub fn all() -> [FleetCategory; 5] {
        [
            FleetCategory::ComputeServers,
            FleetCategory::StorageServers,
            FleetCategory::NetworkServers,
            FleetCategory::CoolingAndPower,
            FleetCategory::Building,
        ]
    }
}

/// Calibrated fleet composition (relative units; see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetModel {
    /// Operational emissions at grid CI, per compute-server component.
    compute_op_at_grid: Vec<(ComponentClass, f64)>,
    /// Embodied emissions per compute-server component.
    compute_embodied: Vec<(ComponentClass, f64)>,
    /// Storage-server operational emissions at grid CI.
    storage_op_at_grid: f64,
    /// Storage-server embodied emissions.
    storage_embodied: f64,
    /// Network operational emissions at grid CI.
    network_op_at_grid: f64,
    /// Network embodied emissions.
    network_embodied: f64,
    /// Cooling/power-distribution power as a fraction of IT power
    /// (PUE − 1).
    cooling_overhead: f64,
    /// Cooling/power-distribution equipment embodied emissions.
    cooling_embodied: f64,
    /// Building embodied emissions.
    building_embodied: f64,
    /// Renewable lifecycle CI as a fraction of grid CI.
    renewable_ci_fraction: f64,
}

impl Default for FleetModel {
    fn default() -> Self {
        Self::azure_calibrated()
    }
}

impl FleetModel {
    /// The calibrated Azure-like fleet (see module docs for the anchors).
    pub fn azure_calibrated() -> Self {
        Self {
            compute_op_at_grid: vec![
                (ComponentClass::Cpu, 80.0),
                (ComponentClass::Dram, 60.0),
                (ComponentClass::Ssd, 45.0),
                (ComponentClass::Nic, 15.0),
                (ComponentClass::Other, 25.0),
            ],
            compute_embodied: vec![
                (ComponentClass::Cpu, 3.0),
                (ComponentClass::Dram, 17.0),
                (ComponentClass::Ssd, 13.0),
                (ComponentClass::Nic, 2.0),
                (ComponentClass::Other, 6.6),
            ],
            storage_op_at_grid: 30.0,
            storage_embodied: 35.0,
            network_op_at_grid: 20.4,
            network_embodied: 8.0,
            cooling_overhead: 0.2,
            cooling_embodied: 3.4,
            building_embodied: 12.0,
            renewable_ci_fraction: RENEWABLE_CI_FRACTION,
        }
    }

    /// Effective carbon-intensity multiplier at renewables fraction `f`
    /// (relative to pure grid energy).
    pub fn effective_ci_factor(&self, renewable_fraction: f64) -> f64 {
        let f = renewable_fraction.clamp(0.0, 1.0);
        (1.0 - f) + f * self.renewable_ci_fraction
    }

    /// Total IT operational emissions at grid CI (before the renewables
    /// mix and cooling overhead).
    fn it_op_at_grid(&self) -> f64 {
        let compute: f64 = self.compute_op_at_grid.iter().map(|(_, v)| v).sum();
        compute + self.storage_op_at_grid + self.network_op_at_grid
    }

    /// Computes the Fig. 1 breakdown at the given renewables fraction.
    pub fn breakdown(&self, renewable_fraction: f64) -> FleetBreakdown {
        let e = self.effective_ci_factor(renewable_fraction);
        let compute_op: f64 = self.compute_op_at_grid.iter().map(|(_, v)| v * e).sum();
        let compute_emb: f64 = self.compute_embodied.iter().map(|(_, v)| v).sum();
        let cooling_op = self.it_op_at_grid() * self.cooling_overhead * e;
        let categories = vec![
            CategoryEmissions {
                category: FleetCategory::ComputeServers,
                operational: compute_op,
                embodied: compute_emb,
            },
            CategoryEmissions {
                category: FleetCategory::StorageServers,
                operational: self.storage_op_at_grid * e,
                embodied: self.storage_embodied,
            },
            CategoryEmissions {
                category: FleetCategory::NetworkServers,
                operational: self.network_op_at_grid * e,
                embodied: self.network_embodied,
            },
            CategoryEmissions {
                category: FleetCategory::CoolingAndPower,
                operational: cooling_op,
                embodied: self.cooling_embodied,
            },
            CategoryEmissions {
                category: FleetCategory::Building,
                operational: 0.0,
                embodied: self.building_embodied,
            },
        ];
        let components = self
            .compute_op_at_grid
            .iter()
            .map(|&(class, op)| {
                let emb = self
                    .compute_embodied
                    .iter()
                    .find(|(c, _)| *c == class)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0);
                CategoryEmissions2 { class, operational: op * e, embodied: emb }
            })
            .collect();
        FleetBreakdown { renewable_fraction, categories, compute_components: components }
    }
}

/// Emissions of one top-level category (relative units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryEmissions {
    /// The category.
    pub category: FleetCategory,
    /// Operational emissions at the queried renewables mix.
    pub operational: f64,
    /// Embodied emissions.
    pub embodied: f64,
}

impl CategoryEmissions {
    /// Operational + embodied.
    pub fn total(&self) -> f64 {
        self.operational + self.embodied
    }
}

/// Emissions of one compute-server component class (relative units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryEmissions2 {
    /// The component class.
    pub class: ComponentClass,
    /// Operational emissions at the queried renewables mix.
    pub operational: f64,
    /// Embodied emissions.
    pub embodied: f64,
}

impl CategoryEmissions2 {
    /// Operational + embodied.
    pub fn total(&self) -> f64 {
        self.operational + self.embodied
    }
}

/// A computed Fig. 1 breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBreakdown {
    /// The renewables fraction used.
    pub renewable_fraction: f64,
    /// Emissions per top-level category.
    pub categories: Vec<CategoryEmissions>,
    /// Emissions per compute-server component class.
    pub compute_components: Vec<CategoryEmissions2>,
}

impl FleetBreakdown {
    /// Total data-center emissions.
    pub fn total(&self) -> f64 {
        self.categories.iter().map(CategoryEmissions::total).sum()
    }

    /// Total operational emissions.
    pub fn total_operational(&self) -> f64 {
        self.categories.iter().map(|c| c.operational).sum()
    }

    /// Total embodied emissions.
    pub fn total_embodied(&self) -> f64 {
        self.categories.iter().map(|c| c.embodied).sum()
    }

    /// Share of operational emissions in the total.
    pub fn operational_share(&self) -> f64 {
        self.total_operational() / self.total()
    }

    /// Share of one category in total data-center emissions.
    pub fn category_share(&self, category: FleetCategory) -> f64 {
        let cat: f64 = self
            .categories
            .iter()
            .filter(|c| c.category == category)
            .map(CategoryEmissions::total)
            .sum();
        cat / self.total()
    }

    /// Share of one component class within compute-server emissions.
    pub fn compute_component_share(&self, class: ComponentClass) -> f64 {
        let compute: f64 = self.compute_components.iter().map(CategoryEmissions2::total).sum();
        let comp: f64 = self
            .compute_components
            .iter()
            .filter(|c| c.class == class)
            .map(CategoryEmissions2::total)
            .sum();
        comp / compute
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn anchor_operational_share_58pct() {
        let b = FleetModel::azure_calibrated().breakdown(DEFAULT_RENEWABLE_FRACTION);
        assert!((b.operational_share() - 0.58).abs() < 0.01, "{}", b.operational_share());
    }

    #[test]
    fn anchor_compute_share_57pct() {
        let b = FleetModel::azure_calibrated().breakdown(DEFAULT_RENEWABLE_FRACTION);
        let share = b.category_share(FleetCategory::ComputeServers);
        assert!((share - 0.57).abs() < 0.01, "{share}");
    }

    #[test]
    fn anchor_100pct_renewables() {
        let b = FleetModel::azure_calibrated().breakdown(1.0);
        assert!((b.operational_share() - 0.09).abs() < 0.01, "{}", b.operational_share());
        let share = b.category_share(FleetCategory::ComputeServers);
        assert!((share - 0.44).abs() < 0.01, "{share}");
    }

    #[test]
    fn compute_component_shares_near_paper() {
        let b = FleetModel::azure_calibrated().breakdown(DEFAULT_RENEWABLE_FRACTION);
        let dram = b.compute_component_share(ComponentClass::Dram);
        let ssd = b.compute_component_share(ComponentClass::Ssd);
        let cpu = b.compute_component_share(ComponentClass::Cpu);
        // Paper: DRAM 35 %, SSD 28 %, CPU 24 % — we assert the shape:
        // each within 8 points and the three together dominating.
        assert!((dram - 0.35).abs() < 0.08, "dram {dram}");
        assert!((ssd - 0.28).abs() < 0.08, "ssd {ssd}");
        assert!((cpu - 0.24).abs() < 0.08, "cpu {cpu}");
        assert!(dram + ssd + cpu > 0.70);
    }

    #[test]
    fn cpu_has_largest_operational_impact() {
        let b = FleetModel::azure_calibrated().breakdown(DEFAULT_RENEWABLE_FRACTION);
        let cpu_op = b
            .compute_components
            .iter()
            .find(|c| c.class == ComponentClass::Cpu)
            .unwrap()
            .operational;
        for c in &b.compute_components {
            if c.class != ComponentClass::Cpu {
                assert!(cpu_op >= c.operational, "{:?} op exceeds CPU", c.class);
            }
        }
    }

    #[test]
    fn dram_and_ssd_dominate_compute_embodied() {
        let b = FleetModel::azure_calibrated().breakdown(DEFAULT_RENEWABLE_FRACTION);
        let total_emb: f64 = b.compute_components.iter().map(|c| c.embodied).sum();
        let dram_ssd: f64 = b
            .compute_components
            .iter()
            .filter(|c| matches!(c.class, ComponentClass::Dram | ComponentClass::Ssd))
            .map(|c| c.embodied)
            .sum();
        assert!(dram_ssd / total_emb > 0.6);
    }

    #[test]
    fn more_renewables_lowers_emissions_monotonically() {
        let m = FleetModel::azure_calibrated();
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let total = m.breakdown(i as f64 / 10.0).total();
            assert!(total < prev);
            prev = total;
        }
    }

    #[test]
    fn embodied_constant_across_mixes() {
        let m = FleetModel::azure_calibrated();
        let a = m.breakdown(0.0).total_embodied();
        let b = m.breakdown(1.0).total_embodied();
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn category_shares_sum_to_one() {
        let b = FleetModel::azure_calibrated().breakdown(0.5);
        let sum: f64 = FleetCategory::all().iter().map(|&c| b.category_share(c)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
