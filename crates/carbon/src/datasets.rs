//! Carbon datasets: the paper's open-source component data (Tables V and
//! VI), the SKU configurations of Tables IV/VIII, and the CPU
//! characteristics of Table I.
//!
//! # Calibration notes
//!
//! The paper's artifact publishes TDP/embodied values for the GreenSKU
//! components (Table V) but not for the Gen3 baseline CPU nor the
//! data-center overhead shares, and it models reused components with the
//! *new* component's power. To reproduce the published Table VIII savings
//! while keeping the §V worked example exact, this module separates:
//!
//! - **verbatim Table V values** (used by [`open_source::greensku_cxl_example`]
//!   and pinned by golden tests), and
//! - **calibrated values** for quantities the artifact keeps internal,
//!   each documented at its constant:
//!   - Gen3 (Genoa) CPU: 320 W TDP (Table I range 300–350 W) and 30 kg
//!     embodied (similar silicon area to Bergamo's 28.3 kg),
//!   - reused DDR4 behind CXL: 0.582 W/GB (old 32 GB RDIMMs are ~1.6× the
//!     W/GB of dense DDR5; also covers CXL serdes overhead),
//!   - reused m.2 SSDs: 6.65 W/TB (≈6.7 W per old 1 TB drive vs 5.6 W/TB
//!     for new E1.S drives),
//!   - data-center overhead shares per compute rack: 204 W
//!     networking/storage power, 8 319 kg embodied (networking/storage +
//!     building), PUE 1.2.
//!
//! With these values the reproduced Table VIII savings are within ~1.6
//! percentage points of every published cell (see
//! `tests/table_viii_bands.rs` and `EXPERIMENTS.md`).

use crate::component::{ComponentClass, ComponentSpec};
use crate::error::CarbonError;
use crate::server::ServerSpec;
use crate::units::{KgCo2e, Watts};

/// CPU characteristics row of the paper's Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuCharacteristics {
    /// Marketing name (e.g. "Bergamo").
    pub name: &'static str,
    /// Server generation label ("Gen1".."Gen3"), or "Efficient".
    pub generation: &'static str,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// Maximum core frequency in GHz.
    pub max_freq_ghz: f64,
    /// Last-level cache per socket in MiB.
    pub llc_mib: u32,
    /// Thermal design power in watts (midpoint when the paper gives a
    /// range).
    pub tdp_w: f64,
}

/// The four CPUs of Table I: Bergamo and the three baseline generations.
pub fn table_i() -> [CpuCharacteristics; 4] {
    [
        CpuCharacteristics {
            name: "Bergamo",
            generation: "Efficient",
            cores_per_socket: 128,
            max_freq_ghz: 3.0,
            llc_mib: 256,
            tdp_w: 350.0,
        },
        CpuCharacteristics {
            name: "Rome",
            generation: "Gen1",
            cores_per_socket: 64,
            max_freq_ghz: 3.0,
            llc_mib: 256,
            tdp_w: 240.0,
        },
        CpuCharacteristics {
            name: "Milan",
            generation: "Gen2",
            cores_per_socket: 64,
            max_freq_ghz: 3.7,
            llc_mib: 256,
            tdp_w: 280.0,
        },
        CpuCharacteristics {
            name: "Genoa",
            generation: "Gen3",
            cores_per_socket: 80,
            max_freq_ghz: 3.7,
            llc_mib: 384,
            tdp_w: 325.0,
        },
    ]
}

/// Estimated grid carbon intensities (kg CO₂e/kWh) for the three Azure
/// regions annotated in Figs. 11/12, ordered low → high.
pub fn region_carbon_intensities() -> [(&'static str, f64); 3] {
    [("Azure-us-south", 0.04), ("Azure-us-central", 0.10), ("Azure-europe-north", 0.33)]
}

/// Open-source component data (the paper's Table V) and the SKU
/// configurations built from it.
pub mod open_source {
    use super::*;

    /// Derating factor at 40 % SPEC throughput (Table VI).
    pub const DERATE: f64 = 0.44;
    /// CPU voltage-regulator loss factor (Table VI).
    pub const CPU_VR_LOSS: f64 = 1.05;

    /// AMD Bergamo CPU TDP (Table V).
    pub const BERGAMO_TDP_W: f64 = 400.0;
    /// AMD Bergamo CPU embodied emissions (Table V).
    pub const BERGAMO_EMBODIED_KG: f64 = 28.3;
    /// DDR5 DRAM TDP per GB (Table V).
    pub const DDR5_TDP_W_PER_GB: f64 = 0.37;
    /// DDR5 DRAM embodied emissions per GB (Table V).
    pub const DDR5_EMBODIED_KG_PER_GB: f64 = 1.65;
    /// DDR4 DRAM TDP per GB (Table V; the artifact models reused DDR4
    /// with the same W/GB as DDR5).
    pub const DDR4_TDP_W_PER_GB: f64 = 0.37;
    /// New SSD TDP per TB (Table V).
    pub const SSD_TDP_W_PER_TB: f64 = 5.6;
    /// New SSD embodied emissions per TB (Table V).
    pub const SSD_EMBODIED_KG_PER_TB: f64 = 17.3;
    /// CXL controller TDP (Table V).
    pub const CXL_CONTROLLER_TDP_W: f64 = 5.8;
    /// CXL controller embodied emissions (Table V).
    pub const CXL_CONTROLLER_EMBODIED_KG: f64 = 2.5;

    /// Calibrated Gen3 (Genoa) CPU TDP — see module docs.
    pub const GENOA_TDP_W: f64 = 320.0;
    /// Calibrated Gen3 (Genoa) CPU embodied emissions — see module docs.
    pub const GENOA_EMBODIED_KG: f64 = 30.0;
    /// Calibrated reused-DDR4-behind-CXL power — see module docs.
    pub const REUSED_DDR4_TDP_W_PER_GB: f64 = 0.582;
    /// Calibrated reused m.2 SSD power — see module docs.
    pub const REUSED_SSD_TDP_W_PER_TB: f64 = 6.65;

    fn cpu(name: &str, tdp: f64, embodied: f64) -> Result<ComponentSpec, CarbonError> {
        ComponentSpec::new(name, ComponentClass::Cpu, 1.0, Watts::new(tdp), KgCo2e::new(embodied))?
            .with_derate(DERATE)?
            .with_loss_factor(CPU_VR_LOSS)
    }

    fn ddr5(gb: f64, dimms: u32) -> Result<ComponentSpec, CarbonError> {
        Ok(ComponentSpec::new(
            "DDR5 DRAM",
            ComponentClass::Dram,
            gb,
            Watts::new(DDR5_TDP_W_PER_GB),
            KgCo2e::new(DDR5_EMBODIED_KG_PER_GB),
        )?
        .with_derate(DERATE)?
        .with_device_count(dimms))
    }

    fn ddr4_cxl(gb: f64, dimms: u32, tdp_per_gb: f64) -> Result<ComponentSpec, CarbonError> {
        Ok(ComponentSpec::new(
            "Reused DDR4 DRAM (CXL)",
            ComponentClass::CxlDram,
            gb,
            Watts::new(tdp_per_gb),
            KgCo2e::new(DDR5_EMBODIED_KG_PER_GB),
        )?
        .with_derate(DERATE)?
        .with_device_count(dimms)
        .reused())
    }

    fn ssd_new(tb: f64, drives: u32) -> Result<ComponentSpec, CarbonError> {
        Ok(ComponentSpec::new(
            "SSD (new)",
            ComponentClass::Ssd,
            tb,
            Watts::new(SSD_TDP_W_PER_TB),
            KgCo2e::new(SSD_EMBODIED_KG_PER_TB),
        )?
        .with_derate(DERATE)?
        .with_device_count(drives)
        .with_pcie_lanes(drives * 4))
    }

    fn ssd_reused(tb: f64, drives: u32) -> Result<ComponentSpec, CarbonError> {
        Ok(ComponentSpec::new(
            "SSD (reused m.2)",
            ComponentClass::Ssd,
            tb,
            Watts::new(REUSED_SSD_TDP_W_PER_TB),
            KgCo2e::new(SSD_EMBODIED_KG_PER_TB),
        )?
        .with_derate(DERATE)?
        .with_device_count(drives)
        .with_pcie_lanes(drives * 4)
        .reused())
    }

    fn cxl_controller(count: f64) -> Result<ComponentSpec, CarbonError> {
        Ok(ComponentSpec::new(
            "CXL controller",
            ComponentClass::CxlController,
            count,
            Watts::new(CXL_CONTROLLER_TDP_W),
            KgCo2e::new(CXL_CONTROLLER_EMBODIED_KG),
        )?
        .with_derate(DERATE)?
        // §III: 32 CXL/PCIe5 lanes carry ~100 GB/s of CXL bandwidth.
        .with_pcie_lanes(count as u32 * 32))
    }

    /// Assembles a dataset server from its component results.
    ///
    /// # Panics
    ///
    /// Panics if any hard-coded Table IV/V value violates a spec
    /// invariant — unreachable for the shipped tables, which the
    /// dataset tests construct end to end.
    fn build(
        name: &str,
        cores: u32,
        components: Vec<Result<ComponentSpec, CarbonError>>,
    ) -> ServerSpec {
        let components: Vec<ComponentSpec> = components
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("dataset component values are valid by construction");
        ServerSpec::builder(name, cores, 2)
            .components(components)
            .build()
            .expect("dataset server shapes are valid by construction")
    }

    /// The §V worked-example configuration of GreenSKU-CXL, using Table V
    /// values **verbatim** (DDR4 at the DDR5 W/GB, one CXL controller).
    ///
    /// Pinned by golden tests: P_s ≈ 403 W, E_emb,s = 1644 kg,
    /// 31 kg CO₂e per core at rack level.
    pub fn greensku_cxl_example() -> ServerSpec {
        build(
            "GreenSKU-CXL (worked example)",
            128,
            vec![
                cpu("AMD Bergamo", BERGAMO_TDP_W, BERGAMO_EMBODIED_KG),
                ddr5(768.0, 12),
                ddr4_cxl(256.0, 8, DDR4_TDP_W_PER_GB),
                ssd_new(20.0, 5),
                cxl_controller(1.0),
            ],
        )
    }

    /// Estimated Gen1 (Rome-era, deployed ~2018) baseline SKU: 64 cores,
    /// 512 GB DDR4, 4 TB SSD. Not in the paper's open dataset; values
    /// estimated from Table I TDPs and era-typical shapes. Used by the
    /// adoption component when a VM's pre-defined generation is Gen1.
    pub fn baseline_gen1() -> ServerSpec {
        build(
            "Baseline (Gen1)",
            64,
            vec![cpu("AMD Rome", 240.0, 25.0), ddr5(512.0, 16), ssd_new(4.0, 4)],
        )
    }

    /// Estimated Gen2 (Milan-era) baseline SKU: 64 cores, 512 GB DDR4,
    /// 8 TB SSD. See [`baseline_gen1`] for sourcing.
    pub fn baseline_gen2() -> ServerSpec {
        build(
            "Baseline (Gen2)",
            64,
            vec![cpu("AMD Milan", 280.0, 27.0), ddr5(512.0, 16), ssd_new(8.0, 4)],
        )
    }

    /// Gen3 baseline SKU (Table VIII row 1): 80 cores, 12 × 64 GB DDR5,
    /// 6 × 2 TB SSD.
    pub fn baseline_gen3() -> ServerSpec {
        build(
            "Baseline (Gen3)",
            80,
            vec![
                cpu("AMD Genoa", GENOA_TDP_W, GENOA_EMBODIED_KG),
                ddr5(768.0, 12),
                ssd_new(12.0, 6),
            ],
        )
    }

    /// Baseline-Resized (Table VIII row 2): memory:core reduced from 9.6
    /// to the carbon-optimal 8 (10 × 64 GB DDR5).
    pub fn baseline_resized() -> ServerSpec {
        build(
            "Baseline-Resized",
            80,
            vec![
                cpu("AMD Genoa", GENOA_TDP_W, GENOA_EMBODIED_KG),
                ddr5(640.0, 10),
                ssd_new(12.0, 6),
            ],
        )
    }

    /// GreenSKU-Efficient (Table VIII row 3): Bergamo, 12 × 96 GB DDR5,
    /// 5 × 4 TB SSD.
    pub fn greensku_efficient() -> ServerSpec {
        build(
            "GreenSKU-Efficient",
            128,
            vec![
                cpu("AMD Bergamo", BERGAMO_TDP_W, BERGAMO_EMBODIED_KG),
                ddr5(1152.0, 12),
                ssd_new(20.0, 5),
            ],
        )
    }

    /// GreenSKU-CXL (Table VIII row 4): GreenSKU-Efficient with 30 % of
    /// memory replaced by reused 32 GB DDR4 DIMMs behind CXL.
    pub fn greensku_cxl() -> ServerSpec {
        build(
            "GreenSKU-CXL",
            128,
            vec![
                cpu("AMD Bergamo", BERGAMO_TDP_W, BERGAMO_EMBODIED_KG),
                ddr5(768.0, 12),
                ddr4_cxl(256.0, 8, REUSED_DDR4_TDP_W_PER_GB),
                ssd_new(20.0, 5),
                cxl_controller(1.0),
            ],
        )
    }

    /// GreenSKU-Full (Table VIII row 5): GreenSKU-CXL with 60 % of
    /// storage replaced by reused 1 TB m.2 SSDs (2 × 4 TB new +
    /// 12 × 1 TB reused).
    pub fn greensku_full() -> ServerSpec {
        build(
            "GreenSKU-Full",
            128,
            vec![
                cpu("AMD Bergamo", BERGAMO_TDP_W, BERGAMO_EMBODIED_KG),
                ddr5(768.0, 12),
                ddr4_cxl(256.0, 8, REUSED_DDR4_TDP_W_PER_GB),
                ssd_new(8.0, 2),
                ssd_reused(12.0, 12),
                cxl_controller(1.0),
            ],
        )
    }

    /// The prototype-faithful variant of GreenSKU-Full with **two** CXL
    /// controllers (Fig. 5 shows 4 DIMMs per card); the worked example and
    /// Table VIII configurations use one — see the module docs on the
    /// open-data discrepancy.
    pub fn greensku_full_two_cxl_cards() -> ServerSpec {
        build(
            "GreenSKU-Full (2 CXL cards)",
            128,
            vec![
                cpu("AMD Bergamo", BERGAMO_TDP_W, BERGAMO_EMBODIED_KG),
                ddr5(768.0, 12),
                ddr4_cxl(256.0, 8, REUSED_DDR4_TDP_W_PER_GB),
                ssd_new(8.0, 2),
                ssd_reused(12.0, 12),
                cxl_controller(2.0),
            ],
        )
    }

    /// All five Table VIII SKUs in row order: baseline, resized,
    /// efficient, CXL, full.
    pub fn table_viii_skus() -> Vec<ServerSpec> {
        vec![
            baseline_gen3(),
            baseline_resized(),
            greensku_efficient(),
            greensku_cxl(),
            greensku_full(),
        ]
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::open_source::*;
    use super::*;
    use crate::model::CarbonModel;
    use crate::params::ModelParams;

    #[test]
    fn worked_example_power_golden() {
        let s = greensku_cxl_example();
        // Paper: P_s = 403 W (403.35 before rounding).
        assert!((s.average_power().get() - 403.35).abs() < 0.1, "{}", s.average_power());
    }

    #[test]
    fn worked_example_embodied_golden() {
        let s = greensku_cxl_example();
        // Paper: E_emb,s = 1644 kg CO2e.
        assert!((s.embodied().get() - 1644.0).abs() < 0.1, "{}", s.embodied());
    }

    #[test]
    fn worked_example_rack_golden() {
        let model = CarbonModel::new(ModelParams::worked_example());
        let a = model.assess_rack(&greensku_cxl_example()).unwrap();
        assert_eq!(a.servers_per_rack(), 16);
        assert_eq!(a.cores_per_rack(), 2048);
        // Paper: E_emb,r = 26 804 kg, E_op,r = 36 547 kg, 31 kg/core.
        let emb_rack = a.emb_per_core().get() * 2048.0;
        assert!((emb_rack - 26_804.0).abs() < 1.0, "emb_rack {emb_rack}");
        let op_rack = a.op_per_core().get() * 2048.0;
        assert!((op_rack - 36_547.0).abs() < 40.0, "op_rack {op_rack}");
        assert!((a.total_per_core().get() - 31.0).abs() < 0.2);
    }

    #[test]
    fn sku_shapes_match_table_viii() {
        let b = baseline_gen3();
        assert_eq!(b.cores(), 80);
        assert_eq!(b.memory_capacity().get(), 768.0);
        assert!((b.memory_per_core() - 9.6).abs() < 1e-9);
        assert_eq!(b.ssd_capacity().get(), 12.0);

        let r = baseline_resized();
        assert!((r.memory_per_core() - 8.0).abs() < 1e-9);

        let e = greensku_efficient();
        assert_eq!(e.cores(), 128);
        assert!((e.memory_per_core() - 9.0).abs() < 1e-9);

        let c = greensku_cxl();
        assert_eq!(c.memory_capacity().get(), 1024.0);
        assert_eq!(c.cxl_memory_capacity().get(), 256.0);
        assert!((c.memory_per_core() - 8.0).abs() < 1e-9);

        let f = greensku_full();
        assert_eq!(f.ssd_capacity().get(), 20.0);
        assert_eq!(f.device_count(ComponentClass::Dram), 12);
        assert_eq!(f.device_count(ComponentClass::CxlDram), 8);
        assert_eq!(f.device_count(ComponentClass::Ssd), 14);
    }

    #[test]
    fn full_has_20_dimms_14_ssds_for_maintenance() {
        // §V maintenance example: "GreenSKU-Full has 20 DIMMs and 14 SSDs".
        let f = greensku_full();
        let dimms = f.device_count(ComponentClass::Dram) + f.device_count(ComponentClass::CxlDram);
        assert_eq!(dimms, 20);
        assert_eq!(f.device_count(ComponentClass::Ssd), 14);
        // Baseline: 12 DIMMs, 6 SSDs.
        let b = baseline_gen3();
        assert_eq!(b.device_count(ComponentClass::Dram), 12);
        assert_eq!(b.device_count(ComponentClass::Ssd), 6);
    }

    #[test]
    fn table_i_has_expected_rows() {
        let rows = table_i();
        assert_eq!(rows[0].name, "Bergamo");
        assert_eq!(rows[0].cores_per_socket, 128);
        assert_eq!(rows[3].generation, "Gen3");
        assert_eq!(rows[3].llc_mib, 384);
    }

    #[test]
    fn regions_sorted_by_intensity() {
        let regions = region_carbon_intensities();
        assert!(regions[0].1 < regions[1].1 && regions[1].1 < regions[2].1);
    }

    #[test]
    fn two_cxl_card_variant_costs_more() {
        let one = greensku_full();
        let two = greensku_full_two_cxl_cards();
        assert!(two.average_power() > one.average_power());
        assert!(two.embodied() > one.embodied());
    }

    #[test]
    fn reused_components_carry_zero_embodied() {
        let f = greensku_full();
        assert!(f.embodied_by_class(ComponentClass::CxlDram).get() == 0.0);
        // New SSDs (8 TB) still carry embodied carbon.
        assert!((f.embodied_by_class(ComponentClass::Ssd).get() - 8.0 * 17.3).abs() < 1e-9);
    }
}
