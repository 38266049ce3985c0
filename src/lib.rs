//! # GreenSKU — carbon-efficient cloud server SKU evaluation
//!
//! A from-scratch Rust reproduction of *“Designing Cloud Servers for Lower
//! Carbon”* (ISCA 2024): the **GSF** (GreenSKU Framework) methodology for
//! evaluating the at-scale carbon savings of low-carbon server designs,
//! together with every substrate its evaluation depends on — a carbon
//! model, a queueing-based performance simulator, a VM allocation and
//! packing simulator, a maintenance model, cluster sizing, and synthetic
//! workload generation.
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! - [`carbon`] — server/rack/data-center carbon model ([`gsf_carbon`])
//! - [`perf`] — tail-latency simulator and scaling factors ([`gsf_perf`])
//! - [`workloads`] — application catalog and VM trace synthesis
//! - [`vmalloc`] — VM allocation/packing simulator
//! - [`maintenance`] — AFR / Fail-In-Place / out-of-service model
//! - [`cluster`] — cluster sizing and growth buffer
//! - [`gsf`] — the framework pipeline tying the components together
//! - [`stats`] — statistical utilities shared by all of the above
//! - [`experiments`] — regeneration of every paper table and figure
//!
//! # Quickstart
//!
//! ```
//! use greensku::carbon::{CarbonModel, ModelParams};
//! use greensku::carbon::datasets::open_source;
//!
//! // Evaluate the paper's GreenSKU-CXL example configuration.
//! let params = ModelParams::default_open_source();
//! let model = CarbonModel::new(params);
//! let sku = open_source::greensku_cxl_example();
//! let assessment = model.assess_rack(&sku)?;
//! // The paper's worked example: ~31 kg CO2e per core at rack level.
//! assert!((assessment.total_per_core().get() - 31.0).abs() < 1.0);
//! # Ok::<(), greensku::carbon::CarbonError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use gsf_carbon as carbon;
pub use gsf_cluster as cluster;
pub use gsf_core as gsf;
pub use gsf_experiments as experiments;
pub use gsf_maintenance as maintenance;
pub use gsf_perf as perf;
pub use gsf_stats as stats;
pub use gsf_vmalloc as vmalloc;
pub use gsf_workloads as workloads;

/// The types most programs need, in one import.
///
/// ```
/// use greensku::prelude::*;
///
/// let model = CarbonModel::new(ModelParams::default_open_source());
/// let report = model.savings(
///     &open_source::baseline_gen3(),
///     &open_source::greensku_full(),
/// )?;
/// assert!(report.total > 0.2);
/// # Ok::<(), CarbonError>(())
/// ```
pub mod prelude {
    pub use gsf_carbon::datasets::open_source;
    pub use gsf_carbon::{
        CarbonError, CarbonIntensity, CarbonModel, ModelParams, SavingsReport, ServerSpec,
    };
    pub use gsf_core::{
        GreenSkuDesign, GsfError, GsfPipeline, PipelineConfig, PipelineOutcome, VmRouter,
    };
    pub use gsf_perf::{MemoryPlacement, ScalingFactor, SkuPerfProfile};
    pub use gsf_stats::rng::SeedFactory;
    pub use gsf_vmalloc::{AllocationSim, ClusterConfig, PlacementPolicy, ServerShape};
    pub use gsf_workloads::{
        catalog, ApplicationModel, Trace, TraceGenerator, TraceParams, VmSpec,
    };
}
