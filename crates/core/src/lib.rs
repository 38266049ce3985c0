//! GSF — the GreenSKU Framework (the paper's primary contribution).
//!
//! GSF estimates a data center's emissions from deploying a GreenSKU at
//! scale. It composes seven components (Fig. 6 of the paper) in a fixed
//! data flow:
//!
//! ```text
//!  carbon data ─→ [Carbon model] ─→ CO₂e per core ──────────────┐
//!  apps ──→ [Performance] ─→ scaling factors ─→ [Adoption] ─────┤
//!  AFRs ──→ [Maintenance] ─→ out-of-service overhead ───────────┤
//!  VM trace ─→ [VM allocation] ⇄ [Cluster sizing] ─→ #servers ──┼─→ DC emissions
//!                                  [Growth buffer] ─→ buffer ───┘
//! ```
//!
//! Each component is a crate: `gsf-carbon`, `gsf-perf`, `gsf-vmalloc`,
//! `gsf-maintenance` and `gsf-cluster`; the adoption rule lives in
//! [`adoption`]. [`pipeline::GsfPipeline`] calls them along that flow
//! and produces the headline outputs: per-core savings (Table IV/VIII),
//! cluster-level savings across carbon intensities (Figs. 11/12), and
//! packing statistics (Figs. 9/10).
//!
//! # Example
//!
//! ```
//! use gsf_core::design::GreenSkuDesign;
//! use gsf_core::pipeline::{GsfPipeline, PipelineConfig};
//! use gsf_workloads::{TraceGenerator, TraceParams};
//! use gsf_stats::rng::SeedFactory;
//!
//! let trace = TraceGenerator::new(TraceParams {
//!     duration_hours: 12.0,
//!     arrivals_per_hour: 40.0,
//!     ..TraceParams::default()
//! })
//! .generate(&SeedFactory::new(1), 0);
//!
//! let pipeline = GsfPipeline::new(PipelineConfig::default());
//! let outcome = pipeline.evaluate(&GreenSkuDesign::full(), &trace)?;
//! assert!(outcome.cluster_savings > 0.0);
//! # Ok::<(), gsf_core::error::GsfError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod adoption;
pub mod attribution;
pub mod context;
pub mod design;
pub mod error;
pub mod pipeline;
pub mod report;
pub mod search;
pub mod temporal;

pub use adoption::{AdoptionDecision, AdoptionModel};
pub use attribution::AttributionReport;
pub use context::{CacheStats, EvalContext, SizingOutcome};
pub use design::GreenSkuDesign;
pub use error::GsfError;
pub use pipeline::{FleetOutcome, GsfPipeline, PipelineConfig, PipelineOutcome, VmRouter};
