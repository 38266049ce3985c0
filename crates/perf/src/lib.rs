//! GSF performance component: per-SKU application performance.
//!
//! The paper measures tail latency of 20 applications on physical
//! servers (Gen1–Gen3 baselines and the GreenSKU prototypes). We replace
//! the hardware with a two-layer model (DESIGN.md substitution 1):
//!
//! 1. [`slowdown`](mod@slowdown) — an architectural slowdown model mapping a SKU's
//!    parameters (frequency, socket/per-core LLC, memory bandwidth,
//!    DDR5-vs-CXL latency) and an application's
//!    [`gsf_workloads::HardwareSensitivity`] to a per-core service-time
//!    multiplier relative to Gen3;
//! 2. [`des`] — an open-loop discrete-event queueing simulator producing
//!    p95/p99 tail-latency-vs-load curves (Figs. 7–8), cross-validated
//!    against an analytic M/M/c model ([`analytic`]).
//!
//! On top sit the paper's derived quantities: saturation throughput and
//! SLOs ([`slo`]), per-application scaling factors (Table III,
//! [`scaling`]), DevOps build slowdowns (Table II, [`throughput`]), and
//! the low-load latency comparison ([`lowload`]).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod alloc_count;
pub mod analytic;
pub mod autoscale;
pub mod des;
pub mod lowload;
pub mod scaling;
pub mod sku;
pub mod slo;
pub mod slowdown;
pub mod sweep;
pub mod throughput;

pub use scaling::{scaling_factor, scaling_table, ScalingFactor};
pub use sku::{MemoryPlacement, SkuPerfProfile};
pub use slowdown::slowdown;
pub use sweep::{LatencyCurve, LoadSweep};
