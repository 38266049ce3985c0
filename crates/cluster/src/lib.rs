//! GSF data-center-level components: cluster sizing and the growth
//! buffer (§IV-D), plus cluster-level emissions accounting and a
//! parallel driver for multi-trace packing studies.
//!
//! - [`sizing`] — right-sizes a baseline-only cluster, then incrementally
//!   replaces baseline SKUs with GreenSKUs until no VM is rejected,
//!   reproducing the paper's search for the emission-minimizing mix;
//! - [`buffer`] — the baseline-only growth-buffer workaround of §V;
//! - [`savings`] — cluster-level emissions and the savings-vs-carbon-
//!   intensity sweep behind Figs. 11/12;
//! - [`parallel`] — runs per-trace work across threads (the 35-trace
//!   packing study of Figs. 9/10);
//! - [`sharded`] — the multi-worker driver and sizing probe for the
//!   sharded replay engine (parallelism *within* one simulation).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod buffer;
pub mod parallel;
pub mod savings;
pub mod sharded;
pub mod sizing;

pub use buffer::GrowthBufferPolicy;
pub use savings::{cluster_emissions, savings_fraction};
pub use sharded::replay_sharded;
pub use sizing::{
    right_size, right_size_baseline_only_prepared, right_size_mixed_prepared, AvailabilitySlo,
    ClusterPlan, FaultInjection, MixedSearch, SizingError, SizingRequest,
};
