//! GSF VM-allocation component: an allocation and packing simulator
//! capturing the Azure production scheduler's key placement rules (§V):
//!
//! 1. best-fit placement heuristics that reduce resource fragmentation,
//! 2. a preference for placing VMs on non-empty servers,
//! 3. VM placement constraints (full-node VMs pinned to baseline
//!    servers; GreenSKU-adopting VMs scaled by their application's
//!    scaling factor, falling back to baseline servers at original size
//!    when GreenSKU capacity runs out — the growth-buffer workaround).
//!
//! The simulator replays [`gsf_workloads::Trace`]s against a
//! [`cluster::ClusterConfig`] and reports packing densities (Fig. 9),
//! per-server maximum memory utilization (Fig. 10), and rejection counts
//! (which drive the cluster-sizing search in `gsf-cluster`).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod arena;
pub mod cluster;
pub mod faults;
pub mod index;
pub mod metrics;
pub mod policy;
pub mod prepared;
pub mod server;
pub mod shard;
pub mod simulator;
pub mod usage;

pub use arena::VmArena;
pub use cluster::{ClusterConfig, ServerShape};
pub use faults::{
    AvailabilitySummary, FaultEvent, FaultKind, FaultPlan, FaultPlanError, FaultPool, FaultSummary,
};
pub use index::PlacementIndex;
pub use metrics::{PackingMetrics, PoolMetrics};
pub use policy::PlacementPolicy;
pub use prepared::{PreparedTrace, PreparedTraceBuilder};
pub use server::ServerState;
pub use shard::{merge_outcomes, ShardPlan, ShardTask, ShardedSim, SHARD_ROUTING_VERSION};
pub use simulator::{
    AllocationSim, GreenLimit, HighWaterMarks, PlacementRequest, RunEnd, SimOutcome, TargetPool,
    VmTransform,
};
pub use usage::UsageLedger;
