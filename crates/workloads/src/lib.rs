//! Workload models for the GreenSKU/GSF reproduction.
//!
//! Three responsibilities:
//!
//! 1. **Application catalog** ([`catalog`]): the 20 benchmark applications
//!    of the paper's Table III, each modelled by a base service time and a
//!    [`sensitivity::HardwareSensitivity`] vector that the performance
//!    simulator turns into per-SKU slowdowns. Sensitivities are calibrated
//!    against the paper's published anchors (Table II build slowdowns,
//!    Table III scaling factors, the Fig. 8 Moses/HAProxy CXL contrast).
//! 2. **Fleet mix** ([`fleet`]): application-class core-hour shares and
//!    the published scaling-factor matrix for comparison.
//! 3. **Trace synthesis** ([`tracegen`]): Azure-like VM arrival/departure
//!    traces standing in for the proprietary production traces (see
//!    DESIGN.md, substitution 2), held in memory as a [`trace::Trace`]
//!    and stored as a verified chunked stream ([`chunks`]).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod app;
pub mod catalog;
pub mod characterize;
pub mod chunks;
pub mod class;
pub mod fleet;
pub mod sensitivity;
pub mod trace;
pub mod tracegen;
pub mod vm;

pub use app::{ApplicationModel, ServiceProfile};
pub use characterize::{characterize, TraceProfile};
pub use chunks::{
    decode_chunks, write_chunks, ChunkEvent, TraceChunk, TraceChunkReader, TraceChunkWriter,
    TraceStreamError, DEFAULT_CHUNK_EVENTS,
};
pub use class::AppClass;
pub use fleet::FleetMix;
pub use sensitivity::HardwareSensitivity;
pub use trace::{Trace, TraceCodecError, TraceHasher};
pub use tracegen::{TraceGenerator, TraceParams};
pub use vm::{ServerGeneration, VmEvent, VmEventKind, VmSpec};
