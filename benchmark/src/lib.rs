//! The GSF benchmark: four workloads that stress the sizing searches,
//! the memoized sweep, the fault path and the streamed replay, each
//! measured end to end and, in a traced run, layer by layer through
//! spans around the calls it makes into each crate. See README.md.

pub mod bench;
pub mod json;
pub mod spans;
pub mod stats;
pub mod workloads;
