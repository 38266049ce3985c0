//! GSF maintenance component.
//!
//! Models the out-of-service overhead a GreenSKU's extra DIMMs and SSDs
//! cause (§IV-B and the §V implementation):
//!
//! - [`afr`] — component annual failure rates aggregated into server
//!   AFRs (baseline: 4.8 per 100 servers; GreenSKU-Full: 7.2);
//! - [`fip`] — Fail-In-Place effectiveness reducing repair rates
//!   (4.8 → 3.0 and 7.2 → 3.6 at the paper's conservative 75 %);
//! - [`oos`] — Little's-law out-of-service fractions and the `C_OOS`
//!   comparison showing GreenSKU-Full's maintenance overhead is
//!   negligible (3.0 vs ≈2.98);
//! - [`failure_sim`] — a stochastic DIMM-population failure simulator
//!   reproducing the Fig. 2 shape (infant mortality, then a flat
//!   ~7-year plateau).

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod afr;
pub mod error;
pub mod failure_sim;
pub mod faults;
pub mod fip;
pub mod oos;
pub mod ssd_wear;

pub use afr::{ComponentAfrs, ServerAfr};
pub use error::MaintenanceError;
pub use failure_sim::{FailureSim, FailureSimParams};
pub use faults::{FaultModel, FaultTopology, PoolDevices};
pub use fip::FipPolicy;
pub use oos::{oos_fraction, CoosComparison, PAPER_REPAIR_DAYS};
pub use ssd_wear::{SsdEndurance, SsdWear};
