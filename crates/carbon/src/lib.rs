//! GSF carbon model: server, rack, and data-center emissions.
//!
//! Implements §IV-A and §V of *“Designing Cloud Servers for Lower Carbon”*
//! (ISCA 2024):
//!
//! - server average power via per-component TDP, derating, and loss
//!   factors (Eq. 1),
//! - rack power and embodied emissions with space/power constraints
//!   (Eqs. 2–3),
//! - data-center aggregation with PUE, networking/storage, and building
//!   overheads,
//! - CO₂e-per-core at every level, and
//! - savings comparisons between SKUs (Tables IV/VIII), fleet breakdowns
//!   (Fig. 1), and the §VII-B equivalence analyses.
//!
//! The open-source datasets of the paper's artifact appendix (Tables V and
//! VI) ship in [`datasets::open_source`]; the §V worked example is pinned
//! by golden tests (403 W server power, 1644 kg embodied, 31 kg CO₂e per
//! core at rack level).
//!
//! # Example
//!
//! ```
//! use gsf_carbon::{CarbonModel, ModelParams};
//! use gsf_carbon::datasets::open_source;
//!
//! let model = CarbonModel::new(ModelParams::default_open_source());
//! let sku = open_source::greensku_cxl_example();
//! let rack = model.assess_rack(&sku)?;
//! assert!((rack.total_per_core().get() - 31.0).abs() < 1.0);
//! # Ok::<(), gsf_carbon::CarbonError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod breakdown;
pub mod component;
pub mod cost;
pub mod datasets;
pub mod derating;
pub mod equivalence;
pub mod error;
pub mod grid;
pub mod lifetime;
pub mod model;
pub mod params;
pub mod rack;
pub mod residuals;
pub mod server;
pub mod units;

pub use component::{ComponentClass, ComponentSpec};
pub use error::CarbonError;
pub use model::{Assessment, CarbonModel, SavingsReport};
pub use params::{DataCenterOverheads, ModelParams, RackParams};
pub use server::ServerSpec;
pub use units::{CarbonIntensity, Gigabytes, KgCo2e, Terabytes, Watts, Years};
