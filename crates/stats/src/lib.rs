//! Statistical substrate for the GreenSKU/GSF reproduction.
//!
//! The offline dependency set does not include `rand_distr`, so this crate
//! implements the distribution samplers the simulators need (exponential,
//! lognormal, Pareto, categorical) on top of [`rand`], together with the
//! descriptive-statistics utilities used throughout the evaluation:
//! empirical CDFs, exact percentiles, a moving average, confidence
//! intervals, Kolmogorov–Smirnov tests, and text/CSV table rendering.
//!
//! Everything is deterministic given a seed; the simulators in the rest of
//! the workspace derive their sub-streams from [`rng::SeedFactory`].
//!
//! # Example
//!
//! ```
//! use gsf_stats::rng::SeedFactory;
//! use gsf_stats::dist::Exponential;
//! use gsf_stats::summary::Summary;
//! use rand::Rng;
//!
//! let mut rng = SeedFactory::new(42).stream("example");
//! let exp = Exponential::new(2.0).unwrap();
//! let samples: Vec<f64> = (0..10_000).map(|_| rng.sample(&exp)).collect();
//! let summary = Summary::from_samples(&samples);
//! assert!((summary.mean() - 0.5).abs() < 0.05);
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod cdf;
pub mod ci;
pub mod dist;
pub mod ks;
pub mod moving;
pub mod percentile;
pub mod rng;
pub mod summary;
pub mod table;

pub use cdf::EmpiricalCdf;
pub use ci::ConfidenceInterval;
pub use dist::{Categorical, DistError, Exponential, LogNormal, Pareto};
pub use ks::{ks_one_sample, ks_two_sample, KsResult};
pub use moving::MovingAverage;
pub use percentile::{percentile_sorted, Percentiles};
pub use rng::{SeedFactory, SimRng};
pub use summary::Summary;
pub use table::{csv_line, Table};
