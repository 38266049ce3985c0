//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each module reproduces one exhibit and writes CSV + aligned-text
//! artifacts under a results directory; [`registry`] lists them all and
//! the `experiments` binary drives them (`experiments all`, or
//! `experiments fig7` for a single exhibit).
//!
//! | Module | Paper exhibit |
//! |---|---|
//! | [`sec2`] | §II — fleet underutilization statistics |
//! | [`fig1`] | Fig. 1 — data-center carbon breakdown |
//! | [`table1`] | Table I — CPU characteristics |
//! | [`fig2`] | Fig. 2 — DDR4 failure rates over deployment time |
//! | [`fig7`] | Fig. 7 — tail latency vs load, five app classes |
//! | [`table2`] | Table II — DevOps build slowdowns |
//! | [`table3`] | Table III — scaling factors, 20 apps × 3 generations |
//! | [`fig8`] | Fig. 8 — CXL impact on Moses vs HAProxy |
//! | [`fig9`] | Fig. 9 — packing-density CDFs across 35 traces |
//! | [`fig10`] | Fig. 10 — per-server max memory-utilization CDFs |
//! | [`table8`] | Tables IV/VIII — per-core savings |
//! | [`table5_6`] | Tables V/VI — input datasets |
//! | [`fig11`] | Fig. 11 — cluster savings vs CI (internal Table IV data) |
//! | [`fig12`] | Fig. 12 — cluster savings vs CI (open data, full pipeline) |
//! | [`maintenance`] | §V maintenance example (AFR/FIP/C_OOS) |
//! | [`faults`] | Fault-injection robustness sweep (AFR scale × FIP effectiveness) |
//! | [`availability`] | Availability sweep (domain size × repair time × FIP) |
//! | [`adoption`] | §VI adoption statistics and low-load latency |
//! | [`scale`] | Scale sweep — streamed vs in-memory evaluation |
//! | [`sec7`] | §VII-B equivalence analyses |
//! | [`sec8`] | §VII-A TCO swap + §VIII search/autoscaling/tiering |
//! | [`ablations`] | DESIGN.md §4 — design ablations (placement, FIP, CXL cards, tail, buffer) |

#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod ablations;
pub mod adoption;
pub mod availability;
pub mod context;
pub mod faults;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod maintenance;
pub mod registry;
pub mod scale;
pub mod sec2;
pub mod sec7;
pub mod sec8;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table5_6;
pub mod table8;

pub use context::{ExpContext, ExpError};
pub use registry::{all_experiments, run_by_id, Experiment};
