//! `gsf` — the command-line interface to the GreenSKU framework.
//!
//! All commands are implemented as library functions returning their
//! output as a `String` (so they are unit-testable); `main` is a thin
//! argument-parsing shim.
//!
//! ```text
//! gsf list-skus
//! gsf assess --sku greensku-full [--ci 0.1] [--lifetime 6]
//! gsf compare --green greensku-cxl [--baseline baseline-gen3] [--ci 0.1]
//! gsf sweep --green greensku-full --from 0.01 --to 0.5 --points 25
//! gsf report --design full [--hours 24] [--arrivals 80] [--seed 42]
//! gsf search
//! gsf tco
//! gsf trace synth --out trace.gst [--hours 24] [--arrivals 80] [--seed 42]   (alias: gen-trace)
//! gsf trace inspect --trace trace.gst
//! gsf replay --trace trace.gst --design full
//! gsf faults --design full [--afr-scale 1] [--fip 0.75] [--years 1] [--fault-seed 7]
//! gsf fleet --design full [--traces 4] [--workers N] [--hours 24] [--seed 42]
//! gsf fleet --design full --trace-file trace.gst
//! ```

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};
pub use commands::{run_command, CliError};
