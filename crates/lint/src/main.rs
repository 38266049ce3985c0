//! CLI entry point: `gsf-lint [--root PATH] [--format text|json]`.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use gsf_lint::{engine, report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: gsf-lint [--root PATH] [--format text|json]

Walks PATH/crates/*/src (default: the current directory) and enforces
the determinism, numeric-safety, unit-safety, and reachability catalog
(DESIGN.md §10, §14). Exits 0 when clean, 1 on findings, 2 on
usage/I-O errors.";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage_error("--root requires a path"),
            },
            "--format" => match args.next().as_deref() {
                Some("json") => json = true,
                Some("text") => json = false,
                _ => return usage_error("--format requires `text` or `json`"),
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    let findings = match engine::analyze_workspace(&root) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("gsf-lint: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", if json { report::json(&findings) } else { report::text(&findings) });
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("gsf-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
