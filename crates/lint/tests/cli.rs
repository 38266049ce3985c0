//! The `gsf-lint` binary's contract: exit 0 on a clean tree, 1 with
//! the findings on stdout, and 2 with the usage text for any flag
//! outside `--root PATH` and `--format text|json`.

use std::process::{Command, Output};

fn gsf_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gsf-lint"))
        .args(args)
        .output()
        .expect("the gsf-lint binary runs")
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn seeded_violation_exits_1_with_a_d4_finding() {
    let out = gsf_lint(&["--root", &fixture("ws_d4_violation"), "--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("\"rule\":\"D4\""), "{report}");
}

#[test]
fn clean_tree_exits_0() {
    let out = gsf_lint(&["--root", &fixture("ws_d4_clean")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    let clean = fixture("ws_d4_clean");
    for extra in
        [&["--fix"][..], &["--baseline", "f"], &["--write-baseline", "f"], &["--format", "yaml"]]
    {
        let args: Vec<&str> = ["--root", clean.as_str()].iter().chain(extra).copied().collect();
        let out = gsf_lint(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: gsf-lint [--root PATH] [--format text|json]"), "{stderr}");
    }
}
