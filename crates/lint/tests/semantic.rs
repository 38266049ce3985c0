//! Semantic-rule fixture tests: unit safety (U1/U2) on single files,
//! structural damage (A0), cross-crate determinism (D4) and
//! panic-reachability (P2) over mini-workspace trees, byte-stable
//! output ordering, and the `--fix` contract.

use gsf_lint::{analyze_source, analyze_workspace, FileCtx, Finding, RuleId};
use std::path::PathBuf;

const MODEL: FileCtx<'_> = FileCtx { crate_name: "vmalloc", file_name: "lib.rs" };

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn run(ctx: FileCtx<'_>, fixture: &str) -> Vec<Finding> {
    let path = fixture_path(fixture);
    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("fixture {}: {e}", path.display()),
    };
    analyze_source(fixture, ctx, &src)
}

fn ws(name: &str) -> Vec<Finding> {
    match analyze_workspace(&fixture_path(name)) {
        Ok(f) => f,
        Err(e) => panic!("workspace fixture {name}: {e}"),
    }
}

fn rules_of(findings: &[Finding]) -> Vec<RuleId> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn u1_fires_on_cross_unit_ops() {
    let f = run(MODEL, "u1_violation.rs");
    // Addition, comparison, and compound assignment across units.
    assert_eq!(rules_of(&f), vec![RuleId::U1; 3], "{f:#?}");
    assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![4, 8, 12]);
    assert!(f[0].message.contains("embodied_kgco2e"), "{}", f[0].message);
    assert!(f[0].message.contains("energy_kwh"), "{}", f[0].message);
}

#[test]
fn u1_clean_same_unit_suppressed_and_test_exempt() {
    assert!(run(MODEL, "u1_clean.rs").is_empty());
}

#[test]
fn u2_fires_on_assignment_field_and_constructor() {
    let f = run(MODEL, "u2_violation.rs");
    assert_eq!(rules_of(&f), vec![RuleId::U2; 3], "{f:#?}");
    assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![8, 13, 17]);
    // The W·h product must be named with the kWh target it disagrees with.
    assert!(f[0].message.contains("energy_kwh"), "{}", f[0].message);
}

#[test]
fn u2_clean_conversions_rescales_constants_suppressed() {
    assert!(run(MODEL, "u2_clean.rs").is_empty());
}

#[test]
fn unbalanced_delimiters_emit_non_suppressible_a0() {
    let f = run(MODEL, "unbalanced.rs");
    let a0: Vec<&Finding> = f.iter().filter(|x| x.rule == RuleId::A0).collect();
    // Two findings: `allow-file(A0)` is itself malformed (A0 cannot be
    // named in an allow), and the structural damage fires regardless.
    assert_eq!(a0.len(), 2, "{f:#?}");
    assert!(a0[0].message.contains("unknown rule id `A0`"), "{}", a0[0].message);
    assert!(a0[1].message.contains("unbalanced delimiters"), "{}", a0[1].message);
    assert!(a0[1].message.contains("not suppressible"), "{}", a0[1].message);
}

#[test]
fn d4_seeded_clock_below_replay_entry_is_caught() {
    let f = ws("ws_d4_violation");
    let d4: Vec<&Finding> = f.iter().filter(|x| x.rule == RuleId::D4).collect();
    assert!(!d4.is_empty(), "seeded D4 not caught:\n{f:#?}");
    // The chain must name the replay entry point and cross the crate
    // boundary into the helper that hides the clock.
    let msg = &d4[0].message;
    assert!(msg.contains("replay_events"), "{msg}");
    assert!(msg.contains("stamp"), "{msg}");
    assert!(d4[0].file.contains("telemetry"), "sink should be flagged where it lives: {d4:#?}");
}

#[test]
fn d4_clean_workspace_with_reasoned_allow_is_silent() {
    let f = ws("ws_d4_clean");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn p2_undocumented_panic_behind_public_api_is_caught() {
    let f = ws("ws_p2_violation");
    assert_eq!(rules_of(&f), vec![RuleId::P2], "{f:#?}");
    let msg = &f[0].message;
    assert!(msg.contains("intensity"), "{msg}");
    assert!(msg.contains("lookup"), "{msg}");
}

#[test]
fn p2_clean_workspace_docs_and_allow_are_silent() {
    let f = ws("ws_p2_clean");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn report_output_is_order_insensitive_and_byte_stable() {
    let mut f = run(MODEL, "u2_violation.rs");
    f.extend(run(MODEL, "u1_violation.rs"));
    let json_sorted = gsf_lint::report::json(&f);
    let text_sorted = gsf_lint::report::text(&f);
    f.reverse();
    assert_eq!(gsf_lint::report::json(&f), json_sorted);
    assert_eq!(gsf_lint::report::text(&f), text_sorted);
}

#[test]
fn workspace_analysis_is_deterministic_across_runs() {
    let a = gsf_lint::report::json(&ws("ws_d4_violation"));
    let b = gsf_lint::report::json(&ws("ws_d4_violation"));
    assert_eq!(a, b);
}
