//! Fixture-corpus tests: every rule has a firing fixture and a
//! clean/suppressed fixture, suppression and test-module exemptions are
//! honored, and rule scoping (model crates, binary mains)
//! matches the catalog.

use gsf_lint::{analyze_source, FileCtx, Finding, RuleId};

const MODEL: FileCtx<'_> = FileCtx { crate_name: "vmalloc", file_name: "lib.rs" };

fn run(ctx: FileCtx<'_>, fixture: &str) -> Vec<Finding> {
    analyze_source(fixture, ctx, &fixture_src(fixture))
}

fn fixture_src(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!("fixture {path}: {e}"),
    }
}

fn rules_of(findings: &[Finding]) -> Vec<RuleId> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn d1_fires_with_positions() {
    let f = run(MODEL, "d1_violation.rs");
    // `use` line, two declaration-site idents, and the HashSet.
    assert_eq!(rules_of(&f), vec![RuleId::D1; 4]);
    assert_eq!((f[0].line, f[0].col), (2, 23), "{}", f[0].render());
    assert!(f.iter().any(|x| x.message.contains("HashSet")));
}

#[test]
fn d1_clean_suppressed_and_test_exempt() {
    assert!(run(MODEL, "d1_clean.rs").is_empty());
}

#[test]
fn d1_only_applies_to_model_crates() {
    let cli = FileCtx { crate_name: "cli", file_name: "args.rs" };
    assert!(run(cli, "d1_violation.rs").is_empty());
}

#[test]
fn d2_fires_on_time_and_entropy() {
    let f = run(MODEL, "d2_violation.rs");
    // `SystemTime` fires at its `use` too — any reachable handle to
    // wall-clock in library code is a hazard.
    assert_eq!(rules_of(&f), vec![RuleId::D2; 5]);
    let hits: Vec<&str> = f
        .iter()
        .map(|x| {
            ["Instant", "SystemTime", "thread_rng", "from_entropy"]
                .into_iter()
                .find(|n| x.message.contains(n))
                .unwrap_or("?")
        })
        .collect();
    assert_eq!(hits, vec!["SystemTime", "Instant", "SystemTime", "thread_rng", "from_entropy"]);
}

#[test]
fn d2_clean_and_test_exempt() {
    assert!(run(MODEL, "d2_clean.rs").is_empty());
}

#[test]
fn d2_exempts_binary_mains() {
    let main = FileCtx { crate_name: "experiments", file_name: "main.rs" };
    assert!(run(main, "d2_violation.rs").is_empty());
    // The same file in a library module of the same crate still fires.
    let lib = FileCtx { crate_name: "experiments", file_name: "registry.rs" };
    assert_eq!(run(lib, "d2_violation.rs").len(), 5);
}

#[test]
fn d3_fires_on_both_spawn_spellings() {
    let f = run(MODEL, "d3_violation.rs");
    // `thread::spawn` and `std::thread::spawn`, one per line.
    assert_eq!(rules_of(&f), vec![RuleId::D3; 2]);
    assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![5, 6]);
    assert!(f[0].message.contains("parallel.rs"), "{}", f[0].message);
}

#[test]
fn d3_clean_scoped_suppressed_and_test_exempt() {
    assert!(run(MODEL, "d3_clean.rs").is_empty());
}

#[test]
fn d3_exempts_parallel_rs_and_non_model_crates() {
    let parallel = FileCtx { crate_name: "cluster", file_name: "parallel.rs" };
    assert!(run(parallel, "d3_violation.rs").is_empty());
    let cli = FileCtx { crate_name: "cli", file_name: "commands.rs" };
    assert!(run(cli, "d3_violation.rs").is_empty());
    // The same code elsewhere in a model crate still fires.
    let elsewhere = FileCtx { crate_name: "cluster", file_name: "sharded.rs" };
    assert_eq!(run(elsewhere, "d3_violation.rs").len(), 2);
}

#[test]
fn n1_fires_on_expect_and_unwrap_chains() {
    let f = run(MODEL, "n1_violation.rs");
    assert_eq!(rules_of(&f), vec![RuleId::N1; 2]);
    assert_eq!(f[0].line, 4);
    assert_eq!(f[1].line, 9);
    assert!(f[0].message.contains("total_cmp"));
}

#[test]
fn n1_clean_allows_guarded_partial_cmp() {
    assert!(run(MODEL, "n1_clean.rs").is_empty());
}

#[test]
fn n2_fires_on_float_literal_equality() {
    let f = run(MODEL, "n2_violation.rs");
    assert_eq!(rules_of(&f), vec![RuleId::N2; 3]);
    // Literal on the right, negated literal, literal on the left.
    assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![4, 7, 10]);
}

#[test]
fn n2_clean_epsilon_bits_and_sentinel() {
    assert!(run(MODEL, "n2_clean.rs").is_empty());
    // Non-model code is out of N2's scope entirely.
    let exp = FileCtx { crate_name: "experiments", file_name: "faults.rs" };
    assert!(run(exp, "n2_violation.rs").is_empty());
}

#[test]
fn p1_fires_on_all_three_macros() {
    let f = run(MODEL, "p1_violation.rs");
    assert_eq!(rules_of(&f), vec![RuleId::P1; 3]);
    let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![5, 11, 15]);
}

#[test]
fn p1_clean_tests_may_panic() {
    assert!(run(MODEL, "p1_clean.rs").is_empty());
}

#[test]
fn f1_fires_on_imports_and_call_sites() {
    let f = run(MODEL, "f1_violation.rs");
    // `use std::fs::File`, `std::fs::read`, and `fs::File::open`.
    assert_eq!(rules_of(&f), vec![RuleId::F1; 3]);
    assert_eq!(f.iter().map(|x| x.line).collect::<Vec<_>>(), vec![2, 5, 9]);
    assert!(f[0].message.contains("chunks.rs"), "{}", f[0].message);
}

#[test]
fn f1_clean_suppressed_and_test_exempt() {
    assert!(run(MODEL, "f1_clean.rs").is_empty());
}

#[test]
fn f1_exempts_codec_module_and_non_model_crates() {
    let codec = FileCtx { crate_name: "workloads", file_name: "chunks.rs" };
    assert!(run(codec, "f1_violation.rs").is_empty());
    let cli = FileCtx { crate_name: "cli", file_name: "commands.rs" };
    assert!(run(cli, "f1_violation.rs").is_empty());
    // The same code elsewhere in a model crate still fires.
    let elsewhere = FileCtx { crate_name: "workloads", file_name: "trace.rs" };
    assert_eq!(run(elsewhere, "f1_violation.rs").len(), 3);
}

#[test]
fn arena_idioms_stay_clean_in_model_context() {
    // The slot-arena core's hot-path idioms (struct-of-arrays columns,
    // LIFO free list, integer-id binary search, ascending-id float
    // reductions) analyzed as vmalloc model code: zero findings under
    // D1–D3 and N1–N2, with the test-module exemption honored.
    let arena = FileCtx { crate_name: "vmalloc", file_name: "arena.rs" };
    assert!(run(arena, "arena_clean.rs").is_empty());
}

#[test]
fn arena_shortcut_regressions_fire() {
    // The shortcuts the arena design explicitly rejects — hashed
    // occupancy and a NaN-panicking float comparator for eviction
    // order — must keep firing if they ever creep back in.
    let arena = FileCtx { crate_name: "vmalloc", file_name: "arena.rs" };
    let f = run(arena, "arena_violation.rs");
    assert!(f.iter().any(|x| x.rule == RuleId::D1), "{f:#?}");
    assert!(f.iter().any(|x| x.rule == RuleId::N1), "{f:#?}");
}

#[test]
fn malformed_allows_raise_a0_and_do_not_suppress() {
    let f = run(MODEL, "malformed_allow.rs");
    let a0 = f.iter().filter(|x| x.rule == RuleId::A0).count();
    assert_eq!(a0, 5, "{f:#?}");
    // The D1 findings survive: a typo in an allow must not open the gate.
    assert!(f.iter().filter(|x| x.rule == RuleId::D1).count() >= 3);
}

#[test]
fn diagnostics_render_classically() {
    let f = run(MODEL, "n1_violation.rs");
    let line = f[0].render();
    assert!(line.starts_with("n1_violation.rs:4:"), "{line}");
    assert!(line.contains(": N1: "), "{line}");
}

#[test]
fn json_output_is_well_formed() {
    let f = run(MODEL, "n2_violation.rs");
    let j = gsf_lint::report::json(&f);
    assert!(j.starts_with("{\"findings\":["));
    assert!(j.contains("\"rule\":\"N2\""));
    assert!(j.trim_end().ends_with("\"count\":3}"));
}
