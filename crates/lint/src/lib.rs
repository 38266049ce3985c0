//! `gsf-lint`: the workspace determinism & numeric-safety analyzer.
//!
//! Three of the first four PRs in this repository shipped fixes for the
//! same two latent bug classes: iteration-order nondeterminism from
//! `HashMap` in model code (`ServerState.vms`, `UsageLedger`) and
//! NaN-unsafe / order-fragile float code. The paper's headline claim —
//! a ~28 % per-core CO₂e reduction — rests on bit-stable sizing and
//! replay results, so those hazards are not style nits: they decide
//! whether the carbon numbers are auditable at all. This crate turns
//! the invariants we kept re-fixing by hand into a hard CI gate.
//!
//! The analyzer walks every `crates/*/src` file, tokenizes it with its
//! own small lexer (no `syn` — the crate is dependency-free so it
//! builds offline before anything else), and enforces the catalog in
//! [`rules`] (documented in DESIGN.md §10): **D1** no `HashMap`/
//! `HashSet` in model-crate library code, **D2** no wall-clock or
//! entropy outside binary mains and tests, **N1** no NaN-panicking
//! `partial_cmp` comparator chains, **N2** no float-literal `==`/`!=`
//! in model code, **P1** no `panic!`-family macros in library code.
//!
//! On top of the token rules sits a semantic, cross-file pass
//! (DESIGN.md §14): a recursive-descent [`parser`] feeds a workspace
//! symbol table and conservative call graph ([`symbols`],
//! [`callgraph`]), and a unit lexicon over identifier segments
//! ([`units`]) gives quantities dimensions. Those power **U1** no
//! cross-unit `+`/`-`/comparison, **U2** no unit-incoherent product
//! feeding an assignment, struct field, or unit constructor, **D4** no
//! filesystem/clock/entropy reachable from a replay entry point in
//! *any* crate of its dependency cone, and **P2** no undocumented
//! panic path behind a public model-crate API (a rustdoc `# Panics`
//! section is the accepted contract).
//!
//! Findings carry `file:line:col` and a rule id; any finding makes the
//! binary exit non-zero. A violation that is genuinely safe is
//! suppressed inline, with a mandatory reason:
//!
//! ```text
//! // gsf-lint: allow(D1) -- cache is keyed lookup only, never iterated
//! ```
//!
//! (`allow-file(..)` at any line widens the suppression to the whole
//! file; a malformed directive is itself a finding, `A0`, so a typo
//! cannot silently reopen the gate.)
#![warn(clippy::unwrap_used)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod callgraph;
pub mod engine;
pub mod parser;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod tokenizer;
pub mod units;

pub use engine::{analyze_source, analyze_workspace, Finding};
pub use rules::{FileCtx, RuleId, MODEL_CRATES};
