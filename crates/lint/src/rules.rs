//! The static invariant catalog (DESIGN.md §10) as token-pattern rules.
//!
//! Each rule exists because this workspace shipped — and then had to
//! fix — the bug class it now forbids:
//!
//! * **D1** `HashMap`/`HashSet` in model-crate library code. Iteration
//!   order is nondeterministic per process; PR 1 (`ServerState.vms`)
//!   and PR 3 (`UsageLedger`) both chased last-bit float drift back to
//!   exactly this. Use `BTreeMap`/`BTreeSet`, or suppress with a
//!   justification when the map is provably never iterated.
//! * **D2** wall-clock / entropy (`Instant::now`, `SystemTime`,
//!   `thread_rng`, `from_entropy`) outside binary mains and test
//!   modules. Model outputs must be a pure function of explicit
//!   seeds and inputs or the carbon numbers are unauditable.
//! * **D3** `thread::spawn` in model-crate library code. Unscoped
//!   ad-hoc threads are how nondeterministic scheduling leaks into
//!   model results; all model parallelism must route through the
//!   order-preserving drivers in `cluster/src/parallel.rs` (the one
//!   file exempt from this rule), whose results are identical for any
//!   worker count.
//! * **N1** `partial_cmp(..).unwrap()/.expect(..)` comparator chains.
//!   They panic on NaN *and* depend on `PartialOrd`'s partial order;
//!   `f64::total_cmp` is panic-free and a deterministic total order.
//! * **N2** `==`/`!=` against a float literal in model-crate library
//!   code. Accumulated floats are almost never bit-equal to a written
//!   constant; use an epsilon/bit-equality helper or justify exactness.
//! * **P1** `panic!`/`todo!`/`unimplemented!` in non-test library code
//!   (the macro face of the existing `clippy::unwrap_used` gate).
//! * **F1** `std::fs` file I/O in model-crate library code. Model
//!   results must be a pure function of explicit inputs, not ambient
//!   filesystem state; files are read and written at the driver layer
//!   (cli, experiments) and streamed into the model through the
//!   chunked trace codec (`workloads/src/chunks.rs`, the one exempt
//!   module), which is generic over `io::Read`/`io::Write`.
//!
//! Four semantic rules live outside this module: **U1**/**U2**
//! (unit-safety, [`crate::units`]) and **D4**/**P2** (transitive
//! determinism and panic-reachability over the workspace call graph,
//! [`crate::callgraph`]). They share `RuleId`, the suppression
//! directives, and the reporting pipeline with the token rules.

use crate::tokenizer::{Tok, TokKind};

/// Machine-readable rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Nondeterministic-iteration collections in model code.
    D1,
    /// Wall-clock / entropy outside binary mains and tests.
    D2,
    /// `thread::spawn` in model code outside `parallel.rs`.
    D3,
    /// NaN-panicking `partial_cmp` comparator chains.
    N1,
    /// Float-literal `==`/`!=` in model code.
    N2,
    /// `panic!`-family macros in library code.
    P1,
    /// `std::fs` file I/O in model code outside the chunked codec.
    F1,
    /// Additive/comparison mix of distinct physical units.
    U1,
    /// Product chain feeding a target of an incompatible unit.
    U2,
    /// Replay entry point transitively reaches fs/time/entropy.
    D4,
    /// Public model API transitively reaches a panic site.
    P2,
    /// Malformed suppression directive (not itself suppressible).
    A0,
}

impl RuleId {
    /// All suppressible rules, in catalog order.
    pub const CATALOG: [RuleId; 11] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::N1,
        RuleId::N2,
        RuleId::P1,
        RuleId::F1,
        RuleId::U1,
        RuleId::U2,
        RuleId::D4,
        RuleId::P2,
    ];

    /// The id as written in diagnostics and `allow(..)` directives.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::N1 => "N1",
            RuleId::N2 => "N2",
            RuleId::P1 => "P1",
            RuleId::F1 => "F1",
            RuleId::U1 => "U1",
            RuleId::U2 => "U2",
            RuleId::D4 => "D4",
            RuleId::P2 => "P2",
            RuleId::A0 => "A0",
        }
    }

    /// Parses an id as written in an `allow(..)` directive.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::CATALOG.into_iter().find(|r| r.as_str() == s)
    }
}

/// Crates whose library code models the system (carbon accounting,
/// placement, sizing): D1/N2 apply here and nowhere else. `lint` is
/// held to the same bar so the analyzer's own output stays
/// deterministic (its genuine file I/O carries justified allows).
pub const MODEL_CRATES: [&str; 9] =
    ["carbon", "cluster", "core", "vmalloc", "workloads", "maintenance", "perf", "stats", "lint"];

/// Where a file sits in the workspace, for rule applicability.
#[derive(Debug, Clone, Copy)]
pub struct FileCtx<'a> {
    /// Crate directory name under `crates/` (e.g. `"vmalloc"`).
    pub crate_name: &'a str,
    /// File name within the crate's `src/` (e.g. `"main.rs"`).
    pub file_name: &'a str,
}

impl FileCtx<'_> {
    fn is_model(&self) -> bool {
        MODEL_CRATES.contains(&self.crate_name)
    }

    /// D2 exempts the binary mains of the driver crates (a progress
    /// timer in `main` is not model state).
    fn d2_exempt(&self) -> bool {
        matches!(self.crate_name, "cli" | "experiments") && self.file_name == "main.rs"
    }
}

/// One diagnostic, prior to suppression filtering.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Which rule fired.
    pub rule: RuleId,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

fn finding(rule: RuleId, tok: &Tok, message: impl Into<String>) -> RawFinding {
    RawFinding { rule, line: tok.line, col: tok.col, message: message.into() }
}

fn ident_is(tok: Option<&Tok>, text: &str) -> bool {
    tok.is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

fn punct_is(tok: Option<&Tok>, text: &str) -> bool {
    tok.is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

/// Runs every applicable rule over the token stream.
///
/// `exempt[i]` marks tokens inside `#[cfg(test)]` / `#[test]` items,
/// which no rule fires on.
pub fn run(ctx: FileCtx<'_>, tokens: &[Tok], exempt: &[bool]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        if exempt.get(i).copied().unwrap_or(false) {
            continue;
        }
        match tok.kind {
            TokKind::Ident => {
                if ctx.is_model() && (tok.text == "HashMap" || tok.text == "HashSet") {
                    out.push(finding(
                        RuleId::D1,
                        tok,
                        format!(
                            "`{}` iterates in nondeterministic order; model code must use \
                             `BTreeMap`/`BTreeSet` (or justify a never-iterated map with an \
                             allow)",
                            tok.text
                        ),
                    ));
                }
                if !ctx.d2_exempt() {
                    d2(&mut out, tokens, i, tok);
                }
                // `parallel.rs` is the one sanctioned home for model
                // threading: its drivers return results in input order
                // for any worker count.
                if ctx.is_model() && ctx.file_name != "parallel.rs" {
                    d3(&mut out, tokens, i, tok);
                }
                // `chunks.rs` is the sanctioned streaming codec: it is
                // generic over `io::Read`/`io::Write`, so even there
                // `std::fs` names only appear in doc examples.
                if ctx.is_model() && ctx.file_name != "chunks.rs" {
                    f1(&mut out, tokens, i, tok);
                }
                n1(&mut out, tokens, i, tok);
                p1(&mut out, tokens, i, tok);
            }
            TokKind::Punct if ctx.is_model() => n2(&mut out, tokens, i, tok),
            _ => {}
        }
    }
    out
}

fn d2(out: &mut Vec<RawFinding>, tokens: &[Tok], i: usize, tok: &Tok) {
    let wall_clock = (tok.text == "Instant"
        && punct_is(tokens.get(i + 1), "::")
        && ident_is(tokens.get(i + 2), "now"))
        || tok.text == "SystemTime";
    let entropy = tok.text == "thread_rng" || tok.text == "from_entropy";
    if wall_clock || entropy {
        out.push(finding(
            RuleId::D2,
            tok,
            format!(
                "`{}` injects {} into model code; results must be a pure function of explicit \
                 seeds and inputs (binary mains and test modules are exempt)",
                tok.text,
                if entropy { "ambient entropy" } else { "wall-clock time" }
            ),
        ));
    }
}

fn d3(out: &mut Vec<RawFinding>, tokens: &[Tok], i: usize, tok: &Tok) {
    // Matches the token sequence `thread :: spawn` (so both
    // `std::thread::spawn(..)` and a `use`-imported `thread::spawn`).
    // Scoped-pool spawns (`scope.spawn`) do not match: those are the
    // sanctioned shape, inside `parallel.rs`.
    if tok.text == "thread"
        && punct_is(tokens.get(i + 1), "::")
        && ident_is(tokens.get(i + 2), "spawn")
    {
        out.push(finding(
            RuleId::D3,
            tok,
            "`thread::spawn` in model code schedules work nondeterministically; route \
             parallelism through the order-preserving drivers in `cluster/src/parallel.rs` \
             (exempt from this rule) so results are identical for any worker count",
        ));
    }
}

fn f1(out: &mut Vec<RawFinding>, tokens: &[Tok], i: usize, tok: &Tok) {
    // Matches the token sequence `fs ::` — fires on `std::fs::read(..)`
    // call sites and on `use std::fs::..` imports alike (a reachable
    // handle to the filesystem in model code is the hazard).
    if tok.text == "fs" && punct_is(tokens.get(i + 1), "::") {
        out.push(finding(
            RuleId::F1,
            tok,
            "`std::fs` in model code ties results to ambient filesystem state; do file I/O at \
             the driver layer (cli, experiments) and stream data in through the chunked \
             codec in `workloads/src/chunks.rs` (generic over `io::Read`/`io::Write`)",
        ));
    }
}

fn n1(out: &mut Vec<RawFinding>, tokens: &[Tok], i: usize, tok: &Tok) {
    if tok.text != "partial_cmp" || !punct_is(tokens.get(i + 1), "(") {
        return;
    }
    // Skip the argument list to the matching close paren.
    let mut depth = 0usize;
    let mut j = i + 1;
    while let Some(t) = tokens.get(j) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    if punct_is(tokens.get(j + 1), ".")
        && (ident_is(tokens.get(j + 2), "unwrap") || ident_is(tokens.get(j + 2), "expect"))
    {
        out.push(finding(
            RuleId::N1,
            tok,
            "`partial_cmp(..).unwrap()/.expect(..)` panics on NaN and is only a partial order; \
             use `f64::total_cmp` (deterministic total order, panic-free)",
        ));
    }
}

fn n2(out: &mut Vec<RawFinding>, tokens: &[Tok], i: usize, tok: &Tok) {
    if tok.text != "==" && tok.text != "!=" {
        return;
    }
    let prev_float = tokens.get(i.wrapping_sub(1)).is_some_and(|t| t.kind == TokKind::Float);
    // Allow a unary minus before the literal (`x == -1.0`).
    let next = match tokens.get(i + 1) {
        Some(t) if t.kind == TokKind::Punct && t.text == "-" => tokens.get(i + 2),
        t => t,
    };
    let next_float = next.is_some_and(|t| t.kind == TokKind::Float);
    if prev_float || next_float {
        out.push(finding(
            RuleId::N2,
            tok,
            format!(
                "`{}` against a float literal: accumulated floats are rarely bit-equal to a \
                 written constant; compare through an epsilon/bit-equality helper or justify \
                 the exact sentinel with an allow",
                tok.text
            ),
        ));
    }
}

fn p1(out: &mut Vec<RawFinding>, tokens: &[Tok], i: usize, tok: &Tok) {
    if matches!(tok.text.as_str(), "panic" | "todo" | "unimplemented")
        && punct_is(tokens.get(i + 1), "!")
    {
        out.push(finding(
            RuleId::P1,
            tok,
            format!(
                "`{}!` in library code aborts the whole evaluation; return an error (or justify \
                 a documented contract panic with an allow)",
                tok.text
            ),
        ));
    }
}
