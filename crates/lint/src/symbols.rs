//! Cross-file symbol table: every function in the workspace, with its
//! owner type, visibility, call sites, determinism sinks, and panic
//! sites — the input to the call-graph rules (D4/P2).
//!
//! This module is pure: the engine reads sources and `Cargo.toml`s off
//! disk and hands them in as strings, so all filesystem coupling stays
//! in one place (`engine.rs`, under its justified F1 allow).
//!
//! Call *resolution* is by name, but restricted to the calling crate's
//! transitive dependency cone (parsed from `Cargo.toml`
//! `[dependencies]` sections, dev-dependencies excluded). Model crates
//! never depend on the driver crates (cli, experiments), so a
//! driver function shadowing a model-crate name can never pull a bogus
//! edge into a model-crate chain. `Type::method` call sites further
//! require the callee's owning `impl` type to match.

use crate::parser::{self, ItemKind};
use crate::tokenizer::{Comment, Tok, TokKind};
use std::collections::BTreeMap;

/// What kind of nondeterminism a D4 sink injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// Ambient filesystem state (`std::fs`, `File::open`, ...).
    Fs,
    /// Wall-clock time (`SystemTime`, `Instant::now`).
    Time,
    /// Ambient entropy (`thread_rng`, `from_entropy`).
    Entropy,
}

impl SinkKind {
    /// Human label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            SinkKind::Fs => "filesystem",
            SinkKind::Time => "wall-clock",
            SinkKind::Entropy => "entropy",
        }
    }
}

/// One D4 sink occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Sink class.
    pub kind: SinkKind,
    /// The API as written (`SystemTime`, `fs`, ...).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One P2 panic site inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// The construct as written (`panic!`, `unwrap`, `expect`, ...).
    pub what: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Callee name (last path segment).
    pub name: String,
    /// `Type` in `Type::name(..)` / `Type::name` references, if any.
    pub qualifier: Option<String>,
    /// Whether the call is a `.name(..)` method call.
    pub is_method: bool,
}

/// One function in the workspace, with everything D4/P2 need.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into [`Workspace::crates`].
    pub crate_idx: usize,
    /// Workspace-relative path, for diagnostics.
    pub file: String,
    /// Function name.
    pub name: String,
    /// Owning `impl` type, for associated functions.
    pub owner: Option<String>,
    /// Bare-`pub` visibility (restricted `pub(..)` is not public).
    pub is_pub: bool,
    /// Inside a test item or test-only file.
    pub is_test: bool,
    /// 1-based declaration line.
    pub line: u32,
    /// 1-based declaration column.
    pub col: u32,
    /// Whether the doc comment carries a `# Panics` section.
    pub doc_panics: bool,
    /// Call sites in the body.
    pub calls: Vec<Call>,
    /// Determinism sinks in the body.
    pub sinks: Vec<Sink>,
    /// Panic sites in the body.
    pub panics: Vec<PanicSite>,
}

impl FnInfo {
    /// `crate::Type::name` / `crate::name` display path.
    pub fn path(&self, crates: &[CrateDeps]) -> String {
        let krate = &crates[self.crate_idx].name;
        match &self.owner {
            Some(o) => format!("{krate}::{o}::{}", self.name),
            None => format!("{krate}::{}", self.name),
        }
    }
}

/// One workspace crate and its transitive dependency cone.
#[derive(Debug)]
pub struct CrateDeps {
    /// Crate directory name under `crates/` (e.g. `"vmalloc"`).
    pub name: String,
    /// Indices of crates in the transitive `[dependencies]` closure,
    /// including the crate itself.
    pub cone: Vec<usize>,
}

/// The resolved workspace: crates plus the full function table.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Crates, sorted by name.
    pub crates: Vec<CrateDeps>,
    /// All functions, in (crate, file, declaration) order.
    pub fns: Vec<FnInfo>,
}

/// One lexed+parsed source file, borrowed from the engine's loader.
pub struct SourceFile<'a> {
    /// Workspace-relative path.
    pub label: &'a str,
    /// Crate directory name.
    pub crate_name: &'a str,
    /// Token stream.
    pub tokens: &'a [Tok],
    /// Comments (for `# Panics` doc detection).
    pub comments: &'a [Comment],
    /// Parsed item tree.
    pub parsed: &'a parser::File,
}

/// Extracts direct `gsf-*` dependencies from a `Cargo.toml`'s
/// `[dependencies]` section (dev-dependencies deliberately excluded:
/// test-only edges must not create library reachability).
pub fn parse_cargo_deps(toml: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for line in toml.lines() {
        let line = line.trim();
        if let Some(section) = line.strip_prefix('[') {
            in_deps = section.trim_end_matches(']') == "dependencies";
            continue;
        }
        if !in_deps {
            continue;
        }
        // `gsf-stats.workspace = true` or `gsf-stats = { .. }`.
        let Some(name) = line.split(['.', ' ', '=']).next() else { continue };
        if let Some(dir) = name.strip_prefix("gsf-") {
            deps.push(dir.to_string());
        }
    }
    deps
}

/// Computes transitive dependency cones from direct-dep lists.
///
/// `direct` maps crate dir name → direct dep dir names; the result is
/// sorted by crate name with each cone sorted by index.
pub fn build_crates(direct: &BTreeMap<String, Vec<String>>) -> Vec<CrateDeps> {
    let names: Vec<&String> = direct.keys().collect();
    let idx_of = |n: &str| names.iter().position(|m| m.as_str() == n);
    let mut crates = Vec::new();
    for (ci, name) in names.iter().enumerate() {
        // Iterative closure; the graph is tiny.
        let mut cone = vec![ci];
        let mut queue = vec![ci];
        while let Some(k) = queue.pop() {
            for dep in &direct[names[k].as_str()] {
                if let Some(di) = idx_of(dep) {
                    if !cone.contains(&di) {
                        cone.push(di);
                        queue.push(di);
                    }
                }
            }
        }
        cone.sort_unstable();
        crates.push(CrateDeps { name: (*name).clone(), cone });
    }
    crates
}

/// Builds the function table over parsed files.
///
/// `files` must be in deterministic (path-sorted) order; the resulting
/// `fns` order — and therefore every downstream BFS — inherits it.
pub fn build(crates: Vec<CrateDeps>, files: &[SourceFile<'_>]) -> Workspace {
    let mut ws = Workspace { crates, fns: Vec::new() };
    for file in files {
        let Some(crate_idx) = ws.crates.iter().position(|c| c.name == file.crate_name) else {
            continue;
        };
        let doc = DocIndex::new(file.comments);
        collect_fns(&mut ws.fns, crate_idx, file, &doc, &file.parsed.items, None);
    }
    ws
}

/// Comment intervals for attaching `///` docs to the item below them.
struct DocIndex<'a> {
    /// (start line, end line, text) per comment, in order.
    spans: Vec<(u32, u32, &'a str)>,
}

impl<'a> DocIndex<'a> {
    fn new(comments: &'a [Comment]) -> Self {
        let spans = comments
            .iter()
            .map(|c| {
                let end = c.line + c.text.matches('\n').count() as u32;
                (c.line, end, c.text.as_str())
            })
            .collect();
        DocIndex { spans }
    }

    /// Whether the contiguous doc block ending just above `item_line`
    /// contains a `# Panics` section.
    fn has_panics_doc(&self, item_line: u32) -> bool {
        let mut above = item_line;
        let mut found = false;
        // Walk upward through comments that touch the line above.
        while let Some((start, _, text)) =
            self.spans.iter().rev().find(|(_, end, _)| end + 1 == above)
        {
            if text.contains("# Panics") {
                found = true;
            }
            above = *start;
        }
        found
    }
}

fn collect_fns(
    out: &mut Vec<FnInfo>,
    crate_idx: usize,
    file: &SourceFile<'_>,
    doc: &DocIndex<'_>,
    items: &[parser::Item],
    owner: Option<&str>,
) {
    for item in items {
        match &item.kind {
            ItemKind::Fn(decl) => {
                let (calls, sinks, panics) = match decl.body {
                    Some((open, close)) => scan_body(file.tokens, open, close),
                    None => (Vec::new(), Vec::new(), Vec::new()),
                };
                out.push(FnInfo {
                    crate_idx,
                    file: file.label.to_string(),
                    name: decl.name.clone(),
                    owner: owner.map(str::to_string),
                    is_pub: decl.is_pub,
                    is_test: decl.is_test,
                    line: item.span.line,
                    col: item.span.col,
                    doc_panics: doc.has_panics_doc(item.span.line),
                    calls,
                    sinks,
                    panics,
                });
            }
            ItemKind::Mod { items, .. } => {
                collect_fns(out, crate_idx, file, doc, items, owner);
            }
            ItemKind::Impl { type_name, items, .. } => {
                collect_fns(out, crate_idx, file, doc, items, Some(type_name));
            }
            _ => {}
        }
    }
}

fn punct_is(t: Option<&Tok>, text: &str) -> bool {
    t.is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

fn ident_of(t: Option<&Tok>) -> Option<&str> {
    t.filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str())
}

/// Keywords that look like calls when followed by `(`.
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "else"
            | "while"
            | "for"
            | "loop"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "as"
            | "move"
            | "fn"
            | "let"
            | "mut"
            | "ref"
            | "where"
            | "impl"
            | "dyn"
    )
}

/// Scans one body's token range for calls, sinks, and panic sites.
fn scan_body(tokens: &[Tok], open: usize, close: usize) -> (Vec<Call>, Vec<Sink>, Vec<PanicSite>) {
    let mut calls = Vec::new();
    let mut sinks = Vec::new();
    let mut panics = Vec::new();
    let close = close.min(tokens.len().saturating_sub(1));
    for i in open..=close {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let next_open = punct_is(tokens.get(i + 1), "(");
        let next_bang = punct_is(tokens.get(i + 1), "!");
        let prev_path = punct_is(tokens.get(i.wrapping_sub(1)), "::");
        let prev_dot = punct_is(tokens.get(i.wrapping_sub(1)), ".");
        let qualifier = if prev_path {
            ident_of(tokens.get(i.wrapping_sub(2))).map(str::to_string)
        } else {
            None
        };
        // --- D4 sinks ---------------------------------------------
        if name == "fs" && punct_is(tokens.get(i + 1), "::") {
            sinks.push(Sink {
                kind: SinkKind::Fs,
                what: "std::fs".into(),
                line: t.line,
                col: t.col,
            });
        }
        if (name == "File" || name == "OpenOptions")
            && punct_is(tokens.get(i + 1), "::")
            && matches!(ident_of(tokens.get(i + 2)), Some("open" | "create" | "new"))
        {
            sinks.push(Sink {
                kind: SinkKind::Fs,
                what: format!("{name}::{}", ident_of(tokens.get(i + 2)).unwrap_or("open")),
                line: t.line,
                col: t.col,
            });
        }
        if name == "SystemTime"
            || (name == "Instant"
                && punct_is(tokens.get(i + 1), "::")
                && ident_of(tokens.get(i + 2)) == Some("now"))
        {
            sinks.push(Sink { kind: SinkKind::Time, what: name.into(), line: t.line, col: t.col });
        }
        if name == "thread_rng" || name == "from_entropy" {
            sinks.push(Sink {
                kind: SinkKind::Entropy,
                what: name.into(),
                line: t.line,
                col: t.col,
            });
        }
        // --- P2 panic sites ---------------------------------------
        if next_bang && matches!(name, "panic" | "todo" | "unimplemented" | "unreachable") {
            panics.push(PanicSite { what: format!("{name}!"), line: t.line, col: t.col });
        }
        if next_open && prev_dot && matches!(name, "unwrap" | "expect") {
            panics.push(PanicSite { what: name.into(), line: t.line, col: t.col });
        }
        // --- calls ------------------------------------------------
        if is_keyword(name) || next_bang {
            continue;
        }
        // `name(..)` calls, `recv.name(..)` method calls, and bare
        // `Type::name` function references (callback position).
        let is_path_ref = prev_path && qualifier.is_some() && !next_open;
        if next_open || is_path_ref {
            // Skip declarations (`fn name(`) — `fn` is a keyword token
            // just before the name.
            if ident_of(tokens.get(i.wrapping_sub(1))) == Some("fn") {
                continue;
            }
            calls.push(Call { name: name.to_string(), qualifier, is_method: prev_dot });
        }
    }
    (calls, sinks, panics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::lex;

    #[test]
    fn cargo_deps_sections() {
        let toml = "[package]\nname = \"gsf-vmalloc\"\n[dependencies]\nrand.workspace = true\n\
                    gsf-stats.workspace = true\ngsf-workloads = { workspace = true }\n\
                    [dev-dependencies]\ngsf-perf.workspace = true\n";
        assert_eq!(parse_cargo_deps(toml), vec!["stats", "workloads"]);
    }

    #[test]
    fn transitive_cones() {
        let mut direct = BTreeMap::new();
        direct.insert("a".to_string(), vec!["b".to_string()]);
        direct.insert("b".to_string(), vec!["c".to_string()]);
        direct.insert("c".to_string(), Vec::new());
        let crates = build_crates(&direct);
        let a = crates.iter().position(|c| c.name == "a").unwrap_or_default();
        assert_eq!(crates[a].cone.len(), 3, "a must see b and c transitively");
        let c = crates.iter().position(|c| c.name == "c").unwrap_or_default();
        assert_eq!(crates[c].cone.len(), 1, "c depends on nothing");
    }

    #[test]
    fn body_scan_finds_calls_sinks_panics() {
        let src = "fn f() {\n    let t = SystemTime::now();\n    helper(1);\n    x.method();\n    \
                   Pool::alloc(3);\n    let v = opt.unwrap();\n    panic!(\"boom\");\n    \
                   vec![1].len();\n}\n";
        let lexed = lex(src);
        let parsed = crate::parser::parse(&lexed.tokens);
        let ItemKind::Fn(decl) = &parsed.items[0].kind else { panic!("fn") };
        let (open, close) = decl.body.unwrap_or_default();
        let (calls, sinks, panics) = scan_body(&lexed.tokens, open, close);
        assert_eq!(sinks.len(), 1);
        assert_eq!(sinks[0].kind, SinkKind::Time);
        assert_eq!(panics.len(), 2, "unwrap + panic!: {panics:?}");
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"helper"));
        assert!(names.contains(&"method"));
        assert!(names.contains(&"alloc"));
        let alloc = calls.iter().find(|c| c.name == "alloc").unwrap_or(&calls[0]);
        assert_eq!(alloc.qualifier.as_deref(), Some("Pool"));
    }

    #[test]
    fn panics_doc_attaches_to_item_below() {
        let src = "/// Does a thing.\n///\n/// # Panics\n///\n/// Panics when x is 0.\npub fn f(x: u32) { assert_ne!(x, 0); }\n\npub fn g() {}\n";
        let lexed = lex(src);
        let doc = DocIndex::new(&lexed.comments);
        assert!(doc.has_panics_doc(6));
        assert!(!doc.has_panics_doc(8));
    }
}
