//! Analysis driver: test-exemption regions, suppression directives,
//! the two-phase workspace pipeline (per-file token/unit rules, then
//! cross-file call-graph rules), and the workspace walk.
//!
//! All filesystem access in the analyzer lives in this module:
//! everything downstream — parser, symbols, call graph, units — is
//! pure functions over strings, so the lint crate can hold itself to
//! the same F1 bar as the model crates with exactly one justified
//! suppression.
// gsf-lint: allow-file(F1) -- the analyzer's one sanctioned I/O site: it must read the sources it lints

use crate::parser;
use crate::rules::{self, FileCtx, RawFinding, RuleId};
use crate::symbols;
use crate::tokenizer::{self, Tok, TokKind};
use crate::units;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One reportable diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path (e.g. `crates/stats/src/cdf.rs`).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule identifier (`D1`..`P2`, `A0`).
    pub rule: RuleId,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// Renders the classic `file:line:col: rule: message` diagnostic.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}: {}",
            self.file,
            self.line,
            self.col,
            self.rule.as_str(),
            self.message
        )
    }
}

/// A parsed suppression directive.
#[derive(Debug)]
struct Allow {
    line: u32,
    rules: Vec<RuleId>,
    /// `allow-file(..)` suppresses for the whole file.
    file_scope: bool,
}

const DIRECTIVE: &str = "gsf-lint:";

/// Extracts suppression directives: comments carrying the `gsf-lint`
/// marker followed by `allow(<rules>) -- <reason>` (or `allow-file`).
///
/// Malformed directives (unparseable form, unknown rule id, missing
/// reason) produce an `A0` finding instead of silently suppressing
/// nothing — a typo in an allow must not reopen the gate.
fn parse_allows(comments: &[tokenizer::Comment], bad: &mut Vec<RawFinding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        let Some(at) = c.text.find(DIRECTIVE) else {
            continue;
        };
        let rest = c.text[at + DIRECTIVE.len()..].trim_start();
        let malformed = |msg: &str| RawFinding {
            rule: RuleId::A0,
            line: c.line,
            col: 1,
            message: format!(
                "malformed gsf-lint directive ({msg}); expected \
                 `gsf-lint: allow(<rule>[, <rule>]) -- <reason>`"
            ),
        };
        let file_scope = rest.starts_with("allow-file");
        let rest = if file_scope {
            &rest["allow-file".len()..]
        } else if let Some(r) = rest.strip_prefix("allow") {
            r
        } else {
            bad.push(malformed("unknown directive"));
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            bad.push(malformed("missing rule list"));
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad.push(malformed("unclosed rule list"));
            continue;
        };
        let mut rule_ids = Vec::new();
        let mut unknown = false;
        for id in rest[..close].split(',') {
            match RuleId::parse(id.trim()) {
                Some(r) => rule_ids.push(r),
                None => {
                    bad.push(malformed(&format!("unknown rule id `{}`", id.trim())));
                    unknown = true;
                }
            }
        }
        if unknown || rule_ids.is_empty() {
            if rule_ids.is_empty() && !unknown {
                bad.push(malformed("empty rule list"));
            }
            continue;
        }
        let reason = rest[close + 1..].trim_start();
        let Some(reason) = reason.strip_prefix("--") else {
            bad.push(malformed("missing `-- <reason>`"));
            continue;
        };
        if reason.trim().is_empty() {
            bad.push(malformed("empty reason after `--`"));
            continue;
        }
        allows.push(Allow { line: c.line, rules: rule_ids, file_scope });
    }
    allows
}

/// Marks the tokens of `#[cfg(test)]` / `#[test]` items (and, for a
/// `#![cfg(test)]` inner attribute, the whole file) as rule-exempt.
fn exempt_mask(tokens: &[Tok]) -> Vec<bool> {
    let mut exempt = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !punct_at(tokens, i, "#") {
            i += 1;
            continue;
        }
        let inner = punct_at(tokens, i + 1, "!");
        let open = if inner { i + 2 } else { i + 1 };
        if !punct_at(tokens, open, "[") {
            i += 1;
            continue;
        }
        let Some(close) = parser::matching_delim(tokens, open, "[", "]") else {
            break;
        };
        if !parser::attr_is_test(&tokens[open + 1..close]) {
            i = close + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the entire file is test-only.
            exempt.iter_mut().for_each(|e| *e = true);
            return exempt;
        }
        // Skip any further attributes, then exempt through the end of
        // the annotated item (first top-level `;`, or the matching
        // brace of its body).
        let mut j = close + 1;
        while punct_at(tokens, j, "#") && punct_at(tokens, j + 1, "[") {
            match parser::matching_delim(tokens, j + 1, "[", "]") {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        let end = item_end(tokens, j);
        for e in exempt.iter_mut().take(end + 1).skip(i) {
            *e = true;
        }
        i = end + 1;
    }
    exempt
}

fn punct_at(tokens: &[Tok], i: usize, text: &str) -> bool {
    tokens.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

/// The index of the last token of the item starting at `start`: the
/// matching brace of the first top-level `{`, or the first top-level
/// `;` if no body precedes it. On unbalanced delimiters it saturates
/// to the end of the stream — `balance_findings` reports the damage as
/// a non-suppressible A0, so truncation is never silent.
fn item_end(tokens: &[Tok], start: usize) -> usize {
    let mut depth = 0isize;
    for (j, t) in tokens.iter().enumerate().skip(start) {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" if depth == 0 => {
                return parser::matching_delim(tokens, j, "{", "}")
                    .unwrap_or(tokens.len().saturating_sub(1));
            }
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth == 0 => return j,
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Emits a non-suppressible A0 when the file's `()`/`[]`/`{}` nesting
/// is unbalanced: every delimiter-matching helper in the analyzer
/// degrades to truncation on such input, so coverage claims would be
/// silently wrong without this check. At most one finding per file —
/// the first mismatch poisons everything after it.
fn balance_findings(tokens: &[Tok], out: &mut Vec<RawFinding>) {
    let mut stack: Vec<&Tok> = Vec::new();
    for t in tokens {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => stack.push(t),
            ")" | "]" | "}" => {
                let expected = match t.text.as_str() {
                    ")" => "(",
                    "]" => "[",
                    _ => "{",
                };
                match stack.pop() {
                    Some(open) if open.text == expected => {}
                    mismatch => {
                        let context = match mismatch {
                            Some(open) => {
                                format!(
                                    "`{}` opened at line {} is still open",
                                    open.text, open.line
                                )
                            }
                            None => "no delimiter is open".to_string(),
                        };
                        out.push(RawFinding {
                            rule: RuleId::A0,
                            line: t.line,
                            col: t.col,
                            message: format!(
                                "unbalanced delimiters: unexpected `{}` ({context}); analysis of \
                                 this file is unreliable past this point and findings may be \
                                 missed — fix the delimiters (this finding is not suppressible)",
                                t.text
                            ),
                        });
                        return;
                    }
                }
            }
            _ => {}
        }
    }
    if let Some(open) = stack.last() {
        out.push(RawFinding {
            rule: RuleId::A0,
            line: open.line,
            col: open.col,
            message: format!(
                "unbalanced delimiters: `{}` is never closed; analysis of this file is \
                 unreliable past this point and findings may be missed — fix the delimiters \
                 (this finding is not suppressible)",
                open.text
            ),
        });
    }
}

/// Runs U1/U2 over every function body in the item tree.
fn unit_findings(
    tokens: &[Tok],
    exempt: &[bool],
    items: &[parser::Item],
    out: &mut Vec<RawFinding>,
) {
    let scan = units::UnitScan { tokens, exempt };
    for item in items {
        match &item.kind {
            parser::ItemKind::Fn(decl) => {
                if let Some(range) = decl.body {
                    if !decl.is_test {
                        units::check_u1(&scan, range, out);
                        units::check_u2(&scan, range, out);
                    }
                }
            }
            parser::ItemKind::Mod { items, is_test, .. } if !is_test => {
                unit_findings(tokens, exempt, items, out);
            }
            parser::ItemKind::Impl { items, .. } => {
                unit_findings(tokens, exempt, items, out);
            }
            _ => {}
        }
    }
}

/// Applies suppression directives and materializes [`Finding`]s.
fn finalize(file: &str, raw: Vec<RawFinding>, allows: &[Allow]) -> Vec<Finding> {
    let suppressed = |f: &RawFinding| {
        f.rule != RuleId::A0
            && allows.iter().any(|a| {
                a.rules.contains(&f.rule)
                    && (a.file_scope || a.line == f.line || a.line + 1 == f.line)
            })
    };
    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|f| !suppressed(f))
        .map(|f| Finding {
            file: file.to_string(),
            line: f.line,
            col: f.col,
            rule: f.rule,
            message: f.message,
        })
        .collect();
    out.sort_by_key(|a| (a.line, a.col, a.rule));
    out
}

/// One loaded, lexed, and parsed source file.
struct LoadedFile {
    /// Workspace-relative path (diagnostic label).
    label: String,
    /// Crate directory name under `crates/`.
    crate_name: String,
    /// File name within the crate's `src/`.
    file_name: String,
    /// Token stream and comments.
    lexed: tokenizer::Lexed,
    /// Test-exemption mask over the tokens.
    exempt: Vec<bool>,
    /// Coarse item tree.
    parsed: parser::File,
}

/// The loaded workspace: every source file plus the crate dep graph.
struct LoadedWorkspace {
    /// Files in deterministic (crate, path) order.
    files: Vec<LoadedFile>,
    /// Crate dir name → direct `gsf-*` dependency dir names.
    deps: BTreeMap<String, Vec<String>>,
}

/// Reads, lexes, and parses every `crates/*/src/**/*.rs` under `root`,
/// plus each crate's `Cargo.toml` dependency list.
///
/// # Errors
///
/// Propagates I/O failures reading the tree; a missing `crates/`
/// directory is reported as such rather than passing an empty scan off
/// as a clean one.
fn load_workspace(root: &Path) -> io::Result<LoadedWorkspace> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no crates/ directory under {}", root.display()),
        ));
    }
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    let mut deps = BTreeMap::new();
    for crate_dir in crate_dirs {
        let crate_name =
            crate_dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        // A missing/unreadable manifest means no resolvable deps — the
        // analysis stays sound (cone shrinks to the crate itself).
        let manifest = fs::read_to_string(crate_dir.join("Cargo.toml")).unwrap_or_default();
        deps.insert(crate_name.clone(), symbols::parse_cargo_deps(&manifest));
        let mut paths = Vec::new();
        collect_rs_files(&src, &mut paths)?;
        paths.sort();
        for path in paths {
            let source = fs::read_to_string(&path)?;
            let file_name =
                path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace(std::path::MAIN_SEPARATOR, "/");
            let lexed = tokenizer::lex(&source);
            let exempt = exempt_mask(&lexed.tokens);
            let parsed = parser::parse(&lexed.tokens);
            files.push(LoadedFile {
                label,
                crate_name: crate_name.clone(),
                file_name,
                lexed,
                exempt,
                parsed,
            });
        }
    }
    Ok(LoadedWorkspace { files, deps })
}

/// Per-file analysis (token rules, balance check, unit rules) plus
/// suppression filtering — no cross-file context.
///
/// `file` is only recorded into the findings; the rule scoping is
/// driven by `ctx`.
pub fn analyze_source(file: &str, ctx: FileCtx<'_>, source: &str) -> Vec<Finding> {
    let lexed = tokenizer::lex(source);
    let exempt = exempt_mask(&lexed.tokens);
    let parsed = parser::parse(&lexed.tokens);
    let mut raw = rules::run(ctx, &lexed.tokens, &exempt);
    balance_findings(&lexed.tokens, &mut raw);
    unit_findings(&lexed.tokens, &exempt, &parsed.items, &mut raw);
    let allows = parse_allows(&lexed.comments, &mut raw);
    finalize(file, raw, &allows)
}

/// Runs the full two-phase pipeline over a loaded workspace: phase one
/// is per-file (token rules, balance, units), phase two builds the
/// symbol table and call graph and runs D4/P2; both phases' findings
/// go through the same per-file suppression directives.
fn analyze_loaded(ws: &LoadedWorkspace) -> Vec<Finding> {
    let mut raw_by_file: BTreeMap<&str, Vec<RawFinding>> = BTreeMap::new();
    let mut allows_by_file: BTreeMap<&str, Vec<Allow>> = BTreeMap::new();
    for f in &ws.files {
        let ctx = FileCtx { crate_name: &f.crate_name, file_name: &f.file_name };
        let mut raw = rules::run(ctx, &f.lexed.tokens, &f.exempt);
        balance_findings(&f.lexed.tokens, &mut raw);
        unit_findings(&f.lexed.tokens, &f.exempt, &f.parsed.items, &mut raw);
        let allows = parse_allows(&f.lexed.comments, &mut raw);
        raw_by_file.insert(&f.label, raw);
        allows_by_file.insert(&f.label, allows);
    }
    // Phase two: the cross-file rules.
    let crates = symbols::build_crates(&ws.deps);
    let sources: Vec<symbols::SourceFile<'_>> = ws
        .files
        .iter()
        .map(|f| symbols::SourceFile {
            label: &f.label,
            crate_name: &f.crate_name,
            tokens: &f.lexed.tokens,
            comments: &f.lexed.comments,
            parsed: &f.parsed,
        })
        .collect();
    let sym = symbols::build(crates, &sources);
    let edges = crate::callgraph::Resolver::new(&sym).edges();
    let mut semantic = Vec::new();
    crate::callgraph::check_d4(&sym, &edges, &mut semantic);
    crate::callgraph::check_p2(&sym, &edges, &mut semantic);
    for ff in semantic {
        if let Some(raw) = raw_by_file.get_mut(ff.file.as_str()) {
            raw.push(ff.finding);
        }
    }
    let mut findings = Vec::new();
    for (label, raw) in raw_by_file {
        let empty = Vec::new();
        let allows = allows_by_file.get(label).unwrap_or(&empty);
        findings.extend(finalize(label, raw, allows));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    findings
}

/// Walks `root/crates/*/src` and analyzes every `.rs` file with the
/// full pipeline (token, unit, and call-graph rules).
///
/// Findings come back sorted by path, then position — the output order
/// is itself deterministic.
///
/// # Errors
///
/// Propagates I/O failures reading the tree; a missing `crates/`
/// directory is reported as such rather than passing an empty scan off
/// as a clean one.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(analyze_loaded(&load_workspace(root)?))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
