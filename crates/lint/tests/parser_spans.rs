//! Span-fidelity properties for the recursive-descent parser: every
//! item span the parser reports must re-slice the original source on
//! valid byte boundaries, and its line/col must agree with a direct
//! recount of the prefix. The analyzer as a whole must also survive
//! arbitrary (including syntactically broken) input without panicking —
//! structural damage is A0's job, never a crash.

use gsf_lint::{analyze_source, parser, tokenizer, FileCtx};
use proptest::prelude::*;

/// Token kinds whose `text` is the exact lexeme (string/char literals
/// normalize quotes and raw-string hashes away, so for them the span
/// is the lexeme and the text is the content).
fn text_is_lexeme(kind: tokenizer::TokKind) -> bool {
    !matches!(kind, tokenizer::TokKind::Str | tokenizer::TokKind::Char)
}

/// Recomputes the 1-based (line, col) of a byte offset in an
/// all-ASCII source, independently of the tokenizer's accounting.
fn line_col_at(src: &str, lo: usize) -> (u32, u32) {
    let prefix = &src[..lo];
    let line = 1 + prefix.bytes().filter(|&b| b == b'\n').count() as u32;
    let col = 1 + prefix.rsplit('\n').next().unwrap_or("").len() as u32;
    (line, col)
}

fn check_item_spans(src: &str, items: &[parser::Item]) {
    for item in items {
        let s = &item.span;
        assert!(s.lo <= s.hi && s.hi <= src.len(), "span out of bounds: {s:?}");
        assert!(src.get(s.lo..s.hi).is_some(), "span not on char boundaries: {s:?}");
        let (line, col) = line_col_at(src, s.lo);
        assert_eq!((s.line, s.col), (line, col), "span line/col drifted: {s:?}");
        match &item.kind {
            parser::ItemKind::Mod { items, .. } | parser::ItemKind::Impl { items, .. } => {
                for inner in items {
                    assert!(
                        inner.span.lo >= s.lo && inner.span.hi <= s.hi,
                        "nested item escapes its parent: {:?} outside {s:?}",
                        inner.span
                    );
                }
                check_item_spans(src, items);
            }
            parser::ItemKind::Struct { fields, .. } => {
                for f in fields {
                    assert!(src.get(f.span.lo..f.span.hi).is_some(), "field span: {:?}", f.span);
                }
            }
            _ => {}
        }
    }
}

/// Renders a lowercase identifier from a seed (always non-empty,
/// always starts with a letter).
fn ident_from(seed: &[u8]) -> String {
    seed.iter().map(|b| char::from(b'a' + (b % 26))).collect()
}

/// Renders one plausible top-level item from a (kind, seed, seed)
/// tuple; kinds cycle through the item taxonomy the parser models.
fn render_item(kind: usize, a: &[u8], b: &[u8]) -> String {
    let a = ident_from(a);
    let b = ident_from(b);
    match kind % 8 {
        0 => format!("pub fn {a}({b}: f64) -> f64 {{\n    {b} * 2.0\n}}\n"),
        1 => format!("struct {a} {{\n    {b}: f64,\n}}\n"),
        2 => format!("mod {a} {{\n    fn {b}() {{}}\n}}\n"),
        3 => format!("use std::{a}::{b};\n"),
        4 => format!("impl {a} {{\n    pub fn {b}(&self) {{}}\n}}\n"),
        5 => "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        panic!();\n    }\n}\n"
            .to_string(),
        6 => format!("// {a} {b}\n"),
        _ => format!("const {}: u32 = 7;\n", a.to_uppercase()),
    }
}

/// Maps a byte seed to printable ASCII (plus tab/newline) garbage.
fn garbage_from(seed: &[u8]) -> String {
    seed.iter()
        .map(|&b| match b % 97 {
            0 => '\t',
            1 => '\n',
            b => char::from(b + 30),
        })
        .collect()
}

type ItemSeed = (usize, Vec<u8>, Vec<u8>);

fn item_seeds() -> impl Strategy<Value = Vec<ItemSeed>> {
    prop::collection::vec(
        (0..8usize, prop::collection::vec(0..26u8, 1..8), prop::collection::vec(0..26u8, 1..8)),
        0..10,
    )
}

proptest! {
    /// Structured sources: every span the parser hands back re-slices
    /// the source exactly where it claims to be.
    #[test]
    fn spans_are_faithful_on_plausible_sources(seeds in item_seeds()) {
        let src: String =
            seeds.iter().map(|(k, a, b)| render_item(*k, a, b)).collect::<Vec<_>>().concat();
        let lexed = tokenizer::lex(&src);
        for t in &lexed.tokens {
            prop_assert_eq!(&src[t.lo..t.hi], t.text.as_str());
        }
        let file = parser::parse(&lexed.tokens);
        check_item_spans(&src, &file.items);
    }

    /// Arbitrary printable garbage: the lexer's spans still re-slice
    /// exactly, and the full analysis pipeline never panics.
    #[test]
    fn analyzer_survives_arbitrary_input(
        seed in prop::collection::vec(0..97u8, 0..300),
    ) {
        let src = garbage_from(&seed);
        let lexed = tokenizer::lex(&src);
        for t in &lexed.tokens {
            prop_assert!(t.lo <= t.hi && src.get(t.lo..t.hi).is_some(), "bad span {}..{}", t.lo, t.hi);
            if t.kind == tokenizer::TokKind::Ident {
                // Raw identifiers keep only the name (`r#type` → `type`).
                prop_assert!(src[t.lo..t.hi].ends_with(t.text.as_str()), "{}", t.text);
            } else if text_is_lexeme(t.kind) {
                prop_assert_eq!(&src[t.lo..t.hi], t.text.as_str());
            }
        }
        for c in &lexed.comments {
            prop_assert_eq!(&src[c.lo..c.hi], c.text.as_str());
        }
        let _ = parser::parse(&lexed.tokens);
        let ctx = FileCtx { crate_name: "vmalloc", file_name: "lib.rs" };
        let _ = analyze_source("fuzz.rs", ctx, &src);
    }
}
