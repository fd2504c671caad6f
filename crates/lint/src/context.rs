//! Per-file analysis context: tokens plus derived structure.
//!
//! Everything the rules share is computed once per file here: which
//! token ranges are `#[cfg(test)]`/`#[test]` code, where function bodies
//! begin and end, and which lines carry suppression directives.

use crate::config::{FileRole, RULES};
use crate::lexer::{lex, Comment, Lexed, Token};

/// A finding one rule produced on one line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The rule id (see [`crate::config::RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// A parsed `ma-lint: allow(...)` directive.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// The rules it silences.
    pub rules: Vec<String>,
    /// The mandatory justification.
    pub reason: String,
    /// Whole-file (`allow-file`) or line-scoped (`allow`).
    pub whole_file: bool,
    /// The line(s) a line-scoped directive covers.
    pub lines: Vec<u32>,
    /// Where the directive itself sits (for diagnostics).
    pub at: u32,
}

/// One function body, for scope-sensitive rules.
#[derive(Clone, Copy, Debug)]
pub struct FnSpan {
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Token index of the body's `{`.
    pub body_open: usize,
    /// Token index of the body's matching `}`.
    pub body_close: usize,
}

/// The shared per-file context rules run against.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub path: &'a str,
    /// Where the file sits (test dir, binary, example, bench).
    pub role: FileRole,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Comments, for suppression parsing.
    pub comments: Vec<Comment>,
    /// `in_test[i]` — whether token `i` is inside `#[cfg(test)]` or
    /// `#[test]` code.
    pub in_test: Vec<bool>,
    /// Function bodies, in source order.
    pub fns: Vec<FnSpan>,
    /// Parsed suppression directives.
    pub suppressions: Vec<Suppression>,
    /// Malformed directives (missing reason, unknown rule or shape).
    pub bad_directives: Vec<(u32, String)>,
}

impl<'a> FileCtx<'a> {
    /// Lexes `source` and derives the context.
    pub fn new(path: &'a str, source: &str) -> FileCtx<'a> {
        let Lexed { tokens, comments } = lex(source);
        let in_test = mark_test_spans(&tokens);
        let fns = find_fns(&tokens);
        let (suppressions, bad_directives) = parse_suppressions(&comments, &tokens);
        FileCtx {
            path,
            role: FileRole::of(path),
            tokens,
            comments,
            in_test,
            fns,
            suppressions,
            bad_directives,
        }
    }

    /// Whether the token at `idx` is inside test-gated code (or the
    /// whole file is an integration test / bench).
    pub fn is_test_code(&self, idx: usize) -> bool {
        self.role.integration_test
            || self.role.bench
            || self.in_test.get(idx).copied().unwrap_or(false)
    }

    /// Whether a finding of `rule` at `line` is covered by a directive.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rules.iter().any(|r| r == rule) && (s.whole_file || s.lines.contains(&line)))
    }

    /// Emits `finding` into `out` unless suppressed.
    pub fn emit(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        if !self.suppressed(rule, line) {
            out.push(Finding {
                rule,
                file: self.path.to_string(),
                line,
                message,
            });
        }
    }

    /// Token index → matching close brace for the `{` at `open`.
    pub fn matching_brace(&self, open: usize) -> Option<usize> {
        matching_brace(&self.tokens, open)
    }
}

/// Finds the `}` matching the `{` at token index `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    debug_assert!(tokens[open].is_punct('{'));
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Marks tokens inside `#[cfg(test)] mod …` blocks and `#[test] fn`
/// bodies. Attribute stacks (`#[test] #[ignore] fn`) are handled by
/// scanning forward over consecutive attributes.
fn mark_test_spans(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let attr_close = match matching_bracket(tokens, i + 1) {
                Some(c) => c,
                None => break,
            };
            if attr_is_test(&tokens[i + 2..attr_close]) {
                // Skip any further stacked attributes, then mark the item
                // body (the next top-level `{ … }`).
                let mut j = attr_close + 1;
                while tokens.get(j).is_some_and(|t| t.is_punct('#'))
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    match matching_bracket(tokens, j + 1) {
                        Some(c) => j = c + 1,
                        None => return in_test,
                    }
                }
                // Find the item's opening brace, stopping at `;` (a
                // test-gated `use` or declaration has no body).
                let mut k = j;
                let mut body = None;
                while let Some(t) = tokens.get(k) {
                    if t.is_punct('{') {
                        body = Some(k);
                        break;
                    }
                    if t.is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                if let Some(open) = body {
                    if let Some(close) = matching_brace(tokens, open) {
                        for slot in &mut in_test[i..=close] {
                            *slot = true;
                        }
                        i = close + 1;
                        continue;
                    }
                }
                i = k + 1;
                continue;
            }
            i = attr_close + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Whether an attribute body (tokens between `[` and `]`) gates on test:
/// `test`, `cfg(test)`, `cfg(all(test, …))`, `tokio::test` etc.
fn attr_is_test(body: &[Token]) -> bool {
    let mut idents = body.iter().filter_map(|t| t.ident());
    match idents.next() {
        Some("test") => true,
        Some("cfg") => body.iter().any(|t| t.is_ident("test")),
        Some(_) => body.iter().any(|t| t.is_ident("test")),
        None => false,
    }
}

/// Finds the `]` matching the `[` at token index `open`.
fn matching_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Locates every `fn` body: after the name and signature, the first `{`
/// before a `;` opens the body (trait method declarations have none).
fn find_fns(tokens: &[Token]) -> Vec<FnSpan> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            let mut j = i + 1;
            let mut body = None;
            // Walk to the body `{`, skipping the parameter list and any
            // where-clause; `;` ends a bodyless declaration. Generic
            // bounds can contain `{` only inside const generics, which
            // this workspace doesn't use in signatures.
            let mut paren = 0i32;
            while let Some(t) = tokens.get(j) {
                if t.is_punct('(') {
                    paren += 1;
                } else if t.is_punct(')') {
                    paren -= 1;
                } else if paren == 0 && t.is_punct('{') {
                    body = Some(j);
                    break;
                } else if paren == 0 && t.is_punct(';') {
                    break;
                }
                j += 1;
            }
            if let Some(open) = body {
                if let Some(close) = matching_brace(tokens, open) {
                    fns.push(FnSpan {
                        fn_idx: i,
                        body_open: open,
                        body_close: close,
                    });
                    // Nested fns are rare; scanning from inside the body
                    // keeps them visible as their own spans.
                    i = open + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    fns
}

/// Parses `ma-lint: allow(rule, …) reason="…"` and
/// `ma-lint: allow-file(rule, …) reason="…"` comments.
///
/// A trailing comment covers its own line; a leading comment covers the
/// next line that has code on it.
fn parse_suppressions(
    comments: &[Comment],
    tokens: &[Token],
) -> (Vec<Suppression>, Vec<(u32, String)>) {
    let mut out = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let Some(rest) = c.text.strip_prefix("ma-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let (whole_file, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow") {
            (false, r)
        } else {
            bad.push((
                c.line,
                format!("unrecognized ma-lint directive `{}`", c.text),
            ));
            continue;
        };
        let rest = rest.trim_start();
        let Some(close) = rest.starts_with('(').then(|| rest.find(')')).flatten() else {
            bad.push((
                c.line,
                "directive needs `(rule, …)` after allow".to_string(),
            ));
            continue;
        };
        let rules: Vec<String> = rest[1..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = rest[close + 1..].trim();
        let reason = tail
            .strip_prefix("reason=")
            .map(|r| r.trim().trim_matches('"').trim())
            .unwrap_or("");
        if rules.is_empty() {
            bad.push((c.line, "directive names no rules".to_string()));
            continue;
        }
        if let Some(unknown) = rules.iter().find(|r| !RULES.contains(&r.as_str())) {
            bad.push((
                c.line,
                format!("allow({}) names unknown rule `{unknown}`", rules.join(", ")),
            ));
            continue;
        }
        if reason.is_empty() {
            bad.push((
                c.line,
                format!(
                    "allow({}) has no reason — suppressions must say why",
                    rules.join(", ")
                ),
            ));
            continue;
        }
        let lines = if whole_file {
            Vec::new()
        } else if c.trailing {
            vec![c.line]
        } else {
            // Leading comment: cover the next line carrying code.
            let next = tokens
                .iter()
                .map(|t| t.line)
                .find(|&l| l > c.line)
                .unwrap_or(c.line + 1);
            vec![next]
        };
        out.push(Suppression {
            rules,
            reason: reason.to_string(),
            whole_file,
            lines,
            at: c.line,
        });
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_spans_cover_cfg_test_modules() {
        let src =
            "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        let unwraps: Vec<usize> = ctx
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!ctx.is_test_code(unwraps[0]));
        assert!(ctx.is_test_code(unwraps[1]));
    }

    #[test]
    fn test_attr_fn_with_stacked_attributes() {
        let src = "#[test]\n#[ignore]\nfn t() { y.unwrap(); }\nfn lib() { x.unwrap(); }\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        let unwraps: Vec<usize> = ctx
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert!(ctx.is_test_code(unwraps[0]));
        assert!(!ctx.is_test_code(unwraps[1]));
    }

    #[test]
    fn fn_spans_found() {
        let src = "impl A { fn one(&self) -> u32 { 1 } }\nfn two() { { nested(); } }\ntrait T { fn decl(&self); }\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        assert_eq!(ctx.fns.len(), 2);
    }

    #[test]
    fn suppressions_trailing_and_leading() {
        let src = "a.unwrap(); // ma-lint: allow(panic-safety) reason=\"checked above\"\n// ma-lint: allow(determinism) reason=\"order never feeds arithmetic\"\nfor k in map.keys() {}\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        assert_eq!(ctx.suppressions.len(), 2);
        assert!(ctx.suppressed("panic-safety", 1));
        assert!(ctx.suppressed("determinism", 3));
        assert!(!ctx.suppressed("determinism", 1));
    }

    #[test]
    fn directive_naming_an_unknown_rule_is_bad() {
        let src = "// ma-lint: allow(panic-safty) reason=\"typo\"\nx.unwrap();\n// ma-lint: allow(panic-safety, wall-clock) reason=\"stale\"\ny.unwrap();\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        assert!(ctx.suppressions.is_empty());
        assert_eq!(ctx.bad_directives.len(), 2);
        assert!(ctx.bad_directives[0]
            .1
            .contains("unknown rule `panic-safty`"));
        assert!(ctx.bad_directives[1]
            .1
            .contains("unknown rule `wall-clock`"));
        assert!(!ctx.suppressed("panic-safety", 2));
    }

    #[test]
    fn directive_without_reason_is_bad() {
        let src = "// ma-lint: allow(panic-safety)\nx.unwrap();\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        assert!(ctx.suppressions.is_empty());
        assert_eq!(ctx.bad_directives.len(), 1);
        assert!(!ctx.suppressed("panic-safety", 2));
    }

    #[test]
    fn allow_file_covers_everything() {
        let src = "// ma-lint: allow-file(determinism) reason=\"order never feeds arithmetic here\"\nfn f() {}\n";
        let ctx = FileCtx::new("crates/x/src/a.rs", src);
        assert!(ctx.suppressed("determinism", 999));
    }
}
