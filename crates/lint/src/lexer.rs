//! A lightweight, lossy Rust lexer.
//!
//! `ma-lint` rules pattern-match over token streams, not syntax trees, so
//! the lexer only has to get four things right:
//!
//! * identifiers and punctuation arrive as separate tokens with accurate
//!   line numbers;
//! * string/char literals are opaque (their contents can never trip a
//!   rule);
//! * comments are stripped from the token stream but retained separately
//!   so suppression directives (`// ma-lint: allow(...)`) can be parsed;
//! * brace depth can be recovered by replaying `{`/`}` tokens, which is
//!   what the scope-sensitive rules (lock order, test-module detection)
//!   build on.
//!
//! It is intentionally *not* a full lexer: numeric literal suffixes,
//! nested generic disambiguation and the raw-identifier syntax are all
//! handled just precisely enough for rule matching to be reliable on this
//! workspace.

/// What a token is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`foo`, `fn`, `r#match` arrives as `match`).
    Ident(String),
    /// A lifetime such as `'a` (label content not preserved).
    Lifetime,
    /// A string, raw-string, char or byte literal (contents dropped).
    Literal,
    /// A numeric literal (contents dropped).
    Number,
    /// A single punctuation character: `{ } ( ) [ ] . , ; : ! # & = < >` …
    Punct(char),
}

/// One token plus where it starts.
#[derive(Clone, Debug)]
pub struct Token {
    /// The token itself.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    /// The identifier text, when this token is one.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(i) if i == s)
    }
}

/// A comment, kept out-of-band for suppression parsing.
#[derive(Clone, Debug)]
pub struct Comment {
    /// The comment text without its `//` / `/* */` delimiters, trimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Whether anything other than whitespace preceded it on its line
    /// (trailing comments suppress their own line; leading ones the next).
    pub trailing: bool,
}

/// The result of lexing one file.
#[derive(Clone, Debug, Default)]
pub struct Lexed {
    /// The code tokens, in order.
    pub tokens: Vec<Token>,
    /// All comments, in order.
    pub comments: Vec<Comment>,
}

/// Lexes `source` into tokens and comments. Never fails: unexpected
/// bytes are skipped, and an unterminated literal swallows the rest of
/// the file (acceptable for an advisory linter).
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut line_has_code = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut end = start;
                while end < bytes.len() && bytes[end] != b'\n' {
                    end += 1;
                }
                comments.push(Comment {
                    text: source[start..end].trim().to_string(),
                    line,
                    trailing: line_has_code,
                });
                i = end;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let trailing = line_has_code;
                let start = i + 2;
                let mut depth = 1u32;
                let mut j = start;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                // Terminated: `j` sits just past `*/`, so `j - 2` is the
                // `*` (ASCII, always a char boundary). Unterminated at
                // EOF: take everything — backing up two *bytes* could
                // split a multibyte character and panic the slice.
                let end = if depth == 0 { j - 2 } else { j }.max(start);
                comments.push(Comment {
                    text: source[start..end].trim().to_string(),
                    line: start_line,
                    trailing,
                });
                i = j;
                line_has_code = false;
            }
            '"' => {
                line_has_code = true;
                let start_line = line;
                let end = skip_string(bytes, i, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line: start_line,
                });
                i = end;
            }
            'r' | 'b' if starts_raw_or_byte_string(bytes, i) => {
                line_has_code = true;
                let start_line = line;
                let end = skip_raw_or_byte_string(bytes, i, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line: start_line,
                });
                i = end;
            }
            'b' if bytes.get(i + 1) == Some(&b'\'') => {
                // Byte-char literal `b'x'` / `b'\''`: one opaque token,
                // not an ident `b` followed by whatever the quote starts.
                line_has_code = true;
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
                i = skip_char_literal(bytes, i + 1, &mut line);
            }
            '\'' => {
                line_has_code = true;
                // Disambiguate lifetime `'a` from char `'a'`: a lifetime is
                // a quote + ident *not* followed by a closing quote.
                let mut j = i + 1;
                while j < bytes.len() && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                if j > i + 1 && bytes.get(j) != Some(&b'\'') {
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        line,
                    });
                    i = j;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Literal,
                        line,
                    });
                    i = skip_char_literal(bytes, i, &mut line);
                }
            }
            c if c.is_ascii_digit() => {
                line_has_code = true;
                tokens.push(Token {
                    kind: TokenKind::Number,
                    line,
                });
                i += 1;
                while i < bytes.len() && (is_ident_continue(bytes[i]) || bytes[i] == b'.') {
                    // `0..n` range: stop before `..` so the punct survives.
                    if bytes[i] == b'.' && bytes.get(i + 1) == Some(&b'.') {
                        break;
                    }
                    i += 1;
                }
            }
            c if is_ident_start(c as u8) => {
                // Escape skips (`\x` is two bytes whatever follows) can
                // leave `i` inside a multibyte character; resynchronize
                // before slicing or the index panics.
                if !source.is_char_boundary(i) {
                    i += 1;
                    continue;
                }
                line_has_code = true;
                let start = i;
                i += 1;
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                let mut text = &source[start..i];
                // Raw identifiers compare equal to their bare form.
                if let Some(stripped) = text.strip_prefix("r#") {
                    text = stripped;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(text.to_string()),
                    line,
                });
            }
            c => {
                line_has_code = true;
                tokens.push(Token {
                    kind: TokenKind::Punct(c),
                    line,
                });
                i += 1;
            }
        }
    }
    Lexed { tokens, comments }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// `r"…"`, `r#"…"#`, `br"…"`, `b"…"` detection at position `i`.
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    if bytes.get(j) == Some(&b'r') {
        j += 1;
        while bytes.get(j) == Some(&b'#') {
            j += 1;
        }
    }
    // Must land on a quote and have consumed at least the prefix char;
    // a bare ident like `being` must not match.
    bytes.get(j) == Some(&b'"') && j > i
}

fn skip_string(bytes: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_raw_or_byte_string(bytes: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start;
    if bytes[i] == b'b' {
        i += 1;
    }
    let raw = bytes.get(i) == Some(&b'r');
    if raw {
        i += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(bytes.get(i), Some(&b'"'));
    i += 1;
    if !raw {
        // Plain byte string: escapes apply.
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => return i + 1,
                b'\n' => {
                    *line += 1;
                    i += 1;
                }
                _ => i += 1,
            }
        }
        return i;
    }
    // Raw string: ends at `"` followed by `hashes` hash marks.
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if bytes[i] == b'"' {
            let mut k = 0usize;
            while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

fn skip_char_literal(bytes: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start + 1;
    let mut steps = 0;
    while i < bytes.len() && steps < 12 {
        match bytes[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
        steps += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn idents_and_puncts_with_lines() {
        let lx = lex("fn main() {\n    x.unwrap();\n}\n");
        let unwrap = lx.tokens.iter().find(|t| t.is_ident("unwrap")).unwrap();
        assert_eq!(unwrap.line, 2);
        assert!(lx.tokens.iter().any(|t| t.is_punct('{')));
        assert!(lx.tokens.iter().any(|t| t.is_punct('}')));
    }

    #[test]
    fn string_contents_are_opaque() {
        let lx = lex(r#"let s = "x.unwrap() Instant::now()";"#);
        assert_eq!(idents(r#"let s = "x.unwrap()";"#), vec!["let", "s"]);
        assert_eq!(
            lx.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            1
        );
    }

    #[test]
    fn raw_strings_and_escapes() {
        assert_eq!(
            idents(r##"let s = r#"a "quoted" unwrap()"#; end"##),
            vec!["let", "s", "end"]
        );
        assert_eq!(
            idents(r#"let s = "esc \" unwrap()"; end"#),
            vec!["let", "s", "end"]
        );
        assert_eq!(
            idents(r#"let b = b"bytes.unwrap()"; end"#),
            vec!["let", "b", "end"]
        );
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let lx = lex("let a = 1; // ma-lint: allow(x) reason=\"y\"\n/* block\nunwrap() */\nlet b;");
        assert_eq!(lx.comments.len(), 2);
        assert!(lx.comments[0].trailing);
        assert!(lx.comments[0].text.starts_with("ma-lint:"));
        assert!(!lx.comments[1].trailing);
        assert_eq!(lx.comments[1].line, 2);
        assert!(!lx.tokens.iter().any(|t| t.is_ident("unwrap")));
        let b = lx.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let lx = lex("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        let lifetimes = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = lx
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal)
            .count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let lx = lex("for i in 0..10 { a[i]; }");
        let dots = lx.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }

    #[test]
    fn raw_strings_with_multi_hash_guards() {
        // The inner `"#` must not close a `##`-guarded raw string.
        assert_eq!(
            idents(r###"let s = r##"contains "# and unwrap()"##; end"###),
            vec!["let", "s", "end"]
        );
        assert_eq!(
            idents(r###"let s = br##"bytes "# unwrap()"##; end"###),
            vec!["let", "s", "end"]
        );
    }

    #[test]
    fn nested_block_comments() {
        let lx = lex("/* outer /* inner unwrap() */ still comment */ let after;");
        assert_eq!(lx.comments.len(), 1);
        assert!(lx.comments[0].text.contains("inner"));
        assert_eq!(idents("/* a /* b */ c */ let after;"), vec!["let", "after"]);
    }

    #[test]
    fn unterminated_block_comment_with_multibyte_tail_does_not_panic() {
        // Regression: slicing `j - 2` bytes back at EOF could split a
        // multibyte character and panic.
        let lx = lex("let a; /* déjà‑vu");
        assert_eq!(lx.comments.len(), 1);
        assert!(lx.comments[0].text.starts_with("déjà"));
        let lx = lex("/*é");
        assert_eq!(lx.comments.len(), 1);
    }

    #[test]
    fn quote_bearing_char_and_byte_literals() {
        // A char literal holding a double quote must not open a string.
        assert_eq!(
            idents(r#"let c = '"'; let s = "x"; end"#),
            vec!["let", "c", "let", "s", "end"]
        );
        // Byte-char literals are one opaque token, not ident + char.
        assert_eq!(idents(r#"let c = b'"'; end"#), vec!["let", "c", "end"]);
        assert_eq!(idents(r#"let c = b'\''; end"#), vec!["let", "c", "end"]);
        let lx = lex(r#"let c = b'x';"#);
        assert!(!lx.tokens.iter().any(|t| t.is_ident("b")));
        assert_eq!(
            lx.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            1
        );
    }
}
