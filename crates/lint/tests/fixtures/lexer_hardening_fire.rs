//! Lexer-hardening fixture: hash-guarded raw strings, nested block
//! comments and quote-bearing char literals are all opaque — only the
//! real `.unwrap()` at the end may fire.

pub fn tricky() -> String {
    let doc = r##"raw with "# inside: a.unwrap() b.expect("x") panic!()"##;
    /* outer /* nested comment: c.unwrap() */ still outer */
    let quote = '"';
    let byte = b'\'';
    format!("{doc}{quote}{byte}")
}

pub fn real_violation(x: Option<u32>) -> u32 {
    x.unwrap()
}
