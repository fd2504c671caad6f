//! A never-panicking decoder for the JSONL trace format `microblog-obs`
//! exports.
//!
//! The decoder is hand-rolled on purpose: the auditor's first duty is to
//! reject frames the runtime could not have written, and a permissive
//! general-purpose deserializer would paper over exactly the corruption
//! we are hunting. Every deviation — bad UTF-8 escapes, unknown
//! categories, a string where a number belongs — surfaces as a
//! [`DecodeError`] carrying a byte offset, never as a panic. Property
//! tests feed the decoder arbitrary bytes to hold that line.

use microblog_obs::schema;
use microblog_obs::{Category, EventKind, WalkPhase};

/// Recursion ceiling for nested arrays/objects. The real format nests
/// two levels deep; anything past this is an attack or corruption, and
/// bottomless recursion would blow the stack before logic could object.
const MAX_DEPTH: u32 = 32;

/// A decode failure: where in the line, and what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the line.
    pub offset: usize,
    /// Human-readable cause.
    pub msg: String,
}

impl DecodeError {
    fn new(offset: usize, msg: impl Into<String>) -> Self {
        DecodeError {
            offset,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.msg)
    }
}

/// A parsed JSON number, kept in its narrowest faithful type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Num {
    /// Non-negative integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Anything with a fraction or exponent.
    F64(f64),
}

impl Num {
    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Num::U64(v) => Some(v),
            Num::I64(v) => u64::try_from(v).ok(),
            Num::F64(_) => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Num::U64(v) => i64::try_from(v).ok(),
            Num::I64(v) => Some(v),
            Num::F64(_) => None,
        }
    }
}

/// A generic JSON value (object keys keep emission order).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(Num),
    /// A string, escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Parses one JSON value covering the entire input (trailing whitespace
/// allowed).
pub fn parse_json(input: &str) -> Result<Json, DecodeError> {
    let mut p = Parser {
        b: input.as_bytes(),
        i: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(DecodeError::new(p.i, "trailing garbage after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, lit: &str) -> Result<(), DecodeError> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(DecodeError::new(self.i, format!("expected `{lit}`")))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, DecodeError> {
        if depth > MAX_DEPTH {
            return Err(DecodeError::new(self.i, "nesting too deep"));
        }
        match self.b.get(self.i) {
            None => Err(DecodeError::new(self.i, "unexpected end of input")),
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(DecodeError::new(self.i, "expected `,` or `]`")),
                    }
                }
            }
            Some(b'{') => {
                self.i += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(":")?;
                    self.skip_ws();
                    let val = self.value(depth + 1)?;
                    entries.push((key, val));
                    self.skip_ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(entries));
                        }
                        _ => return Err(DecodeError::new(self.i, "expected `,` or `}`")),
                    }
                }
            }
            Some(_) => self.number().map(Json::Num),
        }
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        if self.b.get(self.i) != Some(&b'"') {
            return Err(DecodeError::new(self.i, "expected string"));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(DecodeError::new(self.i, "unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // Lone surrogates become the replacement
                            // char — the emitter never writes them, and
                            // the auditor must not die on hostile input.
                            out.push(char::from_u32(u32::from(code)).unwrap_or('\u{FFFD}'));
                            continue;
                        }
                        _ => return Err(DecodeError::new(self.i, "bad escape")),
                    }
                    self.i += 1;
                }
                Some(&c) if c < 0x20 => {
                    return Err(DecodeError::new(self.i, "raw control char in string"));
                }
                Some(_) => {
                    // Copy one UTF-8 scalar. The input is a &str, so
                    // boundaries are guaranteed; find the next one.
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && (self.b[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    match std::str::from_utf8(&self.b[start..self.i]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(DecodeError::new(start, "invalid UTF-8")),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, DecodeError> {
        // self.i sits on the `u`.
        let mut code: u16 = 0;
        for k in 1..=4 {
            let d = match self.b.get(self.i + k) {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return Err(DecodeError::new(self.i + k, "bad \\u escape")),
            };
            code = (code << 4) | u16::from(d);
        }
        self.i += 5;
        Ok(code)
    }

    /// Decodes one number in the JSON grammar: `-?(0|[1-9][0-9]*)`, an
    /// optional `.digits` fraction and an optional `e[+-]digits`
    /// exponent. Integers stay exact: non-negative ones as `u64`,
    /// negative ones parsed with their sign as `i64`, so `i64::MIN`
    /// decodes.
    fn number(&mut self) -> Result<Num, DecodeError> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        match self.b.get(self.i) {
            Some(b'0') => self.i += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(DecodeError::new(start, "expected value")),
        }
        let mut float = false;
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            if self.digits() == 0 {
                return Err(DecodeError::new(self.i, "expected a digit after `.`"));
            }
            float = true;
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(DecodeError::new(self.i, "expected an exponent digit"));
            }
            float = true;
        }
        let text = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| DecodeError::new(start, "invalid UTF-8 in number"))?;
        if float {
            let v: f64 = text
                .parse()
                .map_err(|_| DecodeError::new(start, "bad float"))?;
            if !v.is_finite() {
                return Err(DecodeError::new(start, "non-finite float"));
            }
            Ok(Num::F64(v))
        } else if text.starts_with('-') {
            let v: i64 = text
                .parse()
                .map_err(|_| DecodeError::new(start, "bad integer"))?;
            Ok(Num::I64(v))
        } else {
            let v: u64 = text
                .parse()
                .map_err(|_| DecodeError::new(start, "bad integer"))?;
            Ok(Num::U64(v))
        }
    }

    /// Skips a run of ASCII digits and returns its length.
    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }
}

/// One typed field value of a frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Field {
    /// Numeric field.
    Num(Num),
    /// String field.
    Str(String),
}

/// One decoded trace frame: the nine fixed keys of the export format,
/// with the enums resolved against the `microblog-obs` schema tables.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Logical (or wall) timestamp in microseconds.
    pub tick: u64,
    /// Global emission sequence number.
    pub seq: u64,
    /// Point event or span edge.
    pub kind: EventKind,
    /// Subsystem category.
    pub cat: Category,
    /// Event name (vocabulary is checked by the auditor, per kind).
    pub name: String,
    /// Span id for span edges, `None` for point events.
    pub span: Option<u64>,
    /// Ambient walk phase at emission.
    pub phase: WalkPhase,
    /// Published MA-TARW level, if any.
    pub level: Option<i64>,
    /// Typed payload fields, in emission order.
    pub fields: Vec<(String, Field)>,
}

impl Frame {
    /// Decodes one JSONL line. Structural problems (missing keys, wrong
    /// types, unknown enum strings) are errors; event-*name* vocabulary
    /// is left to the auditor so the message can cite the check.
    pub fn decode(line: &str) -> Result<Frame, DecodeError> {
        let Json::Obj(entries) = parse_json(line)? else {
            return Err(DecodeError::new(0, "frame is not a JSON object"));
        };
        let get = |key: &str| -> Result<&Json, DecodeError> {
            entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| DecodeError::new(0, format!("missing key `{key}`")))
        };
        let u64_of = |key: &str| -> Result<u64, DecodeError> {
            match get(key)? {
                Json::Num(n) => n
                    .as_u64()
                    .ok_or_else(|| DecodeError::new(0, format!("`{key}` is not a u64"))),
                other => Err(DecodeError::new(
                    0,
                    format!("`{key}` is {}, expected number", other.type_name()),
                )),
            }
        };
        let str_of = |key: &str| -> Result<&str, DecodeError> {
            match get(key)? {
                Json::Str(s) => Ok(s.as_str()),
                other => Err(DecodeError::new(
                    0,
                    format!("`{key}` is {}, expected string", other.type_name()),
                )),
            }
        };

        let kind = str_of("kind")?;
        let kind = schema::parse_kind(kind)
            .ok_or_else(|| DecodeError::new(0, format!("unknown kind `{kind}`")))?;
        let cat = str_of("cat")?;
        let cat = schema::parse_category(cat)
            .ok_or_else(|| DecodeError::new(0, format!("unknown category `{cat}`")))?;
        let phase = str_of("phase")?;
        let phase = schema::parse_phase(phase)
            .ok_or_else(|| DecodeError::new(0, format!("unknown phase `{phase}`")))?;
        let span = match get("span")? {
            Json::Null => None,
            Json::Num(n) => Some(
                n.as_u64()
                    .ok_or_else(|| DecodeError::new(0, "`span` is not a u64"))?,
            ),
            other => {
                return Err(DecodeError::new(
                    0,
                    format!("`span` is {}, expected number or null", other.type_name()),
                ))
            }
        };
        let level = match get("level")? {
            Json::Null => None,
            Json::Num(n) => Some(
                n.as_i64()
                    .ok_or_else(|| DecodeError::new(0, "`level` is not an i64"))?,
            ),
            other => {
                return Err(DecodeError::new(
                    0,
                    format!("`level` is {}, expected number or null", other.type_name()),
                ))
            }
        };
        let Json::Obj(raw_fields) = get("fields")? else {
            return Err(DecodeError::new(0, "`fields` is not an object"));
        };
        let mut fields = Vec::with_capacity(raw_fields.len());
        for (k, v) in raw_fields {
            let field = match v {
                Json::Num(n) => Field::Num(*n),
                Json::Str(s) => Field::Str(s.clone()),
                other => {
                    return Err(DecodeError::new(
                        0,
                        format!(
                            "field `{k}` is {}, expected number or string",
                            other.type_name()
                        ),
                    ))
                }
            };
            fields.push((k.clone(), field));
        }
        Ok(Frame {
            tick: u64_of("tick")?,
            seq: u64_of("seq")?,
            kind,
            cat,
            name: str_of("name")?.to_string(),
            span,
            phase,
            level,
            fields,
        })
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// A `u64` field, if present and numeric.
    pub fn u64_field(&self, name: &str) -> Option<u64> {
        match self.field(name)? {
            Field::Num(n) => n.as_u64(),
            Field::Str(_) => None,
        }
    }

    /// A string field, if present.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        match self.field(name)? {
            Field::Str(s) => Some(s),
            Field::Num(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"tick":42,"seq":7,"kind":"event","cat":"charge","name":"charge","span":null,"phase":"walk","level":2,"fields":{"endpoint":"search","calls":3,"source":"fresh"}}"#;

    #[test]
    fn decodes_a_charge_frame() {
        let f = Frame::decode(LINE).expect("decodes");
        assert_eq!(f.tick, 42);
        assert_eq!(f.seq, 7);
        assert_eq!(f.kind, EventKind::Event);
        assert_eq!(f.cat, Category::Charge);
        assert_eq!(f.name, "charge");
        assert_eq!(f.span, None);
        assert_eq!(f.phase, WalkPhase::Walk);
        assert_eq!(f.level, Some(2));
        assert_eq!(f.u64_field("calls"), Some(3));
        assert_eq!(f.str_field("source"), Some("fresh"));
    }

    #[test]
    fn rejects_unknown_enum_strings() {
        for (from, to) in [
            ("\"cat\":\"charge\"", "\"cat\":\"charges\""),
            ("\"kind\":\"event\"", "\"kind\":\"span\""),
            ("\"phase\":\"walk\"", "\"phase\":\"warmup\""),
        ] {
            let bad = LINE.replace(from, to);
            assert!(Frame::decode(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn rejects_structural_damage() {
        assert!(Frame::decode("").is_err());
        assert!(Frame::decode("[1,2,3]").is_err());
        assert!(Frame::decode("{\"tick\":1}").is_err());
        assert!(Frame::decode(&LINE[..LINE.len() - 2]).is_err());
        assert!(Frame::decode(&format!("{LINE} extra")).is_err());
    }

    #[test]
    fn deep_nesting_errors_instead_of_recursing_forever() {
        let bomb = "[".repeat(10_000);
        assert!(parse_json(&bomb).is_err());
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for (from, to) in [
            ("\"tick\":42", "\"tick\":+42"),
            ("\"tick\":42", "\"tick\":042"),
            ("\"tick\":42", "\"tick\":--42"),
            ("\"level\":2", "\"level\":--2"),
        ] {
            let bad = LINE.replace(from, to);
            assert!(Frame::decode(&bad).is_err(), "{bad}");
        }
        for bad in [".5", "5.", "+1.5", "-", "1e", "1e+", "-.5", "01.5"] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
        let min = LINE.replace("\"level\":2", "\"level\":-9223372036854775808");
        assert_eq!(Frame::decode(&min).expect("decodes").level, Some(i64::MIN));
        for (text, num) in [
            ("0", Num::U64(0)),
            ("-0", Num::I64(0)),
            ("18446744073709551615", Num::U64(u64::MAX)),
            ("-2.5e-3", Num::F64(-2.5e-3)),
            ("1E+2", Num::F64(100.0)),
            ("0.5", Num::F64(0.5)),
        ] {
            assert_eq!(parse_json(text), Ok(Json::Num(num)), "{text}");
        }
    }

    #[test]
    fn string_escapes_resolve() {
        let v = parse_json(r#""a\"b\\cA\n""#).expect("parses");
        assert_eq!(v, Json::Str("a\"b\\cA\n".to_string()));
    }
}
