//! A minimal JSON tree, parser, and writer.
//!
//! The workspace builds offline (no serde), yet two subsystems need to
//! *read* JSON as well as write it: the persistent plan cache decodes
//! `sct-plan/2` documents from disk, and the `sct serve` daemon speaks a
//! newline-delimited JSON wire protocol. This module is the shared,
//! dependency-free implementation: a [`Json`] tree, a strict
//! recursive-descent [`parse`], a compact writer (`Json::to_string` via
//! `Display`), and the same writer without a tree (`JsonWriter`), with
//! which the plan and summary codecs encode their entries.
//!
//! Scope: standard JSON (RFC 8259) minus two deliberate simplifications —
//! numbers are stored as `i64` when they are integral and in range
//! (`f64` otherwise), and object member order is preserved but duplicate
//! keys are not rejected (last one wins on [`Json::get`] lookups is *not*
//! the rule here; the first match wins, which is what a well-formed
//! producer emits anyway).
//!
//! # Examples
//!
//! ```
//! use sct_core::json::{parse, Json};
//!
//! let doc = parse(r#"{"op":"plan","defines":3,"warm":true}"#).unwrap();
//! assert_eq!(doc.get("op").and_then(Json::as_str), Some("plan"));
//! assert_eq!(doc.get("defines").and_then(Json::as_i64), Some(3));
//! assert_eq!(doc.to_string(), r#"{"op":"plan","defines":3,"warm":true}"#);
//! ```

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number representable as `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object member by key (first match), or `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload (integral floats included when exact).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => Some(*f as i64),
            _ => None,
        }
    }

    /// The integer payload as `u64`, when non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|i| u64::try_from(i).ok())
    }

    /// The numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Escapes a string into a JSON string literal (quotes included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    // Writing into a `String` cannot fail.
    let _ = write_escaped(&mut out, s);
    out
}

/// Writes `s` as a JSON string literal (quotes included) straight into
/// `w`: unescaped runs go out as slices, so nothing is allocated. Every
/// escaped character is ASCII, so no UTF-8 sequence is ever split.
fn write_escaped(w: &mut impl fmt::Write, s: &str) -> fmt::Result {
    w.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        w.write_str(&s[run..i])?;
        if esc.is_empty() {
            write!(w, "\\u{b:04x}")?;
        } else {
            w.write_str(esc)?;
        }
        run = i + 1;
    }
    w.write_str(&s[run..])?;
    w.write_char('"')
}

impl fmt::Display for Json {
    /// Compact (single-line) rendering; round-trips through [`parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(x) => {
                if x.is_finite() {
                    // Always keep a numeric shape JSON accepts.
                    if x.fract() == 0.0 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    // JSON has no Inf/NaN; degrade to null.
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A compact JSON writer for documents built from typed fields: it writes
/// exactly what [`Json`]'s `Display` would write for the same tree, but
/// straight into one `String`, with no tree and no `String` per key or
/// value. Separators are tracked with one flag, so containers nest
/// through [`JsonWriter::obj`] and [`JsonWriter::arr`] without a stack.
pub(crate) struct JsonWriter {
    out: String,
    /// True when the next member or item needs a `,` before it.
    comma: bool,
}

impl JsonWriter {
    /// An empty document.
    pub(crate) fn new() -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(256),
            comma: false,
        }
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Starts an object member: its key, then whatever value follows.
    pub(crate) fn key(&mut self, k: &str) -> &mut JsonWriter {
        self.sep();
        let _ = write_escaped(&mut self.out, k);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// A string value.
    pub(crate) fn str(&mut self, s: &str) {
        self.sep();
        let _ = write_escaped(&mut self.out, s);
    }

    /// An integer value.
    pub(crate) fn int(&mut self, i: i64) {
        use fmt::Write as _;
        self.sep();
        let _ = write!(self.out, "{i}");
    }

    /// `null`.
    pub(crate) fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }

    /// An object whose members `body` writes.
    pub(crate) fn obj(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.nest('{', body, '}');
    }

    /// An array whose items `body` writes.
    pub(crate) fn arr(&mut self, body: impl FnOnce(&mut JsonWriter)) {
        self.nest('[', body, ']');
    }

    fn nest(&mut self, open: char, body: impl FnOnce(&mut JsonWriter), close: char) {
        self.sep();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }

    /// The document, newline-terminated: one line of a line-oriented file.
    pub(crate) fn into_line(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset in the input where the error was detected.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Nesting depth cap — malformed/hostile inputs must not overflow the
/// stack (the serve daemon parses untrusted client bytes).
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            at: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {:?}", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected {word}"))
        }
    }

    fn value(&mut self, depth: u32) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => self.err(format!("unexpected character {:?}", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn array(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos -= usize::from(self.pos > 0);
                    return self.err("expected ',' or ']'");
                }
            }
        }
    }

    fn object(&mut self, depth: u32) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            members.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(members)),
                _ => {
                    self.pos -= usize::from(self.pos > 0);
                    return self.err("expected ',' or '}'");
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs: a high surrogate must be followed
                        // by an escaped low surrogate.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return self.err("unpaired surrogate");
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return self.err("invalid low surrogate");
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp)
                        };
                        match c {
                            Some(c) => out.push(c),
                            None => return self.err("invalid unicode escape"),
                        }
                    }
                    _ => return self.err("invalid escape"),
                },
                Some(b) if b < 0x20 => return self.err("raw control character in string"),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences from raw bytes.
                    let start = self.pos - 1;
                    let width = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return self.err("invalid utf-8"),
                    };
                    if start + width > self.bytes.len() {
                        return self.err("truncated utf-8");
                    }
                    match std::str::from_utf8(&self.bytes[start..start + width]) {
                        Ok(s) => {
                            out.push_str(s);
                            self.pos = start + width;
                        }
                        Err(_) => return self.err("invalid utf-8"),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return self.err("expected 4 hex digits"),
            };
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Json::Float(f)),
            _ => self.err(format!("invalid number {text:?}")),
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// A [`JsonError`] with the byte offset of the first problem.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after document");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compact() {
        let cases = [
            r#"null"#,
            r#"true"#,
            r#"-42"#,
            r#""hi\nthere""#,
            r#"[1,2,[3]]"#,
            r#"{"a":1,"b":[true,null],"c":{"d":"e"}}"#,
        ];
        for c in cases {
            let v = parse(c).unwrap();
            assert_eq!(v.to_string(), *c, "{c}");
            assert_eq!(parse(&v.to_string()).unwrap(), v);
        }
    }

    #[test]
    fn numbers_split_int_float() {
        assert_eq!(parse("7").unwrap(), Json::Int(7));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("7.5").unwrap(), Json::Float(7.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("2.0").unwrap().as_i64(), Some(2));
        assert_eq!(
            parse("9223372036854775807").unwrap().as_i64(),
            Some(i64::MAX)
        );
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "tru", "1 2", "\"\\x\"", "nan", "{1:2}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn escapes_and_unicode() {
        let v = parse(r#""\u00e9\t\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("é\t😀"));
        let s = Json::str("a\"b\\c\nd");
        assert_eq!(parse(&s.to_string()).unwrap(), s);
        // Raw multibyte UTF-8 passes through.
        let raw = parse("\"héllo — 😀\"").unwrap();
        assert_eq!(raw.as_str(), Some("héllo — 😀"));
    }

    #[test]
    fn escape_table() {
        let cases = [
            ("", r#""""#),
            ("plain", r#""plain""#),
            ("a\"b", r#""a\"b""#),
            ("a\\b", r#""a\\b""#),
            ("\n", r#""\n""#),
            ("\r", r#""\r""#),
            ("\t", r#""\t""#),
            ("\u{1}", r#""\u0001""#),
            ("\u{1f}", r#""\u001f""#),
            ("x\u{1f}y\u{0}", r#""x\u001fy\u0000""#),
            ("\u{7f} stays raw", "\"\u{7f} stays raw\""),
            ("héllo — 😀", "\"héllo — 😀\""),
            ("é\"😀\n", r#""é\"😀\n""#),
        ];
        for (raw, want) in cases {
            assert_eq!(escape(raw), want, "{raw:?}");
            // Display writes the same escapes for values and for keys.
            assert_eq!(Json::str(raw).to_string(), want, "{raw:?}");
            let obj = Json::Obj(vec![(raw.to_string(), Json::Null)]);
            assert_eq!(obj.to_string(), format!("{{{want}:null}}"), "{raw:?}");
            assert_eq!(parse(want).unwrap().as_str(), Some(raw), "{raw:?}");
        }
    }

    #[test]
    fn writer_matches_display() {
        let tree = Json::Obj(vec![
            ("s".into(), Json::str("a\"\u{1}")),
            ("n".into(), Json::Int(-7)),
            ("z".into(), Json::Null),
            ("e".into(), Json::Arr(vec![])),
            ("o".into(), Json::Obj(vec![])),
            (
                "a".into(),
                Json::Arr(vec![
                    Json::Arr(vec![Json::Int(1), Json::str("d")]),
                    Json::Obj(vec![]),
                ]),
            ),
        ]);
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.key("s").str("a\"\u{1}");
            w.key("n").int(-7);
            w.key("z").null();
            w.key("e").arr(|_| {});
            w.key("o").obj(|_| {});
            w.key("a").arr(|w| {
                w.arr(|w| {
                    w.int(1);
                    w.str("d");
                });
                w.obj(|_| {});
            });
        });
        assert_eq!(w.into_line(), format!("{tree}\n"));
    }

    #[test]
    fn depth_cap_is_an_error_not_a_crash() {
        let deep = "[".repeat(5000) + &"]".repeat(5000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn getters() {
        let v = parse(r#"{"s":"x","n":3,"b":false,"a":[1],"z":null}"#).unwrap();
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("z").unwrap().is_null());
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Int(-1).as_u64(), None);
    }
}
