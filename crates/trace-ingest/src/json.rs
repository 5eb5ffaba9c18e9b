//! Minimal JSON for the advisor wire protocol.
//!
//! The workspace is deliberately dependency-free, so the NDJSON protocol
//! carries its own JSON layer: a recursive-descent parser with hard
//! depth and length limits (adversarial frames must exhaust a limit,
//! never the stack or the heap), and a deterministic writer (insertion
//! order, shortest-roundtrip floats) so identical answers serialize to
//! identical bytes — the property the crash-safe answer cache's
//! bit-exact replay rests on.
//!
//! Parsing is total: every input either yields a [`Json`] value or a
//! [`JsonError`]; no input panics.

use std::fmt;

/// Maximum nesting depth accepted by [`parse`]. Deep enough for any real
/// request, shallow enough that recursion can never approach the stack
/// guard page.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value. Objects preserve insertion order (duplicate keys
/// keep the last occurrence on lookup, like serde_json's map behavior).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part that fits an `i64`.
    Int(i64),
    /// Any other finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (last occurrence wins); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `i64` (integers only — floats are not truncated).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64` (non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes deterministically into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

/// A non-finite float has no JSON representation; it serializes as
/// `null` rather than producing an invalid document.
fn write_f64(x: f64, out: &mut String) {
    if x.is_finite() {
        out.push_str(&format!("{x}"));
    } else {
        out.push_str("null");
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error (an NDJSON frame is exactly one value).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    /// `text`'s bytes; `pos` only ever rests on a scalar boundary.
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn fail(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_lit(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.fail("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.fail("unexpected end of input")),
            Some(b'n') => self.expect_lit("null", Json::Null),
            Some(b't') => self.expect_lit("true", Json::Bool(true)),
            Some(b'f') => self.expect_lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.fail("expected `,` or `]` in array"));
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return Err(self.fail("expected a string key in object"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return Err(self.fail("expected `:` after object key"));
                    }
                    self.skip_ws();
                    let value = self.value(depth + 1)?;
                    pairs.push((key, value));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Json::Obj(pairs));
                    }
                    if !self.eat(b',') {
                        return Err(self.fail("expected `,` or `}` in object"));
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.fail("unexpected character")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        debug_assert_eq!(self.bytes.get(self.pos), Some(&b'"'));
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let unit = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\u` + low surrogate; anything
                            // else is a typed error, never a panic.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if !(self.bytes.get(self.pos + 1) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 2) == Some(&b'u'))
                                {
                                    return Err(self.fail("lone high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.fail("invalid low surrogate"));
                                }
                                let combined = 0x10000
                                    + ((u32::from(unit) - 0xD800) << 10)
                                    + (u32::from(low) - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(u32::from(unit))
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.fail("invalid unicode escape")),
                            }
                        }
                        _ => return Err(self.fail("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => return Err(self.fail("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar of the input `&str`.
                    let Some(c) = self.text.get(self.pos..).and_then(|s| s.chars().next()) else {
                        return Err(self.fail("unterminated string"));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads the 4 hex digits after `\u` (cursor on the `u`); leaves the
    /// cursor on the final digit (the escape loop advances past it).
    fn hex4(&mut self) -> Result<u16, JsonError> {
        let start = self.pos + 1;
        let Some(digits) = self.bytes.get(start..start + 4) else {
            return Err(self.fail("truncated unicode escape"));
        };
        let Ok(s) = std::str::from_utf8(digits) else {
            return Err(self.fail("invalid unicode escape"));
        };
        let unit = u16::from_str_radix(s, 16).map_err(|_| self.fail("invalid unicode escape"))?;
        self.pos = start + 3;
        Ok(unit)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.eat(b'.') {
            is_float = true;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if !self.eat(b'-') {
                let _ = self.eat(b'+');
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(self.fail("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structures() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-17",
            "9223372036854775807",
            "1.5",
            "[1,2,[3,\"x\"]]",
            "{\"a\":1,\"b\":{\"c\":[true,null]}}",
            "\"hi \\\"there\\\" \\n\"",
        ] {
            let v = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let mut out = String::new();
            v.write(&mut out);
            assert_eq!(parse(&out), Ok(v), "{text} -> {out}");
        }
    }

    #[test]
    fn objects_look_up_and_numbers_type() {
        let v = parse(r#"{"size": 16384, "rate": 2.5, "name": "EXPL", "x": 1, "x": 2}"#)
            .expect("parses");
        assert_eq!(v.get("size").and_then(Json::as_u64), Some(16384));
        assert_eq!(v.get("rate"), Some(&Json::Num(2.5)));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("EXPL"));
        assert_eq!(v.get("x").and_then(Json::as_i64), Some(2), "last key wins");
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn adversarial_inputs_fail_cleanly() {
        for bad in [
            "",
            "   ",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "01x",
            "\"unterminated",
            "\"\\u12\"",
            "\"\\ud800\"",
            "1e999",
            "{\"a\":1}garbage",
            "\"\\q\"",
            "[1 2]",
            "-",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Depth bomb: limited, not stack-overflowing.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(parse(&deep).is_err());
        // At the limit it still works.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn unicode_and_escapes_round_trip() {
        let v = parse(r#""caf\u00e9 \ud83d\ude00 tab\t""#).expect("parses");
        assert_eq!(v.as_str(), Some("café 😀 tab\t"));
        let mut out = String::new();
        v.write(&mut out);
        assert_eq!(parse(&out), Ok(v));
    }

    #[test]
    fn raw_multibyte_scalars_scan_whole() {
        // A raw 4-byte scalar directly before a `\u` escape.
        let v = parse(r#""😀\u00e9😀""#).expect("parses");
        assert_eq!(v.as_str(), Some("😀é😀"));
        // An unterminated string ending in a multi-byte scalar.
        for bad in ["\"café", "\"😀", "[\"x😀"] {
            let err = parse(bad).expect_err("unterminated");
            assert_eq!(err.message, "unterminated string", "{bad:?}");
            assert_eq!(err.at, bad.len(), "{bad:?}");
        }
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut out = String::new();
        Json::Num(f64::NAN).write(&mut out);
        assert_eq!(out, "null");
    }
}
