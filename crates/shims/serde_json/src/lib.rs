//! Offline shim standing in for `serde_json`: renders and parses the
//! in-memory [`Value`] defined by the sibling `serde` shim. Supports the
//! workspace's usage — `json!`, `from_str::<Value>`, `to_string`,
//! `to_string_pretty`, and `Map`.

pub use serde::{Map, Number, Value};

/// Lower any serializable value to a [`Value`]. Used by the `json!` macro;
/// takes a reference so field expressions borrowed from iterators work.
pub fn to_value<T: serde::Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

/// A JSON parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
    pos: usize,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for Error {}

/// Types this shim can produce from parsed JSON (only [`Value`]).
pub trait FromJsonValue: Sized {
    /// Convert a parsed `Value` into `Self`.
    fn from_json_value(v: Value) -> Result<Self, Error>;
}

impl FromJsonValue for Value {
    fn from_json_value(v: Value) -> Result<Self, Error> {
        Ok(v)
    }
}

/// Parse a JSON document.
pub fn from_str<T: FromJsonValue>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    T::from_json_value(v)
}

/// Serialize compactly (single line).
pub fn to_string<T: serde::Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &v.to_value(), None, 0);
    Ok(out)
}

/// Serialize with 2-space indentation, serde_json style.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &v.to_value(), Some(2), 0);
    Ok(out)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.to_string()),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(n) = indent {
        out.push('\n');
        for _ in 0..n * level {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects a document may have (serde_json's
/// limit). The parser recurses once per level, so deeper input is a parse
/// error rather than a stack overflow.
const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error {
            msg: msg.to_string(),
            pos: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == RECURSION_LIMIT {
                    return Err(self.err("recursion limit exceeded"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            map.insert(key, v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// Four hex digits starting at `at`.
    fn hex4(&self, at: usize) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .ok_or_else(|| self.err("bad \\u escape"))?;
        u32::from_str_radix(
            std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
            16,
        )
        .map_err(|_| self.err("bad \\u escape"))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // High surrogate: pair with a following
                            // `\uDC00..\uDFFF` escape (how standard encoders
                            // emit non-BMP characters). A lone surrogate
                            // becomes U+FFFD without consuming what follows.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                let next_is_escape = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 3)
                                    .is_some_and(|s| s == b"\\u");
                                let low = if next_is_escape {
                                    self.hex4(self.pos + 3).ok()
                                } else {
                                    None
                                };
                                match low {
                                    Some(low) if (0xDC00..0xE000).contains(&low) => {
                                        self.pos += 6;
                                        let combined =
                                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                        char::from_u32(combined).unwrap_or('\u{fffd}')
                                    }
                                    _ => '\u{fffd}',
                                }
                            } else {
                                char::from_u32(code).unwrap_or('\u{fffd}')
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    // Bulk-copy the whole run of plain ASCII bytes up to
                    // the next quote, escape, or non-ASCII byte. One O(run)
                    // copy instead of per-character re-validation keeps
                    // parsing large embedded documents (traces, snapshot
                    // vectors) linear in the input size.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b >= 0x80 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("ASCII run is valid UTF-8"),
                    );
                }
                Some(_) => {
                    // Non-ASCII: decode one UTF-8 scalar from a 4-byte
                    // window (the maximum scalar length), so validation
                    // cost does not scale with the rest of the document.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let window = &self.bytes[self.pos..end];
                    let valid = match std::str::from_utf8(window) {
                        Ok(s) => s,
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&window[..e.valid_up_to()]).unwrap()
                        }
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    };
                    let c = valid.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Number(Number::I(v)));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::U(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Value::Number(Number::F(v)))
            .map_err(|_| self.err("invalid number"))
    }
}

/// Build a [`Value`] from JSON-ish syntax. Supports object literals with
/// literal string keys whose values are expressions, array literals of
/// expressions, `null`, and plain expressions (anything `Serialize`).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        #[allow(unused_mut)]
        let mut map = $crate::Map::new();
        $( map.insert(($key).to_string(), $crate::json!($val)); )*
        $crate::Value::Object(map)
    }};
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($elem) ),* ])
    };
    ($other:expr) => { $crate::to_value(&($other)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let v = json!({
            "a": 1,
            "b": [1.5, 2.0],
            "c": json!({"nested": "text with \"quotes\" and \\ backslash"}),
            "d": true,
        });
        let pretty = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back);
        let compact = to_string(&v).unwrap();
        let back2: Value = from_str(&compact).unwrap();
        assert_eq!(v, back2);
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(to_string(&json!(42)).unwrap(), "42");
        assert_eq!(to_string(&json!(1.0_f64)).unwrap(), "1.0");
        assert_eq!(to_string(&json!(0.35_f64)).unwrap(), "0.35");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str::<Value>("{not json").is_err());
        assert!(from_str::<Value>("").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_the_recursion_limit() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"k\":".repeat(n) + "null" + &"}".repeat(n);
        assert!(from_str::<Value>(&arrays(RECURSION_LIMIT)).is_ok());
        assert!(from_str::<Value>(&arrays(RECURSION_LIMIT + 1)).is_err());
        assert!(from_str::<Value>(&objects(RECURSION_LIMIT)).is_ok());
        assert!(from_str::<Value>(&objects(RECURSION_LIMIT + 1)).is_err());
        // Far past the limit: an error, not a stack overflow.
        let err = from_str::<Value>(&arrays(100_000)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Siblings do not add depth.
        let wide = format!("[{}[]]", "[],".repeat(1000));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn unicode_and_escapes_parse() {
        let v: Value = from_str(r#"{"k": "aA\n\t"}"#).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some("aA\n\t"));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_character() {
        // 😀 as emitted by ensure_ascii JSON encoders (surrogate pair).
        let v: Value = from_str("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // BMP escape still works.
        let v: Value = from_str("\"\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("é"));
        // Raw UTF-8 passes through untouched.
        let v: Value = from_str("\"😀\"").unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        // A lone high surrogate degrades to U+FFFD without eating the
        // following valid escape.
        let v: Value = from_str(r#""\ud83dXA""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd}XA"));
    }
}
