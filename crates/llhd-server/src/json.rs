//! A minimal JSON value, parser, and writer.
//!
//! The workspace is deliberately zero-dependency (it builds in offline
//! sandboxes), so the wire protocol cannot lean on serde. This module
//! implements exactly the JSON subset the protocol needs — all of
//! RFC 8259's value grammar, with two deliberate simplifications:
//!
//! * numbers that look integral parse into [`Json::Int`] (`i128`, wide
//!   enough for femtosecond timestamps) and everything else into
//!   [`Json::Float`];
//! * objects preserve insertion order in a `Vec` instead of a map —
//!   protocol objects are tiny, and deterministic field order keeps the
//!   responses stable for tests and golden files.
//!
//! ```
//! use llhd_server::json::Json;
//! let value = Json::parse(r#"{"type":"sim","until_ns":100,"ok":true}"#).unwrap();
//! assert_eq!(value.get("type").and_then(Json::as_str), Some("sim"));
//! assert_eq!(value.get("until_ns").and_then(Json::as_int), Some(100));
//! assert_eq!(value.to_string(), r#"{"type":"sim","until_ns":100,"ok":true}"#);
//! ```

use std::fmt;

/// Nesting depth limit: deeper input is rejected rather than risking a
/// stack overflow on adversarial requests.
const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document (trailing whitespace allowed, nothing else).
    ///
    /// # Errors
    ///
    /// A human-readable message with the byte offset of the problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Field lookup on an object; `None` on missing field or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The integer payload, if this is an integral number.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Build an object from `(key, value)` pairs (field order preserved).
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Build an integer value, saturating `u128` into `i128` (femtosecond
    /// timestamps fit with two orders of magnitude to spare).
    pub fn uint(n: u128) -> Json {
        Json::Int(i128::try_from(n).unwrap_or(i128::MAX))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {} at byte {}", what, self.pos))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {} at byte {}",
                MAX_DEPTH, self.pos
            ));
        }
        match self.peek() {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.pos)),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{', "'{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| format!("unterminated string at byte {}", self.pos))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
                    }
                }
                // Multi-byte UTF-8: the input is a &str, so the bytes are
                // valid — copy the whole code point through.
                _ if b >= 0x80 => {
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|b| b & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| format!("invalid UTF-8 at byte {}", start))?,
                    );
                }
                _ if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos - 1))
                }
                _ => out.push(b as char),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let unit = self.hex4()?;
        // Surrogate pair: a high surrogate must be followed by \uXXXX with
        // the low half; everything else maps through char::from_u32.
        if (0xd800..0xdc00).contains(&unit) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xdc00..0xe000).contains(&low) {
                    let c = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
                    return char::from_u32(c)
                        .ok_or_else(|| format!("invalid surrogate pair at byte {}", self.pos));
                }
            }
            return Err(format!("lone surrogate at byte {}", self.pos));
        }
        char::from_u32(unit).ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| format!("invalid hex digit at byte {}", self.pos))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number at byte {}", start))
    }
}

/// Quote and escape `s`. Every run of characters that needs no escape goes
/// out as one `write_str`: a VCD trace is kilobytes of such runs broken
/// only by newlines. Scanning bytes is sound because every escaped
/// character is ASCII and no byte of a multi-byte UTF-8 sequence is, so
/// each split point is a character boundary.
fn escape_into(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    let mut run = 0;
    for (i, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.write_str(&s[run..i])?;
        match byte {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{:04x}", byte)?,
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_str("\"")
}

/// Compact (single-line) JSON — the wire format of the protocol.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{}", b),
            Json::Int(i) => write!(f, "{}", i),
            Json::Float(x) => {
                // `{}` on f64 already round-trips; normalize the
                // non-finite values JSON cannot carry.
                if x.is_finite() {
                    write!(f, "{}", x)
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => escape_into(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", item)?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    escape_into(f, key)?;
                    write!(f, ":{}", value)?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_value_grammar() {
        let text = r#"{"a":null,"b":[true,false,-3,2.5],"c":{"d":"x\ny"},"e":""}"#;
        let value = Json::parse(text).unwrap();
        assert_eq!(value.to_string(), text);
        assert_eq!(value.get("b").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(
            value.get("c").unwrap().get("d").unwrap().as_str(),
            Some("x\ny")
        );
    }

    #[test]
    fn integers_and_floats_are_distinguished() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(Json::parse("4.5").unwrap(), Json::Float(4.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        // Femtosecond-scale timestamps fit.
        let big = format!("{}", 10u128.pow(30));
        assert_eq!(Json::parse(&big).unwrap(), Json::Int(10i128.pow(30)));
    }

    #[test]
    fn string_escapes_round_trip() {
        let value = Json::parse(r#""tab\tquote\"backslash\\u\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(value.as_str(), Some("tab\tquote\"backslash\\ué😀"));
        // Writing re-escapes the mandatory characters.
        let text = Json::Str("a\"b\\c\nd\u{0001}".to_string()).to_string();
        assert_eq!(text, r#""a\"b\\c\nd\u0001""#);
        assert_eq!(
            Json::parse(&text).unwrap().as_str(),
            Some("a\"b\\c\nd\u{0001}")
        );
        // Raw multi-byte UTF-8 passes through unescaped.
        let unicode = Json::parse("\"héllo → wörld\"").unwrap();
        assert_eq!(unicode.as_str(), Some("héllo → wörld"));
    }

    #[test]
    fn surrogate_pair_escapes_decode_and_lone_halves_are_rejected() {
        // A valid pair combines into one astral code point; the first
        // and last representable pairs bound the range.
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
        assert_eq!(Json::parse(r#""𐀀""#).unwrap().as_str(), Some("\u{10000}"));
        assert_eq!(Json::parse(r#""􏿿""#).unwrap().as_str(), Some("\u{10ffff}"));
        // A lone high surrogate at end of string.
        assert!(Json::parse(r#""\ud83d""#)
            .unwrap_err()
            .contains("lone surrogate"));
        // A high surrogate followed by a non-escape character.
        assert!(Json::parse(r#""\ud83dx""#)
            .unwrap_err()
            .contains("lone surrogate"));
        // A high surrogate followed by a non-\u escape.
        assert!(Json::parse(r#""\ud83d\n""#)
            .unwrap_err()
            .contains("lone surrogate"));
        // A high surrogate followed by a \u unit that is not a low half
        // (another high surrogate, and a plain BMP unit).
        assert!(Json::parse(r#""\ud83d\ud83d""#)
            .unwrap_err()
            .contains("lone surrogate"));
        assert!(Json::parse("\"\\ud83d\\u0041\"")
            .unwrap_err()
            .contains("lone surrogate"));
        // A lone *low* surrogate never had a high half to pair with.
        assert!(Json::parse(r#""\ude00\ud83d""#)
            .unwrap_err()
            .contains("invalid \\u escape"));
        // A truncated second unit dies in the hex reader, not the pairing.
        assert!(Json::parse(r#""\ud83d\ude0""#)
            .unwrap_err()
            .contains("hex digit"));
    }

    #[test]
    fn malformed_input_is_rejected_with_positions() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1,}",
            "[]]",
            "\"\\q\"",
            "\"\\ud800\"",
            "nan",
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(
                err.contains("byte"),
                "error for {:?} lacks a position: {}",
                bad,
                err
            );
        }
    }

    #[test]
    fn depth_limit_holds() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn builders_compose() {
        let value = Json::obj([
            ("ok", Json::Bool(true)),
            ("name", Json::str("x")),
            ("t", Json::uint(u128::MAX)),
        ]);
        assert_eq!(
            value.to_string(),
            format!(r#"{{"ok":true,"name":"x","t":{}}}"#, i128::MAX)
        );
    }
}
