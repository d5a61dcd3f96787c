//! Minimal JSON tree and parser for the wire protocol, plus the two push
//! helpers its encoders write floats and strings with.
//!
//! The offline workspace has no `serde_json`, so the JSON-lines protocol is
//! implemented on this self-contained module.  `crate::wire` writes every
//! frame straight into the line with [`push_f64`] and
//! [`push_string_literal`]; the tree is only ever read.  Design points that
//! matter for the protocol guarantees:
//!
//! * **Exact floats.**  Finite `f64`s are written with Rust's shortest
//!   round-trip formatting and parsed with the standard correctly-rounding
//!   parser, so `decode(encode(x))` returns the bit-identical value for every
//!   finite `f64` (including `-0.0` and subnormals).  Non-finite values are
//!   encoded as the strings `"NaN"`, `"inf"` and `"-inf"` (JSON has no
//!   literal for them) and accepted back by [`Json::as_f64`].
//! * **Typed errors, no panics.**  The parser returns [`JsonError`] with a
//!   byte offset for every malformed input; it never panics and is bounded
//!   by an explicit nesting-depth limit, so adversarial input cannot blow
//!   the stack.
//! * **Order-preserving objects.** Objects are stored as insertion-ordered
//!   `(key, value)` vectors: [`Json::get`] returns the first of duplicate
//!   keys, and a metric series' labels keep the order they were sent in.
//!
//! The two hot frames, the eval request and the eval answer, usually skip
//! this tree: `crate::wire` reads them straight from the line's bytes in
//! the encoder's exact layout and hands every other line to [`Json::parse`].
//! That reader splits numbers with this parser's own `number_token` and
//! parses them with the same `str::parse` calls and `parse_float`, so the
//! two readers cannot disagree on a number.  Both accept only JSON's
//! number grammar: `007`, `5.`, `-.5` and `1.e5` are malformed, and so is
//! a float too large for an `f64` (`1e400`), rather than infinite.

use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts (arrays + objects combined).
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (fits `u64`).
    Uint(u64),
    /// A negative integer literal (fits `i64`).
    Int(i64),
    /// Any other number literal (fraction, exponent, or out of integer
    /// range).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered members.
    Object(Vec<(String, Json)>),
}

/// A parse error with the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input line.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Member lookup on an object (first match; `None` on other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Uint(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an `f64`: accepts any number plus the non-finite string
    /// encodings (`"NaN"`, `"inf"`, `"-inf"`).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Uint(v) => Some(*v as f64),
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON value from `input`, requiring it to span the whole
    /// string (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for any syntactically invalid input, trailing
    /// garbage, or nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// The byte range of the value of the first member named `key` in the
/// object `input` opens with: the member [`Json::get`] returns, matched on
/// the decoded key text.  The scan stops at that member, so only the
/// members before it have to parse.  `None` when `input` does not open
/// with an object, a member before the match does not parse, or no member
/// matches.
#[must_use]
pub(crate) fn first_member_span(input: &str, key: &str) -> Option<std::ops::Range<usize>> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    parser.expect(b'{').ok()?;
    loop {
        parser.skip_ws();
        let name = parser.string().ok()?;
        parser.skip_ws();
        parser.expect(b':').ok()?;
        parser.skip_ws();
        let start = parser.pos;
        parser.value(1).ok()?;
        if name == key {
            return Some(start..parser.pos);
        }
        parser.skip_ws();
        parser.expect(b',').ok()?;
    }
}

/// Appends the wire encoding of one `f64` to `out`: a finite float in
/// shortest-round-trip form, a non-finite one as its tagged string
/// (`"NaN"`, `"inf"` or `"-inf"`), so the output stays valid JSON.
///
/// Integral values get an explicit `.0` so the reader classifies them as
/// floats again — without it `-0.0` would serialize as `-0`, parse as the
/// integer `0`, and silently drop its sign bit.
pub fn push_f64(value: f64, out: &mut String) {
    if value.is_nan() {
        out.push_str("\"NaN\"");
    } else if value.is_infinite() {
        out.push_str(if value > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else {
        let start = out.len();
        let _ = write!(out, "{value}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn push_string_literal(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Splits off the number token `bytes` starts with, as the parser splits
/// it: every byte up to the first that is none of `0-9.eE+-`.  Returns
/// the token's length and whether it is integral (no fraction and no
/// exponent), or `None` unless the token is a JSON number,
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
pub(crate) fn number_token(bytes: &[u8]) -> Option<(usize, bool)> {
    let digits = |from: usize| {
        bytes.get(from..).map_or(0, |rest| {
            rest.iter().take_while(|b| b.is_ascii_digit()).count()
        })
    };
    let mut len = usize::from(bytes.first() == Some(&b'-'));
    let whole = digits(len);
    if whole == 0 || (whole > 1 && bytes[len] == b'0') {
        return None;
    }
    len += whole;
    let mut integral = true;
    if bytes.get(len) == Some(&b'.') {
        let fraction = digits(len + 1);
        if fraction == 0 {
            return None;
        }
        len += 1 + fraction;
        integral = false;
    }
    if matches!(bytes.get(len), Some(b'e' | b'E')) {
        len += 1 + usize::from(matches!(bytes.get(len + 1), Some(b'+' | b'-')));
        let exponent = digits(len);
        if exponent == 0 {
            return None;
        }
        len += exponent;
        integral = false;
    }
    match bytes.get(len) {
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') => None,
        _ => Some((len, integral)),
    }
}

/// A float token's value, or `None` when it is too large for an `f64`:
/// JSON has no infinite number, though `str::parse` reads one.
pub(crate) fn parse_float(token: &str) -> Option<f64> {
    token.parse::<f64>().ok().filter(|value| value.is_finite())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected `{word}`)")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: require the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(first)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 advanced past the digits already.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-copy up to the next quote, backslash or control
                    // byte.  Those are all ASCII, so `stop` always lands on
                    // a character boundary of the (already valid UTF-8)
                    // input — this keeps parsing O(n) on long strings.
                    let rest = &self.bytes[self.pos..];
                    let stop = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    if stop == 0 {
                        // Quote/backslash are handled above, so this byte
                        // is an unescaped control character.
                        return Err(self.err("unescaped control character in string"));
                    }
                    let chunk = std::str::from_utf8(&rest[..stop])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += stop;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("invalid unicode escape"))?;
        let value =
            u32::from_str_radix(s, 16).map_err(|_| self.err("invalid unicode escape digits"))?;
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let invalid = || JsonError {
            offset: start,
            message: "invalid number".to_string(),
        };
        let (len, integral) = number_token(&self.bytes[start..]).ok_or_else(invalid)?;
        self.pos += len;
        // The token is ASCII: the grammar admits no other byte.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| invalid())?;
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Uint(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        parse_float(text).map(Json::Float).ok_or_else(invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse_to_their_values() {
        for (input, expected) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Uint(0)),
            ("-7", Json::Int(-7)),
            ("42", Json::Uint(42)),
            ("1.5", Json::Float(1.5)),
            ("-0.125", Json::Float(-0.125)),
            ("1e300", Json::Float(1e300)),
        ] {
            assert_eq!(Json::parse(input).unwrap(), expected, "{input}");
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for value in [
            0.0,
            -0.0,
            1.0,
            std::f64::consts::PI,
            1.0e-308,
            4.9e-324, // smallest subnormal
            1.797e308,
            -123.456_789_012_345_67,
        ] {
            let mut encoded = String::new();
            push_f64(value, &mut encoded);
            let decoded = Json::parse(&encoded).unwrap().as_f64().unwrap();
            assert_eq!(decoded.to_bits(), value.to_bits(), "{value} via {encoded}");
        }
    }

    #[test]
    fn non_finite_floats_use_tagged_strings() {
        for (value, tagged) in [
            (f64::NAN, "\"NaN\""),
            (f64::INFINITY, "\"inf\""),
            (f64::NEG_INFINITY, "\"-inf\""),
        ] {
            let mut encoded = String::new();
            push_f64(value, &mut encoded);
            assert_eq!(encoded, tagged);
        }
        assert!(Json::parse("\"NaN\"").unwrap().as_f64().unwrap().is_nan());
        assert_eq!(
            Json::parse("\"-inf\"").unwrap().as_f64(),
            Some(f64::NEG_INFINITY)
        );
    }

    #[test]
    fn objects_preserve_order_and_support_lookup() {
        let parsed = Json::parse(r#"{"b": 1, "a": [true, "x\n"], "c": {"d": null}}"#).unwrap();
        assert_eq!(parsed.get("b").and_then(Json::as_u64), Some(1));
        assert_eq!(parsed.get("missing"), None);
        let members = |pairs: Vec<(&str, Json)>| {
            Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let array = Json::Array(vec![Json::Bool(true), Json::Str("x\n".to_string())]);
        let expected = members(vec![
            ("b", Json::Uint(1)),
            ("a", array),
            ("c", members(vec![("d", Json::Null)])),
        ]);
        assert_eq!(parsed, expected);
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let parsed = Json::parse(r#""quote \" slash \\ tab \t unicode é 😀""#);
        let s = parsed.unwrap();
        assert_eq!(s.as_str(), Some("quote \" slash \\ tab \t unicode é 😀"));
        let mut encoded = String::new();
        push_string_literal(s.as_str().unwrap(), &mut encoded);
        assert_eq!(Json::parse(&encoded).unwrap(), s);
        // Every control character is escaped, so the literal parses back.
        let controls: String = (0u8..0x20).map(char::from).collect();
        encoded.clear();
        push_string_literal(&controls, &mut encoded);
        assert_eq!(Json::parse(&encoded).unwrap().as_str(), Some(&*controls));
    }

    #[test]
    fn malformed_inputs_return_typed_errors() {
        for input in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":}",
            "nul",
            "truthy",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 lonely\"",
            "1 2",
            "--3",
            "1.2.3",
            // Texts `str::parse` reads but JSON's number grammar forbids,
            // and floats past the largest `f64`.
            "007",
            "-01",
            "5.",
            "-.5",
            "01.5",
            "1.e5",
            "1e400",
            "-1e400",
            "[1]]",
            "{\"a\":1,}",
            "\u{1}",
        ] {
            let outcome = Json::parse(input);
            assert!(outcome.is_err(), "`{input}` should fail, got {outcome:?}");
        }
    }

    #[test]
    fn first_member_span_finds_the_member_get_returns() {
        fn span(input: &str) -> Option<&str> {
            first_member_span(input, "id").map(|range| &input[range])
        }
        assert_eq!(span(r#"{"v":1,"id":7,"op":"ping"}"#), Some("7"));
        assert_eq!(span(r#" { "v" : [1, {"id": 2}] , "id" : 9 } "#), Some("9"));
        // Keys compare decoded, and the first of duplicates wins.
        assert_eq!(span(r#"{"id":3,"id":4}"#), Some("3"));
        assert_eq!(span(r#"{"id":"x\"y","id":4}"#), Some(r#""x\"y""#));
        for miss in ["", "[1]", "{}", r#"{"v":1}"#, r#"{"v":,"id":1}"#, "{\"id\""] {
            assert_eq!(span(miss), None, "{miss}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
    }
}
