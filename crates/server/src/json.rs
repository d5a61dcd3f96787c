//! JSON for the wire protocol: one pull reader over a line's bytes, the
//! [`Json`] value for callers that want a tree, and the two push helpers
//! the encoders write floats and strings with.
//!
//! The offline workspace has no `serde_json`, so the JSON-lines protocol is
//! implemented on this self-contained module.  `crate::wire` writes every
//! frame straight into the line with [`push_f64`] and
//! [`push_string_literal`], and reads every frame it does not take in the
//! encoder's exact layout with the crate's `Reader`, which pulls one
//! value, key or item at a time and builds nothing it is not asked for.
//! [`Json::parse`] is one generic read on that reader.  Design points that
//! matter for the protocol guarantees:
//!
//! * **Exact floats.**  Finite `f64`s are written with Rust's shortest
//!   round-trip formatting and parsed with the standard correctly-rounding
//!   parser, so `decode(encode(x))` returns the bit-identical value for every
//!   finite `f64` (including `-0.0` and subnormals).  Non-finite values are
//!   encoded as the strings `"NaN"`, `"inf"` and `"-inf"` (JSON has no
//!   literal for them) and accepted back by [`Json::as_f64`].
//! * **Typed errors, no panics.**  The reader returns [`JsonError`] with a
//!   byte offset for every malformed input; it never panics and is bounded
//!   by an explicit nesting-depth limit, so adversarial input cannot blow
//!   the stack.  It accepts only JSON's number grammar: `007`, `5.`, `-.5`
//!   and `1.e5` are malformed, and so is a float too large for an `f64`
//!   (`1e400`), rather than infinite.
//! * **Order-preserving objects.** Objects are stored as insertion-ordered
//!   `(key, value)` vectors: [`Json::get`] returns the first of duplicate
//!   keys, and a metric series' labels keep the order they were sent in.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Maximum nesting depth the reader accepts (arrays + objects combined).
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
        let mut reader = Reader::new(input);
        let value = Json::read(&mut reader)?;
        reader.end()?;
        Ok(value)
    }

    fn read(r: &mut Reader<'_>) -> Result<Json, Syntax> {
        Ok(match r.value()? {
            Token::Null => Json::Null,
            Token::True => Json::Bool(true),
            Token::False => Json::Bool(false),
            Token::Number(Number::Uint(v)) => Json::Uint(v),
            Token::Number(Number::Int(v)) => Json::Int(v),
            Token::Number(Number::Float(v)) => Json::Float(v),
            Token::Str(text) => Json::Str(text.unescaped().into_owned()),
            Token::Array => {
                let mut items = Vec::new();
                while r.item()? {
                    items.push(Json::read(r)?);
                }
                Json::Array(items)
            }
            Token::Object => {
                let mut members = Vec::new();
                while let Some(key) = r.key()? {
                    members.push((key.unescaped().into_owned(), Json::read(r)?));
                }
                Json::Object(members)
            }
        })
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

/// Splits off the number token `bytes` starts with, as the reader splits
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

/// A syntax error as the reader reports it; it becomes a [`JsonError`].
/// Boxed, so the results the reader returns on its hot path stay small.
#[derive(Debug)]
pub(crate) struct Syntax(Box<(usize, &'static str)>);

impl From<Syntax> for JsonError {
    fn from(err: Syntax) -> Self {
        let (offset, message) = *err.0;
        JsonError {
            offset,
            message: message.to_string(),
        }
    }
}

/// A string literal as the line spells it.  Its escapes are checked when
/// it is read and decoded only when its text is asked for.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Text<'a> {
    /// The text between the quotes, which holds no escape.
    Plain(&'a str),
    /// The whole literal, quotes included, which holds an escape.
    Escaped(&'a str),
}

impl<'a> Text<'a> {
    /// The decoded text, borrowed from the line unless it holds an escape.
    pub(crate) fn unescaped(self) -> Cow<'a, str> {
        match self {
            Text::Plain(text) => Cow::Borrowed(text),
            Text::Escaped(literal) => {
                let mut out = String::with_capacity(literal.len());
                let mut reader = Reader::new(literal);
                reader.pos = 1;
                let _ = reader.escaped(0, Some(&mut out));
                Cow::Owned(out)
            }
        }
    }

    /// Whether the decoded text is `text`.
    pub(crate) fn is(self, text: &str) -> bool {
        match self {
            Text::Plain(plain) => plain == text,
            Text::Escaped(_) => self.unescaped() == text,
        }
    }
}

/// A number as [`Json`] holds it: a non-negative integer, a negative one,
/// or any other number.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Number {
    Uint(u64),
    Int(i64),
    Float(f64),
}

/// What the value at a [`Reader`]'s cursor is: a scalar, read whole, or
/// the opening of a container, whose items the caller then reads with
/// [`Reader::item`] or [`Reader::key`].
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Token<'a> {
    Null,
    // Each bool its own variant: no payload byte sits beside the tag.
    True,
    False,
    Number(Number),
    Str(Text<'a>),
    Array,
    Object,
}

/// A pull reader over one line: every step reads the next value, item or
/// member key and checks its syntax, so a read that reaches the end of the
/// line has checked all of it, left to right.  A copy is a bookmark: it
/// reads on from where it was taken.
#[derive(Clone, Copy)]
pub(crate) struct Reader<'a> {
    line: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
    /// Whether the innermost container has just opened, so no `,` is due.
    fresh: bool,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(line: &'a str) -> Self {
        Self {
            line,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// A reader at byte `pos` of this line, where a value this reader has
    /// already read starts.
    pub(crate) fn at(&self, pos: usize) -> Self {
        Self { pos, ..*self }
    }

    /// The byte offset of the cursor.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    #[cold]
    fn err(&self, message: &'static str) -> Syntax {
        Syntax(Box::new((self.pos, message)))
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    /// The bytes from the cursor on.
    fn rest(&self) -> &'a [u8] {
        &self.line.as_bytes()[self.pos..]
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Succeeds when only whitespace is left.
    pub(crate) fn end(&mut self) -> Result<(), Syntax> {
        self.skip_ws();
        if self.pos == self.line.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }

    /// Reads the value at the cursor: a scalar whole, a container only up
    /// to its opening bracket.
    pub(crate) fn value(&mut self) -> Result<Token<'a>, Syntax> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        Ok(match self.peek() {
            Some(b'"') => Token::Str(self.string()?),
            Some(b'-' | b'0'..=b'9') => Token::Number(self.number()?),
            Some(b'{') => self.open(Token::Object),
            Some(b'[') => self.open(Token::Array),
            Some(b'n') => self.literal("null", "invalid literal (expected `null`)", Token::Null)?,
            Some(b't') => self.literal("true", "invalid literal (expected `true`)", Token::True)?,
            Some(b'f') => {
                self.literal("false", "invalid literal (expected `false`)", Token::False)?
            }
            Some(_) => return Err(self.err("unexpected character")),
            None => return Err(self.err("unexpected end of input")),
        })
    }

    fn open(&mut self, token: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        token
    }

    /// Reads the value at the cursor whole; a container's items are read
    /// and dropped.
    pub(crate) fn scalar(&mut self) -> Result<Token<'a>, Syntax> {
        let token = self.value()?;
        self.drain(token)?;
        Ok(token)
    }

    /// Reads the rest of the container `token` opened; nothing for a
    /// scalar.
    fn drain(&mut self, token: Token<'a>) -> Result<(), Syntax> {
        match token {
            Token::Array => {
                while self.item()? {
                    self.skip()?;
                }
            }
            Token::Object => {
                while self.key()?.is_some() {
                    self.skip()?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Reads past the value at the cursor.
    pub(crate) fn skip(&mut self) -> Result<(), Syntax> {
        self.scalar().map(drop)
    }

    /// Steps into the value at the cursor when it is an object, read with
    /// [`Reader::key`] or [`Reader::member`]; any other value is read past,
    /// and the answer is `false`.
    pub(crate) fn object(&mut self) -> Result<bool, Syntax> {
        self.enter(Token::Object)
    }

    /// [`Reader::object`] for an array, read with [`Reader::item`].
    pub(crate) fn array(&mut self) -> Result<bool, Syntax> {
        self.enter(Token::Array)
    }

    fn enter(&mut self, open: Token<'a>) -> Result<bool, Syntax> {
        let token = self.value()?;
        if token == open {
            return Ok(true);
        }
        self.drain(token)?;
        Ok(false)
    }

    /// Steps over the `,` before the next item of the innermost container
    /// or over its closing `close`: whether an item follows.
    fn more(&mut self, close: u8) -> Result<bool, Syntax> {
        self.skip_ws();
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.peek() {
            Some(byte) if byte == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            Some(b',') if !fresh => {
                self.pos += 1;
                self.skip_ws();
                Ok(true)
            }
            _ if fresh => Ok(true),
            _ if close == b']' => Err(self.err("expected `,` or `]` in array")),
            _ => Err(self.err("expected `,` or `}` in object")),
        }
    }

    /// Whether the array being read has another item, with the cursor at
    /// it.
    pub(crate) fn item(&mut self) -> Result<bool, Syntax> {
        self.more(b']')
    }

    /// The next member's key in the object being read, with the cursor at
    /// its value; `None` past the closing brace.
    pub(crate) fn key(&mut self) -> Result<Option<Text<'a>>, Syntax> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        if self.peek() != Some(b'"') {
            return Err(self.err("expected `\"`"));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek() != Some(b':') {
            return Err(self.err("expected `:`"));
        }
        self.pos += 1;
        self.skip_ws();
        Ok(Some(key))
    }

    /// [`Reader::key`] matched against a table of keys, each given as the
    /// bytes `,"key":` that introduce it after another member: the index
    /// of the next member's key, `keys.len()` for a key not among them.
    /// `next` is the index expected next, the one after the last match:
    /// when exactly its bytes come next, as the encoders write them, one
    /// comparison matches it.  Otherwise keys match on their decoded text,
    /// so an escaped key matches too.
    pub(crate) fn member(
        &mut self,
        keys: &[&str],
        next: &mut usize,
    ) -> Result<Option<usize>, Syntax> {
        // First in an object, the member has no `,` before it.
        let head = keys.get(*next).map(|key| &key[usize::from(self.fresh)..]);
        if let Some(head) = head.filter(|head| self.rest().starts_with(head.as_bytes())) {
            self.pos += head.len();
            self.fresh = false;
            *next += 1;
            return Ok(Some(*next - 1));
        }
        let Some(key) = self.key()? else {
            return Ok(None);
        };
        let at = keys
            .iter()
            .position(|k| key.is(&k[2..k.len() - 2]))
            .unwrap_or(keys.len());
        if at < keys.len() {
            *next = at + 1;
        }
        Ok(Some(at))
    }

    fn literal(
        &mut self,
        word: &str,
        message: &'static str,
        token: Token<'a>,
    ) -> Result<Token<'a>, Syntax> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err(message))
        }
    }

    /// Reads the string literal at the cursor's `"`.
    fn string(&mut self) -> Result<Text<'a>, Syntax> {
        let start = self.pos;
        self.pos += 1;
        self.run();
        if self.peek() != Some(b'"') {
            return self.escaped(start, None);
        }
        self.pos += 1;
        Ok(Text::Plain(&self.line[start + 1..self.pos - 1]))
    }

    /// Reads on through a string literal that opened at `start` and holds
    /// an escape, a control byte or no closing quote at the cursor,
    /// appending its decoded text to `out` when one is given.
    #[cold]
    fn escaped(&mut self, start: usize, mut out: Option<&mut String>) -> Result<Text<'a>, Syntax> {
        let mut push = |text: &str| {
            if let Some(out) = out.as_deref_mut() {
                out.push_str(text);
            }
        };
        push(&self.line[start + 1..self.pos]);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Text::Escaped(&self.line[start..self.pos]));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            push(c.encode_utf8(&mut [0; 4]));
                            // The escape's digits are read already.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    };
                    push(c.encode_utf8(&mut [0; 4]));
                    self.pos += 1;
                }
                Some(_) => {
                    let from = self.pos;
                    self.run();
                    if self.pos == from {
                        // Quote and backslash are handled above, so this
                        // byte is an unescaped control character.
                        return Err(self.err("unescaped control character in string"));
                    }
                    push(&self.line[from..self.pos]);
                }
            }
        }
    }

    /// The character a `\u` escape names, its digits at the cursor; a high
    /// surrogate must be followed by the low one.
    fn unicode_escape(&mut self) -> Result<char, Syntax> {
        let first = self.hex4()?;
        let c = if (0xD800..0xDC00).contains(&first) {
            if !self.rest().starts_with(b"\\u") {
                return Err(self.err("unpaired surrogate"));
            }
            self.pos += 2;
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.err("invalid low surrogate"));
            }
            char::from_u32(0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00))
        } else {
            char::from_u32(first)
        };
        c.ok_or_else(|| self.err("invalid unicode escape"))
    }

    /// Steps up to the next quote, backslash or control byte, eight bytes
    /// at a time while none is among them.  Those are all ASCII, so the
    /// cursor stays on a character boundary.
    fn run(&mut self) {
        const ONES: u64 = 0x0101_0101_0101_0101;
        const HIGHS: u64 = 0x8080_8080_8080_8080;
        let bytes = self.line.as_bytes();
        let mut at = self.pos;
        while let Some(chunk) = bytes.get(at..at + 8) {
            let word = u64::from_le_bytes(chunk.try_into().unwrap_or_default());
            let zero = |v: u64| v.wrapping_sub(ONES) & !v;
            let quote = zero(word ^ (ONES * u64::from(b'"')));
            let backslash = zero(word ^ (ONES * u64::from(b'\\')));
            let control = word.wrapping_sub(ONES * 0x20) & !word;
            if (quote | backslash | control) & HIGHS != 0 {
                break;
            }
            at += 8;
        }
        while bytes
            .get(at)
            .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
        {
            at += 1;
        }
        self.pos = at;
    }

    fn hex4(&mut self) -> Result<u32, Syntax> {
        let end = self.pos + 4;
        let digits = self
            .line
            .as_bytes()
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated unicode escape"))?;
        let digits = std::str::from_utf8(digits).map_err(|_| self.err("invalid unicode escape"))?;
        let value = u32::from_str_radix(digits, 16)
            .map_err(|_| self.err("invalid unicode escape digits"))?;
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Number, Syntax> {
        let (len, integral) =
            number_token(self.rest()).ok_or_else(|| self.err("invalid number"))?;
        // The token is ASCII: the grammar admits no other byte.
        let text = &self.line[self.pos..self.pos + len];
        let number = if integral {
            text.parse()
                .map(Number::Uint)
                .or_else(|_| text.parse().map(Number::Int))
                .ok()
        } else {
            None
        };
        let number = number.or_else(|| parse_float(text).map(Number::Float));
        let number = number.ok_or_else(|| self.err("invalid number"))?;
        self.pos += len;
        Ok(number)
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
    fn deep_nesting_is_rejected_not_overflowed() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
    }
}
