//! The self-describing value model, a strict JSON parser and a canonical
//! writer.
//!
//! Numbers are kept in three lanes so nothing is ever lossy:
//!
//! * non-negative integers as `u64` (seeds use the full range, which `f64`
//!   cannot represent),
//! * negative integers as `i64`,
//! * everything else as finite `f64`.
//!
//! Finite `f64` values round-trip *exactly* through the text form: Rust's
//! `Display` for `f64` prints the shortest decimal that parses back to the
//! same bit pattern, and the parser is correctly rounded: it reads a float
//! of at most 15 significant digits within 10^±22 exactly in one
//! multiplication or division (Clinger, "How to Read Floating Point Numbers
//! Accurately", PLDI 1990) and hands every other float to
//! `str::parse::<f64>`. The writer appends `.0` to float values whose
//! shortest form looks like an integer, so the float/integer distinction
//! survives a round trip too.
//! NaN and infinities are rejected at render time — the wire format carries
//! finite numbers only.

use std::fmt::Write as _;

use crate::key::SeenKeys;
use crate::view::{self, View};
use crate::{Result, Wire, WireError, WireStr, MAX_NESTING_DEPTH};

/// A JSON number, kept exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer token (no fraction, no exponent).
    Unsigned(u64),
    /// A negative integer token. Invariant: the value is `< 0` (non-negative
    /// integers normalise to [`Number::Unsigned`]).
    Signed(i64),
    /// Any number written with a fraction or exponent. Finite by contract;
    /// non-finite values are caught when rendering or encoding.
    Float(f64),
}

impl Number {
    /// Builds the canonical lane for an `i64`: negatives stay signed,
    /// everything else normalises to the unsigned lane (so equal tokens
    /// always produce equal values).
    pub fn from_i64(value: i64) -> Self {
        match u64::try_from(value) {
            Ok(u) => Number::Unsigned(u),
            Err(_) => Number::Signed(value),
        }
    }

    /// The value as `f64` (lossy above 2^53 for the integer lanes — use
    /// [`JsonValue::as_u64`] for exact integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::Unsigned(u) => u as f64,
            Number::Signed(s) => s as f64,
            Number::Float(f) => f,
        }
    }
}

/// One JSON value. Objects preserve insertion order, which is what makes
/// the rendered form canonical (and golden files byte-stable).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (see [`Number`] for the exactness contract).
    Number(Number),
    /// A string. A [`WireStr`] of up to 22 bytes is stored inline, so a
    /// short string allocates nothing.
    String(WireStr),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An ordered list of `(key, value)` pairs. Keys are unique (both
    /// decoders reject duplicates; the builder is trusted). A key is a
    /// [`WireStr`] too, so an object costs one allocation for its entries,
    /// not one more per field name.
    Object(Vec<(WireStr, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(Number::Float(v))
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Number(Number::Unsigned(v))
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::Number(Number::Unsigned(u64::from(v)))
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Number(Number::Unsigned(v as u64))
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Number(Number::from_i64(v))
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(WireStr::from(v))
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(WireStr::from(v))
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(inner) => inner.into(),
            None => JsonValue::Null,
        }
    }
}

/// Incremental builder for object values, preserving field order.
#[derive(Debug, Default)]
pub struct ObjectBuilder {
    fields: Vec<(WireStr, JsonValue)>,
}

impl ObjectBuilder {
    /// Appends a field. Its name becomes a [`WireStr`], which allocates
    /// only for names longer than 22 bytes.
    #[must_use]
    pub fn field(mut self, name: &str, value: impl Into<JsonValue>) -> Self {
        self.fields.push((WireStr::from(name), value.into()));
        self
    }

    /// Finishes the object.
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.fields)
    }
}

/// Starts an [`ObjectBuilder`].
pub fn obj() -> ObjectBuilder {
    ObjectBuilder::default()
}

impl JsonValue {
    /// The JSON type of this value, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// The value as a bool.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for any other JSON type.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(wrong_type("bool", other)),
        }
    }

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for any other JSON type.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            JsonValue::String(s) => Ok(s.as_str()),
            other => Err(wrong_type("string", other)),
        }
    }

    /// The value as an `f64`. Integer tokens are accepted (hand-written
    /// input writes `1` where the canonical writer emits `1.0`), converted
    /// with `as` — exact up to 2^53.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for non-numbers.
    pub fn as_f64(&self) -> Result<f64> {
        View::as_f64(self)
    }

    /// The value as a `u64`. Only integer tokens qualify — a float in an
    /// integer slot is a type error, not a rounding opportunity.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for floats, negatives and non-numbers.
    pub fn as_u64(&self) -> Result<u64> {
        View::as_u64(self)
    }

    /// The value as an `i64`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for floats, out-of-range magnitudes and
    /// non-numbers.
    pub fn as_i64(&self) -> Result<i64> {
        View::as_i64(self)
    }

    /// The value as a `usize`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] as for [`JsonValue::as_u64`].
    pub fn as_usize(&self) -> Result<usize> {
        View::as_usize(self)
    }

    /// The value as a `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] as for [`JsonValue::as_u64`].
    pub fn as_u32(&self) -> Result<u32> {
        View::as_u32(self)
    }

    /// The value as an array slice.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for any other JSON type.
    pub fn as_array(&self) -> Result<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Ok(items),
            other => Err(wrong_type("array", other)),
        }
    }

    /// The value as object entries, in insertion order.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for any other JSON type.
    pub fn entries(&self) -> Result<&[(WireStr, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Ok(entries),
            other => Err(wrong_type("object", other)),
        }
    }

    /// Looks a field up by name (objects only; `None` on other types).
    pub fn get(&self, name: &str) -> Option<&JsonValue> {
        View::get(self, name)
    }

    /// A required field of an object.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] if `self` is not an object,
    /// [`WireError::MissingField`] if the field is absent.
    pub fn field(&self, type_name: &'static str, name: &'static str) -> Result<&JsonValue> {
        View::field(self, type_name, name)
    }

    /// A required string field.
    ///
    /// # Errors
    ///
    /// As [`JsonValue::field`] plus [`WireError::WrongType`].
    pub fn field_str(&self, type_name: &'static str, name: &'static str) -> Result<&str> {
        View::field_str(self, type_name, name)
    }

    /// A required field decoded as `T` — how declared and hand-written
    /// codecs read their fields.
    ///
    /// # Errors
    ///
    /// As [`JsonValue::field`], plus whatever `T::from_wire` reports.
    pub fn decode<T: Wire>(&self, type_name: &'static str, name: &'static str) -> Result<T> {
        View::decode(self, type_name, name)
    }

    /// Parses strict JSON text into a value. The whole input must be one
    /// JSON value (plus whitespace); duplicate object keys are rejected.
    ///
    /// # Errors
    ///
    /// [`WireError::Parse`] with a 1-based line/column position, or
    /// [`WireError::TooDeep`] if arrays and objects nest deeper than
    /// [`crate::MAX_NESTING_DEPTH`].
    pub fn parse(text: &str) -> Result<JsonValue> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            items: Vec::new(),
            entries: Vec::new(),
            scratch: String::new(),
        };
        parser.skip_ws();
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// Renders the value as canonical pretty JSON (2-space indent, fields
    /// in insertion order, trailing newline) — the golden-file form.
    ///
    /// # Errors
    ///
    /// [`WireError::NonFinite`] if any float is NaN or infinite.
    pub fn render_pretty(&self) -> Result<String> {
        let mut out = String::new();
        self.write_value(&mut out, Some(0))?;
        out.push('\n');
        Ok(out)
    }

    /// Renders the value on one line, no spaces — the log-line form.
    ///
    /// # Errors
    ///
    /// [`WireError::NonFinite`] if any float is NaN or infinite.
    pub fn render_compact(&self) -> Result<String> {
        let mut out = String::new();
        self.write_value(&mut out, None)?;
        Ok(out)
    }

    fn write_value(&self, out: &mut String, indent: Option<usize>) -> Result<()> {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(n) => write_number(out, *n)?,
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return Ok(());
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    open_line(out, indent);
                    item.write_value(out, indent.map(|n| n + 1))?;
                }
                close_line(out, indent);
                out.push(']');
            }
            JsonValue::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return Ok(());
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    open_line(out, indent);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write_value(out, indent.map(|n| n + 1))?;
                }
                close_line(out, indent);
                out.push('}');
            }
        }
        Ok(())
    }
}

fn wrong_type(expected: &'static str, found: &JsonValue) -> WireError {
    view::wrong_type(expected, found.type_name())
}

fn open_line(out: &mut String, indent: Option<usize>) {
    if let Some(level) = indent {
        out.push('\n');
        for _ in 0..=level {
            out.push_str("  ");
        }
    }
}

fn close_line(out: &mut String, indent: Option<usize>) {
    if let Some(level) = indent {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    }
}

fn write_number(out: &mut String, number: Number) -> Result<()> {
    match number {
        Number::Unsigned(u) => {
            let _ = write!(out, "{u}");
        }
        Number::Signed(s) => {
            let _ = write!(out, "{s}");
        }
        Number::Float(f) => {
            if !f.is_finite() {
                return Err(WireError::NonFinite {
                    type_name: "json number",
                });
            }
            // Rust's Display prints the shortest decimal that parses back
            // to the same bits. Keep the float lane recognisable: a value
            // whose shortest form has no fraction gets an explicit `.0`.
            let start = out.len();
            let _ = write!(out, "{f}");
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
    }
    Ok(())
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
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `10^k` for `k` in `0..=22`: the powers of ten an `f64` holds exactly.
const POWERS_OF_TEN: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Most significant digits of a float read on the exact fast path: such a
/// mantissa is below 2^53, so it converts to `f64` exactly.
const FAST_PATH_DIGITS: u32 = 15;

/// Where a written exponent stops growing. Any exponent past ±22 takes the
/// `str::parse` path, so the cap only keeps the arithmetic from overflowing.
const EXPONENT_CAP: i64 = 1 << 40;

/// The significant digits of a number token, accumulated as they are
/// scanned.
#[derive(Default)]
struct Digits {
    /// The digits as an integer, valid while `overflowed` is false.
    value: u64,
    /// Digits from the first nonzero one on.
    count: u32,
    /// Whether the digits ran past `u64::MAX`.
    overflowed: bool,
}

impl Digits {
    fn push(&mut self, digit: u8) {
        match self
            .value
            .checked_mul(10)
            .and_then(|value| value.checked_add(u64::from(digit)))
        {
            // A leading zero is not significant.
            Some(0) => return,
            Some(value) => self.value = value,
            None => self.overflowed = true,
        }
        self.count = self.count.saturating_add(1);
    }
}

struct Parser<'a> {
    /// The input. It is sliced only next to ASCII bytes (quotes, escapes,
    /// number tokens), which are always `char` boundaries, so a slice of it
    /// needs no UTF-8 check.
    text: &'a str,
    /// `text` as bytes, which the scanner reads.
    bytes: &'a [u8],
    pos: usize,
    /// The items of every array still open, innermost last. A closing `]`
    /// moves its items off in one block into a `Vec` of their exact length,
    /// so each array allocates once.
    items: Vec<JsonValue>,
    /// The same stack for the entries of every open object.
    entries: Vec<(WireStr, JsonValue)>,
    /// The decoded text of a string that holds an escape. It is reused, so
    /// such a string allocates only if it is longer than a [`WireStr`]
    /// holds inline.
    scratch: String,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> WireError {
        let consumed = &self.bytes[..self.pos.min(self.bytes.len())];
        let line = 1 + consumed.iter().filter(|&&b| b == b'\n').count();
        let line_start = consumed
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        WireError::Parse {
            line,
            column: self.pos - line_start + 1,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Skips a run of whitespace. A pretty document's indentation is runs
    /// of spaces, which are skipped eight bytes at a time.
    fn skip_ws(&mut self) {
        const SPACES: u64 = u64::from_le_bytes([b' '; 8]);
        let bytes = self.bytes;
        let mut pos = self.pos;
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = bytes.get(pos) {
            pos += 1;
            while let Some(chunk) = bytes.get(pos..pos + 8) {
                // Zero bytes here are spaces; the lowest nonzero byte is
                // the first that is not.
                let others = u64::from_le_bytes(chunk.try_into().expect("8 bytes")) ^ SPACES;
                if others != 0 {
                    pos += (others.trailing_zeros() / 8) as usize;
                    break;
                }
                pos += 8;
            }
        }
        self.pos = pos;
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    /// Parses one value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_NESTING_DEPTH => Err(WireError::TooDeep {
                limit: MAX_NESTING_DEPTH,
            }),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected character `{}`", char::from(other)))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &'static str, value: JsonValue) -> Result<JsonValue> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{text}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue> {
        let start = self.entries.len();
        if let Err(e) = self.object_entries(depth, start) {
            self.entries.truncate(start);
            return Err(e);
        }
        Ok(JsonValue::Object(self.entries.split_off(start)))
    }

    /// Pushes the entries of the object opening at `self.pos` onto
    /// `self.entries`, above `start`, and consumes its closing `}`.
    fn object_entries(&mut self, depth: usize, start: usize) -> Result<()> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        let mut seen = SeenKeys::default();
        loop {
            self.skip_ws();
            let key_pos = self.pos;
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            if seen.repeats(&self.entries[start..], &key) {
                self.pos = key_pos;
                return Err(self.error(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            self.entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue> {
        let start = self.items.len();
        if let Err(e) = self.array_items(depth) {
            self.items.truncate(start);
            return Err(e);
        }
        Ok(JsonValue::Array(self.items.split_off(start)))
    }

    /// Pushes the items of the array opening at `self.pos` onto
    /// `self.items` and consumes its closing `]`.
    fn array_items(&mut self, depth: usize) -> Result<()> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let item = self.value(depth)?;
            self.items.push(item);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    /// The string opening at `self.pos`, a key or a value. A plain run of
    /// bytes up to the closing quote is taken straight from the input; a
    /// string with an escape or a defect goes through
    /// [`Parser::escaped_string`], which decodes it or reports the error.
    fn string(&mut self) -> Result<WireStr> {
        let start = self.pos + 1;
        let len = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
        match len {
            Some(len) if self.bytes[start + len] == b'"' => {
                self.pos = start + len + 1;
                Ok(WireStr::from(&self.text[start..start + len]))
            }
            _ => self.escaped_string(),
        }
    }

    fn escaped_string(&mut self) -> Result<WireStr> {
        self.expect(b'"')?;
        self.scratch.clear();
        let text = self.text;
        loop {
            let start = self.pos;
            // Run of plain bytes up to the next quote or escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // Quote, backslash and control bytes never occur inside a
            // multi-byte sequence, so the run ends on a `char` boundary.
            self.scratch.push_str(&text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(WireStr::from(self.scratch.as_str()));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    self.scratch.push(c);
                }
                Some(_) => return Err(self.error("raw control character in string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char> {
        let Some(b) = self.peek() else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let first = self.hex4()?;
                if (0xD800..0xDC00).contains(&first) {
                    // High surrogate: a low surrogate must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')
                            .map_err(|_| self.error("expected a low surrogate escape"))?;
                        let second = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&second) {
                            return Err(self.error("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))?
                    } else {
                        return Err(self.error("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&first) {
                    return Err(self.error("unpaired low surrogate"));
                } else {
                    char::from_u32(first).ok_or_else(|| self.error("invalid \\u escape"))?
                }
            }
            other => {
                self.pos -= 1;
                return Err(self.error(format!("invalid escape `\\{}`", char::from(other))));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32> {
        let mut value = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.error("unterminated \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.error("invalid hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    /// Consumes a run of decimal digits, pushing each onto `digits`, and
    /// returns how many there were.
    fn digit_run(&mut self, digits: &mut Digits) -> usize {
        let start = self.pos;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            digits.push(b - b'0');
            self.pos += 1;
        }
        self.pos - start
    }

    /// Reads a number token in one pass: its digits build the mantissa and
    /// the exponent as they are scanned.
    ///
    /// An integer token lands in the `u64` lane, or the `i64` lane when
    /// negative, and in the `f64` lane past either range, as
    /// `str::parse::<u64>`, `::<i64>` and `::<f64>` would place it; `-0`
    /// is `Unsigned(0)`. A float of at most 15 significant digits scaled by
    /// at most 10^±22 is one exact multiplication or division, which IEEE
    /// arithmetic rounds correctly (Clinger's fast path). Every other float
    /// goes through `str::parse::<f64>`.
    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut digits = Digits::default();
        // Integer part: `0` or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digit_run(&mut digits);
            }
            _ => return Err(self.error("expected a digit")),
        }
        let mut integral = true;
        // The power of ten that scales `digits.value`.
        let mut exponent: i64 = 0;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            let fraction = self.digit_run(&mut digits);
            if fraction == 0 {
                return Err(self.error("expected a digit after `.`"));
            }
            exponent = i64::try_from(fraction).map_or(-EXPONENT_CAP, |n| -n);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            let negative_exponent = self.peek() == Some(b'-');
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exponent_start = self.pos;
            let mut written: i64 = 0;
            while let Some(b @ b'0'..=b'9') = self.peek() {
                written = (written * 10 + i64::from(b - b'0')).min(EXPONENT_CAP);
                self.pos += 1;
            }
            if self.pos == exponent_start {
                return Err(self.error("expected a digit in the exponent"));
            }
            exponent = exponent.saturating_add(if negative_exponent { -written } else { written });
        }
        if integral && !digits.overflowed {
            if !negative {
                return Ok(JsonValue::Number(Number::Unsigned(digits.value)));
            }
            if digits.value <= 1 << 63 {
                let value = 0i64.wrapping_sub_unsigned(digits.value);
                return Ok(JsonValue::Number(Number::from_i64(value)));
            }
        }
        if !integral && digits.count <= FAST_PATH_DIGITS {
            if let Some(&power) = POWERS_OF_TEN.get(exponent.unsigned_abs() as usize) {
                // Below 10^15, so the mantissa is an `f64` exactly.
                let mantissa = digits.value as f64;
                let magnitude = if exponent < 0 {
                    mantissa / power
                } else {
                    mantissa * power
                };
                let value = if negative { -magnitude } else { magnitude };
                return Ok(JsonValue::Number(Number::Float(value)));
            }
        }
        let f: f64 = self.text[start..self.pos]
            .parse()
            .map_err(|_| self.error("malformed number"))?;
        if !f.is_finite() {
            return Err(self.error("number does not fit a finite f64"));
        }
        Ok(JsonValue::Number(Number::Float(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(value: &JsonValue) {
        let pretty = value.render_pretty().unwrap();
        assert_eq!(&JsonValue::parse(&pretty).unwrap(), value, "{pretty}");
        let compact = value.render_compact().unwrap();
        assert_eq!(&JsonValue::parse(&compact).unwrap(), value, "{compact}");
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(&JsonValue::Null);
        roundtrip(&JsonValue::Bool(true));
        roundtrip(&JsonValue::Bool(false));
        roundtrip(&JsonValue::from(0u64));
        roundtrip(&JsonValue::from(u64::MAX));
        roundtrip(&JsonValue::from(-1i64));
        roundtrip(&JsonValue::from(i64::MIN));
        roundtrip(&JsonValue::from(0.1));
        roundtrip(&JsonValue::from(-0.0));
        roundtrip(&JsonValue::from(1.0));
        roundtrip(&JsonValue::from(1e300));
        roundtrip(&JsonValue::from(5e-324)); // smallest subnormal
        roundtrip(&JsonValue::from(f64::MAX));
        roundtrip(&JsonValue::from("plain"));
        roundtrip(&JsonValue::from(
            "esc \"\\ \n\r\t \u{8}\u{c} \u{1} ünïcødé 🎯",
        ));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let value = obj()
            .field("name", "demo")
            .field("count", 3usize)
            .field("enabled", true)
            .field("nothing", JsonValue::Null)
            .field(
                "items",
                vec![
                    JsonValue::from(1.5),
                    JsonValue::from("two"),
                    JsonValue::Array(vec![]),
                    JsonValue::Object(vec![]),
                ],
            )
            .field("nested", obj().field("deep", -7i64).build())
            .build();
        roundtrip(&value);
    }

    #[test]
    fn float_lane_survives_integral_values() {
        // 1.0 must render as "1.0", not "1", so it parses back into the
        // float lane.
        let rendered = JsonValue::from(1.0).render_compact().unwrap();
        assert_eq!(rendered, "1.0");
        let reparsed = JsonValue::parse(&rendered).unwrap();
        assert_eq!(reparsed, JsonValue::Number(Number::Float(1.0)));
        // Huge integral floats render without exponents in Rust; the `.0`
        // keeps the lane.
        let rendered = JsonValue::from(1e19).render_compact().unwrap();
        assert!(rendered.ends_with(".0"), "{rendered}");
        assert_eq!(
            JsonValue::parse(&rendered).unwrap(),
            JsonValue::Number(Number::Float(1e19))
        );
    }

    #[test]
    fn exact_bit_patterns_survive_text() {
        // A sweep of awkward bit patterns: parse(render(x)) must give the
        // identical bits back.
        for bits in [
            0x0000_0000_0000_0001u64, // smallest subnormal
            0x000f_ffff_ffff_ffff,    // largest subnormal
            0x0010_0000_0000_0000,    // smallest normal
            0x3ff0_0000_0000_0001,    // 1.0 + ulp
            0x7fef_ffff_ffff_ffff,    // f64::MAX
            0x8000_0000_0000_0000,    // -0.0
            0xbfd5_5555_5555_5555,    // -1/3
        ] {
            let x = f64::from_bits(bits);
            let rendered = JsonValue::from(x).render_compact().unwrap();
            let parsed = JsonValue::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), bits, "{rendered}");
        }
    }

    #[test]
    fn non_finite_floats_refuse_to_render() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = JsonValue::from(bad).render_pretty().unwrap_err();
            assert!(matches!(err, WireError::NonFinite { .. }), "{bad}");
        }
    }

    #[test]
    fn pretty_rendering_is_canonical() {
        let value = obj()
            .field("b", 1u64)
            .field("a", vec![JsonValue::from(true)])
            .build();
        assert_eq!(
            value.render_pretty().unwrap(),
            "{\n  \"b\": 1,\n  \"a\": [\n    true\n  ]\n}\n"
        );
        assert_eq!(value.render_compact().unwrap(), "{\"b\":1,\"a\":[true]}");
    }

    #[test]
    fn parser_reports_positions() {
        let err = JsonValue::parse("{\n  \"a\": nul\n}").unwrap_err();
        match err {
            WireError::Parse { line, column, .. } => {
                assert_eq!(line, 2);
                assert_eq!(column, 8);
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in [
            "",
            "  ",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "{a: 1}",
            "tru",
            "nulL",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "\"\\ud800\"",        // unpaired high surrogate
            "\"\\udc00\"",        // unpaired low surrogate
            "\"\\ud800\\u0041\"", // high surrogate + non-surrogate
            "01",
            "1.",
            ".5",
            "-",
            "1e",
            "1e999",
            "+1",
            "1 2",
            "[1] []",
            "{\"a\":1,\"a\":2}",
            "\u{1}",
        ] {
            match JsonValue::parse(bad) {
                Err(WireError::Parse { .. }) => {}
                other => panic!("{bad:?} should be a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error_not_a_stack_overflow() {
        let nested = |levels: usize, open: &str, close: &str| {
            format!("{}1{}", open.repeat(levels), close.repeat(levels))
        };
        let too_deep = Err(WireError::TooDeep {
            limit: MAX_NESTING_DEPTH,
        });
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let deepest = nested(MAX_NESTING_DEPTH, open, close);
            roundtrip(&JsonValue::parse(&deepest).unwrap());
            for levels in [MAX_NESTING_DEPTH + 1, 200_000] {
                assert_eq!(JsonValue::parse(&nested(levels, open, close)), too_deep);
            }
            // Unclosed: the limit trips before the missing brackets do.
            assert_eq!(JsonValue::parse(&open.repeat(200_000)), too_deep);
        }
    }

    #[test]
    fn duplicate_keys_name_the_key() {
        let err = JsonValue::parse("{\"x\": 1, \"x\": 2}").unwrap_err();
        assert!(err.to_string().contains("duplicate object key `x`"));
        // An escaped spelling of a key already present is the same key.
        let err = JsonValue::parse("{\"ab\": 1, \"a\\u0062\": 2}").unwrap_err();
        assert_eq!(
            err,
            WireError::Parse {
                line: 1,
                column: 11,
                message: "duplicate object key `ab`".to_owned(),
            }
        );
    }

    #[test]
    fn integer_lanes_are_exact_and_normalised() {
        assert_eq!(
            JsonValue::parse("18446744073709551615")
                .unwrap()
                .as_u64()
                .unwrap(),
            u64::MAX
        );
        assert_eq!(
            JsonValue::parse("-9223372036854775808")
                .unwrap()
                .as_i64()
                .unwrap(),
            i64::MIN
        );
        // Non-negative i64 normalises to the unsigned lane.
        assert_eq!(JsonValue::from(5i64), JsonValue::from(5u64));
        // Oversized integer tokens fall back to the float lane instead of
        // erroring: they are valid JSON.
        let big = JsonValue::parse("18446744073709551616").unwrap();
        assert!(matches!(big, JsonValue::Number(Number::Float(_))));
    }

    #[test]
    fn accessors_enforce_types() {
        let value = obj().field("n", 1.5).field("u", 7u64).build();
        assert!(value.decode::<f64>("t", "n").is_ok());
        // Integer tokens are accepted as f64 (hand-written JSON)...
        assert_eq!(value.decode::<f64>("t", "u").unwrap(), 7.0);
        // ...but floats never pass as integers.
        assert!(matches!(
            value.decode::<u64>("t", "n"),
            Err(WireError::WrongType { .. })
        ));
        assert!(matches!(
            value.field("t", "missing"),
            Err(WireError::MissingField {
                field: "missing",
                ..
            })
        ));
        assert!(matches!(
            JsonValue::Null.field("t", "n"),
            Err(WireError::WrongType { .. })
        ));
        assert!(matches!(
            JsonValue::from(-1i64).as_u64(),
            Err(WireError::WrongType { .. })
        ));
        assert_eq!(JsonValue::from(7u64).as_i64().unwrap(), 7);
        assert!(JsonValue::from(u64::MAX).as_i64().is_err());
        assert_eq!(JsonValue::from(Some(2.5)).as_f64().unwrap(), 2.5);
        assert_eq!(JsonValue::from(None::<f64>), JsonValue::Null);
        assert_eq!(value.get("u").unwrap().as_u64().unwrap(), 7);
        assert!(value.get("zzz").is_none());
        assert_eq!(value.entries().unwrap().len(), 2);
    }
}
