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
//! same bit pattern, and `str::parse::<f64>` is correctly rounded. The
//! writer appends `.0` to float values whose shortest form looks like an
//! integer, so the float/integer distinction survives a round trip too.
//! NaN and infinities are rejected at render time — the wire format carries
//! finite numbers only.

use std::fmt::Write as _;

use crate::{Result, Wire, WireError, MAX_NESTING_DEPTH};

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
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An ordered list of `(key, value)` pairs. Keys are unique (the parser
    /// rejects duplicates; the builder is trusted).
    Object(Vec<(String, JsonValue)>),
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
        JsonValue::String(v.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
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
    fields: Vec<(String, JsonValue)>,
}

impl ObjectBuilder {
    /// Appends a field.
    #[must_use]
    pub fn field(mut self, name: &str, value: impl Into<JsonValue>) -> Self {
        self.fields.push((name.to_owned(), value.into()));
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
            JsonValue::String(s) => Ok(s),
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
        match self {
            JsonValue::Number(n) => Ok(n.as_f64()),
            other => Err(wrong_type("number", other)),
        }
    }

    /// The value as a `u64`. Only integer tokens qualify — a float in an
    /// integer slot is a type error, not a rounding opportunity.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for floats, negatives and non-numbers.
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            JsonValue::Number(Number::Unsigned(u)) => Ok(*u),
            other => Err(wrong_type("unsigned integer", other)),
        }
    }

    /// The value as an `i64`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for floats, out-of-range magnitudes and
    /// non-numbers.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            JsonValue::Number(Number::Signed(s)) => Ok(*s),
            JsonValue::Number(Number::Unsigned(u)) => {
                i64::try_from(*u).map_err(|_| wrong_type("signed integer", self))
            }
            other => Err(wrong_type("signed integer", other)),
        }
    }

    /// The value as a `usize`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] as for [`JsonValue::as_u64`].
    pub fn as_usize(&self) -> Result<usize> {
        let u = self.as_u64()?;
        usize::try_from(u).map_err(|_| wrong_type("usize", self))
    }

    /// The value as a `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] as for [`JsonValue::as_u64`].
    pub fn as_u32(&self) -> Result<u32> {
        let u = self.as_u64()?;
        u32::try_from(u).map_err(|_| wrong_type("u32", self))
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
    pub fn entries(&self) -> Result<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(entries) => Ok(entries),
            other => Err(wrong_type("object", other)),
        }
    }

    /// Looks a field up by name (objects only; `None` on other types).
    pub fn get(&self, name: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries
                .iter()
                .find(|(key, _)| key == name)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// A required field of an object.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] if `self` is not an object,
    /// [`WireError::MissingField`] if the field is absent.
    pub fn field(&self, type_name: &'static str, name: &'static str) -> Result<&JsonValue> {
        self.entries()?;
        self.get(name).ok_or(WireError::MissingField {
            type_name,
            field: name,
        })
    }

    /// A required string field.
    ///
    /// # Errors
    ///
    /// As [`JsonValue::field`] plus [`WireError::WrongType`].
    pub fn field_str(&self, type_name: &'static str, name: &'static str) -> Result<&str> {
        self.field(type_name, name)?.as_str()
    }

    /// A required field decoded as `T` — how declared and hand-written
    /// codecs read their fields.
    ///
    /// # Errors
    ///
    /// As [`JsonValue::field`], plus whatever `T::from_wire` reports.
    pub fn decode<T: Wire>(&self, type_name: &'static str, name: &'static str) -> Result<T> {
        T::from_wire(self.field(type_name, name)?)
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
            bytes: text.as_bytes(),
            pos: 0,
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
    WireError::WrongType {
        expected,
        found: found.type_name(),
    }
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
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
        self.expect(b'{')?;
        let mut entries: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(entries));
        }
        loop {
            self.skip_ws();
            let key_pos = self.pos;
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            if entries.iter().any(|(existing, _)| *existing == key) {
                self.pos = key_pos;
                return Err(self.error(format!("duplicate object key `{key}`")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes up to the next quote or escape.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so slicing on these boundaries is valid
            // UTF-8 (quote/backslash/control bytes never occur inside a
            // multi-byte sequence).
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("plain byte runs of a str are valid UTF-8"),
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
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

    fn number(&mut self) -> Result<JsonValue> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("expected a digit")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit after `.`"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected a digit in the exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let token =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number tokens are ASCII");
        if integral {
            // Integer token: land in the exact lane when it fits, fall back
            // to f64 for absurd magnitudes.
            if token.starts_with('-') {
                if let Ok(s) = token.parse::<i64>() {
                    return Ok(JsonValue::Number(Number::from_i64(s)));
                }
            } else if let Ok(u) = token.parse::<u64>() {
                return Ok(JsonValue::Number(Number::Unsigned(u)));
            }
        }
        let f: f64 = token.parse().map_err(|_| self.error("malformed number"))?;
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
