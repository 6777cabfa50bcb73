//! Compact binary encoding of [`JsonValue`] — the payload format of the
//! process transport.
//!
//! Each value is one tag byte followed by a fixed- or length-prefixed body:
//!
//! | tag    | value                                              |
//! |--------|----------------------------------------------------|
//! | `0x00` | null                                               |
//! | `0x01` | false                                              |
//! | `0x02` | true                                               |
//! | `0x03` | u64, 8 bytes little-endian                         |
//! | `0x04` | i64, 8 bytes little-endian                         |
//! | `0x05` | f64 bit pattern, 8 bytes little-endian             |
//! | `0x06` | string: u32 LE byte length + UTF-8 bytes           |
//! | `0x07` | array: u32 LE count + values                       |
//! | `0x08` | object: u32 LE count + (string key, value) pairs   |
//!
//! Floats travel as raw bit patterns, so the binary path is trivially
//! bit-exact. Decoding is strict: unknown tags, truncated bodies,
//! non-finite floats and duplicate object keys are typed errors, never
//! panics.

use crate::json::{JsonValue, Number};
use crate::key::SeenKeys;
use crate::{Result, WireError, WireStr, MAX_NESTING_DEPTH};

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_U64: u8 = 0x03;
const TAG_I64: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STRING: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

/// Encodes a value into the compact binary form.
///
/// # Errors
///
/// [`WireError::NonFinite`] if any float is NaN or infinite, and
/// [`WireError::Invalid`] if a string or collection exceeds `u32` length.
pub fn encode_value(value: &JsonValue) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    encode_into(value, &mut out)?;
    Ok(out)
}

/// Encodes an array item by item, appending each item's bytes as it comes,
/// so the array is never built as one [`JsonValue`] and each item can be
/// dropped before the next is made. The bytes are those of [`encode_value`]
/// on the collected array.
///
/// # Errors
///
/// As [`encode_value`].
pub fn encode_array(items: impl IntoIterator<Item = JsonValue>) -> Result<Vec<u8>> {
    // The count is known only once the items are consumed: its four bytes
    // are reserved here and written at the end.
    let mut out = vec![TAG_ARRAY, 0, 0, 0, 0];
    let mut count = 0;
    for item in items {
        encode_into(&item, &mut out)?;
        count += 1;
    }
    let mut prefix = Vec::with_capacity(4);
    encode_len(count, "array", &mut prefix)?;
    out[1..5].copy_from_slice(&prefix);
    Ok(out)
}

fn encode_len(len: usize, what: &'static str, out: &mut Vec<u8>) -> Result<()> {
    let len = u32::try_from(len).map_err(|_| WireError::Invalid {
        type_name: "binary value",
        message: format!("{what} of {len} elements exceeds the u32 length prefix"),
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

fn encode_str(s: &str, out: &mut Vec<u8>) -> Result<()> {
    encode_len(s.len(), "string", out)?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn encode_into(value: &JsonValue, out: &mut Vec<u8>) -> Result<()> {
    match value {
        JsonValue::Null => out.push(TAG_NULL),
        JsonValue::Bool(false) => out.push(TAG_FALSE),
        JsonValue::Bool(true) => out.push(TAG_TRUE),
        JsonValue::Number(Number::Unsigned(u)) => {
            out.push(TAG_U64);
            out.extend_from_slice(&u.to_le_bytes());
        }
        JsonValue::Number(Number::Signed(s)) => {
            out.push(TAG_I64);
            out.extend_from_slice(&s.to_le_bytes());
        }
        JsonValue::Number(Number::Float(f)) => {
            if !f.is_finite() {
                return Err(WireError::NonFinite {
                    type_name: "binary value",
                });
            }
            out.push(TAG_F64);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        JsonValue::String(s) => {
            out.push(TAG_STRING);
            encode_str(s, out)?;
        }
        JsonValue::Array(items) => {
            out.push(TAG_ARRAY);
            encode_len(items.len(), "array", out)?;
            for item in items {
                encode_into(item, out)?;
            }
        }
        JsonValue::Object(entries) => {
            out.push(TAG_OBJECT);
            encode_len(entries.len(), "object", out)?;
            for (key, value) in entries {
                encode_str(key, out)?;
                encode_into(value, out)?;
            }
        }
    }
    Ok(())
}

/// Decodes one binary value, consuming the whole input.
///
/// # Errors
///
/// [`WireError::Truncated`], [`WireError::BadTag`], [`WireError::Invalid`]
/// (trailing bytes, invalid UTF-8, a duplicate object key),
/// [`WireError::NonFinite`] or
/// [`WireError::TooDeep`] (arrays and objects nested deeper than
/// [`crate::MAX_NESTING_DEPTH`]).
pub fn decode_value(bytes: &[u8]) -> Result<JsonValue> {
    let mut reader = Reader { bytes, pos: 0 };
    let value = reader.value(0)?;
    if reader.pos != bytes.len() {
        return Err(WireError::Invalid {
            type_name: "binary value",
            message: format!(
                "{} trailing bytes after the value",
                bytes.len() - reader.pos
            ),
        });
    }
    Ok(value)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&[u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(WireError::Truncated { context })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32_len(&mut self, context: &'static str) -> Result<usize> {
        let raw = self.take(4, context)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")) as usize)
    }

    /// The capacity to reserve for a container that declares `count`
    /// elements, each of which takes at least `min_bytes` of the input: a
    /// count the bytes left cannot hold reserves no more than they could.
    fn capacity(&self, count: usize, min_bytes: usize) -> usize {
        count.min((self.bytes.len() - self.pos) / min_bytes)
    }

    fn eight(&mut self, context: &'static str) -> Result<[u8; 8]> {
        Ok(self.take(8, context)?.try_into().expect("8 bytes"))
    }

    /// The text of a string body, borrowed from the input.
    fn str(&mut self) -> Result<&str> {
        let len = self.u32_len("string length")?;
        let raw = self.take(len, "string bytes")?;
        std::str::from_utf8(raw).map_err(|e| WireError::Invalid {
            type_name: "binary value",
            message: format!("string is not valid UTF-8: {e}"),
        })
    }

    /// Decodes one value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue> {
        let tag = self.take(1, "value tag")?[0];
        if matches!(tag, TAG_ARRAY | TAG_OBJECT) && depth == MAX_NESTING_DEPTH {
            return Err(WireError::TooDeep {
                limit: MAX_NESTING_DEPTH,
            });
        }
        Ok(match tag {
            TAG_NULL => JsonValue::Null,
            TAG_FALSE => JsonValue::Bool(false),
            TAG_TRUE => JsonValue::Bool(true),
            TAG_U64 => JsonValue::Number(Number::Unsigned(u64::from_le_bytes(
                self.eight("u64 value")?,
            ))),
            TAG_I64 => {
                let s = i64::from_le_bytes(self.eight("i64 value")?);
                // Normalise like the JSON parser: non-negative integers
                // always live in the unsigned lane.
                JsonValue::Number(Number::from_i64(s))
            }
            TAG_F64 => {
                let f = f64::from_bits(u64::from_le_bytes(self.eight("f64 value")?));
                if !f.is_finite() {
                    return Err(WireError::NonFinite {
                        type_name: "binary value",
                    });
                }
                JsonValue::Number(Number::Float(f))
            }
            TAG_STRING => JsonValue::String(WireStr::from(self.str()?)),
            TAG_ARRAY => {
                let count = self.u32_len("array length")?;
                // An item is at least its tag byte.
                let mut items = Vec::with_capacity(self.capacity(count, 1));
                for _ in 0..count {
                    items.push(self.value(depth + 1)?);
                }
                JsonValue::Array(items)
            }
            TAG_OBJECT => {
                let count = self.u32_len("object length")?;
                // An entry is at least a key's length prefix and a tag byte.
                let mut entries: Vec<(WireStr, JsonValue)> =
                    Vec::with_capacity(self.capacity(count, 5));
                let mut seen = SeenKeys::default();
                for _ in 0..count {
                    let key = WireStr::from(self.str()?);
                    if seen.repeats(&entries, &key) {
                        return Err(WireError::Invalid {
                            type_name: "binary value",
                            message: format!("duplicate object key `{key}`"),
                        });
                    }
                    let value = self.value(depth + 1)?;
                    entries.push((key, value));
                }
                JsonValue::Object(entries)
            }
            tag => return Err(WireError::BadTag { tag }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn roundtrip(value: &JsonValue) {
        let bytes = encode_value(value).unwrap();
        assert_eq!(&decode_value(&bytes).unwrap(), value);
    }

    #[test]
    fn every_shape_roundtrips() {
        roundtrip(&JsonValue::Null);
        roundtrip(&JsonValue::Bool(true));
        roundtrip(&JsonValue::Bool(false));
        roundtrip(&JsonValue::from(u64::MAX));
        roundtrip(&JsonValue::from(i64::MIN));
        roundtrip(&JsonValue::from(-0.0));
        roundtrip(&JsonValue::from(f64::MAX));
        roundtrip(&JsonValue::from("strings 🎯 with unicode"));
        roundtrip(&JsonValue::Array(vec![]));
        roundtrip(&JsonValue::Object(vec![]));
        roundtrip(
            &obj()
                .field("nested", vec![JsonValue::from(1.25), JsonValue::Null])
                .field("flag", false)
                .build(),
        );
    }

    #[test]
    fn encode_array_matches_encoding_the_collected_array() {
        let items = [
            obj()
                .field("index", 3usize)
                .field("nested", vec![JsonValue::from(1.25), JsonValue::Null])
                .build(),
            JsonValue::from("text"),
            JsonValue::Array(vec![]),
        ];
        for n in 0..=items.len() {
            assert_eq!(
                encode_array(items[..n].iter().cloned()).unwrap(),
                encode_value(&JsonValue::Array(items[..n].to_vec())).unwrap()
            );
        }
        assert!(matches!(
            encode_array([JsonValue::Null, JsonValue::from(f64::NAN)]),
            Err(WireError::NonFinite { .. })
        ));
    }

    #[test]
    fn floats_travel_as_bit_patterns() {
        for bits in [
            0x0000_0000_0000_0001u64,
            0x8000_0000_0000_0000,
            0x3ff0_0000_0000_0001,
        ] {
            let value = JsonValue::from(f64::from_bits(bits));
            let bytes = encode_value(&value).unwrap();
            let back = decode_value(&bytes).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), bits);
        }
    }

    #[test]
    fn non_finite_refuses_both_directions() {
        assert!(matches!(
            encode_value(&JsonValue::from(f64::NAN)),
            Err(WireError::NonFinite { .. })
        ));
        let mut bytes = vec![TAG_F64];
        bytes.extend_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        assert!(matches!(
            decode_value(&bytes),
            Err(WireError::NonFinite { .. })
        ));
    }

    #[test]
    fn malformed_bytes_are_typed_errors() {
        assert!(matches!(
            decode_value(&[]),
            Err(WireError::Truncated { .. })
        ));
        assert!(matches!(
            decode_value(&[0xff]),
            Err(WireError::BadTag { tag: 0xff })
        ));
        // Truncated u64 body.
        assert!(matches!(
            decode_value(&[TAG_U64, 1, 2, 3]),
            Err(WireError::Truncated { .. })
        ));
        // String length runs past the input.
        assert!(matches!(
            decode_value(&[TAG_STRING, 0xff, 0xff, 0xff, 0xff]),
            Err(WireError::Truncated { .. })
        ));
        // Invalid UTF-8 in a string body.
        assert!(matches!(
            decode_value(&[TAG_STRING, 1, 0, 0, 0, 0xff]),
            Err(WireError::Invalid { .. })
        ));
        // Array count larger than the remaining bytes.
        assert!(matches!(
            decode_value(&[TAG_ARRAY, 2, 0, 0, 0, TAG_NULL]),
            Err(WireError::Truncated { .. })
        ));
        // Trailing garbage after a complete value.
        assert!(matches!(
            decode_value(&[TAG_NULL, TAG_NULL]),
            Err(WireError::Invalid { .. })
        ));
        // A key twice in one object, which the JSON parser refuses too.
        assert_eq!(
            decode_value(&[
                TAG_OBJECT, 2, 0, 0, 0, 1, 0, 0, 0, b'a', TAG_NULL, 1, 0, 0, 0, b'a', TAG_TRUE
            ]),
            Err(WireError::Invalid {
                type_name: "binary value",
                message: "duplicate object key `a`".to_owned(),
            })
        );
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error_not_a_stack_overflow() {
        // `levels` one-element arrays (or one-field objects) around a null,
        // written header by header: a value that deep could not even be
        // dropped without overflowing the stack.
        let nested = |levels: usize, tag: u8| {
            let mut bytes = Vec::new();
            for _ in 0..levels {
                bytes.push(tag);
                bytes.extend_from_slice(&1u32.to_le_bytes());
                if tag == TAG_OBJECT {
                    bytes.extend_from_slice(&1u32.to_le_bytes());
                    bytes.push(b'a');
                }
            }
            bytes.push(TAG_NULL);
            bytes
        };
        let too_deep = Err(WireError::TooDeep {
            limit: MAX_NESTING_DEPTH,
        });
        for tag in [TAG_ARRAY, TAG_OBJECT] {
            let deepest = decode_value(&nested(MAX_NESTING_DEPTH, tag)).unwrap();
            assert_eq!(
                encode_value(&deepest).unwrap(),
                nested(MAX_NESTING_DEPTH, tag)
            );
            for levels in [MAX_NESTING_DEPTH + 1, 200_000] {
                assert_eq!(decode_value(&nested(levels, tag)), too_deep);
            }
        }
    }

    #[test]
    fn signed_lane_normalises_on_decode() {
        let mut bytes = vec![TAG_I64];
        bytes.extend_from_slice(&7i64.to_le_bytes());
        assert_eq!(decode_value(&bytes).unwrap(), JsonValue::from(7u64));
    }
}
