//! The compact binary encoding — the payload format of the process
//! transport — with its sink, its validating walk and its view.
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
//! bit-exact. [`BinarySink`] writes these bytes. Decoding is strict:
//! unknown tags, truncated bodies, invalid UTF-8, non-finite floats,
//! duplicate object keys, nesting past [`MAX_NESTING_DEPTH`] and trailing
//! bytes are typed errors, never panics. One walk makes every one of these
//! checks, in document order, and either builds the tree
//! ([`decode_value`]) or records where each container ends ([`Payload`]),
//! so a typed decoder reads the bytes through a [`BinaryView`] and never
//! meets a defect: a structural error anywhere in a payload is reported
//! before any field is decoded, as it is when a tree is decoded first.

use std::cell::Cell;
use std::collections::HashSet;

use crate::json::{JsonValue, Number};
use crate::key::{SeenKeys, SCAN_WIDTH};
use crate::sink::{ArraySink, ObjectSink, Sink};
use crate::view::{wrong_type, View};
use crate::{Result, Wire, WireError, WireStr, MAX_NESTING_DEPTH};

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
/// As [`BinarySink`].
pub fn encode_value(value: &JsonValue) -> Result<Vec<u8>> {
    value.to_binary()
}

/// The sink that appends a value's binary encoding to a buffer: what
/// [`Wire::to_binary`] writes into.
///
/// # Errors
///
/// Its methods return [`WireError::NonFinite`] for a NaN or infinite
/// float, and [`WireError::Invalid`] for a string or collection longer
/// than the `u32` length prefix holds or for a container closed after
/// another number of elements than it was opened with.
#[derive(Debug)]
pub struct BinarySink<'o> {
    out: &'o mut Vec<u8>,
}

impl<'o> BinarySink<'o> {
    /// A sink appending to `out`.
    #[inline]
    pub fn new(out: &'o mut Vec<u8>) -> Self {
        BinarySink { out }
    }
}

/// An array being written into a [`BinarySink`]'s buffer.
#[derive(Debug)]
pub struct BinaryArray<'o>(Counted<'o>);

/// An object being written into a [`BinarySink`]'s buffer.
#[derive(Debug)]
pub struct BinaryObject<'o>(Counted<'o>);

/// A container's buffer, with the count its opener declared, which is
/// written first and must match the items or entries written after it.
#[derive(Debug)]
struct Counted<'o> {
    out: &'o mut Vec<u8>,
    declared: usize,
    written: usize,
}

impl<'o> Counted<'o> {
    #[inline]
    fn next(&mut self) -> &mut Vec<u8> {
        self.written += 1;
        self.out
    }

    /// The declared count is already in the buffer, so a container that
    /// was written another number of elements would leave bytes no
    /// decoder reads back.
    #[inline]
    fn close(self) -> Result<()> {
        if self.written == self.declared {
            return Ok(());
        }
        Err(WireError::Invalid {
            type_name: "binary value",
            message: format!(
                "a container declared {} elements and was written {}",
                self.declared, self.written
            ),
        })
    }
}

#[inline]
fn encode_len(len: usize, what: &'static str, out: &mut Vec<u8>) -> Result<()> {
    let len = u32::try_from(len).map_err(|_| WireError::Invalid {
        type_name: "binary value",
        message: format!("{what} of {len} elements exceeds the u32 length prefix"),
    })?;
    out.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

#[inline]
fn encode_str(s: &str, out: &mut Vec<u8>) -> Result<()> {
    encode_len(s.len(), "string", out)?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

impl<'o> BinarySink<'o> {
    #[inline]
    fn container(self, tag: u8, len: usize, what: &'static str) -> Result<Counted<'o>> {
        self.out.push(tag);
        encode_len(len, what, self.out)?;
        Ok(Counted {
            out: self.out,
            declared: len,
            written: 0,
        })
    }
}

impl<'o> Sink for BinarySink<'o> {
    type Array = BinaryArray<'o>;
    type Object = BinaryObject<'o>;

    #[inline]
    fn null(self) -> Result<()> {
        self.out.push(TAG_NULL);
        Ok(())
    }

    #[inline]
    fn bool(self, value: bool) -> Result<()> {
        self.out.push(if value { TAG_TRUE } else { TAG_FALSE });
        Ok(())
    }

    #[inline]
    fn number(self, value: Number) -> Result<()> {
        let (tag, bits) = match value {
            Number::Unsigned(u) => (TAG_U64, u),
            Number::Signed(s) => (TAG_I64, s as u64),
            Number::Float(f) if f.is_finite() => (TAG_F64, f.to_bits()),
            Number::Float(_) => {
                return Err(WireError::NonFinite {
                    type_name: "binary value",
                })
            }
        };
        self.out.push(tag);
        self.out.extend_from_slice(&bits.to_le_bytes());
        Ok(())
    }

    #[inline]
    fn str(self, value: &str) -> Result<()> {
        self.out.push(TAG_STRING);
        encode_str(value, self.out)
    }

    #[inline]
    fn array(self, len: usize) -> Result<BinaryArray<'o>> {
        self.container(TAG_ARRAY, len, "array").map(BinaryArray)
    }

    #[inline]
    fn object(self, len: usize) -> Result<BinaryObject<'o>> {
        self.container(TAG_OBJECT, len, "object").map(BinaryObject)
    }
}

impl ArraySink for BinaryArray<'_> {
    type Item<'s>
        = BinarySink<'s>
    where
        Self: 's;

    #[inline]
    fn item(&mut self) -> BinarySink<'_> {
        BinarySink::new(self.0.next())
    }

    #[inline]
    fn end(self) -> Result<()> {
        self.0.close()
    }
}

impl ObjectSink for BinaryObject<'_> {
    type Value<'s>
        = BinarySink<'s>
    where
        Self: 's;

    #[inline]
    fn entry(&mut self, key: &str) -> Result<BinarySink<'_>> {
        let out = self.0.next();
        encode_str(key, out)?;
        Ok(BinarySink::new(out))
    }

    #[inline]
    fn end(self) -> Result<()> {
        self.0.close()
    }
}

/// Decodes one binary value into a tree, consuming the whole input.
///
/// # Errors
///
/// [`WireError::Truncated`], [`WireError::BadTag`], [`WireError::Invalid`]
/// (trailing bytes, invalid UTF-8, a duplicate object key),
/// [`WireError::NonFinite`] or [`WireError::TooDeep`] (arrays and objects
/// nested deeper than [`crate::MAX_NESTING_DEPTH`]): the first defect in
/// the bytes.
pub fn decode_value(bytes: &[u8]) -> Result<JsonValue> {
    walk(bytes, &mut Tree)
}

/// One value's scalar, as the walk read and checked it.
enum Scalar<'a> {
    Null,
    Bool(bool),
    Number(Number),
    Str(&'a str),
}

/// What the walk makes of the values it checks. Arrays and objects are
/// opened, filled and closed in document order; `key` is asked once per
/// object key before its value is walked, and refuses a repeated one.
trait Build<'a> {
    type Value;
    type Array;
    type Object;
    type Key;

    fn scalar(&mut self, scalar: Scalar<'a>) -> Self::Value;
    /// Opens an array that holds at most `capacity` items.
    fn array(&mut self, capacity: usize) -> Self::Array;
    fn item(&mut self, array: &mut Self::Array, item: Self::Value);
    /// Closes an array whose bytes end at `end`.
    fn end_array(&mut self, array: Self::Array, end: usize) -> Self::Value;
    /// Opens an object that holds at most `capacity` entries, the first at
    /// byte `first`.
    fn object(&mut self, capacity: usize, first: usize) -> Self::Object;
    /// The object's next key, or `None` if it repeats an earlier one.
    fn key(&mut self, object: &mut Self::Object, key: &'a str) -> Option<Self::Key>;
    fn entry(&mut self, object: &mut Self::Object, key: Self::Key, value: Self::Value);
    /// Closes an object whose bytes end at `end`.
    fn end_object(&mut self, object: Self::Object, end: usize) -> Self::Value;
}

/// Walks the one value `bytes` must hold, checking every byte of it.
fn walk<'a, B: Build<'a>>(bytes: &'a [u8], build: &mut B) -> Result<B::Value> {
    let mut reader = Reader { bytes, pos: 0 };
    let value = reader.value(build, 0)?;
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

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
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

    fn eight(&mut self, context: &'static str) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8, context)?.try_into().expect("8 bytes"),
        ))
    }

    /// The text of a string body, borrowed from the input.
    fn str(&mut self) -> Result<&'a str> {
        let len = self.u32_len("string length")?;
        let raw = self.take(len, "string bytes")?;
        std::str::from_utf8(raw).map_err(|e| WireError::Invalid {
            type_name: "binary value",
            message: format!("string is not valid UTF-8: {e}"),
        })
    }

    /// Walks one value inside `depth` enclosing arrays and objects.
    fn value<B: Build<'a>>(&mut self, build: &mut B, depth: usize) -> Result<B::Value> {
        let tag = self.take(1, "value tag")?[0];
        if matches!(tag, TAG_ARRAY | TAG_OBJECT) && depth == MAX_NESTING_DEPTH {
            return Err(WireError::TooDeep {
                limit: MAX_NESTING_DEPTH,
            });
        }
        let scalar = match tag {
            TAG_NULL => Scalar::Null,
            TAG_FALSE => Scalar::Bool(false),
            TAG_TRUE => Scalar::Bool(true),
            TAG_U64 => Scalar::Number(Number::Unsigned(self.eight("u64 value")?)),
            // Normalise like the JSON parser: non-negative integers always
            // live in the unsigned lane.
            TAG_I64 => Scalar::Number(Number::from_i64(self.eight("i64 value")? as i64)),
            TAG_F64 => {
                let f = f64::from_bits(self.eight("f64 value")?);
                if !f.is_finite() {
                    return Err(WireError::NonFinite {
                        type_name: "binary value",
                    });
                }
                Scalar::Number(Number::Float(f))
            }
            TAG_STRING => Scalar::Str(self.str()?),
            TAG_ARRAY => {
                let count = self.u32_len("array length")?;
                // An item is at least its tag byte.
                let mut array = build.array(self.capacity(count, 1));
                for _ in 0..count {
                    let item = self.value(build, depth + 1)?;
                    build.item(&mut array, item);
                }
                return Ok(build.end_array(array, self.pos));
            }
            TAG_OBJECT => {
                let count = self.u32_len("object length")?;
                // An entry is at least a key's length prefix and a tag byte.
                let mut object = build.object(self.capacity(count, 5), self.pos);
                for _ in 0..count {
                    let key = self.str()?;
                    let Some(key) = build.key(&mut object, key) else {
                        return Err(WireError::Invalid {
                            type_name: "binary value",
                            message: format!("duplicate object key `{key}`"),
                        });
                    };
                    let value = self.value(build, depth + 1)?;
                    build.entry(&mut object, key, value);
                }
                return Ok(build.end_object(object, self.pos));
            }
            tag => return Err(WireError::BadTag { tag }),
        };
        Ok(build.scalar(scalar))
    }
}

/// The walk that builds the tree [`decode_value`] returns: each container
/// reserved once from its declared count.
struct Tree;

impl<'a> Build<'a> for Tree {
    type Value = JsonValue;
    type Array = Vec<JsonValue>;
    type Object = (Vec<(WireStr, JsonValue)>, SeenKeys);
    type Key = WireStr;

    fn scalar(&mut self, scalar: Scalar<'a>) -> JsonValue {
        match scalar {
            Scalar::Null => JsonValue::Null,
            Scalar::Bool(b) => JsonValue::Bool(b),
            Scalar::Number(n) => JsonValue::Number(n),
            Scalar::Str(s) => JsonValue::String(WireStr::from(s)),
        }
    }

    fn array(&mut self, capacity: usize) -> Vec<JsonValue> {
        Vec::with_capacity(capacity)
    }

    fn item(&mut self, array: &mut Vec<JsonValue>, item: JsonValue) {
        array.push(item);
    }

    fn end_array(&mut self, array: Vec<JsonValue>, _: usize) -> JsonValue {
        JsonValue::Array(array)
    }

    fn object(&mut self, capacity: usize, _: usize) -> Self::Object {
        (Vec::with_capacity(capacity), SeenKeys::default())
    }

    fn key(&mut self, (entries, seen): &mut Self::Object, key: &'a str) -> Option<WireStr> {
        let key = WireStr::from(key);
        (!seen.repeats(entries, &key)).then_some(key)
    }

    fn entry(&mut self, (entries, _): &mut Self::Object, key: WireStr, value: JsonValue) {
        entries.push((key, value));
    }

    fn end_object(&mut self, (entries, _): Self::Object, _: usize) -> JsonValue {
        JsonValue::Object(entries)
    }
}

/// Where a container's bytes end, and the ordinal of the first container
/// after it and everything it holds. Containers are numbered in the order
/// they open, so a container's first nested container is the next ordinal.
#[derive(Debug, Clone, Copy)]
struct Extent {
    end: usize,
    next: usize,
}

/// The position and the next container ordinal just past the value at
/// `pos`, where `node` is the ordinal of the value if it is a container
/// (else of the next container to open).
#[inline]
fn skip(bytes: &[u8], extents: &[Extent], pos: usize, node: usize) -> (usize, usize) {
    match bytes[pos] {
        TAG_ARRAY | TAG_OBJECT => {
            let extent = extents[node];
            (extent.end, extent.next)
        }
        TAG_STRING => (pos + 5 + u32_at(bytes, pos + 1), node),
        TAG_U64 | TAG_I64 | TAG_F64 => (pos + 9, node),
        _ => (pos + 1, node),
    }
}

/// The `u32` at `at`, as a length.
#[inline]
fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize
}

/// The key of the object entry at `pos`, and where its value starts.
#[inline]
fn key_at(bytes: &[u8], pos: usize) -> (&[u8], usize) {
    let len = u32_at(bytes, pos);
    (&bytes[pos + 4..pos + 4 + len], pos + 4 + len)
}

/// Text the walk has checked.
#[inline]
fn checked_str(raw: &[u8]) -> &str {
    std::str::from_utf8(raw).expect("the walk checked every string")
}

/// The walk that records each container's [`Extent`] for a [`Payload`],
/// allocating nothing but the extents (and a set for an object of
/// [`SCAN_WIDTH`] keys or more). A repeated key is looked for by
/// stepping over the object's earlier entries, whose extents are already
/// recorded, but only when a 64-bit filter of the keys seen so far says it
/// may be one; from [`SCAN_WIDTH`] keys on, the keys move into the set, as
/// [`SeenKeys`] does.
struct Extents<'a> {
    bytes: &'a [u8],
    extents: Vec<Extent>,
}

/// An object the extent walk is in.
struct OpenObject<'a> {
    ordinal: usize,
    /// Where its first entry starts.
    first: usize,
    /// Keys read so far.
    keys: usize,
    /// One bit per key read so far, from [`key_bit`].
    filter: u64,
    set: Option<HashSet<&'a str>>,
}

/// The filter bit of a key: from its length and its first and last bytes,
/// which tell apart nearly every two field names of one object.
fn key_bit(key: &[u8]) -> u64 {
    let (first, last) = match key {
        [] => (0, 0),
        [first, .., last] => (*first, *last),
        [only] => (*only, *only),
    };
    let mix = (key.len() as u32)
        .wrapping_mul(0x9e37_79b9)
        .wrapping_add(u32::from(first).wrapping_mul(0x85eb_ca6b))
        .wrapping_add(u32::from(last).wrapping_mul(0xc2b2_ae35));
    1 << (mix >> 26)
}

impl<'a> Extents<'a> {
    fn open(&mut self) -> usize {
        self.extents.push(Extent { end: 0, next: 0 });
        self.extents.len() - 1
    }

    fn close(&mut self, ordinal: usize, end: usize) {
        self.extents[ordinal] = Extent {
            end,
            next: self.extents.len(),
        };
    }

    /// The keys of `object`'s entries so far, in order.
    fn earlier_keys(&self, object: &OpenObject<'a>) -> impl Iterator<Item = &'a [u8]> + '_ {
        let bytes = self.bytes;
        let mut at = (object.first, object.ordinal + 1);
        (0..object.keys).map(move |_| {
            let (key, value) = key_at(bytes, at.0);
            at = skip(bytes, &self.extents, value, at.1);
            key
        })
    }
}

impl<'a> Build<'a> for Extents<'a> {
    type Value = ();
    type Array = usize;
    type Object = OpenObject<'a>;
    type Key = ();

    fn scalar(&mut self, _: Scalar<'a>) {}

    fn array(&mut self, _: usize) -> usize {
        self.open()
    }

    fn item(&mut self, _: &mut usize, (): ()) {}

    fn end_array(&mut self, ordinal: usize, end: usize) {
        self.close(ordinal, end);
    }

    fn object(&mut self, _: usize, first: usize) -> OpenObject<'a> {
        OpenObject {
            ordinal: self.open(),
            first,
            keys: 0,
            filter: 0,
            set: None,
        }
    }

    fn key(&mut self, object: &mut OpenObject<'a>, key: &'a str) -> Option<()> {
        let repeats = if object.keys < SCAN_WIDTH {
            let bit = key_bit(key.as_bytes());
            let maybe = object.filter & bit != 0;
            object.filter |= bit;
            maybe && self.earlier_keys(object).any(|seen| seen == key.as_bytes())
        } else {
            if object.set.is_none() {
                let set = self.earlier_keys(object).map(checked_str).collect();
                object.set = Some(set);
            }
            !object.set.as_mut().expect("filled above").insert(key)
        };
        object.keys += 1;
        (!repeats).then_some(())
    }

    fn entry(&mut self, _: &mut OpenObject<'a>, (): (), (): ()) {}

    fn end_object(&mut self, object: OpenObject<'a>, end: usize) {
        self.close(object.ordinal, end);
    }
}

/// A binary value that one walk has checked, with where each of its
/// containers ends: what [`Wire::from_binary`] decodes through a
/// [`BinaryView`], building no tree.
///
/// ```
/// use thermsched_wire::{encode_value, obj, Payload, View};
///
/// let bytes = encode_value(&obj().field("name", "p").field("taps", vec![1u64.into()]).build())?;
/// let payload = Payload::new(&bytes)?;
/// let root = payload.root();
/// assert_eq!(root.field_str("probe", "name")?, "p");
/// assert_eq!(root.field("probe", "taps")?.items()?.len(), 1);
/// # Ok::<(), thermsched_wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct Payload<'a> {
    bytes: &'a [u8],
    extents: Vec<Extent>,
    /// Where the last field lookup stopped, so that lookups in wire order
    /// find each key at the first entry they read.
    resume: Cell<Resume>,
}

/// The entry after the one the last field lookup found: its index, where
/// it starts and its container ordinal, in the object at `object`.
#[derive(Debug, Clone, Copy)]
struct Resume {
    object: usize,
    index: usize,
    pos: usize,
    node: usize,
}

impl<'a> Payload<'a> {
    /// Checks `bytes`, which must hold exactly one value.
    ///
    /// # Errors
    ///
    /// As [`decode_value`]: the same error for the same bytes.
    pub fn new(bytes: &'a [u8]) -> Result<Self> {
        // Room for a RESULT payload's five containers, so that a small
        // payload allocates its table once; never more than the bytes can
        // hold, at five (a tag and a count) per container.
        let mut walk_extents = Extents {
            bytes,
            extents: Vec::with_capacity((bytes.len() / 5).min(8)),
        };
        walk(bytes, &mut walk_extents)?;
        Ok(Payload {
            bytes,
            extents: walk_extents.extents,
            resume: Cell::new(Resume {
                object: usize::MAX,
                index: 0,
                pos: 0,
                node: 0,
            }),
        })
    }

    /// The view of the payload's value.
    #[inline]
    pub fn root(&self) -> BinaryView<'_> {
        BinaryView {
            payload: self,
            pos: 0,
            node: 0,
        }
    }
}

/// A view of one value inside a [`Payload`]: reads it in place.
#[derive(Debug, Clone, Copy)]
pub struct BinaryView<'a> {
    payload: &'a Payload<'a>,
    /// Where the value's tag is.
    pos: usize,
    /// The value's container ordinal if it is a container, else the
    /// ordinal of the next container to open.
    node: usize,
}

impl<'a> BinaryView<'a> {
    #[inline]
    fn tag(self) -> u8 {
        self.payload.bytes[self.pos]
    }

    #[inline]
    fn eight(self) -> u64 {
        let at = self.pos + 1;
        u64::from_le_bytes(self.payload.bytes[at..at + 8].try_into().expect("8 bytes"))
    }

    /// The container's count and where its first element starts.
    #[inline]
    fn body(self) -> (usize, usize) {
        (u32_at(self.payload.bytes, self.pos + 1), self.pos + 5)
    }
}

impl<'a> View<'a> for BinaryView<'a> {
    type Items = BinaryItems<'a>;
    type Entries = BinaryEntries<'a>;

    #[inline]
    fn type_name(self) -> &'static str {
        match self.tag() {
            TAG_NULL => "null",
            TAG_FALSE | TAG_TRUE => "bool",
            TAG_U64 | TAG_I64 | TAG_F64 => "number",
            TAG_STRING => "string",
            TAG_ARRAY => "array",
            _ => "object",
        }
    }

    #[inline]
    fn as_bool(self) -> Result<bool> {
        match self.tag() {
            TAG_FALSE => Ok(false),
            TAG_TRUE => Ok(true),
            _ => Err(wrong_type("bool", self.type_name())),
        }
    }

    #[inline]
    fn as_number(self) -> Result<Number> {
        match self.tag() {
            TAG_U64 => Ok(Number::Unsigned(self.eight())),
            TAG_I64 => Ok(Number::from_i64(self.eight() as i64)),
            TAG_F64 => Ok(Number::Float(f64::from_bits(self.eight()))),
            _ => Err(wrong_type("number", self.type_name())),
        }
    }

    #[inline]
    fn as_str(self) -> Result<&'a str> {
        if self.tag() != TAG_STRING {
            return Err(wrong_type("string", self.type_name()));
        }
        let (len, at) = self.body();
        Ok(checked_str(&self.payload.bytes[at..at + len]))
    }

    #[inline]
    fn items(self) -> Result<BinaryItems<'a>> {
        if self.tag() != TAG_ARRAY {
            return Err(wrong_type("array", self.type_name()));
        }
        let (left, pos) = self.body();
        Ok(BinaryItems {
            payload: self.payload,
            pos,
            node: self.node + 1,
            left,
        })
    }

    #[inline]
    fn entries(self) -> Result<BinaryEntries<'a>> {
        if self.tag() != TAG_OBJECT {
            return Err(wrong_type("object", self.type_name()));
        }
        let (left, pos) = self.body();
        Ok(BinaryEntries {
            payload: self.payload,
            pos,
            node: self.node + 1,
            left,
        })
    }

    /// Reads the object's entries once at most, from the one after the
    /// last lookup's find if that was in this object, round to where it
    /// started: keys are unique, so the order read does not change the
    /// entry found.
    #[inline]
    fn find(self, name: &str) -> Result<Option<Self>> {
        let start = self.entries()?;
        let Payload {
            bytes,
            extents,
            resume,
        } = self.payload;
        let last = resume.get();
        let mut at = if last.object == self.pos && last.index < start.left {
            last
        } else {
            Resume {
                object: self.pos,
                index: 0,
                pos: start.pos,
                node: start.node,
            }
        };
        for _ in 0..start.left {
            let (key, value) = key_at(bytes, at.pos);
            let found = key == name.as_bytes();
            let view = BinaryView {
                payload: self.payload,
                pos: value,
                node: at.node,
            };
            (at.pos, at.node) = skip(bytes, extents, value, at.node);
            at.index += 1;
            if found {
                resume.set(at);
                return Ok(Some(view));
            }
            if at.index == start.left {
                (at.index, at.pos, at.node) = (0, start.pos, start.node);
            }
        }
        Ok(None)
    }
}

/// The items of an array in a [`Payload`].
#[derive(Debug, Clone)]
pub struct BinaryItems<'a> {
    payload: &'a Payload<'a>,
    pos: usize,
    node: usize,
    left: usize,
}

impl<'a> Iterator for BinaryItems<'a> {
    type Item = BinaryView<'a>;

    #[inline]
    fn next(&mut self) -> Option<BinaryView<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let item = BinaryView {
            payload: self.payload,
            pos: self.pos,
            node: self.node,
        };
        (self.pos, self.node) = skip(
            self.payload.bytes,
            &self.payload.extents,
            self.pos,
            self.node,
        );
        Some(item)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for BinaryItems<'_> {}

/// The entries of an object in a [`Payload`].
#[derive(Debug, Clone)]
pub struct BinaryEntries<'a> {
    payload: &'a Payload<'a>,
    pos: usize,
    node: usize,
    left: usize,
}

impl<'a> Iterator for BinaryEntries<'a> {
    type Item = (&'a str, BinaryView<'a>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let bytes = self.payload.bytes;
        let (key, at) = key_at(bytes, self.pos);
        let value = BinaryView {
            payload: self.payload,
            pos: at,
            node: self.node,
        };
        (self.pos, self.node) = skip(bytes, &self.payload.extents, at, self.node);
        Some((checked_str(key), value))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for BinaryEntries<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn roundtrip(value: &JsonValue) {
        let bytes = encode_value(value).unwrap();
        assert_eq!(&decode_value(&bytes).unwrap(), value);
        // The view reads the same value in place.
        let payload = Payload::new(&bytes).unwrap();
        assert_eq!(&JsonValue::read(payload.root()).unwrap(), value);
    }

    /// `decode_value` on `bytes`, whose error the payload walk must
    /// report too.
    fn decoded(bytes: &[u8]) -> Result<JsonValue> {
        let tree = decode_value(bytes);
        assert_eq!(Payload::new(bytes).err(), tree.as_ref().err().cloned());
        tree
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
    fn an_array_written_item_by_item_matches_encoding_the_collected_array() {
        let items = [
            obj()
                .field("index", 3usize)
                .field("nested", vec![JsonValue::from(1.25), JsonValue::Null])
                .build(),
            JsonValue::from("text"),
            JsonValue::Array(vec![]),
        ];
        let streamed = |items: &[JsonValue]| {
            let mut out = Vec::new();
            let mut array = BinarySink::new(&mut out).array(items.len())?;
            for item in items {
                item.write(array.item())?;
            }
            array.end()?;
            Ok::<_, WireError>(out)
        };
        for n in 0..=items.len() {
            assert_eq!(
                streamed(&items[..n]).unwrap(),
                encode_value(&JsonValue::Array(items[..n].to_vec())).unwrap()
            );
        }
        assert!(matches!(
            streamed(&[JsonValue::Null, JsonValue::from(f64::NAN)]),
            Err(WireError::NonFinite { .. })
        ));
    }

    #[test]
    fn a_container_closed_off_its_declared_count_is_refused() {
        let mut out = Vec::new();
        let mut array = BinarySink::new(&mut out).array(2).unwrap();
        array.item().null().unwrap();
        assert!(matches!(array.end(), Err(WireError::Invalid { .. })));
        let mut out = Vec::new();
        let mut object = BinarySink::new(&mut out).object(0).unwrap();
        object.entry("extra").unwrap().null().unwrap();
        assert!(matches!(object.end(), Err(WireError::Invalid { .. })));
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
        assert!(matches!(decoded(&[]), Err(WireError::Truncated { .. })));
        assert!(matches!(
            decoded(&[0xff]),
            Err(WireError::BadTag { tag: 0xff })
        ));
        // Truncated u64 body.
        assert!(matches!(
            decoded(&[TAG_U64, 1, 2, 3]),
            Err(WireError::Truncated { .. })
        ));
        // String length runs past the input.
        assert!(matches!(
            decoded(&[TAG_STRING, 0xff, 0xff, 0xff, 0xff]),
            Err(WireError::Truncated { .. })
        ));
        // Invalid UTF-8 in a string body.
        assert!(matches!(
            decoded(&[TAG_STRING, 1, 0, 0, 0, 0xff]),
            Err(WireError::Invalid { .. })
        ));
        // Array count larger than the remaining bytes.
        assert!(matches!(
            decoded(&[TAG_ARRAY, 2, 0, 0, 0, TAG_NULL]),
            Err(WireError::Truncated { .. })
        ));
        // Trailing garbage after a complete value.
        assert!(matches!(
            decoded(&[TAG_NULL, TAG_NULL]),
            Err(WireError::Invalid { .. })
        ));
        // A key twice in one object, which the JSON parser refuses too.
        assert_eq!(
            decoded(&[
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
            let deepest = decoded(&nested(MAX_NESTING_DEPTH, tag)).unwrap();
            assert_eq!(
                encode_value(&deepest).unwrap(),
                nested(MAX_NESTING_DEPTH, tag)
            );
            for levels in [MAX_NESTING_DEPTH + 1, 200_000] {
                assert_eq!(decoded(&nested(levels, tag)), too_deep);
            }
        }
    }

    #[test]
    fn signed_lane_normalises_on_decode() {
        let mut bytes = vec![TAG_I64];
        bytes.extend_from_slice(&7i64.to_le_bytes());
        assert_eq!(decode_value(&bytes).unwrap(), JsonValue::from(7u64));
        let payload = Payload::new(&bytes).unwrap();
        assert_eq!(payload.root().as_number().unwrap(), Number::Unsigned(7));
    }
}
