//! [`Sink`]: what an encoder writes into — a [`JsonValue`] tree
//! ([`TreeSink`]) or binary bytes ([`crate::BinarySink`]).
//!
//! An encoder writes one value into the sink it is handed. A container is
//! opened with its length, each item or entry is written into the sink its
//! [`ArraySink::item`] or [`ObjectSink::entry`] hands out, and
//! [`ArraySink::end`] or [`ObjectSink::end`] closes it. The child sinks
//! borrow their container, so the nesting lives on the call stack: the
//! tree sink allocates each container once at the length it was opened
//! with, and the binary sink appends to one buffer.

use crate::json::{JsonValue, Number};
use crate::{Result, Wire, WireStr};

/// Where an encoder writes one value.
///
/// Every method consumes the sink: a sink takes exactly one value.
pub trait Sink: Sized {
    /// An array being written.
    type Array: ArraySink;
    /// An object being written.
    type Object: ObjectSink;

    /// Writes `null`.
    ///
    /// # Errors
    ///
    /// None from the tree sink; the binary sink's errors are listed on
    /// [`crate::BinarySink`].
    fn null(self) -> Result<()>;

    /// Writes a bool.
    ///
    /// # Errors
    ///
    /// As [`Sink::null`].
    fn bool(self, value: bool) -> Result<()>;

    /// Writes a number in its lane.
    ///
    /// # Errors
    ///
    /// As [`Sink::null`].
    fn number(self, value: Number) -> Result<()>;

    /// Writes a string.
    ///
    /// # Errors
    ///
    /// As [`Sink::null`].
    fn str(self, value: &str) -> Result<()>;

    /// Opens an array of `len` items.
    ///
    /// # Errors
    ///
    /// As [`Sink::null`].
    fn array(self, len: usize) -> Result<Self::Array>;

    /// Opens an object of `len` entries.
    ///
    /// # Errors
    ///
    /// As [`Sink::null`].
    fn object(self, len: usize) -> Result<Self::Object>;

    /// Writes the items as an array.
    ///
    /// # Errors
    ///
    /// As [`Sink::null`].
    #[inline]
    fn items<'i, T: Wire + 'i>(self, items: impl ExactSizeIterator<Item = &'i T>) -> Result<()> {
        let mut array = self.array(items.len())?;
        for item in items {
            item.write(array.item())?;
        }
        array.end()
    }
}

/// An array being written: one [`ArraySink::item`] per item, then
/// [`ArraySink::end`].
pub trait ArraySink: Sized {
    /// The sink of one item.
    type Item<'s>: Sink
    where
        Self: 's;

    /// The sink the next item is written into.
    fn item(&mut self) -> Self::Item<'_>;

    /// Closes the array.
    ///
    /// # Errors
    ///
    /// As [`Sink::null`].
    fn end(self) -> Result<()>;
}

/// An object being written: one [`ObjectSink::entry`] (or
/// [`ObjectSink::field`]) per entry, then [`ObjectSink::end`].
pub trait ObjectSink: Sized {
    /// The sink of one entry's value.
    type Value<'s>: Sink
    where
        Self: 's;

    /// Writes the entry's key; its value is written into the sink returned.
    ///
    /// # Errors
    ///
    /// As [`Sink::null`].
    fn entry(&mut self, key: &str) -> Result<Self::Value<'_>>;

    /// Closes the object.
    ///
    /// # Errors
    ///
    /// As [`Sink::null`].
    fn end(self) -> Result<()>;

    /// Writes the entry `key: value`.
    ///
    /// # Errors
    ///
    /// As [`Sink::null`].
    #[inline]
    fn field<T: Wire>(&mut self, key: &str, value: &T) -> Result<()> {
        value.write(self.entry(key)?)
    }
}

/// Where a [`TreeSink`] puts its value.
#[derive(Debug)]
enum Slot<'p> {
    /// The root of the tree.
    Root(&'p mut Option<JsonValue>),
    /// The next item of an array.
    Item(&'p mut Vec<JsonValue>),
    /// The value of an object entry whose key is written.
    Entry(&'p mut Vec<(WireStr, JsonValue)>, WireStr),
}

impl Slot<'_> {
    #[inline]
    fn put(self, value: JsonValue) -> Result<()> {
        match self {
            Slot::Root(root) => *root = Some(value),
            Slot::Item(items) => items.push(value),
            Slot::Entry(entries, key) => entries.push((key, value)),
        }
        Ok(())
    }
}

/// The sink that builds a [`JsonValue`] tree: what [`Wire::to_wire`]
/// writes into. It never fails; non-finite floats are caught when the
/// tree is rendered or encoded. Each array and object is allocated once,
/// at the length it is opened with.
///
/// ```
/// use thermsched_wire::{ObjectSink, Sink, TreeSink};
///
/// let mut tree = None;
/// let mut object = TreeSink::new(&mut tree).object(2)?;
/// object.entry("name")?.str("probe")?;
/// object.field("gain", &0.5)?;
/// object.end()?;
/// assert_eq!(tree.unwrap().render_compact()?, r#"{"name":"probe","gain":0.5}"#);
/// # Ok::<(), thermsched_wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct TreeSink<'p>(Slot<'p>);

impl<'p> TreeSink<'p> {
    /// A sink that leaves its value in `root`.
    #[inline]
    pub fn new(root: &'p mut Option<JsonValue>) -> Self {
        TreeSink(Slot::Root(root))
    }
}

/// An array of a tree under construction.
#[derive(Debug)]
pub struct TreeArray<'p>(Vec<JsonValue>, Slot<'p>);

/// An object of a tree under construction.
#[derive(Debug)]
pub struct TreeObject<'p>(Vec<(WireStr, JsonValue)>, Slot<'p>);

impl<'p> Sink for TreeSink<'p> {
    type Array = TreeArray<'p>;
    type Object = TreeObject<'p>;

    #[inline]
    fn null(self) -> Result<()> {
        self.0.put(JsonValue::Null)
    }

    #[inline]
    fn bool(self, value: bool) -> Result<()> {
        self.0.put(JsonValue::Bool(value))
    }

    #[inline]
    fn number(self, value: Number) -> Result<()> {
        self.0.put(JsonValue::Number(value))
    }

    #[inline]
    fn str(self, value: &str) -> Result<()> {
        self.0.put(JsonValue::String(WireStr::from(value)))
    }

    #[inline]
    fn array(self, len: usize) -> Result<TreeArray<'p>> {
        Ok(TreeArray(Vec::with_capacity(len), self.0))
    }

    #[inline]
    fn object(self, len: usize) -> Result<TreeObject<'p>> {
        Ok(TreeObject(Vec::with_capacity(len), self.0))
    }
}

impl ArraySink for TreeArray<'_> {
    type Item<'s>
        = TreeSink<'s>
    where
        Self: 's;

    #[inline]
    fn item(&mut self) -> TreeSink<'_> {
        TreeSink(Slot::Item(&mut self.0))
    }

    #[inline]
    fn end(self) -> Result<()> {
        self.1.put(JsonValue::Array(self.0))
    }
}

impl ObjectSink for TreeObject<'_> {
    type Value<'s>
        = TreeSink<'s>
    where
        Self: 's;

    #[inline]
    fn entry(&mut self, key: &str) -> Result<TreeSink<'_>> {
        Ok(TreeSink(Slot::Entry(&mut self.0, WireStr::from(key))))
    }

    #[inline]
    fn end(self) -> Result<()> {
        self.1.put(JsonValue::Object(self.0))
    }
}
