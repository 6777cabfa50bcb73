//! Dependency-free self-describing wire format for the thermsched
//! workspace.
//!
//! One value model, two encodings:
//!
//! * **strict JSON text** — human-readable, canonical (stable field order,
//!   2-space indent), used for reports, corpora on disk and golden files;
//!   it is parsed into and rendered from a [`JsonValue`] tree;
//! * **compact framed binary** — length-prefixed frames of tagged values,
//!   used on the coordinator↔worker pipes; typed values are written into
//!   and read from these bytes directly, without a tree.
//!
//! Each [`Wire`] type states its codec once, against a [`Sink`] and a
//! [`View`]. Its encoder, [`Wire::write`], writes its fields into either
//! sink: a [`TreeSink`] builds a [`JsonValue`] ([`Wire::to_wire`]), a
//! [`BinarySink`] appends binary bytes ([`Wire::to_binary`]). Its decoder,
//! [`Wire::read`], reads its fields from either view: a node of a tree
//! ([`Wire::from_wire`]), or a [`BinaryView`] into a [`Payload`], binary
//! bytes that one walk has checked (every tag, length, UTF-8 string,
//! float, duplicate key and the nesting limit) and whose containers it
//! has located ([`Wire::from_binary`]). The two views answer every
//! accessor alike, so a type decodes to the same value, or fails with the
//! same error, from either encoding. [`decode_value`] and
//! [`encode_value`] are the tree's own binary codec: the same walk
//! building a tree, and a tree written into the binary sink.
//!
//! Object keys and string values in a tree are [`WireStr`]s. Text of up
//! to 22 bytes is stored inline, so the JSON parser, the binary decoder
//! and the tree sink make no allocation for a field name or a short
//! string. An object is one `Vec` of `(WireStr, JsonValue)` entries and an
//! array one `Vec` of values, each allocated once at its final length: the
//! parser moves a finished container off its stack in one block, the
//! binary decoder reserves one from its declared count, capped by the
//! bytes left, and the tree sink from the length the encoder opens it
//! with. The parser reads each number token in one pass (see [`json`]).
//!
//! Domain crates implement the [`Wire`] trait for their public types; this
//! crate deliberately knows nothing about them (it is a leaf with zero
//! dependencies), which is what lets `floorplan`, `soc`, `thermal`, `core`
//! and `service` all depend on it without cycles.
//!
//! A struct that crosses the wire as an object of its fields is declared
//! with [`wire_struct!`] (plus an optional `validate` hook), a fieldless
//! enum with [`wire_unit_enum!`], and a `{"kind": ...}`-tagged enum with
//! [`wire_tagged_enum!`]. The leaf and container impls give every field
//! its codec: `f64`, `u64`, `u32`, `usize`, `bool`, `String`, `Vec<T>`,
//! `BTreeSet<T>`, and `Option<T>` as a required field that is `null` for
//! `None`. Types whose wire form is more than their fields (validating
//! constructors, fields omitted when absent, legacy constant fields)
//! write `read` and `write` by hand, reading each field through
//! [`View::decode`].
//!
//! Finite `f64` values round-trip bit-exactly through *both* encodings:
//! the JSON writer prints shortest-round-trip decimals (see [`json`]) and
//! the binary encoding ships raw bit patterns. NaN and infinities are
//! rejected with [`WireError::NonFinite`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod declare;
mod error;
pub mod json;
mod key;
mod sink;
mod view;

pub mod frame;

pub use binary::{
    decode_value, encode_value, BinaryArray, BinaryEntries, BinaryItems, BinaryObject, BinarySink,
    BinaryView, Payload,
};
pub use error::WireError;
pub use json::{obj, JsonValue, Number, ObjectBuilder};
pub use key::WireStr;
pub use sink::{ArraySink, ObjectSink, Sink, TreeArray, TreeObject, TreeSink};
pub use view::{TreeEntries, View};

/// Shorthand for results carrying a [`WireError`].
pub type Result<T> = std::result::Result<T, WireError>;

/// Name written into every document envelope.
pub const FORMAT_NAME: &str = "thermsched-wire";

/// Version written into every document envelope.
pub const FORMAT_VERSION: u64 = 1;

/// Deepest array/object nesting either decoder accepts. Both decoders
/// recurse once per level, so without a bound a hostile document of a few
/// hundred kilobytes overflows the stack; the documents the workspace writes
/// nest a handful of levels deep.
pub const MAX_NESTING_DEPTH: usize = 128;

/// A type that can cross the wire.
///
/// Implementors state the codec once: [`Wire::write`] writes the value
/// into any [`Sink`] and [`Wire::read`] reads it from any [`View`]. The
/// provided methods run those two over the tree and the binary bytes, and
/// are not overridden. Encoding is infallible by design for the tree —
/// every reachable value of a domain type is encodable, and non-finite
/// floats are caught when rendering or writing binary — while decoding is
/// where all the strict validation lives.
pub trait Wire: Sized {
    /// Tag naming this type inside document envelopes.
    const WIRE_TYPE: &'static str;

    /// Writes `self` into `sink`, one value: the type's one encoder.
    ///
    /// # Errors
    ///
    /// Only what `sink` reports; the tree sink reports nothing.
    fn write<S: Sink>(&self, sink: S) -> Result<()>;

    /// Reads a value of this type from `value`, validating structure and
    /// domain rules: the type's one decoder.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] describing the defect in `value`.
    fn read<'a, V: View<'a>>(value: V) -> Result<Self>;

    /// Encodes `self` into the value model.
    fn to_wire(&self) -> JsonValue {
        let mut tree = None;
        match self.write(TreeSink::new(&mut tree)) {
            Ok(()) => tree.expect("an encoder writes one value"),
            Err(error) => unreachable!("the tree sink refused a value: {error}"),
        }
    }

    /// Decodes a value of this type from the value model.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] describing the defect in `value`.
    fn from_wire(value: &JsonValue) -> Result<Self> {
        Self::read(value)
    }

    /// Renders `self` as canonical pretty JSON (no envelope).
    ///
    /// # Errors
    ///
    /// [`WireError::NonFinite`] if a float field is NaN or infinite.
    fn to_json(&self) -> Result<String> {
        self.to_wire().render_pretty()
    }

    /// Parses JSON text produced by [`Wire::to_json`] (or written by hand).
    ///
    /// # Errors
    ///
    /// [`WireError::Parse`] for grammar defects, any other [`WireError`]
    /// for structural or domain defects.
    fn from_json(text: &str) -> Result<Self> {
        Self::from_wire(&JsonValue::parse(text)?)
    }

    /// Encodes `self` into the compact binary form (no frame header),
    /// writing the bytes directly: the bytes of [`encode_value`] on
    /// [`Wire::to_wire`].
    ///
    /// # Errors
    ///
    /// [`WireError::NonFinite`] if a float field is NaN or infinite.
    fn to_binary(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.write(BinarySink::new(&mut out))?;
        Ok(out)
    }

    /// Decodes binary bytes produced by [`Wire::to_binary`], reading them
    /// in place once one walk has checked them: the result of
    /// [`Wire::from_wire`] on [`decode_value`]'s tree, `Ok` or `Err`.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] describing the defect in `bytes`.
    fn from_binary(bytes: &[u8]) -> Result<Self> {
        Self::read(Payload::new(bytes)?.root())
    }
}

/// Wraps a value in the self-describing document envelope:
///
/// ```json
/// {"format": "thermsched-wire", "version": 1, "type": "...", "body": ...}
/// ```
pub fn to_document<T: Wire>(value: &T) -> JsonValue {
    obj()
        .field("format", FORMAT_NAME)
        .field("version", FORMAT_VERSION)
        .field("type", T::WIRE_TYPE)
        .field("body", value.to_wire())
        .build()
}

/// Unwraps a document envelope, checking format, version and type tag,
/// then decodes the body.
///
/// # Errors
///
/// [`WireError::UnknownVariant`] for a foreign `format`,
/// [`WireError::UnsupportedVersion`], [`WireError::WrongDocumentType`] if
/// the `type` tag is not `T::WIRE_TYPE`, plus any body decode error.
pub fn from_document<T: Wire>(document: &JsonValue) -> Result<T> {
    let format = document.field_str("document", "format")?;
    if format != FORMAT_NAME {
        return Err(WireError::UnknownVariant {
            type_name: "document format",
            variant: format.to_owned(),
        });
    }
    let version: u64 = document.decode("document", "version")?;
    if version != FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let found = document.field_str("document", "type")?;
    if found != T::WIRE_TYPE {
        return Err(WireError::WrongDocumentType {
            expected: T::WIRE_TYPE,
            found: found.to_owned(),
        });
    }
    T::from_wire(document.field("document", "body")?)
}

/// Reads the `type` tag of a document without decoding the body — how the
/// CLI dispatches on whatever file it was handed.
///
/// # Errors
///
/// [`WireError`] if the envelope fields are missing or malformed.
pub fn document_type(document: &JsonValue) -> Result<&str> {
    let format = document.field_str("document", "format")?;
    if format != FORMAT_NAME {
        return Err(WireError::UnknownVariant {
            type_name: "document format",
            variant: format.to_owned(),
        });
    }
    document.field_str("document", "type")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Sample {
        name: String,
        gain: f64,
    }

    wire_struct! {
        "sample" => Sample { name, gain };
    }

    #[test]
    fn trait_roundtrips_both_encodings() {
        let sample = Sample {
            name: "probe".to_owned(),
            gain: 0.1 + 0.2, // a value with an ugly shortest decimal
        };
        let json = sample.to_json().unwrap();
        assert_eq!(Sample::from_json(&json).unwrap(), sample);
        let binary = sample.to_binary().unwrap();
        assert_eq!(Sample::from_binary(&binary).unwrap(), sample);
    }

    #[test]
    fn documents_are_self_describing() {
        let sample = Sample {
            name: "doc".to_owned(),
            gain: 2.5,
        };
        let doc = to_document(&sample);
        assert_eq!(document_type(&doc).unwrap(), "sample");
        assert_eq!(from_document::<Sample>(&doc).unwrap(), sample);
        let text = doc.render_pretty().unwrap();
        assert!(text.starts_with("{\n  \"format\": \"thermsched-wire\",\n  \"version\": 1,"));
        let reparsed = JsonValue::parse(&text).unwrap();
        assert_eq!(from_document::<Sample>(&reparsed).unwrap(), sample);
    }

    #[test]
    fn envelope_defects_are_typed() {
        let sample = Sample {
            name: "x".to_owned(),
            gain: 1.0,
        };
        let mut doc = to_document(&sample);

        // Wrong type tag.
        #[derive(Debug, PartialEq)]
        struct Other;
        impl Wire for Other {
            const WIRE_TYPE: &'static str = "other";
            fn write<S: Sink>(&self, sink: S) -> Result<()> {
                sink.object(0)?.end()
            }
            fn read<'a, V: View<'a>>(_: V) -> Result<Self> {
                Ok(Other)
            }
        }
        assert!(matches!(
            from_document::<Other>(&doc),
            Err(WireError::WrongDocumentType {
                expected: "other",
                ..
            })
        ));

        // Unsupported version.
        if let JsonValue::Object(entries) = &mut doc {
            for (key, value) in entries.iter_mut() {
                if key == "version" {
                    *value = JsonValue::from(99u64);
                }
            }
        }
        assert!(matches!(
            from_document::<Sample>(&doc),
            Err(WireError::UnsupportedVersion { found: 99, .. })
        ));

        // Foreign format name.
        let foreign = obj()
            .field("format", "acme-wire")
            .field("version", 1u64)
            .field("type", "sample")
            .field("body", JsonValue::Object(vec![]))
            .build();
        assert!(matches!(
            from_document::<Sample>(&foreign),
            Err(WireError::UnknownVariant { .. })
        ));
        assert!(document_type(&foreign).is_err());

        // Not an envelope at all.
        assert!(matches!(
            from_document::<Sample>(&JsonValue::Null),
            Err(WireError::WrongType { .. })
        ));
    }
}
