//! [`View`]: what a decoder reads — one value of a [`JsonValue`] tree or of
//! a validated binary payload ([`crate::Payload`]).

use crate::json::{JsonValue, Number};
use crate::{Result, Wire, WireError, WireStr};

/// A borrowed view of one wire value, which every [`Wire::read`] decodes
/// from: a node of a [`JsonValue`] tree (`&JsonValue`) or a value inside
/// a binary payload that one walk has already checked
/// ([`crate::BinaryView`]).
///
/// Both views answer alike: the same accessor on the same value returns
/// the same `Ok` or the same [`WireError`], so a decoder written once
/// behaves the same over either. A binary view never fails structurally —
/// its payload's defects were reported before any decoder ran.
pub trait View<'a>: Copy {
    /// The items of an array, in order.
    type Items: ExactSizeIterator<Item = Self>;
    /// The `(key, value)` entries of an object, in order.
    type Entries: ExactSizeIterator<Item = (&'a str, Self)>;

    /// The JSON type of the value (`"null"`, `"bool"`, `"number"`,
    /// `"string"`, `"array"` or `"object"`), for error messages.
    fn type_name(self) -> &'static str;

    /// The value as a bool.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for any other JSON type.
    fn as_bool(self) -> Result<bool>;

    /// The value as a number, in the lane it was written in.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for any other JSON type.
    fn as_number(self) -> Result<Number>;

    /// The value as a string slice.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for any other JSON type.
    fn as_str(self) -> Result<&'a str>;

    /// The items of an array.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for any other JSON type.
    fn items(self) -> Result<Self::Items>;

    /// The entries of an object.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for any other JSON type.
    fn entries(self) -> Result<Self::Entries>;

    /// The value of the object's field `name`, if it has one.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] if the value is not an object.
    fn find(self, name: &str) -> Result<Option<Self>>;

    /// Whether the value is `null`.
    #[inline]
    fn is_null(self) -> bool {
        self.type_name() == "null"
    }

    /// The value as an `f64`. Integer tokens are accepted, converted with
    /// `as` (see [`JsonValue::as_f64`]).
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for non-numbers.
    #[inline]
    fn as_f64(self) -> Result<f64> {
        self.as_number().map(Number::as_f64)
    }

    /// The value as a `u64`: integer tokens only.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for floats, negatives and non-numbers.
    #[inline]
    fn as_u64(self) -> Result<u64> {
        match self.as_number() {
            Ok(Number::Unsigned(u)) => Ok(u),
            _ => Err(wrong_type("unsigned integer", self.type_name())),
        }
    }

    /// The value as an `i64`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] for floats, out-of-range magnitudes and
    /// non-numbers.
    #[inline]
    fn as_i64(self) -> Result<i64> {
        match self.as_number() {
            Ok(Number::Signed(s)) => Ok(s),
            Ok(Number::Unsigned(u)) => {
                i64::try_from(u).map_err(|_| wrong_type("signed integer", "number"))
            }
            _ => Err(wrong_type("signed integer", self.type_name())),
        }
    }

    /// The value as a `usize`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] as for [`View::as_u64`].
    #[inline]
    fn as_usize(self) -> Result<usize> {
        usize::try_from(self.as_u64()?).map_err(|_| wrong_type("usize", "number"))
    }

    /// The value as a `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] as for [`View::as_u64`].
    #[inline]
    fn as_u32(self) -> Result<u32> {
        u32::try_from(self.as_u64()?).map_err(|_| wrong_type("u32", "number"))
    }

    /// The value of an optional field: `None` when the object lacks it.
    /// Unlike [`View::find`], a value that is not an object has no fields.
    #[inline]
    fn get(self, name: &str) -> Option<Self> {
        self.find(name).ok().flatten()
    }

    /// A required field of an object.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongType`] if the value is not an object,
    /// [`WireError::MissingField`] if the field is absent.
    #[inline]
    fn field(self, type_name: &'static str, name: &'static str) -> Result<Self> {
        self.find(name)?.ok_or(WireError::MissingField {
            type_name,
            field: name,
        })
    }

    /// A required string field.
    ///
    /// # Errors
    ///
    /// As [`View::field`] plus [`WireError::WrongType`].
    #[inline]
    fn field_str(self, type_name: &'static str, name: &'static str) -> Result<&'a str> {
        self.field(type_name, name)?.as_str()
    }

    /// A required field decoded as `T` — how declared and hand-written
    /// codecs read their fields.
    ///
    /// # Errors
    ///
    /// As [`View::field`], plus whatever `T::read` reports.
    #[inline]
    fn decode<T: Wire>(self, type_name: &'static str, name: &'static str) -> Result<T> {
        T::read(self.field(type_name, name)?)
    }
}

#[inline]
pub(crate) fn wrong_type(expected: &'static str, found: &'static str) -> WireError {
    WireError::WrongType { expected, found }
}

/// The entries of a tree object as `(&str, &JsonValue)` pairs.
pub type TreeEntries<'a> = std::iter::Map<
    std::slice::Iter<'a, (WireStr, JsonValue)>,
    fn(&'a (WireStr, JsonValue)) -> (&'a str, &'a JsonValue),
>;

impl<'a> View<'a> for &'a JsonValue {
    type Items = std::slice::Iter<'a, JsonValue>;
    type Entries = TreeEntries<'a>;

    #[inline]
    fn type_name(self) -> &'static str {
        JsonValue::type_name(self)
    }

    #[inline]
    fn as_bool(self) -> Result<bool> {
        JsonValue::as_bool(self)
    }

    #[inline]
    fn as_number(self) -> Result<Number> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            other => Err(wrong_type("number", other.type_name())),
        }
    }

    #[inline]
    fn as_str(self) -> Result<&'a str> {
        JsonValue::as_str(self)
    }

    #[inline]
    fn items(self) -> Result<Self::Items> {
        Ok(self.as_array()?.iter())
    }

    #[inline]
    fn entries(self) -> Result<Self::Entries> {
        let entry: fn(&'a (WireStr, JsonValue)) -> (&'a str, &'a JsonValue) =
            |(key, value)| (key.as_str(), value);
        Ok(JsonValue::entries(self)?.iter().map(entry))
    }

    #[inline]
    fn find(self, name: &str) -> Result<Option<Self>> {
        Ok(JsonValue::entries(self)?
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value))
    }
}
