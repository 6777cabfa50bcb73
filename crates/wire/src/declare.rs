//! The field codecs and the declaration macros (see the crate docs).
//!
//! A declared decoder reads the fields in the listed order and stops at the
//! first defect, as a hand-written one does: a missing field is
//! [`WireError::MissingField`](crate::WireError::MissingField) with the
//! declared type tag and the field name, an unknown label is
//! [`WireError::UnknownVariant`](crate::WireError::UnknownVariant) with the
//! type tag, and a wrong-typed value is whatever the field's own codec
//! reports.

use std::collections::BTreeSet;

use crate::{JsonValue, Number, ObjectSink, Result, Sink, View, Wire, WireStr};

macro_rules! leaf_wire {
    ($($ty:ty = $name:literal, $read:ident, |$sink:ident, $v:ident| $write:expr;)+) => {$(
        impl Wire for $ty {
            const WIRE_TYPE: &'static str = $name;

            fn write<S: Sink>(&self, $sink: S) -> Result<()> {
                let $v = *self;
                $write
            }

            fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
                value.$read()
            }
        }
    )+};
}

leaf_wire! {
    f64 = "f64", as_f64, |sink, v| sink.number(Number::Float(v));
    u64 = "u64", as_u64, |sink, v| sink.number(Number::Unsigned(v));
    u32 = "u32", as_u32, |sink, v| sink.number(Number::Unsigned(u64::from(v)));
    usize = "usize", as_usize, |sink, v| sink.number(Number::Unsigned(v as u64));
    bool = "bool", as_bool, |sink, v| sink.bool(v);
}

impl Wire for String {
    const WIRE_TYPE: &'static str = "string";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        sink.str(self)
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        value.as_str().map(str::to_owned)
    }
}

/// Decodes into a vector allocated once at the array's length; collecting
/// through `Result` would grow it by doubling.
impl<T: Wire> Wire for Vec<T> {
    const WIRE_TYPE: &'static str = "array";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        sink.items(self.iter())
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        let items = value.items()?;
        let mut decoded = Vec::with_capacity(items.len());
        for item in items {
            decoded.push(T::read(item)?);
        }
        Ok(decoded)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    const WIRE_TYPE: &'static str = "set";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        sink.items(self.iter())
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        value.items()?.map(T::read).collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    const WIRE_TYPE: &'static str = "option";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        match self {
            Some(value) => value.write(sink),
            None => sink.null(),
        }
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        if value.is_null() {
            Ok(None)
        } else {
            T::read(value).map(Some)
        }
    }
}

/// A tree crosses as itself: written value by value into a sink, and
/// built from a view. [`crate::encode_value`] is its binary encoder.
impl Wire for JsonValue {
    const WIRE_TYPE: &'static str = "value";

    fn write<S: Sink>(&self, sink: S) -> Result<()> {
        match self {
            JsonValue::Null => sink.null(),
            JsonValue::Bool(b) => sink.bool(*b),
            JsonValue::Number(n) => sink.number(*n),
            JsonValue::String(s) => sink.str(s),
            JsonValue::Array(items) => sink.items(items.iter()),
            JsonValue::Object(entries) => {
                let mut object = sink.object(entries.len())?;
                for (key, value) in entries {
                    value.write(object.entry(key)?)?;
                }
                object.end()
            }
        }
    }

    fn read<'a, V: View<'a>>(value: V) -> Result<Self> {
        Ok(match value.type_name() {
            "null" => JsonValue::Null,
            "bool" => JsonValue::Bool(value.as_bool()?),
            "number" => JsonValue::Number(value.as_number()?),
            "string" => JsonValue::String(WireStr::from(value.as_str()?)),
            "array" => JsonValue::Array(Wire::read(value)?),
            _ => {
                let entries = value.entries()?;
                let mut tree = Vec::with_capacity(entries.len());
                for (key, value) in entries {
                    tree.push((WireStr::from(key), JsonValue::read(value)?));
                }
                JsonValue::Object(tree)
            }
        })
    }
}

/// Declares [`Wire`](crate::Wire) for structs whose wire form is an object
/// of their fields, in the listed order, each field named as in Rust.
///
/// Every field is listed (the generated decoder is a struct literal, so a
/// missing one does not compile) and needs a `Wire` impl of its own. An
/// optional `validate` expression is called with the decoded value; an
/// `Err(e)` becomes [`WireError::Invalid`](crate::WireError::Invalid) with
/// the declared tag and `e.to_string()`.
///
/// ```
/// use thermsched_wire::{wire_struct, Wire, WireError};
///
/// #[derive(Debug, PartialEq)]
/// struct Probe {
///     name: String,
///     gain: f64,
///     taps: Vec<u32>,
/// }
///
/// wire_struct! {
///     "probe" => Probe { name, gain, taps }
///         validate |p: &Probe| if p.gain >= 0.0 { Ok(()) } else { Err("negative gain") };
/// }
///
/// let probe = Probe { name: "p".into(), gain: 0.5, taps: vec![1, 2] };
/// assert_eq!(probe.to_wire().render_compact()?, r#"{"name":"p","gain":0.5,"taps":[1,2]}"#);
/// assert_eq!(Probe::from_json(&probe.to_json()?)?, probe);
/// assert!(matches!(
///     Probe::from_json(r#"{"name": "p", "taps": []}"#),
///     Err(WireError::MissingField { type_name: "probe", field: "gain" })
/// ));
/// assert!(matches!(
///     Probe::from_json(r#"{"name": "p", "gain": -1.0, "taps": []}"#),
///     Err(WireError::Invalid { type_name: "probe", .. })
/// ));
/// # Ok::<(), WireError>(())
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($($name:literal => $ty:ident { $($field:ident),+ $(,)? } $(validate $validate:expr)?;)+) => {$(
        impl $crate::Wire for $ty {
            const WIRE_TYPE: &'static str = $name;

            fn write<S: $crate::Sink>(&self, sink: S) -> $crate::Result<()> {
                let mut object = $crate::Sink::object(sink, <[&str]>::len(&[$(stringify!($field)),+]))?;
                $($crate::ObjectSink::field(&mut object, stringify!($field), &self.$field)?;)+
                $crate::ObjectSink::end(object)
            }

            fn read<'a, V: $crate::View<'a>>(value: V) -> $crate::Result<Self> {
                let decoded = $ty {
                    $($field: $crate::View::decode(value, $name, stringify!($field))?,)+
                };
                $(($validate)(&decoded).map_err($crate::WireError::invalid($name))?;)?
                Ok(decoded)
            }
        }
    )+};
}

/// Declares [`Wire`](crate::Wire) for fieldless enums encoded as one
/// string per variant.
///
/// ```
/// use thermsched_wire::{wire_unit_enum, JsonValue, Wire, WireError};
///
/// #[derive(Debug, PartialEq)]
/// enum Speed {
///     Slow,
///     Fast,
/// }
///
/// wire_unit_enum! {
///     "speed" => Speed { "slow" => Slow, "fast" => Fast }
/// }
///
/// assert_eq!(Speed::Fast.to_wire(), JsonValue::from("fast"));
/// assert_eq!(Speed::from_wire(&JsonValue::from("slow"))?, Speed::Slow);
/// assert!(matches!(
///     Speed::from_wire(&JsonValue::from("warp")),
///     Err(WireError::UnknownVariant { type_name: "speed", .. })
/// ));
/// # Ok::<(), WireError>(())
/// ```
#[macro_export]
macro_rules! wire_unit_enum {
    ($($name:literal => $ty:ident { $($label:literal => $variant:ident),+ $(,)? })+) => {$(
        impl $crate::Wire for $ty {
            const WIRE_TYPE: &'static str = $name;

            fn write<S: $crate::Sink>(&self, sink: S) -> $crate::Result<()> {
                $crate::Sink::str(sink, match self {
                    $(Self::$variant => $label,)+
                })
            }

            fn read<'a, V: $crate::View<'a>>(value: V) -> $crate::Result<Self> {
                match $crate::View::as_str(value)? {
                    $($label => Ok(Self::$variant),)+
                    other => Err($crate::WireError::UnknownVariant {
                        type_name: $name,
                        variant: other.to_owned(),
                    }),
                }
            }
        }
    )+};
}

/// Declares [`Wire`](crate::Wire) for enums encoded as `{"kind": label,
/// fields...}`.
///
/// A variant is listed as `label => Variant` (no fields), `label =>
/// Variant { a, b }` (its named fields, in wire order) or `label =>
/// Variant(name)` (one unnamed field, written under `name`).
///
/// ```
/// use thermsched_wire::{wire_tagged_enum, Wire, WireError};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Square { side: f64 },
///     Label(String),
/// }
///
/// wire_tagged_enum! {
///     "shape" => Shape {
///         "dot" => Dot,
///         "square" => Square { side },
///         "label" => Label(text),
///     }
/// }
///
/// let label = Shape::Label("x".into());
/// assert_eq!(label.to_wire().render_compact()?, r#"{"kind":"label","text":"x"}"#);
/// assert_eq!(Shape::from_json(r#"{"kind": "square", "side": 2.0}"#)?, Shape::Square { side: 2.0 });
/// assert!(matches!(
///     Shape::from_json(r#"{"kind": "circle"}"#),
///     Err(WireError::UnknownVariant { type_name: "shape", .. })
/// ));
/// # Ok::<(), WireError>(())
/// ```
#[macro_export]
macro_rules! wire_tagged_enum {
    ($($name:literal => $ty:ident {
        $($label:literal => $variant:ident $({ $($field:ident),* $(,)? })? $(($inner:ident))?),+ $(,)?
    })+) => {$(
        impl $crate::Wire for $ty {
            const WIRE_TYPE: &'static str = $name;

            fn write<S: $crate::Sink>(&self, sink: S) -> $crate::Result<()> {
                match self {
                    $(Self::$variant $({ $($field),* })? $(($inner))? => {
                        let len = <[&str]>::len(&[
                            "kind" $($(, stringify!($field))*)? $(, stringify!($inner))?
                        ]);
                        let mut object = $crate::Sink::object(sink, len)?;
                        $crate::Sink::str($crate::ObjectSink::entry(&mut object, "kind")?, $label)?;
                        $($($crate::ObjectSink::field(&mut object, stringify!($field), $field)?;)*)?
                        $($crate::ObjectSink::field(&mut object, stringify!($inner), $inner)?;)?
                        $crate::ObjectSink::end(object)
                    })+
                }
            }

            fn read<'a, V: $crate::View<'a>>(value: V) -> $crate::Result<Self> {
                match $crate::View::field_str(value, $name, "kind")? {
                    $($label => Ok(Self::$variant
                        $({ $($field: $crate::View::decode(value, $name, stringify!($field))?),* })?
                        $(($crate::View::decode(value, $name, stringify!($inner))?))?),)+
                    other => Err($crate::WireError::UnknownVariant {
                        type_name: $name,
                        variant: other.to_owned(),
                    }),
                }
            }
        }
    )+};
}
