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

use crate::{JsonValue, Result, Wire};

macro_rules! leaf_wire {
    ($($ty:ty = $name:literal, $read:ident;)+) => {$(
        impl Wire for $ty {
            const WIRE_TYPE: &'static str = $name;

            fn to_wire(&self) -> JsonValue {
                JsonValue::from(*self)
            }

            fn from_wire(value: &JsonValue) -> Result<Self> {
                value.$read()
            }
        }
    )+};
}

leaf_wire! {
    f64 = "f64", as_f64;
    u64 = "u64", as_u64;
    u32 = "u32", as_u32;
    usize = "usize", as_usize;
    bool = "bool", as_bool;
}

impl Wire for String {
    const WIRE_TYPE: &'static str = "string";

    fn to_wire(&self) -> JsonValue {
        JsonValue::String(self.clone())
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        value.as_str().map(str::to_owned)
    }
}

impl<T: Wire> Wire for Vec<T> {
    const WIRE_TYPE: &'static str = "array";

    fn to_wire(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(Wire::to_wire).collect())
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        value.as_array()?.iter().map(T::from_wire).collect()
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    const WIRE_TYPE: &'static str = "set";

    fn to_wire(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(Wire::to_wire).collect())
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        value.as_array()?.iter().map(T::from_wire).collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    const WIRE_TYPE: &'static str = "option";

    fn to_wire(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, Wire::to_wire)
    }

    fn from_wire(value: &JsonValue) -> Result<Self> {
        match value {
            JsonValue::Null => Ok(None),
            other => T::from_wire(other).map(Some),
        }
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

            fn to_wire(&self) -> $crate::JsonValue {
                $crate::JsonValue::Object(vec![
                    $((stringify!($field).to_owned(), $crate::Wire::to_wire(&self.$field)),)+
                ])
            }

            fn from_wire(value: &$crate::JsonValue) -> $crate::Result<Self> {
                let decoded = $ty {
                    $($field: value.decode($name, stringify!($field))?,)+
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

            fn to_wire(&self) -> $crate::JsonValue {
                $crate::JsonValue::from(match self {
                    $(Self::$variant => $label,)+
                })
            }

            fn from_wire(value: &$crate::JsonValue) -> $crate::Result<Self> {
                match value.as_str()? {
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

            fn to_wire(&self) -> $crate::JsonValue {
                match self {
                    $(Self::$variant $({ $($field),* })? $(($inner))? => $crate::JsonValue::Object(vec![
                        ("kind".to_owned(), $crate::JsonValue::from($label)),
                        $($((stringify!($field).to_owned(), $crate::Wire::to_wire($field)),)*)?
                        $((stringify!($inner).to_owned(), $crate::Wire::to_wire($inner)),)?
                    ]),)+
                }
            }

            fn from_wire(value: &$crate::JsonValue) -> $crate::Result<Self> {
                match value.field_str($name, "kind")? {
                    $($label => Ok(Self::$variant
                        $({ $($field: value.decode($name, stringify!($field))?),* })?
                        $((value.decode($name, stringify!($inner))?))?),)+
                    other => Err($crate::WireError::UnknownVariant {
                        type_name: $name,
                        variant: other.to_owned(),
                    }),
                }
            }
        }
    )+};
}
