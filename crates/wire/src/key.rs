//! The strings of the value tree, object keys and string values alike:
//! [`WireStr`], which does not allocate for short text.

use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;

use crate::JsonValue;

/// Longest text, in UTF-8 bytes, stored inline in a [`WireStr`].
const INLINE_CAP: usize = 22;

/// Object width below which [`SeenKeys`] scans the earlier keys.
pub(crate) const SCAN_WIDTH: usize = 32;

/// The text of a string in the value tree: an object key or a
/// [`JsonValue::String`].
///
/// Text of up to 22 bytes is stored inline, so parsing, decoding or
/// building it allocates nothing; longer text lives in a `Box<str>`. The
/// split is canonical (text of 22 bytes or fewer is always inline), so two
/// `WireStr`s are equal exactly when their bytes are, equal ones hash
/// alike, and comparing one with a `&str` compares bytes too. A `WireStr`
/// is 24 bytes, the size of a `String`.
///
/// [`JsonValue::String`]: crate::JsonValue::String
///
/// ```
/// use thermsched_wire::WireStr;
///
/// let key = WireStr::from("version");
/// assert!(&key == "version");
/// assert_eq!(key.as_str(), "version");
/// assert_eq!(WireStr::from(String::from("version")), key);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct WireStr(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `bytes[..len]` is the text; the rest is zero.
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAP],
    },
    Heap(Box<str>),
}

impl WireStr {
    /// The text.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline text is UTF-8")
            }
            Repr::Heap(text) => text,
        }
    }

    /// The text's UTF-8 bytes, without the check [`WireStr::as_str`] makes.
    #[inline]
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(text) => text.as_bytes(),
        }
    }
}

impl From<&str> for WireStr {
    #[inline]
    fn from(text: &str) -> Self {
        if text.len() <= INLINE_CAP {
            let mut bytes = [0; INLINE_CAP];
            bytes[..text.len()].copy_from_slice(text.as_bytes());
            WireStr(Repr::Inline {
                len: text.len() as u8,
                bytes,
            })
        } else {
            WireStr(Repr::Heap(text.into()))
        }
    }
}

impl From<String> for WireStr {
    #[inline]
    fn from(text: String) -> Self {
        if text.len() <= INLINE_CAP {
            WireStr::from(text.as_str())
        } else {
            WireStr(Repr::Heap(text.into_boxed_str()))
        }
    }
}

impl Deref for WireStr {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for WireStr {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for WireStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for WireStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Both decoders' duplicate-key check for one object, asked once per key in
/// document order, so the first repeat is the one reported. An object
/// narrower than [`SCAN_WIDTH`] keys is scanned, which allocates nothing;
/// from that width on its keys move into a set, so a wide object decodes
/// in linear time, not quadratic.
#[derive(Default)]
pub(crate) struct SeenKeys(Option<HashSet<WireStr>>);

impl SeenKeys {
    /// Whether `key` repeats a key of `earlier`: the object's entries
    /// decoded so far, each of whose keys was checked here first.
    pub(crate) fn repeats(&mut self, earlier: &[(WireStr, JsonValue)], key: &WireStr) -> bool {
        if earlier.len() < SCAN_WIDTH {
            return earlier.iter().any(|(seen, _)| seen == key);
        }
        let set = self
            .0
            .get_or_insert_with(|| earlier.iter().map(|(seen, _)| seen.clone()).collect());
        !set.insert(key.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_value, encode_value, obj, Payload, Wire, WireError};

    #[test]
    fn inline_and_heap_keys_cross_every_codec() {
        assert_eq!(std::mem::size_of::<WireStr>(), 24);
        let inline = "k".repeat(INLINE_CAP);
        let spilled = "k".repeat(INLINE_CAP + 1);
        let multibyte = "ü".repeat(INLINE_CAP / 2);
        // 21 ASCII bytes and a two-byte character: 23 bytes, one past the
        // inline limit, split by the limit inside the character.
        let multibyte_spilled = format!("{}é", "m".repeat(INLINE_CAP - 1));
        // A three-byte character ending exactly at the limit.
        let multibyte_edge = format!("{}€", "e".repeat(INLINE_CAP - 3));
        let long = "keep_active_active_paths";
        assert_eq!(multibyte.len(), INLINE_CAP);
        assert_eq!(multibyte_spilled.len(), INLINE_CAP + 1);
        assert_eq!(multibyte_edge.len(), INLINE_CAP);
        for text in [&inline, &multibyte, &multibyte_edge] {
            assert!(matches!(
                WireStr::from(text.as_str()).0,
                Repr::Inline { .. }
            ));
            assert!(matches!(WireStr::from(text.clone()).0, Repr::Inline { .. }));
        }
        for text in [&spilled, &multibyte_spilled] {
            assert!(matches!(WireStr::from(text.as_str()).0, Repr::Heap(_)));
        }
        assert!(matches!(WireStr::from(long.to_owned()).0, Repr::Heap(_)));

        let names = [
            inline.as_str(),
            spilled.as_str(),
            multibyte.as_str(),
            multibyte_spilled.as_str(),
            multibyte_edge.as_str(),
            long,
        ];
        // Each name is both a key and, under the next key, a string value.
        let value = names
            .iter()
            .enumerate()
            .fold(obj(), |builder, (i, name)| {
                builder.field(name, names[(i + 1) % names.len()])
            })
            .build();
        let text = value.render_compact().unwrap();
        for name in names {
            assert!(text.contains(&format!("\"{name}\":")), "{text}");
        }
        let parsed = JsonValue::parse(&text).unwrap();
        let decoded = decode_value(&encode_value(&value).unwrap()).unwrap();
        for tree in [&value, &parsed, &decoded] {
            assert_eq!(tree, &value);
            for (i, ((key, item), name)) in tree.entries().unwrap().iter().zip(names).enumerate() {
                assert_eq!(key, name);
                assert_eq!(key.as_str(), name);
                assert_eq!(format!("{key} {key:?}"), format!("{name} {name:?}"));
                let next = names[(i + 1) % names.len()];
                assert_eq!(item.as_str().unwrap(), next);
                assert_eq!(tree.get(name), Some(&JsonValue::from(next)));
                let JsonValue::String(text) = item else {
                    panic!("{item:?} is not a string");
                };
                let inline = matches!(text.0, Repr::Inline { .. });
                assert_eq!(inline, next.len() <= INLINE_CAP, "{next}");
            }
        }
    }

    #[test]
    fn wide_objects_decode_in_linear_time_and_still_refuse_duplicates() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        use std::time::Duration;

        const WIDTH: usize = 100_000;
        let (done, finished) = channel();
        let checks = std::thread::spawn(move || {
            let mut keys: Vec<String> = (0..WIDTH).map(|i| format!("k{i}")).collect();
            let render = |keys: &[String]| {
                let fields: Vec<String> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, key)| format!("\"{key}\":{i}"))
                    .collect();
                format!("{{{}}}", fields.join(","))
            };
            let value = JsonValue::parse(&render(&keys)).unwrap();
            assert_eq!(value.entries().unwrap().len(), WIDTH);
            let bytes = encode_value(&value).unwrap();
            assert_eq!(decode_value(&bytes).unwrap(), value);
            let payload = Payload::new(&bytes).unwrap();
            assert_eq!(JsonValue::read(payload.root()).unwrap(), value);

            // Past the scanned width, the first repeat is still the one
            // reported, at the repeated key's position.
            keys[50_000] = "k10".to_owned();
            let text = render(&keys);
            let first = text.find("\"k10\"").unwrap();
            let second = first + 1 + text[first + 1..].find("\"k10\"").unwrap();
            assert_eq!(
                JsonValue::parse(&text).unwrap_err(),
                WireError::Parse {
                    line: 1,
                    column: second + 1,
                    message: "duplicate object key `k10`".to_owned(),
                }
            );
            let repeated = JsonValue::Object(
                keys.iter()
                    .enumerate()
                    .map(|(i, key)| (WireStr::from(key.as_str()), JsonValue::from(i)))
                    .collect(),
            );
            let duplicate = Err(WireError::Invalid {
                type_name: "binary value",
                message: "duplicate object key `k10`".to_owned(),
            });
            let bytes = encode_value(&repeated).unwrap();
            assert_eq!(decode_value(&bytes), duplicate);
            assert_eq!(Payload::new(&bytes).map(|_| ()), duplicate.map(|_| ()));
            // Either side of the switch to the set, a repeat of the key
            // just before is still caught.
            for width in SCAN_WIDTH - 1..=SCAN_WIDTH + 1 {
                let mut keys = keys[..width].to_vec();
                keys.push(keys[width - 1].clone());
                let error = JsonValue::parse(&render(&keys)).unwrap_err();
                let repeated = format!("`{}`", keys[width]);
                assert!(error.to_string().contains(&repeated), "{width}: {error}");
                let object = JsonValue::Object(
                    keys.iter()
                        .map(|key| (WireStr::from(key.as_str()), JsonValue::Null))
                        .collect(),
                );
                let bytes = encode_value(&object).unwrap();
                let error = decode_value(&bytes).unwrap_err();
                assert!(error.to_string().contains(&repeated), "{width}: {error}");
                assert_eq!(Payload::new(&bytes).unwrap_err(), error);
            }
            let _ = done.send(());
        });
        // A check that scans every earlier key takes minutes here.
        if finished.recv_timeout(Duration::from_secs(5)) == Err(RecvTimeoutError::Timeout) {
            panic!("a {WIDTH}-key object took over 5 s to check");
        }
        if let Err(panic) = checks.join() {
            std::panic::resume_unwind(panic);
        }
    }
}
