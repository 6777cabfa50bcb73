//! Object keys that do not allocate: [`Key`].

use std::collections::HashSet;
use std::fmt;
use std::ops::Deref;

use crate::JsonValue;

/// Longest key, in UTF-8 bytes, stored inline in a [`Key`].
const INLINE_CAP: usize = 22;

/// Object width below which [`SeenKeys`] scans the earlier keys.
const SCAN_WIDTH: usize = 32;

/// An object key: the text of one field name of a [`JsonValue::Object`].
///
/// A key of up to 22 bytes is stored inline, so parsing, decoding or
/// building it allocates nothing; a longer key lives in a `Box<str>`. The
/// split is canonical (a key of 22 bytes or fewer is always inline), so
/// two keys are equal exactly when their bytes are, equal keys hash alike,
/// and comparing a key with a `&str` compares bytes too. A `Key` is 24
/// bytes, the size of a `String`.
///
/// [`JsonValue::Object`]: crate::JsonValue::Object
///
/// ```
/// use thermsched_wire::Key;
///
/// let key = Key::from("version");
/// assert!(&key == "version");
/// assert_eq!(key.as_str(), "version");
/// assert_eq!(Key::from(String::from("version")), key);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Key(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `bytes[..len]` is the text; the rest is zero.
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAP],
    },
    Heap(Box<str>),
}

impl Key {
    /// The key's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("inline keys hold UTF-8")
            }
            Repr::Heap(text) => text,
        }
    }

    /// The key's UTF-8 bytes, without the check [`Key::as_str`] makes.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(text) => text.as_bytes(),
        }
    }
}

impl From<&str> for Key {
    fn from(text: &str) -> Self {
        if text.len() <= INLINE_CAP {
            let mut bytes = [0; INLINE_CAP];
            bytes[..text.len()].copy_from_slice(text.as_bytes());
            Key(Repr::Inline {
                len: text.len() as u8,
                bytes,
            })
        } else {
            Key(Repr::Heap(text.into()))
        }
    }
}

impl From<String> for Key {
    fn from(text: String) -> Self {
        if text.len() <= INLINE_CAP {
            Key::from(text.as_str())
        } else {
            Key(Repr::Heap(text.into_boxed_str()))
        }
    }
}

impl Deref for Key {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for Key {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Key {
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
pub(crate) struct SeenKeys(Option<HashSet<Key>>);

impl SeenKeys {
    /// Whether `key` repeats a key of `earlier`: the object's entries
    /// decoded so far, each of whose keys was checked here first.
    pub(crate) fn repeats(&mut self, earlier: &[(Key, JsonValue)], key: &Key) -> bool {
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
    use crate::{decode_value, encode_value, obj, WireError};

    #[test]
    fn inline_and_heap_keys_cross_every_codec() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
        let inline = "k".repeat(INLINE_CAP);
        let spilled = "k".repeat(INLINE_CAP + 1);
        let multibyte = "ü".repeat(INLINE_CAP / 2);
        let long = "keep_active_active_paths";
        assert_eq!(multibyte.len(), INLINE_CAP);
        assert!(matches!(Key::from(inline.as_str()).0, Repr::Inline { .. }));
        assert!(matches!(
            Key::from(multibyte.as_str()).0,
            Repr::Inline { .. }
        ));
        assert!(matches!(Key::from(spilled.as_str()).0, Repr::Heap(_)));
        assert!(matches!(Key::from(long.to_owned()).0, Repr::Heap(_)));

        let names = [inline.as_str(), spilled.as_str(), multibyte.as_str(), long];
        let value = names
            .iter()
            .enumerate()
            .fold(obj(), |builder, (i, name)| builder.field(name, i))
            .build();
        let text = value.render_compact().unwrap();
        for name in names {
            assert!(text.contains(&format!("\"{name}\":")), "{text}");
        }
        let parsed = JsonValue::parse(&text).unwrap();
        let decoded = decode_value(&encode_value(&value).unwrap()).unwrap();
        for tree in [&value, &parsed, &decoded] {
            assert_eq!(tree, &value);
            for (i, ((key, _), name)) in tree.entries().unwrap().iter().zip(names).enumerate() {
                assert_eq!(key, name);
                assert_eq!(key.as_str(), name);
                assert_eq!(format!("{key} {key:?}"), format!("{name} {name:?}"));
                assert_eq!(tree.get(name), Some(&JsonValue::from(i)));
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
            assert_eq!(decode_value(&encode_value(&value).unwrap()).unwrap(), value);

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
                    .map(|(i, key)| (Key::from(key.as_str()), JsonValue::from(i)))
                    .collect(),
            );
            assert_eq!(
                decode_value(&encode_value(&repeated).unwrap()).unwrap_err(),
                WireError::Invalid {
                    type_name: "binary value",
                    message: "duplicate object key `k10`".to_owned(),
                }
            );
            // Either side of the switch to the set, a repeat of the key
            // just before is still caught.
            for width in SCAN_WIDTH - 1..=SCAN_WIDTH + 1 {
                let mut keys = keys[..width].to_vec();
                keys.push(keys[width - 1].clone());
                let error = JsonValue::parse(&render(&keys)).unwrap_err();
                let repeated = format!("`{}`", keys[width]);
                assert!(error.to_string().contains(&repeated), "{width}: {error}");
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
