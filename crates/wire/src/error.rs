//! Typed errors of the wire format.

use std::fmt;

/// Everything that can go wrong while encoding or decoding wire data.
///
/// Malformed input is always reported through one of these variants —
/// never through a panic — so callers can surface the exact defect
/// (position, field, expected type) to whoever produced the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The JSON text violates the grammar. `line` and `column` are 1-based
    /// and point at the offending character.
    Parse {
        /// 1-based line of the offending character.
        line: usize,
        /// 1-based column of the offending character.
        column: usize,
        /// What the parser expected or found.
        message: String,
    },
    /// A decoded object is missing a required field.
    MissingField {
        /// Wire type being decoded.
        type_name: &'static str,
        /// Name of the missing field.
        field: &'static str,
    },
    /// A value has the wrong JSON type for its slot.
    WrongType {
        /// What the decoder needed (`"object"`, `"number"`, ...).
        expected: &'static str,
        /// What the value actually was.
        found: &'static str,
    },
    /// An enum tag names no known variant of the target type.
    UnknownVariant {
        /// Wire type being decoded.
        type_name: &'static str,
        /// The unrecognised tag.
        variant: String,
    },
    /// The value decoded fine structurally but failed the target type's
    /// domain validation (e.g. an empty floorplan, a negative test power).
    Invalid {
        /// Wire type being decoded.
        type_name: &'static str,
        /// The domain error, rendered.
        message: String,
    },
    /// A floating-point field is NaN or infinite — the wire format only
    /// carries finite numbers.
    NonFinite {
        /// Wire type being encoded or decoded.
        type_name: &'static str,
    },
    /// Binary input ended mid-value or mid-frame.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A binary frame does not start with the format magic.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The header names a format version this decoder does not speak.
    UnsupportedVersion {
        /// Version found in the header.
        found: u64,
        /// Version this build supports.
        supported: u64,
    },
    /// A binary value carries an unknown type tag byte.
    BadTag {
        /// The unrecognised tag byte.
        tag: u8,
    },
    /// A frame declares a payload longer than the transport allows,
    /// which almost always means garbage or a desynchronised stream.
    FrameTooLarge {
        /// Declared payload length.
        declared: u64,
        /// Maximum the transport accepts.
        limit: u64,
    },
    /// JSON text or a binary value nests arrays and objects deeper than
    /// the decoders accept ([`crate::MAX_NESTING_DEPTH`]).
    TooDeep {
        /// Deepest nesting accepted.
        limit: usize,
    },
    /// A document envelope carries an unexpected `type` tag.
    WrongDocumentType {
        /// The tag the caller asked for.
        expected: &'static str,
        /// The tag the document carries.
        found: String,
    },
    /// Reading or writing the underlying stream failed (pipes, files).
    Io {
        /// The I/O error, rendered (kept as text so the error stays
        /// `Clone + PartialEq`).
        message: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Parse {
                line,
                column,
                message,
            } => write!(
                f,
                "JSON parse error at line {line}, column {column}: {message}"
            ),
            WireError::MissingField { type_name, field } => {
                write!(f, "{type_name}: missing field `{field}`")
            }
            WireError::WrongType { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            WireError::UnknownVariant { type_name, variant } => {
                write!(f, "{type_name}: unknown variant `{variant}`")
            }
            WireError::Invalid { type_name, message } => {
                write!(f, "{type_name}: invalid value: {message}")
            }
            WireError::NonFinite { type_name } => {
                write!(
                    f,
                    "{type_name}: non-finite number (the wire format carries finite f64 only)"
                )
            }
            WireError::Truncated { context } => {
                write!(f, "truncated input while reading {context}")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected \"TSWF\")")
            }
            WireError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported wire version {found} (this build speaks {supported})"
                )
            }
            WireError::BadTag { tag } => write!(f, "unknown binary value tag 0x{tag:02x}"),
            WireError::FrameTooLarge { declared, limit } => {
                write!(
                    f,
                    "frame payload of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            WireError::TooDeep { limit } => {
                write!(f, "arrays and objects nest deeper than {limit} levels")
            }
            WireError::WrongDocumentType { expected, found } => {
                write!(f, "expected a `{expected}` document, found `{found}`")
            }
            WireError::Io { message } => write!(f, "wire I/O error: {message}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(WireError, &str)> = vec![
            (
                WireError::Parse {
                    line: 2,
                    column: 7,
                    message: "expected `:`".to_owned(),
                },
                "line 2, column 7",
            ),
            (
                WireError::MissingField {
                    type_name: "corpus",
                    field: "jobs",
                },
                "missing field `jobs`",
            ),
            (
                WireError::WrongType {
                    expected: "number",
                    found: "string",
                },
                "expected number",
            ),
            (
                WireError::UnknownVariant {
                    type_name: "backend",
                    variant: "warp-drive".to_owned(),
                },
                "unknown variant `warp-drive`",
            ),
            (
                WireError::Invalid {
                    type_name: "floorplan",
                    message: "empty".to_owned(),
                },
                "invalid value",
            ),
            (WireError::NonFinite { type_name: "rect" }, "non-finite"),
            (WireError::Truncated { context: "string" }, "truncated"),
            (WireError::BadMagic { found: [0; 4] }, "bad frame magic"),
            (
                WireError::UnsupportedVersion {
                    found: 9,
                    supported: 1,
                },
                "unsupported wire version 9",
            ),
            (WireError::BadTag { tag: 0xfe }, "0xfe"),
            (
                WireError::FrameTooLarge {
                    declared: 1 << 40,
                    limit: 1 << 28,
                },
                "exceeds",
            ),
            (WireError::TooDeep { limit: 128 }, "deeper than 128 levels"),
            (
                WireError::WrongDocumentType {
                    expected: "corpus",
                    found: "report".to_owned(),
                },
                "expected a `corpus` document",
            ),
            (
                WireError::Io {
                    message: "broken pipe".to_owned(),
                },
                "broken pipe",
            ),
        ];
        for (error, needle) in cases {
            let text = error.to_string();
            assert!(text.contains(needle), "{text:?} should contain {needle:?}");
        }
    }

    #[test]
    fn io_errors_convert() {
        let e: WireError =
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe closed").into();
        assert!(matches!(e, WireError::Io { .. }));
        assert!(e.to_string().contains("pipe closed"));
    }
}
