//! Length-prefixed framing for the process transport.
//!
//! A frame is a 10-byte header followed by the payload:
//!
//! ```text
//! +------+------+---------+------+----------------+---------+
//! | 'T'  | 'S'  | 'W' 'F' | ver  | kind | len u32 | payload |
//! +------+------+---------+------+------+---------+---------+
//!   magic (4 bytes)         u8     u8     LE        len bytes
//! ```
//!
//! `kind` is an application-level discriminator (the multi-process protocol
//! uses it for HELLO/WORK/RESULT/...); the framing layer carries it opaquely.
//! [`read_frame`] distinguishes a clean shutdown (EOF exactly at a frame
//! boundary → `Ok(None)`) from a truncated stream (EOF inside a frame →
//! [`WireError::Truncated`]), which is what lets the coordinator tell a
//! finished worker from a crashed one.

use std::io::{Read, Write};

use crate::{Result, WireError};

/// The four magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"TSWF";

/// Framing-layer version written into every header.
pub const FRAME_VERSION: u8 = 1;

/// Largest payload [`read_frame`] accepts (256 MiB). Anything larger means
/// a desynchronised or hostile stream, not a real message.
pub const MAX_FRAME_PAYLOAD: u64 = 256 << 20;

/// One decoded frame: the application `kind` byte and the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Application-level frame discriminator.
    pub kind: u8,
    /// The payload bytes, typically a binary-encoded value.
    pub payload: Vec<u8>,
}

/// Writes one frame (header + payload) and flushes the writer, so a frame
/// is always visible to the peer as soon as the call returns.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if the payload exceeds
/// [`MAX_FRAME_PAYLOAD`], or [`WireError::Io`] from the writer.
pub fn write_frame(writer: &mut impl Write, kind: u8, payload: &[u8]) -> Result<()> {
    let len = payload.len() as u64;
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            declared: len,
            limit: MAX_FRAME_PAYLOAD,
        });
    }
    let mut header = [0u8; 10];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4] = FRAME_VERSION;
    header[5] = kind;
    header[6..].copy_from_slice(&(len as u32).to_le_bytes());
    writer.write_all(&header)?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// [`WireError::Truncated`] on EOF inside a frame, [`WireError::BadMagic`],
/// [`WireError::UnsupportedVersion`], [`WireError::FrameTooLarge`] or
/// [`WireError::Io`].
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Frame>> {
    let mut header = [0u8; 10];
    match read_exact_or_eof(reader, &mut header)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial => {
            return Err(WireError::Truncated {
                context: "frame header",
            })
        }
        ReadOutcome::Full => {}
    }
    let magic: [u8; 4] = header[..4].try_into().expect("4 bytes");
    if magic != FRAME_MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    if header[4] != FRAME_VERSION {
        return Err(WireError::UnsupportedVersion {
            found: u64::from(header[4]),
            supported: u64::from(FRAME_VERSION),
        });
    }
    let kind = header[5];
    let len = u32::from_le_bytes(header[6..].try_into().expect("4 bytes")) as u64;
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            declared: len,
            limit: MAX_FRAME_PAYLOAD,
        });
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(reader, &mut payload)? {
        ReadOutcome::Full => Ok(Some(Frame { kind, payload })),
        _ if len == 0 => Ok(Some(Frame { kind, payload })),
        _ => Err(WireError::Truncated {
            context: "frame payload",
        }),
    }
}

enum ReadOutcome {
    /// The buffer was filled completely.
    Full,
    /// EOF before the first byte.
    Eof,
    /// EOF after at least one byte but before the buffer filled.
    Partial,
}

fn read_exact_or_eof(reader: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 2, b"first").unwrap();
        write_frame(&mut buf, 5, b"").unwrap();
        write_frame(&mut buf, 7, &[0xff; 300]).unwrap();
        let mut cursor = Cursor::new(buf);
        let a = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((a.kind, a.payload.as_slice()), (2, b"first".as_slice()));
        let b = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((b.kind, b.payload.len()), (5, 0));
        let c = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((c.kind, c.payload.len()), (7, 300));
        // Clean EOF at the boundary.
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn eof_inside_a_frame_is_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"payload").unwrap();
        // Cut inside the header.
        let mut cursor = Cursor::new(buf[..6].to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Truncated {
                context: "frame header"
            })
        ));
        // Cut inside the payload.
        let mut buf2 = Vec::new();
        write_frame(&mut buf2, 1, b"payload").unwrap();
        let cut = buf2.len() - 3;
        let mut cursor = Cursor::new(buf2[..cut].to_vec());
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Truncated {
                context: "frame payload"
            })
        ));
    }

    #[test]
    fn bad_headers_are_typed_errors() {
        let mut garbage = Cursor::new(b"NOPE\x01\x02\x00\x00\x00\x00".to_vec());
        assert!(matches!(
            read_frame(&mut garbage),
            Err(WireError::BadMagic { found }) if &found == b"NOPE"
        ));
        let mut wrong_version = Cursor::new(b"TSWF\x09\x02\x00\x00\x00\x00".to_vec());
        assert!(matches!(
            read_frame(&mut wrong_version),
            Err(WireError::UnsupportedVersion {
                found: 9,
                supported: 1
            })
        ));
        // Declared length beyond the guard.
        let mut header = Vec::new();
        header.extend_from_slice(b"TSWF\x01\x02");
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut oversized = Cursor::new(header);
        assert!(matches!(
            read_frame(&mut oversized),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn oversized_payloads_refuse_to_write() {
        // Use a writer that drops the bytes; the guard fires before any
        // allocation of the payload is needed.
        struct Sink;
        impl std::io::Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // A payload over the limit cannot be constructed cheaply here, so
        // exercise the guard through the length check with a zero-copy
        // slice: impossible lengths require a real allocation, so instead
        // assert the boundary math directly.
        assert!(write_frame(&mut Sink, 0, &[]).is_ok());
        assert!(MAX_FRAME_PAYLOAD <= u64::from(u32::MAX));
    }
}
