//! Wire framing: first-byte protocol sniffing and the length-prefixed
//! binary frame codec.
//!
//! The service speaks two interchangeable framings for the same JSON
//! payloads:
//!
//! * **Line mode** — one request per `\n`-terminated line, the original
//!   protocol. Any connection whose first byte is not the frame magic
//!   (in particular `{`, the start of every JSON request) stays in line
//!   mode, so old clients keep working unchanged.
//! * **Binary mode** — each message is `0xB1`, a little-endian `u32`
//!   payload length, then the payload bytes. No scanning for
//!   terminators, and payloads may contain newlines.
//!
//! A connection's mode is decided once, by its first byte, and both
//! directions use it. Binary mode skips ASCII whitespace *between*
//! frames, so a client may end a frame with a newline as it would a line.

use std::fmt;

/// First byte of every binary frame. Distinct from `{` (0x7B) so the
/// first byte of a connection identifies the protocol.
pub const FRAME_MAGIC: u8 = 0xB1;

/// Bytes of frame overhead before the payload: magic + `u32` length.
pub const FRAME_HEADER: usize = 5;

/// The framing a connection speaks, decided by its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireMode {
    /// Newline-terminated JSON lines (the original protocol).
    Line,
    /// Length-prefixed binary frames.
    Binary,
}

/// Classifies a connection from its first byte: [`FRAME_MAGIC`] opens a
/// binary connection, anything else stays on line-JSON.
#[must_use]
pub fn sniff(first_byte: u8) -> WireMode {
    if first_byte == FRAME_MAGIC {
        WireMode::Binary
    } else {
        WireMode::Line
    }
}

/// A typed decode failure. `Truncated` doubles as the streaming "need
/// more bytes" signal; it only becomes an error when the peer can send
/// no more (EOF mid-frame).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer holds `have` bytes but the frame needs `need`.
    Truncated {
        /// Bytes currently buffered.
        have: usize,
        /// Bytes the complete frame requires.
        need: usize,
    },
    /// The declared payload length exceeds the configured maximum.
    Oversize {
        /// Declared payload length.
        len: usize,
        /// Configured maximum payload length.
        max: usize,
    },
    /// The first byte is not [`FRAME_MAGIC`].
    BadMagic {
        /// The byte found where the magic was expected.
        byte: u8,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            FrameError::Oversize { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the maximum of {max}"
                )
            }
            FrameError::BadMagic { byte } => {
                write!(f, "bad frame magic byte 0x{byte:02x}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one binary frame carrying `payload` to `out`.
///
/// # Panics
/// If the payload exceeds `u32::MAX` bytes (the length prefix could not
/// represent it).
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    out.reserve(FRAME_HEADER + payload.len());
    out.push(FRAME_MAGIC);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decodes the frame at the front of `buf`.
///
/// On success returns `(payload_range, consumed)`: the payload's byte
/// range within `buf` and the total bytes the frame occupies. Never
/// panics, whatever the bytes.
pub fn decode_frame(
    buf: &[u8],
    max_payload: usize,
) -> Result<(std::ops::Range<usize>, usize), FrameError> {
    if buf.is_empty() {
        return Err(FrameError::Truncated {
            have: 0,
            need: FRAME_HEADER,
        });
    }
    if buf[0] != FRAME_MAGIC {
        return Err(FrameError::BadMagic { byte: buf[0] });
    }
    if buf.len() < FRAME_HEADER {
        return Err(FrameError::Truncated {
            have: buf.len(),
            need: FRAME_HEADER,
        });
    }
    let len_bytes: [u8; 4] = buf[1..FRAME_HEADER].try_into().expect("4-byte slice");
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > max_payload {
        return Err(FrameError::Oversize {
            len,
            max: max_payload,
        });
    }
    let total = FRAME_HEADER + len;
    if buf.len() < total {
        return Err(FrameError::Truncated {
            have: buf.len(),
            need: total,
        });
    }
    Ok((FRAME_HEADER..total, total))
}

/// Finds the first complete line in `buf`.
///
/// Returns `(line_end, consumed)` — the line's content length
/// (excluding the `\n`) and the bytes to drain (including it) — or
/// `None` when no newline has arrived yet.
#[must_use]
pub fn take_line(buf: &[u8]) -> Option<(usize, usize)> {
    buf.iter()
        .position(|&b| b == b'\n')
        .map(|pos| (pos, pos + 1))
}

/// Counts leading ASCII whitespace (space, tab, CR, LF) — binary mode
/// skips these between frames.
#[must_use]
pub fn leading_whitespace(buf: &[u8]) -> usize {
    buf.iter()
        .take_while(|&&b| b == b' ' || b == b'\t' || b == b'\r' || b == b'\n')
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sniff_classifies_magic_and_json() {
        assert_eq!(sniff(FRAME_MAGIC), WireMode::Binary);
        assert_eq!(sniff(b'{'), WireMode::Line);
        assert_eq!(sniff(b'\n'), WireMode::Line);
    }

    #[test]
    fn empty_buffer_needs_a_header() {
        assert_eq!(
            decode_frame(&[], 1024),
            Err(FrameError::Truncated {
                have: 0,
                need: FRAME_HEADER
            })
        );
    }

    #[test]
    fn oversize_is_reported_before_waiting_for_payload() {
        // Header declares 1 MiB against a 64-byte cap: the error must
        // surface from the header alone, without buffering the payload.
        let mut buf = vec![FRAME_MAGIC];
        buf.extend_from_slice(&(1u32 << 20).to_le_bytes());
        assert_eq!(
            decode_frame(&buf, 64),
            Err(FrameError::Oversize {
                len: 1 << 20,
                max: 64
            })
        );
    }

    #[test]
    fn take_line_splits_at_the_first_newline() {
        assert_eq!(take_line(b"ab\ncd\n"), Some((2, 3)));
        assert_eq!(take_line(b"abc"), None);
        assert_eq!(take_line(b"\n"), Some((0, 1)));
    }

    #[test]
    fn leading_whitespace_counts_blank_bytes() {
        assert_eq!(leading_whitespace(b" \r\n\tx"), 4);
        assert_eq!(leading_whitespace(b"x "), 0);
        assert_eq!(leading_whitespace(b""), 0);
    }

    // The offline proptest shim has no inclusive-range strategies, so
    // byte values are drawn from `0u16..256` and narrowed.
    fn byte() -> impl Strategy<Value = u8> {
        (0u16..256).prop_map(|v| v as u8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(byte(), 0..96),
            max in 0usize..4096,
        ) {
            let _ = decode_frame(&bytes, max);
        }

        #[test]
        fn round_trip_recovers_the_payload(
            payload in proptest::collection::vec(byte(), 0..256),
            trailing in proptest::collection::vec(byte(), 0..16),
        ) {
            let mut wire = Vec::new();
            encode_frame(&payload, &mut wire);
            let frame_len = wire.len();
            wire.extend_from_slice(&trailing);
            let (range, consumed) = decode_frame(&wire, payload.len())
                .expect("encoded frame decodes");
            prop_assert_eq!(consumed, frame_len);
            prop_assert_eq!(&wire[range], payload.as_slice());
        }

        #[test]
        fn any_proper_prefix_is_truncated(
            payload in proptest::collection::vec(byte(), 0..128),
            cut in 0usize..1000,
        ) {
            let mut wire = Vec::new();
            encode_frame(&payload, &mut wire);
            let cut = cut % wire.len();
            let err = decode_frame(&wire[..cut], payload.len()).expect_err("prefix is incomplete");
            match err {
                FrameError::Truncated { have, need } => {
                    prop_assert_eq!(have, cut);
                    prop_assert!(need > cut);
                    prop_assert!(need <= wire.len());
                }
                other => prop_assert!(false, "expected Truncated, got {:?}", other),
            }
        }

        #[test]
        fn declared_length_beyond_the_cap_is_oversize(
            extra in 1usize..4096,
            max in 0usize..4096,
        ) {
            let len = max + extra;
            let mut wire = vec![FRAME_MAGIC];
            wire.extend_from_slice(&(len as u32).to_le_bytes());
            prop_assert_eq!(
                decode_frame(&wire, max),
                Err(FrameError::Oversize { len, max })
            );
        }

        #[test]
        fn non_magic_first_byte_is_rejected(first in byte()) {
            // No prop_assume in the shim: remap the one excluded value.
            let first = if first == FRAME_MAGIC { b'{' } else { first };
            let wire = [first, 0, 0, 0, 0];
            prop_assert_eq!(
                decode_frame(&wire, 1024),
                Err(FrameError::BadMagic { byte: first })
            );
        }
    }
}
