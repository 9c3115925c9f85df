//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every message — request or response, either direction — is one frame:
//!
//! ```text
//! [u32 le: length of the rest] [u8: verb] [payload bytes]
//! ```
//!
//! The length counts the verb byte plus the payload (so the minimum legal
//! length is 1) and is capped at [`MAX_FRAME`]; a peer claiming more is
//! rejected before any allocation. Responses echo the request verb with
//! the high bit set ([`ok_verb`]); failures come back as an [`verb::ERR`]
//! frame whose payload is a UTF-8 message.
//!
//! Request payloads:
//!
//! | verb | payload | response payload |
//! |---|---|---|
//! | `QUERY` | `a: u64, b: u64` (closed range, `a <= b`) | one byte, 0/1 |
//! | `BATCH_QUERY` | `count: u32`, then `count` × (`a: u64, b: u64`) | `count` bytes, 0/1 each |
//! | `APPLY` | `count: u32`, then `count` × (`op: u8` (0=insert, 1=delete), `key: u64`) | `version: u64, inserted: u64, deleted: u64` |
//! | `STATS` | empty | UTF-8 JSON |
//! | `RELOAD` | UTF-8 manifest path (empty = the path served at startup) | `version: u64` |
//! | `SHUTDOWN` | empty | empty |
//!
//! All integers are little-endian. Every decoder in this module is total:
//! truncated, oversized, or garbage bytes come back as a typed
//! [`ProtocolError`], never a panic — this file is on the repo's untrusted
//! audit list, so the lint suite enforces it.

use std::io::{Read, Write};

/// Hard cap on a frame's declared length (verb + payload), request or
/// response: 64 MiB. Large enough for a million-probe batch, small enough
/// that a hostile length prefix cannot drive allocation.
pub const MAX_FRAME: usize = 1 << 26;

/// The request verbs (responses echo them through [`ok_verb`]).
pub mod verb {
    /// One closed-range probe.
    pub const QUERY: u8 = 1;
    /// Many closed-range probes in one frame.
    pub const BATCH_QUERY: u8 = 2;
    /// A batch of key inserts/deletes.
    pub const APPLY: u8 = 3;
    /// Telemetry snapshot as JSON.
    pub const STATS: u8 = 4;
    /// Hot-swap the served manifest.
    pub const RELOAD: u8 = 5;
    /// Stop the server.
    pub const SHUTDOWN: u8 = 6;
    /// Response verb for a failed request; payload is a UTF-8 message.
    pub const ERR: u8 = 0xFF;
}

/// The bit a response verb sets on top of its request verb.
pub const OK_BIT: u8 = 0x80;

/// The success-response verb for a request verb.
pub fn ok_verb(request: u8) -> u8 {
    request | OK_BIT
}

/// Everything that can go wrong speaking the protocol. Parsing is total:
/// every hostile input maps to one of these, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// The frame declared length 0 — there is no verb byte.
    EmptyFrame,
    /// The frame declared more than [`MAX_FRAME`] bytes.
    Oversized {
        /// The declared length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The verb byte names no known request (or expected response).
    UnknownVerb(u8),
    /// The payload does not parse under its verb's schema.
    BadPayload(&'static str),
    /// The peer answered with an [`verb::ERR`] frame (client side).
    Remote(String),
    /// The underlying stream failed (kind retained; connection closed
    /// mid-frame surfaces as `UnexpectedEof`).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::EmptyFrame => write!(f, "frame with zero length (no verb byte)"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame declares {len} bytes, cap is {max}")
            }
            ProtocolError::UnknownVerb(v) => write!(f, "unknown verb {v:#04x}"),
            ProtocolError::BadPayload(what) => write!(f, "malformed payload: {what}"),
            ProtocolError::Remote(msg) => write!(f, "server error: {msg}"),
            ProtocolError::Io(kind) => write!(f, "stream error: {kind}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e.kind())
    }
}

/// One decoded frame: the verb byte and its payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The verb byte (request verb, success verb, or [`verb::ERR`]).
    pub verb: u8,
    /// The payload bytes after the verb.
    pub payload: Vec<u8>,
}

/// The read buffer both ends put in front of their socket: one `read`
/// syscall fills it with a whole request or response — a 512-probe
/// `BATCH_QUERY` is 8 KiB — plus whatever the peer pipelined behind it.
pub(crate) const READ_BUFFER: usize = 64 << 10;

/// Reads one frame. The declared length is validated against
/// [`MAX_FRAME`] *before* the payload buffer is allocated.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 {
        return Err(ProtocolError::EmptyFrame);
    }
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let verb = body.first().copied().ok_or(ProtocolError::EmptyFrame)?;
    let payload = body.get(1..).unwrap_or(&[]).to_vec();
    Ok(Frame { verb, payload })
}

/// Writes one frame (length prefix, verb, payload) with a single
/// `write_all` of one assembled buffer, so an unbuffered socket sends it
/// as one segment: three small writes would let Nagle's algorithm hold
/// the tail back until the peer's delayed ACK, ~40 ms per response.
/// Nothing is written if the payload exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, verb: u8, payload: &[u8]) -> Result<(), ProtocolError> {
    let total = payload
        .len()
        .checked_add(1)
        .filter(|&t| t <= MAX_FRAME)
        .ok_or(ProtocolError::Oversized {
            len: payload.len(),
            max: MAX_FRAME,
        })?;
    let prefix = u32::try_from(total).map_err(|_| ProtocolError::Oversized {
        len: total,
        max: MAX_FRAME,
    })?;
    let mut frame = Vec::with_capacity(total.saturating_add(4));
    frame.extend_from_slice(&prefix.to_le_bytes());
    frame.push(verb);
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// The little-endian `u64` at byte offset `off`, if fully in bounds.
fn u64_at(payload: &[u8], off: usize) -> Option<u64> {
    let end = off.checked_add(8)?;
    let bytes: [u8; 8] = payload.get(off..end)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// The little-endian `u32` at byte offset `off`, if fully in bounds.
fn u32_at(payload: &[u8], off: usize) -> Option<u32> {
    let end = off.checked_add(4)?;
    let bytes: [u8; 4] = payload.get(off..end)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// Encodes a `QUERY` payload.
pub fn encode_query(a: u64, b: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    let (lo, hi) = out.split_at_mut(8);
    lo.copy_from_slice(&a.to_le_bytes());
    hi.copy_from_slice(&b.to_le_bytes());
    out
}

/// Decodes a `QUERY` payload: exactly 16 bytes, `a <= b`.
pub fn decode_query(payload: &[u8]) -> Result<(u64, u64), ProtocolError> {
    if payload.len() != 16 {
        return Err(ProtocolError::BadPayload("query wants exactly 16 bytes"));
    }
    let a = u64_at(payload, 0).ok_or(ProtocolError::BadPayload("query truncated"))?;
    let b = u64_at(payload, 8).ok_or(ProtocolError::BadPayload("query truncated"))?;
    if a > b {
        return Err(ProtocolError::BadPayload("inverted range (a > b)"));
    }
    Ok((a, b))
}

/// Encodes a `BATCH_QUERY` payload. Fails [`ProtocolError::Oversized`] if
/// the batch cannot fit a frame.
pub fn encode_batch(queries: &[(u64, u64)]) -> Result<Vec<u8>, ProtocolError> {
    let count = u32::try_from(queries.len()).map_err(|_| ProtocolError::Oversized {
        len: queries.len(),
        max: MAX_FRAME,
    })?;
    let bytes = queries
        .len()
        .checked_mul(16)
        .and_then(|b| b.checked_add(4))
        .filter(|&b| b < MAX_FRAME)
        .ok_or(ProtocolError::Oversized {
            len: queries.len(),
            max: MAX_FRAME,
        })?;
    let mut out = Vec::with_capacity(bytes);
    out.extend_from_slice(&count.to_le_bytes());
    for &(a, b) in queries {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
    Ok(out)
}

/// Decodes a `BATCH_QUERY` payload: a count, then exactly that many
/// 16-byte pairs, each a valid closed range.
pub fn decode_batch(payload: &[u8]) -> Result<Vec<(u64, u64)>, ProtocolError> {
    let count = u32_at(payload, 0).ok_or(ProtocolError::BadPayload("batch count truncated"))?;
    let count = count as usize;
    let body = payload.get(4..).unwrap_or(&[]);
    let want = count
        .checked_mul(16)
        .ok_or(ProtocolError::BadPayload("batch count overflows"))?;
    if body.len() != want {
        return Err(ProtocolError::BadPayload(
            "batch body length disagrees with count",
        ));
    }
    let mut queries = Vec::with_capacity(count);
    for pair in body.chunks_exact(16) {
        let a = u64_at(pair, 0).ok_or(ProtocolError::BadPayload("batch pair truncated"))?;
        let b = u64_at(pair, 8).ok_or(ProtocolError::BadPayload("batch pair truncated"))?;
        if a > b {
            return Err(ProtocolError::BadPayload("inverted range (a > b)"));
        }
        queries.push((a, b));
    }
    Ok(queries)
}

/// Encodes an `APPLY` payload from `(insert?, key)` pairs.
pub fn encode_apply(updates: &[(bool, u64)]) -> Result<Vec<u8>, ProtocolError> {
    let count = u32::try_from(updates.len()).map_err(|_| ProtocolError::Oversized {
        len: updates.len(),
        max: MAX_FRAME,
    })?;
    let bytes = updates
        .len()
        .checked_mul(9)
        .and_then(|b| b.checked_add(4))
        .filter(|&b| b < MAX_FRAME)
        .ok_or(ProtocolError::Oversized {
            len: updates.len(),
            max: MAX_FRAME,
        })?;
    let mut out = Vec::with_capacity(bytes);
    out.extend_from_slice(&count.to_le_bytes());
    for &(insert, key) in updates {
        out.push(if insert { 0 } else { 1 });
        out.extend_from_slice(&key.to_le_bytes());
    }
    Ok(out)
}

/// Decodes an `APPLY` payload into `(insert?, key)` pairs.
pub fn decode_apply(payload: &[u8]) -> Result<Vec<(bool, u64)>, ProtocolError> {
    let count = u32_at(payload, 0).ok_or(ProtocolError::BadPayload("apply count truncated"))?;
    let count = count as usize;
    let body = payload.get(4..).unwrap_or(&[]);
    let want = count
        .checked_mul(9)
        .ok_or(ProtocolError::BadPayload("apply count overflows"))?;
    if body.len() != want {
        return Err(ProtocolError::BadPayload(
            "apply body length disagrees with count",
        ));
    }
    let mut updates = Vec::with_capacity(count);
    for rec in body.chunks_exact(9) {
        let insert = match rec.first() {
            Some(0) => true,
            Some(1) => false,
            _ => return Err(ProtocolError::BadPayload("apply op must be 0 or 1")),
        };
        let key = u64_at(rec, 1).ok_or(ProtocolError::BadPayload("apply key truncated"))?;
        updates.push((insert, key));
    }
    Ok(updates)
}

/// Encodes an `APPLY` success response.
pub fn encode_apply_report(version: u64, inserted: u64, deleted: u64) -> [u8; 24] {
    let mut out = [0u8; 24];
    let (v, rest) = out.split_at_mut(8);
    let (ins, del) = rest.split_at_mut(8);
    v.copy_from_slice(&version.to_le_bytes());
    ins.copy_from_slice(&inserted.to_le_bytes());
    del.copy_from_slice(&deleted.to_le_bytes());
    out
}

/// Decodes an `APPLY` success response into `(version, inserted, deleted)`.
pub fn decode_apply_report(payload: &[u8]) -> Result<(u64, u64, u64), ProtocolError> {
    if payload.len() != 24 {
        return Err(ProtocolError::BadPayload(
            "apply report wants exactly 24 bytes",
        ));
    }
    let version = u64_at(payload, 0).ok_or(ProtocolError::BadPayload("apply report truncated"))?;
    let inserted = u64_at(payload, 8).ok_or(ProtocolError::BadPayload("apply report truncated"))?;
    let deleted = u64_at(payload, 16).ok_or(ProtocolError::BadPayload("apply report truncated"))?;
    Ok((version, inserted, deleted))
}

/// Decodes a single-`u64` payload (the `RELOAD` response's version).
pub fn decode_version(payload: &[u8]) -> Result<u64, ProtocolError> {
    if payload.len() != 8 {
        return Err(ProtocolError::BadPayload("version wants exactly 8 bytes"));
    }
    u64_at(payload, 0).ok_or(ProtocolError::BadPayload("version truncated"))
}

/// Decodes a `BATCH_QUERY` response: exactly `expected` bytes of 0/1.
pub fn decode_bools(payload: &[u8], expected: usize) -> Result<Vec<bool>, ProtocolError> {
    if payload.len() != expected {
        return Err(ProtocolError::BadPayload(
            "answer count disagrees with batch size",
        ));
    }
    payload
        .iter()
        .map(|&byte| match byte {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtocolError::BadPayload("answer byte must be 0 or 1")),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, verb::QUERY, &encode_query(3, 9)).unwrap();
        let frame = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(frame.verb, verb::QUERY);
        assert_eq!(decode_query(&frame.payload).unwrap(), (3, 9));
    }

    /// A `Write` double that records every `write` call.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_one_write() {
        for payload in [vec![], vec![0xAB], vec![0x5A; 64 << 10]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, verb::BATCH_QUERY, &payload).unwrap();
            assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
            let mut want = u32::try_from(payload.len() + 1)
                .unwrap()
                .to_le_bytes()
                .to_vec();
            want.push(verb::BATCH_QUERY);
            want.extend_from_slice(&payload);
            assert_eq!(w.bytes, want, "{}-byte payload", payload.len());
        }
        let mut w = CountingWriter::default();
        assert!(matches!(
            write_frame(&mut w, verb::BATCH_QUERY, &vec![0; MAX_FRAME]),
            Err(ProtocolError::Oversized { .. })
        ));
        assert_eq!((w.writes, w.bytes.len()), (0, 0), "oversized frame wrote");
    }

    #[test]
    fn hostile_frames_fail_typed() {
        // Zero length.
        let z = 0u32.to_le_bytes().to_vec();
        assert_eq!(
            read_frame(&mut z.as_slice()),
            Err(ProtocolError::EmptyFrame)
        );
        // Oversized declared length, no allocation.
        let huge = (u32::MAX).to_le_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(ProtocolError::Oversized { .. })
        ));
        // Truncated body.
        let mut t = 5u32.to_le_bytes().to_vec();
        t.push(verb::QUERY);
        assert_eq!(
            read_frame(&mut t.as_slice()),
            Err(ProtocolError::Io(std::io::ErrorKind::UnexpectedEof))
        );
    }

    #[test]
    fn payload_schemas_reject_garbage() {
        assert!(decode_query(&[0; 15]).is_err());
        assert!(decode_query(&encode_query(9, 3)).is_err(), "inverted range");
        let mut batch = encode_batch(&[(1, 2)]).unwrap();
        batch.pop();
        assert!(decode_batch(&batch).is_err());
        let mut apply = encode_apply(&[(true, 7)]).unwrap();
        apply[4] = 9; // invalid op byte
        assert!(decode_apply(&apply).is_err());
        assert!(decode_bools(&[0, 1, 2], 3).is_err());
        assert_eq!(decode_bools(&[0, 1], 2).unwrap(), vec![false, true]);
    }
}
