//! Length-prefixed wire frames for the classification service.
//!
//! The serve front-end (`system::serve` in `nuevomatch`) speaks one tiny
//! binary protocol over both UDP and TCP, chosen so a loopback test needs
//! no dependencies beyond `std::net`:
//!
//! ```text
//! request:  [u32 len][u64 id][len/8 - 1 x u64 key word]
//! response: [u32 len=24][u64 id][u32 rule][u32 priority][u64 generation]
//! ```
//!
//! All integers are little-endian. `len` counts the bytes *after* the
//! length word. A response with `rule == u32::MAX` means "no rule matched"
//! (`RuleId` is dense from 0, so the sentinel is unreachable). A UDP
//! datagram carries one or more complete frames back to back; a TCP stream
//! is the same byte sequence cut arbitrarily, which is why the decoders
//! work incrementally: they return `Ok(None)` on a partial frame and the
//! number of consumed bytes on success.

use crate::classifier::MatchResult;
use crate::update::Generation;

/// `rule` sentinel in a response frame meaning "no match".
const NO_MATCH: u32 = u32::MAX;

/// Hard cap on a request frame's body, bounding `keys` allocation from
/// untrusted lengths: 8 bytes of id + 256 key words.
const MAX_REQUEST_BODY: usize = 8 + 256 * 8;

/// Response body size: id + rule + priority + generation.
const RESPONSE_BODY: usize = 8 + 4 + 4 + 8;

/// Whole response frame size on the wire (length word included).
pub const RESPONSE_FRAME: usize = 4 + RESPONSE_BODY;

/// A decode failure that poisons the containing datagram/stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Body length is not `8 + 8*n` (request) or not `RESPONSE_BODY`
    /// (response).
    BadLength(u32),
    /// Body length exceeds `MAX_REQUEST_BODY`.
    Oversize(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadLength(n) => write!(f, "bad frame body length {n}"),
            FrameError::Oversize(n) => write!(f, "frame body length {n} exceeds cap"),
        }
    }
}

#[inline]
fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().unwrap())
}

#[inline]
fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// Appends one request frame (`id`, `key` words) to `buf`.
pub fn encode_request(buf: &mut Vec<u8>, id: u64, key: &[u64]) {
    let body = 8 + key.len() * 8;
    debug_assert!(body <= MAX_REQUEST_BODY, "key too wide for the wire");
    buf.extend_from_slice(&(body as u32).to_le_bytes());
    buf.extend_from_slice(&id.to_le_bytes());
    for &w in key {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

/// A request frame header decoded off the wire; the key words land in the
/// caller's flat buffer (see [`decode_request`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestHead {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Number of key words appended to the caller's buffer.
    pub fields: usize,
}

/// Tries to decode one request frame from the front of `bytes`. On success
/// appends the key words to `keys` (flat, allocation-amortized) and returns
/// the header plus the number of bytes consumed. Returns `Ok(None)` when
/// `bytes` holds only a partial frame (TCP: read more).
pub fn decode_request(
    bytes: &[u8],
    keys: &mut Vec<u64>,
) -> Result<Option<(RequestHead, usize)>, FrameError> {
    if bytes.len() < 4 {
        return Ok(None);
    }
    let body = get_u32(bytes);
    if body as usize > MAX_REQUEST_BODY {
        return Err(FrameError::Oversize(body));
    }
    if body < 8 || (body - 8) % 8 != 0 {
        return Err(FrameError::BadLength(body));
    }
    let total = 4 + body as usize;
    if bytes.len() < total {
        return Ok(None);
    }
    let id = get_u64(&bytes[4..]);
    let fields = (body as usize - 8) / 8;
    for f in 0..fields {
        keys.push(get_u64(&bytes[12 + f * 8..]));
    }
    Ok(Some((RequestHead { id, fields }, total)))
}

/// A decoded response frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResponseFrame {
    /// Echo of the request's correlation id.
    pub id: u64,
    /// The verdict (`None` = no rule matched).
    pub verdict: Option<MatchResult>,
    /// Snapshot generation the verdict was computed against.
    pub generation: Generation,
}

/// Appends one response frame to `buf`.
pub fn encode_response(
    buf: &mut Vec<u8>,
    id: u64,
    verdict: Option<MatchResult>,
    generation: Generation,
) {
    buf.extend_from_slice(&(RESPONSE_BODY as u32).to_le_bytes());
    buf.extend_from_slice(&id.to_le_bytes());
    let (rule, priority) = match verdict {
        Some(m) => (m.rule, m.priority),
        None => (NO_MATCH, 0),
    };
    buf.extend_from_slice(&rule.to_le_bytes());
    buf.extend_from_slice(&priority.to_le_bytes());
    buf.extend_from_slice(&generation.to_le_bytes());
}

/// Tries to decode one response frame from the front of `bytes`; returns
/// the frame plus bytes consumed, or `Ok(None)` on a partial frame.
pub fn decode_response(bytes: &[u8]) -> Result<Option<(ResponseFrame, usize)>, FrameError> {
    if bytes.len() < 4 {
        return Ok(None);
    }
    let body = get_u32(bytes);
    if body as usize != RESPONSE_BODY {
        return Err(FrameError::BadLength(body));
    }
    if bytes.len() < RESPONSE_FRAME {
        return Ok(None);
    }
    let id = get_u64(&bytes[4..]);
    let rule = get_u32(&bytes[12..]);
    let priority = get_u32(&bytes[16..]);
    let generation = get_u64(&bytes[20..]);
    let verdict = (rule != NO_MATCH).then(|| MatchResult::new(rule, priority));
    Ok(Some((ResponseFrame { id, verdict, generation }, RESPONSE_FRAME)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let mut wire = Vec::new();
        encode_request(&mut wire, 7, &[1, 2, 3, 4, 5]);
        encode_request(&mut wire, 8, &[9, 9]);
        let mut keys = Vec::new();
        let (h1, used1) = decode_request(&wire, &mut keys).unwrap().unwrap();
        assert_eq!((h1.id, h1.fields), (7, 5));
        let (h2, used2) = decode_request(&wire[used1..], &mut keys).unwrap().unwrap();
        assert_eq!((h2.id, h2.fields), (8, 2));
        assert_eq!(used1 + used2, wire.len());
        assert_eq!(keys, vec![1, 2, 3, 4, 5, 9, 9]);
    }

    #[test]
    fn request_partial_and_bad() {
        let mut wire = Vec::new();
        encode_request(&mut wire, 1, &[10, 20, 30]);
        let mut keys = Vec::new();
        // Every strict prefix is "incomplete", never an error.
        for cut in 0..wire.len() {
            assert_eq!(decode_request(&wire[..cut], &mut keys).unwrap(), None);
            assert!(keys.is_empty());
        }
        // Body length that is not 8+8n is rejected.
        let bad = 13u32.to_le_bytes();
        let mut junk = bad.to_vec();
        junk.extend_from_slice(&[0; 16]);
        assert_eq!(decode_request(&junk, &mut keys), Err(FrameError::BadLength(13)));
        // Oversize cap triggers before any allocation.
        let huge = (MAX_REQUEST_BODY as u32 + 8).to_le_bytes().to_vec();
        assert!(matches!(decode_request(&huge, &mut keys), Err(FrameError::Oversize(_))));
    }

    #[test]
    fn response_roundtrip() {
        let mut wire = Vec::new();
        encode_response(&mut wire, 42, Some(MatchResult::new(3, 17)), 9);
        encode_response(&mut wire, 43, None, 10);
        let (r1, used) = decode_response(&wire).unwrap().unwrap();
        assert_eq!(
            r1,
            ResponseFrame { id: 42, verdict: Some(MatchResult::new(3, 17)), generation: 9 }
        );
        let (r2, used2) = decode_response(&wire[used..]).unwrap().unwrap();
        assert_eq!(r2, ResponseFrame { id: 43, verdict: None, generation: 10 });
        assert_eq!(used + used2, wire.len());
        for cut in 0..RESPONSE_FRAME {
            assert_eq!(decode_response(&wire[..cut]).unwrap(), None);
        }
    }
}
