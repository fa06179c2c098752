//! The serving tier's wire protocol: length-prefixed binary frames.
//!
//! The protocol is deliberately minimal — a `u32`-little-endian length
//! prefix followed by a fixed-layout payload — because the interesting
//! engineering is not in the encoding but in what the server does when
//! the encoding *fails*: a frame that claims an absurd length, a client
//! that stalls mid-frame, a connection torn between prefix and payload.
//! Every decode path here returns a typed [`WireError`] so the server
//! can distinguish "client went away cleanly" from "client misbehaved"
//! and account for each.
//!
//! ## Frames
//!
//! Request payload (`"SQ01"` magic):
//!
//! ```text
//! magic[4] | id u64 | n u32 | batch u32 | deadline_ms u32 | data (batch·n Cplx, f64 re/im pairs)
//! ```
//!
//! Response payload (`"SR01"` magic):
//!
//! ```text
//! magic[4] | id u64 | status u8 | body
//! ```
//!
//! where `status` is 0 = `Ok` (body: batch·n `Cplx`), 1 = `Overloaded`,
//! 2 = `Expired` (no body), 3 = `Error` (body: `u32` length + UTF-8
//! message). `deadline_ms` is a *relative* budget in milliseconds from
//! the server's arrival timestamp (0 = use the server default): wall
//! clocks on two hosts never agree, so the wire carries durations and
//! each side anchors them locally.

use spiral_spl::cplx::Cplx;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Hard ceiling on a frame's payload length (64 MiB). A length prefix
/// above this is rejected *before* any allocation, so a garbage or
/// hostile prefix cannot balloon server memory.
pub const MAX_FRAME_BYTES: usize = 1 << 26;

/// Request frame magic.
pub const REQUEST_MAGIC: [u8; 4] = *b"SQ01";
/// Response frame magic.
pub const RESPONSE_MAGIC: [u8; 4] = *b"SR01";
/// Stats frame magic (same magic both directions: a stats request
/// carries only a kind byte, a stats response carries the kind byte
/// plus a length-prefixed UTF-8 body).
pub const STATS_MAGIC: [u8; 4] = *b"SS01";

/// Fixed-size portion of a request payload: magic + id + n + batch +
/// deadline.
const REQUEST_HEADER_BYTES: usize = 4 + 8 + 4 + 4 + 4;

/// One transform request as decoded from the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Transform size.
    pub n: u32,
    /// Number of independent transforms in this request.
    pub batch: u32,
    /// Relative deadline budget in milliseconds (0 = server default).
    pub deadline_ms: u32,
    /// `batch · n` complex points, transform-major.
    pub data: Vec<Cplx>,
}

/// One response as decoded from the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The transform ran; `data` holds `batch · n` output points.
    Ok {
        /// Echoed request id.
        id: u64,
        /// Transform output, transform-major.
        data: Vec<Cplx>,
    },
    /// Admission control rejected the request (queue full / draining).
    Overloaded {
        /// Echoed request id (0 when rejected before any frame parsed).
        id: u64,
    },
    /// The request's deadline passed before execution started.
    Expired {
        /// Echoed request id.
        id: u64,
    },
    /// The request was admitted but execution failed.
    Error {
        /// Echoed request id.
        id: u64,
        /// Human-readable failure description.
        message: String,
    },
}

impl Response {
    /// The echoed request id, whatever the status.
    pub fn id(&self) -> u64 {
        match self {
            Response::Ok { id, .. }
            | Response::Overloaded { id }
            | Response::Expired { id }
            | Response::Error { id, .. } => *id,
        }
    }
}

/// Which live-telemetry view an `SS01` frame asks for (or carries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsKind {
    /// Schema-versioned JSON metrics snapshot.
    Json,
    /// Prometheus text exposition of the same snapshot.
    Prom,
    /// Flight-recorder export: the recent past as Perfetto JSON.
    Dump,
}

impl StatsKind {
    /// Wire code of this kind.
    pub fn code(self) -> u8 {
        match self {
            StatsKind::Json => 0,
            StatsKind::Prom => 1,
            StatsKind::Dump => 2,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<StatsKind> {
        match code {
            0 => Some(StatsKind::Json),
            1 => Some(StatsKind::Prom),
            2 => Some(StatsKind::Dump),
            _ => None,
        }
    }
}

/// What [`read_request`] found on the socket.
#[derive(Debug)]
pub enum ReadEvent {
    /// A complete, well-formed request frame.
    Request(Request),
    /// A complete, well-formed `SS01` stats request.
    Stats(StatsKind),
    /// Clean end-of-stream at a frame boundary (client closed).
    Eof,
    /// Read timeout with *zero* bytes consumed: the connection is idle,
    /// not stalled — the caller may loop (and check its drain flag).
    Idle,
}

/// Typed decode/transport failure.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended mid-frame: `got` of `want` bytes arrived.
    Torn {
        /// Bytes received before EOF.
        got: usize,
        /// Bytes the frame declared.
        want: usize,
    },
    /// The read timed out mid-frame (slow or wedged peer).
    Stalled {
        /// Bytes received before the timeout.
        got: usize,
        /// Bytes the frame declared.
        want: usize,
    },
    /// The payload does not start with the expected magic.
    BadMagic,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// Declared payload length.
        len: usize,
        /// The configured ceiling it exceeded.
        max: usize,
    },
    /// Structurally invalid payload (sizes disagree, short header…).
    Malformed(String),
    /// Any other I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Torn { got, want } => {
                write!(f, "torn frame: stream ended after {got} of {want} bytes")
            }
            WireError::Stalled { got, want } => {
                write!(f, "stalled frame: timed out after {got} of {want} bytes")
            }
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte ceiling")
            }
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Encode a request into a complete frame (prefix + payload).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let data_bytes = req.data.len() * 16;
    let payload_len = REQUEST_HEADER_BYTES + data_bytes;
    let mut buf = Vec::with_capacity(4 + payload_len);
    buf.extend_from_slice(&u32_len(payload_len).to_le_bytes());
    buf.extend_from_slice(&REQUEST_MAGIC);
    buf.extend_from_slice(&req.id.to_le_bytes());
    buf.extend_from_slice(&req.n.to_le_bytes());
    buf.extend_from_slice(&req.batch.to_le_bytes());
    buf.extend_from_slice(&req.deadline_ms.to_le_bytes());
    for c in &req.data {
        buf.extend_from_slice(&c.re.to_le_bytes());
        buf.extend_from_slice(&c.im.to_le_bytes());
    }
    buf
}

/// Encode a response into a complete frame (prefix + payload).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let (id, status, data, message): (u64, u8, &[Cplx], &str) = match resp {
        Response::Ok { id, data } => (*id, 0, data.as_slice(), ""),
        Response::Overloaded { id } => (*id, 1, &[], ""),
        Response::Expired { id } => (*id, 2, &[], ""),
        Response::Error { id, message } => (*id, 3, &[], message.as_str()),
    };
    let body_len = match status {
        0 => data.len() * 16,
        3 => 4 + message.len(),
        _ => 0,
    };
    let payload_len = 4 + 8 + 1 + body_len;
    let mut buf = Vec::with_capacity(4 + payload_len);
    buf.extend_from_slice(&u32_len(payload_len).to_le_bytes());
    buf.extend_from_slice(&RESPONSE_MAGIC);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.push(status);
    match status {
        0 => {
            for c in data {
                buf.extend_from_slice(&c.re.to_le_bytes());
                buf.extend_from_slice(&c.im.to_le_bytes());
            }
        }
        3 => {
            buf.extend_from_slice(&u32_len(message.len()).to_le_bytes());
            buf.extend_from_slice(message.as_bytes());
        }
        _ => {}
    }
    buf
}

/// Read one request frame, distinguishing idle timeouts, clean EOF, and
/// mid-frame failure. `max_frame` caps the accepted payload length
/// (pass [`MAX_FRAME_BYTES`] unless the server configures tighter).
pub fn read_request(stream: &mut impl Read, max_frame: usize) -> Result<ReadEvent, WireError> {
    let payload = match read_frame(stream, max_frame)? {
        Some(p) => p,
        None => return Ok(ReadEvent::Eof),
    };
    if payload.is_empty() {
        // A timeout with zero bytes consumed surfaces from read_frame as
        // an empty marker; see read_frame's contract.
        return Ok(ReadEvent::Idle);
    }
    if payload.len() >= 4 && payload[..4] == STATS_MAGIC {
        return Ok(ReadEvent::Stats(decode_stats_request(&payload)?));
    }
    Ok(ReadEvent::Request(decode_request(&payload)?))
}

/// Encode a stats request: magic + kind byte.
pub fn encode_stats_request(kind: StatsKind) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 5);
    buf.extend_from_slice(&5u32.to_le_bytes());
    buf.extend_from_slice(&STATS_MAGIC);
    buf.push(kind.code());
    buf
}

/// Encode a stats response: magic + kind byte + length-prefixed UTF-8
/// body (the JSON snapshot, Prometheus text, or Perfetto dump).
pub fn encode_stats_response(kind: StatsKind, body: &str) -> Vec<u8> {
    let payload_len = 4 + 1 + 4 + body.len();
    let mut buf = Vec::with_capacity(4 + payload_len);
    buf.extend_from_slice(&u32_len(payload_len).to_le_bytes());
    buf.extend_from_slice(&STATS_MAGIC);
    buf.push(kind.code());
    buf.extend_from_slice(&u32_len(body.len()).to_le_bytes());
    buf.extend_from_slice(body.as_bytes());
    buf
}

/// Read one stats response frame (client side; blocks until complete).
pub fn read_stats_response(stream: &mut impl Read) -> Result<(StatsKind, String), WireError> {
    match read_frame(stream, MAX_FRAME_BYTES)? {
        Some(p) if !p.is_empty() => decode_stats_response(&p),
        Some(_) => Err(WireError::Stalled { got: 0, want: 4 }),
        None => Err(WireError::Torn { got: 0, want: 4 }),
    }
}

fn decode_stats_request(payload: &[u8]) -> Result<StatsKind, WireError> {
    if payload.len() != 5 {
        return Err(WireError::Malformed(format!(
            "stats request payload is {} bytes, want 5",
            payload.len()
        )));
    }
    StatsKind::from_code(payload[4])
        .ok_or_else(|| WireError::Malformed(format!("unknown stats kind {}", payload[4])))
}

fn decode_stats_response(payload: &[u8]) -> Result<(StatsKind, String), WireError> {
    if payload.len() < 9 {
        return Err(WireError::Malformed(format!(
            "stats response payload is {} bytes, header alone needs 9",
            payload.len()
        )));
    }
    if payload[..4] != STATS_MAGIC {
        return Err(WireError::BadMagic);
    }
    let kind = StatsKind::from_code(payload[4])
        .ok_or_else(|| WireError::Malformed(format!("unknown stats kind {}", payload[4])))?;
    let blen = u32::from_le_bytes(payload[5..9].try_into().expect("4-byte slice")) as usize;
    let body = &payload[9..];
    if body.len() != blen {
        return Err(WireError::Malformed(format!(
            "stats body declares {blen} bytes but carries {}",
            body.len()
        )));
    }
    Ok((kind, String::from_utf8_lossy(body).into_owned()))
}

/// Read one response frame (client side; blocks until complete).
pub fn read_response(stream: &mut impl Read) -> Result<Response, WireError> {
    match read_frame(stream, MAX_FRAME_BYTES)? {
        Some(p) if !p.is_empty() => decode_response(&p),
        Some(_) => Err(WireError::Stalled { got: 0, want: 4 }),
        None => Err(WireError::Torn { got: 0, want: 4 }),
    }
}

/// Read one length-prefixed frame.
///
/// Returns `Ok(None)` on clean EOF before any prefix byte, and
/// `Ok(Some(vec![]))` — an empty marker — on a timeout before any
/// prefix byte (idle connection). Any partial progress followed by EOF
/// or timeout is [`WireError::Torn`] / [`WireError::Stalled`].
fn read_frame(stream: &mut impl Read, max_frame: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut prefix = [0u8; 4];
    // First byte separately: zero-progress EOF/timeout is a connection
    // state, not a protocol violation.
    match stream.read(&mut prefix[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) if is_timeout(&e) => return Ok(Some(Vec::new())),
        Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {
            return Ok(Some(Vec::new()));
        }
        Err(e) => return Err(WireError::Io(e)),
    }
    read_exact_or(stream, &mut prefix[1..], 1, 4)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_frame {
        return Err(WireError::TooLarge {
            len,
            max: max_frame,
        });
    }
    if len == 0 {
        return Err(WireError::Malformed("zero-length frame".to_string()));
    }
    let mut payload = vec![0u8; len];
    read_exact_or(stream, &mut payload, 0, len)?;
    Ok(Some(payload))
}

/// `read_exact` that reports partial progress as `Torn`/`Stalled`
/// rather than a bare I/O error. `already` bytes of the logical unit
/// (of `want` total) were consumed before this call.
fn read_exact_or(
    stream: &mut impl Read,
    buf: &mut [u8],
    already: usize,
    want: usize,
) -> Result<(), WireError> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(WireError::Torn {
                    got: already + got,
                    want,
                })
            }
            Ok(k) => got += k,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                return Err(WireError::Stalled {
                    got: already + got,
                    want,
                })
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    if payload.len() < REQUEST_HEADER_BYTES {
        return Err(WireError::Malformed(format!(
            "request payload is {} bytes, header alone needs {REQUEST_HEADER_BYTES}",
            payload.len()
        )));
    }
    if payload[..4] != REQUEST_MAGIC {
        return Err(WireError::BadMagic);
    }
    let id = u64::from_le_bytes(payload[4..12].try_into().expect("8-byte slice"));
    let n = u32::from_le_bytes(payload[12..16].try_into().expect("4-byte slice"));
    let batch = u32::from_le_bytes(payload[16..20].try_into().expect("4-byte slice"));
    let deadline_ms = u32::from_le_bytes(payload[20..24].try_into().expect("4-byte slice"));
    let (points, bytes) = (n as usize)
        .checked_mul(batch as usize)
        .and_then(|p| Some((p, p.checked_mul(16)?)))
        .ok_or_else(|| WireError::Malformed("n·batch·16 bytes overflows".to_string()))?;
    let body = &payload[REQUEST_HEADER_BYTES..];
    if body.len() != bytes {
        return Err(WireError::Malformed(format!(
            "request declares {points} points ({bytes} bytes) but carries {} bytes",
            body.len()
        )));
    }
    Ok(Request {
        id,
        n,
        batch,
        deadline_ms,
        data: decode_points(body),
    })
}

fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    if payload.len() < 4 + 8 + 1 {
        return Err(WireError::Malformed(format!(
            "response payload is {} bytes, header alone needs 13",
            payload.len()
        )));
    }
    if payload[..4] != RESPONSE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let id = u64::from_le_bytes(payload[4..12].try_into().expect("8-byte slice"));
    let status = payload[12];
    let body = &payload[13..];
    match status {
        0 => {
            if !body.len().is_multiple_of(16) {
                return Err(WireError::Malformed(format!(
                    "Ok body of {} bytes is not a whole number of points",
                    body.len()
                )));
            }
            Ok(Response::Ok {
                id,
                data: decode_points(body),
            })
        }
        1 => Ok(Response::Overloaded { id }),
        2 => Ok(Response::Expired { id }),
        3 => {
            if body.len() < 4 {
                return Err(WireError::Malformed(
                    "Error body shorter than its length field".to_string(),
                ));
            }
            let mlen = u32::from_le_bytes(body[..4].try_into().expect("4-byte slice")) as usize;
            if body.len() != 4 + mlen {
                return Err(WireError::Malformed(format!(
                    "Error message declares {mlen} bytes but carries {}",
                    body.len() - 4
                )));
            }
            Ok(Response::Error {
                id,
                message: String::from_utf8_lossy(&body[4..]).into_owned(),
            })
        }
        s => Err(WireError::Malformed(format!("unknown status byte {s}"))),
    }
}

fn decode_points(body: &[u8]) -> Vec<Cplx> {
    body.chunks_exact(16)
        .map(|c| Cplx {
            re: f64::from_le_bytes(c[..8].try_into().expect("8-byte slice")),
            im: f64::from_le_bytes(c[8..].try_into().expect("8-byte slice")),
        })
        .collect()
}

/// Write a whole buffer, mapping failures into [`WireError::Io`].
pub fn write_all(stream: &mut impl Write, buf: &[u8]) -> Result<(), WireError> {
    stream.write_all(buf).map_err(WireError::Io)?;
    stream.flush().map_err(WireError::Io)
}

/// Convert a duration budget to the wire's millisecond field,
/// saturating (a budget over ~49 days is indistinguishable from
/// unlimited for a request that must finish in milliseconds).
pub fn budget_to_ms(budget: Duration) -> u32 {
    u32::try_from(budget.as_millis()).unwrap_or(u32::MAX)
}

/// Frame payload lengths always fit `u32` (they are bounded by
/// [`MAX_FRAME_BYTES`] on read, and writers build from in-memory
/// vectors far below 4 GiB).
fn u32_len(len: usize) -> u32 {
    u32::try_from(len).expect("frame length fits u32")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request {
            id: 42,
            n: 4,
            batch: 2,
            deadline_ms: 250,
            data: (0..8)
                .map(|i| Cplx::new(f64::from(i), -f64::from(i)))
                .collect(),
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = sample_request();
        let frame = encode_request(&req);
        let mut cursor = io::Cursor::new(frame);
        match read_request(&mut cursor, MAX_FRAME_BYTES).expect("decodes") {
            ReadEvent::Request(got) => assert_eq!(got, req),
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn response_roundtrips_all_statuses() {
        let cases = vec![
            Response::Ok {
                id: 1,
                data: vec![Cplx::new(1.5, -2.5); 4],
            },
            Response::Overloaded { id: 2 },
            Response::Expired { id: 3 },
            Response::Error {
                id: 4,
                message: "tuner failed".to_string(),
            },
        ];
        for resp in cases {
            let frame = encode_response(&resp);
            let mut cursor = io::Cursor::new(frame);
            assert_eq!(read_response(&mut cursor).expect("decodes"), resp);
        }
    }

    #[test]
    fn stats_request_roundtrips_all_kinds() {
        for kind in [StatsKind::Json, StatsKind::Prom, StatsKind::Dump] {
            let frame = encode_stats_request(kind);
            let mut cursor = io::Cursor::new(frame);
            match read_request(&mut cursor, MAX_FRAME_BYTES).expect("decodes") {
                ReadEvent::Stats(got) => assert_eq!(got, kind),
                other => panic!("expected a stats request, got {other:?}"),
            }
        }
    }

    #[test]
    fn stats_response_roundtrips() {
        let body = "{\"schema\": 1}";
        let frame = encode_stats_response(StatsKind::Json, body);
        let mut cursor = io::Cursor::new(frame);
        let (kind, got) = read_stats_response(&mut cursor).expect("decodes");
        assert_eq!(kind, StatsKind::Json);
        assert_eq!(got, body);
    }

    #[test]
    fn unknown_stats_kind_is_malformed() {
        let mut frame = encode_stats_request(StatsKind::Dump);
        *frame.last_mut().expect("kind byte") = 9;
        let mut cursor = io::Cursor::new(frame);
        assert!(matches!(
            read_request(&mut cursor, MAX_FRAME_BYTES),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn clean_eof_is_not_an_error() {
        let mut cursor = io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_request(&mut cursor, MAX_FRAME_BYTES).expect("eof"),
            ReadEvent::Eof
        ));
    }

    #[test]
    fn torn_frame_reports_progress() {
        let mut frame = encode_request(&sample_request());
        frame.truncate(frame.len() / 2);
        let mut cursor = io::Cursor::new(frame);
        match read_request(&mut cursor, MAX_FRAME_BYTES) {
            Err(WireError::Torn { got, want }) => {
                assert!(got > 0 && got < want);
            }
            other => panic!("expected Torn, got {other:?}"),
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(b"SQ01");
        let mut cursor = io::Cursor::new(frame);
        match read_request(&mut cursor, MAX_FRAME_BYTES) {
            Err(WireError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = encode_request(&sample_request());
        frame[4..8].copy_from_slice(b"XXXX");
        let mut cursor = io::Cursor::new(frame);
        assert!(matches!(
            read_request(&mut cursor, MAX_FRAME_BYTES),
            Err(WireError::BadMagic)
        ));
    }

    #[test]
    fn data_length_must_match_header() {
        let mut req = sample_request();
        req.data.pop();
        // encode_request writes what it's given; the *decoder* must
        // notice the header/body disagreement.
        let mut frame = encode_request(&req);
        // Fix up the prefix to match the shortened payload.
        let payload_len = frame.len() - 4;
        frame[..4].copy_from_slice(&u32_len(payload_len).to_le_bytes());
        let mut cursor = io::Cursor::new(frame);
        assert!(matches!(
            read_request(&mut cursor, MAX_FRAME_BYTES),
            Err(WireError::Malformed(_))
        ));
    }
}
