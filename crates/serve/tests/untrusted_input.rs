//! Property tests for every decoder that reads untrusted input in the
//! serving tier: the wire decoders (`read_request`, `read_response`,
//! `read_stats_response`) on arbitrary and corrupted byte streams, and
//! `WisdomStore::open` on arbitrary and corrupted file bodies. None may
//! panic; failures come back as a typed `WireError` or as a wisdom
//! discard with a reason. Valid frames round-trip exactly.

use proptest::collection::vec;
use proptest::prelude::*;
use spiral_serve::wire::{
    encode_request, encode_response, encode_stats_response, read_request, read_response,
    read_stats_response, ReadEvent, REQUEST_MAGIC, RESPONSE_MAGIC, STATS_MAGIC,
};
use spiral_serve::{
    LoadReport, PlanService, Request, Response, StatsKind, WireError, WisdomStore, MAX_FRAME_BYTES,
};
use spiral_spl::cplx::Cplx;
use std::io::Cursor;

/// Every decoder over one byte stream: none may panic, each returns
/// `Ok` or a typed error. The small frame ceiling makes arbitrary length
/// prefixes reach the payload paths with short bodies.
fn decode_all(bytes: &[u8]) {
    let _ = read_request(&mut Cursor::new(bytes), 1 << 12);
    let _ = read_request(&mut Cursor::new(bytes), MAX_FRAME_BYTES);
    let _ = read_response(&mut Cursor::new(bytes));
    let _ = read_stats_response(&mut Cursor::new(bytes));
}

/// `frame` with bytes XOR-ed at `flips` and cut to `cut` bytes.
fn corrupt(mut frame: Vec<u8>, flips: &[(usize, u8)], cut: usize) -> Vec<u8> {
    for &(at, byte) in flips {
        let i = at % frame.len();
        frame[i] ^= byte;
    }
    frame.truncate(cut % (frame.len() + 1));
    frame
}

fn points(raw: &[(f64, f64)]) -> Vec<Cplx> {
    raw.iter().map(|&(re, im)| Cplx::new(re, im)).collect()
}

/// Arbitrary Unicode text from raw code points (surrogates skipped).
fn text(raw: &[u32]) -> String {
    raw.iter()
        .filter_map(|&c| char::from_u32(c % 0x11_0000))
        .collect()
}

/// Regression: a request header whose `n · batch` point count, times 16
/// bytes, overflows `usize` must be a typed error, not an arithmetic
/// overflow panic.
#[test]
fn request_with_overflowing_byte_count_is_malformed() {
    let mut frame = 24u32.to_le_bytes().to_vec();
    frame.extend_from_slice(&REQUEST_MAGIC);
    frame.extend_from_slice(&7u64.to_le_bytes());
    frame.extend_from_slice(&[0xff; 8]); // n = batch = u32::MAX
    frame.extend_from_slice(&0u32.to_le_bytes());
    let got = read_request(&mut Cursor::new(&frame), MAX_FRAME_BYTES);
    assert!(matches!(got, Err(WireError::Malformed(_))), "{got:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Pure random bytes almost never carry a valid magic, so three in
    /// four streams start like a real frame (length prefix, magic) and
    /// reach the header and body decoders.
    #[test]
    fn decoders_never_panic_on_arbitrary_bytes(
        which in 0u8..4,
        rest in vec(any::<u8>(), 0..96),
        len in 0u32..128,
    ) {
        let magic = [REQUEST_MAGIC, RESPONSE_MAGIC, STATS_MAGIC].get(usize::from(which));
        let mut bytes = Vec::new();
        if let Some(magic) = magic {
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(magic);
        }
        bytes.extend_from_slice(&rest);
        decode_all(&bytes);
    }

    #[test]
    fn requests_roundtrip_and_survive_corruption(
        id in any::<u64>(),
        n in 1u32..17,
        batch in 1u32..4,
        deadline_ms in any::<u32>(),
        raw in vec((any::<f64>(), any::<f64>()), 48),
        flips in vec((any::<usize>(), any::<u8>()), 1..6),
        cut in any::<usize>(),
    ) {
        let data = points(&raw[..(n * batch) as usize]);
        let req = Request { id, n, batch, deadline_ms, data };
        let frame = encode_request(&req);
        match read_request(&mut Cursor::new(&frame), MAX_FRAME_BYTES) {
            Ok(ReadEvent::Request(back)) => prop_assert_eq!(back, req),
            other => prop_assert!(false, "expected the request back, got {:?}", other),
        }
        decode_all(&corrupt(frame, &flips, cut));
    }

    #[test]
    fn responses_roundtrip_and_survive_corruption(
        id in any::<u64>(),
        status in 0u8..4,
        raw in vec((any::<f64>(), any::<f64>()), 0..24),
        message in vec(any::<u32>(), 0..24),
        flips in vec((any::<usize>(), any::<u8>()), 1..6),
        cut in any::<usize>(),
    ) {
        let resp = match status {
            0 => Response::Ok { id, data: points(&raw) },
            1 => Response::Overloaded { id },
            2 => Response::Expired { id },
            _ => Response::Error { id, message: text(&message) },
        };
        let frame = encode_response(&resp);
        let back = read_response(&mut Cursor::new(&frame));
        prop_assert_eq!(back.map_err(|e| e.to_string()), Ok(resp));
        decode_all(&corrupt(frame, &flips, cut));
    }

    #[test]
    fn stats_frames_roundtrip(code in 0usize..3, body in vec(any::<u32>(), 0..64)) {
        let kind = [StatsKind::Json, StatsKind::Prom, StatsKind::Dump][code];
        let body = text(&body);
        let back = read_stats_response(&mut Cursor::new(encode_stats_response(kind, &body)));
        prop_assert_eq!(back.map_err(|e| e.to_string()), Ok((kind, body)));
    }
}

/// Open a wisdom file holding exactly `body`.
fn open_body(name: &str, body: &[u8]) -> LoadReport {
    let dir = std::env::temp_dir().join(format!("spiral-untrusted-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(name), body).unwrap();
    WisdomStore::open(dir.join(name)).1
}

/// Regression: a body that is not UTF-8 used to read as a missing file —
/// a silent fresh start with no discard reason.
#[test]
fn non_utf8_wisdom_is_discarded_with_a_reason() {
    let report = open_body("non_utf8.json", &[0xff, 0xfe, b'{', b'}']);
    assert!(report.discarded.is_some_and(|r| !r.is_empty()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_wisdom_bodies_are_discarded_with_a_reason(bytes in vec(any::<u8>(), 0..128)) {
        let report = open_body("arbitrary.json", &bytes);
        prop_assert!(
            report.discarded.as_ref().is_some_and(|r| !r.is_empty()),
            "body {:?} not discarded: {:?}",
            bytes,
            report.discarded
        );
    }

    #[test]
    fn corrupted_wisdom_never_panics(
        flips in vec((any::<usize>(), any::<u8>()), 0..4),
        cut in any::<usize>(),
    ) {
        // A real wisdom file body: one tuned sequential entry.
        static VALID: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        let valid = VALID.get_or_init(|| {
            let path = std::env::temp_dir()
                .join(format!("spiral-untrusted-valid-{}.json", std::process::id()));
            let _ = std::fs::remove_file(&path);
            PlanService::with_wisdom(1, 4, &path).0.sequential_plan(64).unwrap();
            std::fs::read(&path).unwrap()
        });
        // Keep at least half the file so most cases reach the entries.
        let cut = valid.len() - cut % (valid.len() / 2);
        let report = open_body("corrupted.json", &corrupt(valid.clone(), &flips, cut));
        // Whatever survives, every exclusion carries its reason.
        prop_assert!(report.discarded.as_ref().is_none_or(|r| !r.is_empty()));
        prop_assert!(report.rejected.iter().all(|r| !r.reason.is_empty()));
    }
}
