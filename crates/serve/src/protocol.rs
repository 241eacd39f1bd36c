//! The SMORE wire protocol: length-prefixed, CRC-framed binary messages.
//!
//! The framing discipline is the `.smore` artifact container's
//! ([`smore::artifact`]), applied per message instead of per file, built
//! on the shared [`smore::wire`] primitives:
//!
//! ```text
//! frame   = len: u32 | payload[len]
//! payload = crc32: u32 (over everything after it) | tag: u8 | request_id: u64 | body
//! ```
//!
//! Everything is little-endian. The CRC catches bit rot and torn writes
//! before any field is decoded; every declared count inside a body is
//! bounds-checked against the bytes actually present before any
//! allocation, so a hostile length prefix can never size a buffer the
//! frame itself cannot back ([`MAX_FRAME_LEN`] caps the frame allocation
//! itself — an oversized declaration is *skipped* in bounded chunks and
//! answered with [`ErrorCode::TooLarge`], never allocated).
//!
//! Each request carries a client-chosen `request_id`, echoed verbatim in
//! the response, so clients can pipeline many requests per connection and
//! keep the server's shard queues busy without waiting on round trips.
//! Responses to one connection may interleave with protocol errors but
//! every request gets exactly one response frame.

use std::io::{self, Read, Write};

use smore::wire::{crc32, WireReader, WireResult, WireWriter};
use smore_tensor::Matrix;

/// Hard cap on one frame's payload length. Windows are a few KiB of f32;
/// 1 MiB leaves two orders of magnitude of headroom while keeping a
/// hostile length prefix from sizing a real allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Smallest structurally possible payload: CRC (4) + tag (1) + id (8).
pub const MIN_FRAME_LEN: usize = 13;

/// Hard cap on one window dimension (rows or columns) on the wire.
pub const MAX_WINDOW_DIM: usize = 4096;

/// `request_id` echoed when a frame was too corrupt to recover one.
pub const UNKNOWN_REQUEST_ID: u64 = u64::MAX;

// Request tags.
const TAG_PREDICT: u8 = 0x01;
const TAG_INGEST: u8 = 0x02;
const TAG_PING: u8 = 0x03;
const TAG_STATS: u8 = 0x04;
// Response tags.
const TAG_PREDICTION: u8 = 0x81;
const TAG_PONG: u8 = 0x82;
const TAG_STATS_RESP: u8 = 0x83;
const TAG_ERROR: u8 = 0xEE;

/// Machine-readable failure class carried by an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or body failed structural validation (bad CRC,
    /// truncated body, out-of-range shape, trailing bytes…).
    Malformed,
    /// The tenant's worker queue is full — admission control refused the
    /// request instead of buffering unboundedly. Back off and retry.
    Overloaded,
    /// The model rejected the request (e.g. a label out of range or a
    /// window whose shape the encoder refuses).
    Rejected,
    /// The declared frame length exceeds [`MAX_FRAME_LEN`].
    TooLarge,
    /// The message tag is not one this server understands.
    UnknownTag,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Overloaded => 2,
            ErrorCode::Rejected => 3,
            ErrorCode::TooLarge => 4,
            ErrorCode::UnknownTag => 5,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::Overloaded),
            3 => Some(ErrorCode::Rejected),
            4 => Some(ErrorCode::TooLarge),
            5 => Some(ErrorCode::UnknownTag),
            _ => None,
        }
    }
}

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Stateless prediction — served straight from the shared base until
    /// the tenant personalizes. Does not touch the tenant's adaptation
    /// state (or create a session).
    Predict {
        /// The tenant whose serving model answers (base snapshot until
        /// that tenant personalizes).
        tenant_id: u64,
        /// The raw multi-sensor window, row-major `time × channels`.
        window: Matrix,
    },
    /// Stateful ingest — serves *and* drives the tenant's OOD buffer,
    /// drift detector and (when drift fires) online enrolment.
    Ingest {
        /// The tenant whose session ingests the window.
        tenant_id: u64,
        /// Delayed ground truth for the oracle labelling strategy.
        label: Option<u32>,
        /// The raw multi-sensor window, row-major `time × channels`.
        window: Matrix,
    },
    /// Liveness probe; answered with [`Response::Pong`] without touching
    /// a worker queue.
    Ping,
    /// Telemetry scrape; answered with [`Response::Stats`] by the
    /// connection's writer thread once every reply queued before it is
    /// written — like [`Request::Ping`] it never enters a worker queue, so
    /// an overloaded server still answers its own diagnosis.
    Stats,
}

/// The serving result carried by [`Response::Prediction`] — a compact
/// wire projection of [`smore::Prediction`] plus the streaming outcome
/// flags.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePrediction {
    /// Predicted class label.
    pub label: u32,
    /// Whether the query was declared out-of-distribution.
    pub is_ood: bool,
    /// Maximum descriptor similarity `δ_max`.
    pub delta_max: f32,
    /// External tag of the most similar domain.
    pub best_domain: u32,
    /// Whether the window was buffered for enrolment (ingest only).
    pub buffered: bool,
    /// Whether this very request fired an online enrolment (ingest only).
    pub adapted: bool,
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The prediction for one [`Request::Predict`] / [`Request::Ingest`].
    Prediction(WirePrediction),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Stats`]: one encoded
    /// [`smore_obs::StatsSnapshot`] frame body (versioned; decode with
    /// [`smore_obs::StatsSnapshot::decode`]). Carried opaquely so the
    /// protocol layer never chases the telemetry vocabulary.
    Stats(Vec<u8>),
    /// The request failed; the connection stays usable.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Seals `tag | request_id | body` into a full frame (length prefix +
/// CRC + payload).
fn seal(tag: u8, request_id: u64, body: impl FnOnce(&mut WireWriter)) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(tag);
    w.u64(request_id);
    body(&mut w);
    let inner = w.into_bytes();
    let mut out = Vec::with_capacity(8 + inner.len());
    out.extend_from_slice(&((4 + inner.len()) as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&inner).to_le_bytes());
    out.extend_from_slice(&inner);
    out
}

fn write_window(w: &mut WireWriter, window: &Matrix) {
    w.u32(window.rows() as u32);
    w.u32(window.cols() as u32);
    w.f32s(window.as_slice());
}

fn read_window(r: &mut WireReader<'_>) -> WireResult<Matrix> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    if rows == 0 || cols == 0 || rows > MAX_WINDOW_DIM || cols > MAX_WINDOW_DIM {
        return Err(
            r.malformed(format!("window shape {rows}×{cols} is outside (0, {MAX_WINDOW_DIM}]²"))
        );
    }
    // rows × cols ≤ MAX_WINDOW_DIM² < 2^24 — no overflow; the byte bound
    // against the remaining payload happens before the allocation.
    let n = rows * cols;
    if n * 4 > r.remaining() {
        return Err(r.malformed(format!(
            "window of {n} values exceeds the {}-byte payload",
            r.remaining()
        )));
    }
    let values = r.f32s(n)?;
    Matrix::from_vec(rows, cols, values).map_err(|e| r.malformed(format!("window rejected: {e}")))
}

/// Encodes one request into a ready-to-write frame.
pub fn encode_request(request_id: u64, request: &Request) -> Vec<u8> {
    match request {
        Request::Predict { tenant_id, window } => seal(TAG_PREDICT, request_id, |w| {
            w.u64(*tenant_id);
            write_window(w, window);
        }),
        Request::Ingest { tenant_id, label, window } => seal(TAG_INGEST, request_id, |w| {
            w.u64(*tenant_id);
            match label {
                Some(l) => {
                    w.u8(1);
                    w.u32(*l);
                }
                None => w.u8(0),
            }
            write_window(w, window);
        }),
        Request::Ping => seal(TAG_PING, request_id, |_| {}),
        Request::Stats => seal(TAG_STATS, request_id, |_| {}),
    }
}

/// Encodes one response into a ready-to-write frame.
pub fn encode_response(request_id: u64, response: &Response) -> Vec<u8> {
    match response {
        Response::Prediction(p) => seal(TAG_PREDICTION, request_id, |w| {
            w.u32(p.label);
            w.u8(p.is_ood as u8);
            w.f32(p.delta_max);
            w.u32(p.best_domain);
            w.u8(p.buffered as u8);
            w.u8(p.adapted as u8);
        }),
        Response::Pong => seal(TAG_PONG, request_id, |_| {}),
        Response::Stats(snapshot) => seal(TAG_STATS_RESP, request_id, |w| {
            w.u32(snapshot.len() as u32);
            w.bytes(snapshot);
        }),
        Response::Error { code, message } => seal(TAG_ERROR, request_id, |w| {
            w.u8(code.to_byte());
            w.str_lp(message);
        }),
    }
}

/// What [`read_frame`] produced.
#[derive(Debug)]
pub enum FrameRead {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// One complete payload (CRC not yet verified — [`decode_request`] /
    /// [`decode_response`] verify it).
    Payload(Vec<u8>),
    /// The declared length exceeded [`MAX_FRAME_LEN`]; the frame was
    /// *skipped* (drained in bounded chunks, never allocated whole). The
    /// connection is still framed correctly.
    Oversized {
        /// The length the peer declared.
        declared: usize,
    },
    /// The declared length cannot hold CRC + tag + request id; skipped
    /// like [`FrameRead::Oversized`].
    Runt {
        /// The length the peer declared.
        declared: usize,
    },
}

/// Reads one length-prefixed frame. Mid-frame EOF and transport failures
/// surface as `Err`; a clean close at a frame boundary is
/// [`FrameRead::Closed`].
pub fn read_frame(r: &mut impl Read) -> io::Result<FrameRead> {
    let mut len_bytes = [0u8; 4];
    // A clean EOF before any length byte means the peer hung up.
    match r.read(&mut len_bytes)? {
        0 => return Ok(FrameRead::Closed),
        // smore-lint: allow(panic_path) read() returns at most buf.len(), so n..4 is in range
        n => r.read_exact(&mut len_bytes[n..])?,
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if !(MIN_FRAME_LEN..=MAX_FRAME_LEN).contains(&len) {
        // Drain the declared bytes through a bounded buffer so the
        // connection stays framed without ever allocating `len`.
        let mut remaining = len as u64;
        let mut sink = [0u8; 4096];
        while remaining > 0 {
            let take = sink.len().min(remaining as usize);
            // smore-lint: allow(panic_path) take is clamped to sink.len() one line up
            r.read_exact(&mut sink[..take])?;
            remaining -= take as u64;
        }
        return Ok(if len > MAX_FRAME_LEN {
            FrameRead::Oversized { declared: len }
        } else {
            FrameRead::Runt { declared: len }
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(FrameRead::Payload(payload))
}

/// Writes pre-encoded frame bytes.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)
}

/// A request frame the server could not turn into a [`Request`]. Carries
/// everything needed to answer with a well-formed error response and keep
/// the connection alive.
#[derive(Debug, Clone, PartialEq)]
pub struct BadFrame {
    /// The request id to echo ([`UNKNOWN_REQUEST_ID`] when the frame was
    /// too corrupt to recover one).
    pub request_id: u64,
    /// Failure class for the error response.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Verifies the payload CRC and splits off `tag | request_id`, shared by
/// both decode directions.
fn open_payload(payload: &[u8]) -> Result<(u8, u64, WireReader<'_>), BadFrame> {
    let bad = |message: String| BadFrame {
        request_id: UNKNOWN_REQUEST_ID,
        code: ErrorCode::Malformed,
        message,
    };
    if payload.len() < MIN_FRAME_LEN {
        return Err(bad(format!(
            "payload of {} bytes is shorter than {MIN_FRAME_LEN}",
            payload.len()
        )));
    }
    // The length guard above proves 4 bytes exist, but stay typed anyway:
    // the connection thread must never panic on peer input.
    let Some((crc_bytes, inner)) = payload.split_first_chunk::<4>() else {
        return Err(bad("payload too short to carry a CRC".into()));
    };
    let declared = u32::from_le_bytes(*crc_bytes);
    if crc32(inner) != declared {
        // The id bytes failed the checksum too — echoing them could
        // mis-route the error onto an innocent in-flight request.
        return Err(bad("frame CRC mismatch".into()));
    }
    let mut r = WireReader::new(inner, "frame");
    let tag = r.u8().map_err(|e| bad(e.to_string()))?;
    let request_id = r.u64().map_err(|e| bad(e.to_string()))?;
    Ok((tag, request_id, r))
}

/// Decodes a request payload (server side).
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request), BadFrame> {
    let (tag, request_id, mut r) = open_payload(payload)?;
    let malformed = |e: smore::wire::WireError| BadFrame {
        request_id,
        code: ErrorCode::Malformed,
        message: e.to_string(),
    };
    let request = match tag {
        TAG_PREDICT => {
            let tenant_id = r.u64().map_err(malformed)?;
            let window = read_window(&mut r).map_err(malformed)?;
            Request::Predict { tenant_id, window }
        }
        TAG_INGEST => {
            let tenant_id = r.u64().map_err(malformed)?;
            let label = match r.u8().map_err(malformed)? {
                0 => None,
                1 => Some(r.u32().map_err(malformed)?),
                other => {
                    return Err(BadFrame {
                        request_id,
                        code: ErrorCode::Malformed,
                        message: format!("label flag must be 0 or 1, got {other}"),
                    })
                }
            };
            let window = read_window(&mut r).map_err(malformed)?;
            Request::Ingest { tenant_id, label, window }
        }
        TAG_PING => Request::Ping,
        TAG_STATS => Request::Stats,
        other => {
            return Err(BadFrame {
                request_id,
                code: ErrorCode::UnknownTag,
                message: format!("unknown request tag 0x{other:02X}"),
            })
        }
    };
    r.finish().map_err(malformed)?;
    Ok((request_id, request))
}

/// Decodes a response payload (client side).
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response), BadFrame> {
    let (tag, request_id, mut r) = open_payload(payload)?;
    let malformed = |e: smore::wire::WireError| BadFrame {
        request_id,
        code: ErrorCode::Malformed,
        message: e.to_string(),
    };
    let response = match tag {
        TAG_PREDICTION => {
            let label = r.u32().map_err(malformed)?;
            let is_ood = r.u8().map_err(malformed)? != 0;
            let delta_max = r.f32().map_err(malformed)?;
            let best_domain = r.u32().map_err(malformed)?;
            let buffered = r.u8().map_err(malformed)? != 0;
            let adapted = r.u8().map_err(malformed)? != 0;
            Response::Prediction(WirePrediction {
                label,
                is_ood,
                delta_max,
                best_domain,
                buffered,
                adapted,
            })
        }
        TAG_PONG => Response::Pong,
        TAG_STATS_RESP => {
            let n = r.count("snapshot byte", 1).map_err(malformed)?;
            Response::Stats(r.take(n).map_err(malformed)?.to_vec())
        }
        TAG_ERROR => {
            let code_byte = r.u8().map_err(malformed)?;
            let code = ErrorCode::from_byte(code_byte).ok_or_else(|| BadFrame {
                request_id,
                code: ErrorCode::Malformed,
                message: format!("unknown error code {code_byte}"),
            })?;
            let message = r.str_lp().map_err(malformed)?;
            Response::Error { code, message }
        }
        other => {
            return Err(BadFrame {
                request_id,
                code: ErrorCode::UnknownTag,
                message: format!("unknown response tag 0x{other:02X}"),
            })
        }
    };
    r.finish().map_err(malformed)?;
    Ok((request_id, response))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> Matrix {
        Matrix::from_fn(6, 3, |i, j| (i * 3 + j) as f32 / 10.0)
    }

    fn round_trip_request(request: Request) {
        let frame = encode_request(42, &request);
        let mut cursor = io::Cursor::new(frame);
        let payload = match read_frame(&mut cursor).unwrap() {
            FrameRead::Payload(p) => p,
            other => panic!("expected payload, got {other:?}"),
        };
        let (id, decoded) = decode_request(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(decoded, request);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Predict { tenant_id: 7, window: window() });
        round_trip_request(Request::Ingest { tenant_id: 7, label: Some(3), window: window() });
        round_trip_request(Request::Ingest { tenant_id: 1, label: None, window: window() });
        round_trip_request(Request::Ping);
        round_trip_request(Request::Stats);
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Prediction(WirePrediction {
                label: 3,
                is_ood: true,
                delta_max: 0.73,
                best_domain: 2,
                buffered: true,
                adapted: false,
            }),
            Response::Pong,
            Response::Stats(vec![0x01, 0x00, 0xAB, 0xCD]),
            Response::Stats(Vec::new()),
            Response::Error { code: ErrorCode::Overloaded, message: "queue full".into() },
        ];
        for response in cases {
            let frame = encode_response(9, &response);
            let mut cursor = io::Cursor::new(frame);
            let payload = match read_frame(&mut cursor).unwrap() {
                FrameRead::Payload(p) => p,
                other => panic!("expected payload, got {other:?}"),
            };
            let (id, decoded) = decode_response(&payload).unwrap();
            assert_eq!(id, 9);
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn crc_catches_single_bit_flips() {
        let frame = encode_request(1, &Request::Predict { tenant_id: 0, window: window() });
        // Flip one bit in every payload byte position in turn; each must
        // be caught by the CRC (or by the id being inside the checksum).
        for byte in 8..frame.len() {
            let mut corrupt = frame.clone();
            corrupt[byte] ^= 0x10;
            let mut cursor = io::Cursor::new(corrupt);
            let payload = match read_frame(&mut cursor).unwrap() {
                FrameRead::Payload(p) => p,
                other => panic!("expected payload, got {other:?}"),
            };
            let err = decode_request(&payload).unwrap_err();
            assert_eq!(err.request_id, UNKNOWN_REQUEST_ID, "byte {byte}");
            assert_eq!(err.code, ErrorCode::Malformed, "byte {byte}");
        }
    }

    #[test]
    fn oversized_and_runt_lengths_are_skipped_not_allocated() {
        // Oversized declaration backed by only a few real bytes: the
        // reader must report Oversized after draining what is there —
        // here the "frame" ends mid-drain, which is a transport error.
        let mut bytes = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 64]);
        let mut cursor = io::Cursor::new(bytes);
        assert!(read_frame(&mut cursor).is_err(), "mid-drain EOF is a transport error");

        // Oversized declaration with the bytes actually present: skipped
        // cleanly, connection stays framed for the next message.
        let declared = MAX_FRAME_LEN + 5;
        let mut bytes = (declared as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&vec![7u8; declared]);
        let good = encode_request(3, &Request::Ping);
        bytes.extend_from_slice(&good);
        let mut cursor = io::Cursor::new(bytes);
        match read_frame(&mut cursor).unwrap() {
            FrameRead::Oversized { declared: d } => assert_eq!(d, declared),
            other => panic!("expected Oversized, got {other:?}"),
        }
        match read_frame(&mut cursor).unwrap() {
            FrameRead::Payload(p) => {
                assert_eq!(decode_request(&p).unwrap(), (3, Request::Ping));
            }
            other => panic!("expected payload, got {other:?}"),
        }

        // Runt: declared length below the structural minimum.
        let mut bytes = 4u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 4]);
        let mut cursor = io::Cursor::new(bytes);
        assert!(matches!(read_frame(&mut cursor).unwrap(), FrameRead::Runt { declared: 4 }));
    }

    #[test]
    fn truncated_bodies_and_hostile_counts_are_rejected() {
        let frame = encode_request(5, &Request::Predict { tenant_id: 1, window: window() });
        // Re-frame a truncated payload with a consistent length + CRC so
        // the *body* decode (not the CRC) must catch it.
        let inner = &frame[8..frame.len() - 8];
        let mut reframed = ((4 + inner.len()) as u32).to_le_bytes().to_vec();
        reframed.extend_from_slice(&crc32(inner).to_le_bytes());
        reframed.extend_from_slice(inner);
        let mut cursor = io::Cursor::new(reframed);
        let payload = match read_frame(&mut cursor).unwrap() {
            FrameRead::Payload(p) => p,
            other => panic!("expected payload, got {other:?}"),
        };
        let err = decode_request(&payload).unwrap_err();
        assert_eq!(err.request_id, 5, "body errors echo the request id");
        assert_eq!(err.code, ErrorCode::Malformed);

        // A window declaring 4096×4096 values over a tiny payload must be
        // refused before any allocation.
        let hostile = seal(TAG_PREDICT, 6, |w| {
            w.u64(1);
            w.u32(4096);
            w.u32(4096);
            w.f32s(&[0.0; 8]);
        });
        let mut cursor = io::Cursor::new(hostile);
        let payload = match read_frame(&mut cursor).unwrap() {
            FrameRead::Payload(p) => p,
            other => panic!("expected payload, got {other:?}"),
        };
        let err = decode_request(&payload).unwrap_err();
        assert_eq!((err.request_id, err.code), (6, ErrorCode::Malformed));
        assert!(err.message.contains("exceeds"), "{}", err.message);
    }

    #[test]
    fn unknown_tags_echo_the_request_id() {
        let frame = seal(0x5A, 77, |_| {});
        let payload = match read_frame(&mut io::Cursor::new(frame)).unwrap() {
            FrameRead::Payload(p) => p,
            other => panic!("expected payload, got {other:?}"),
        };
        let err = decode_request(&payload).unwrap_err();
        assert_eq!((err.request_id, err.code), (77, ErrorCode::UnknownTag));
    }

    #[test]
    fn trailing_bytes_inside_a_frame_are_rejected() {
        let frame = seal(TAG_PING, 8, |w| w.u32(0xAB));
        let payload = match read_frame(&mut io::Cursor::new(frame)).unwrap() {
            FrameRead::Payload(p) => p,
            other => panic!("expected payload, got {other:?}"),
        };
        let err = decode_request(&payload).unwrap_err();
        assert_eq!((err.request_id, err.code), (8, ErrorCode::Malformed));
        assert!(err.message.contains("trailing"), "{}", err.message);
    }
}
