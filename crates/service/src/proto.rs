//! Wire protocol: framing, opcodes, and request/response codecs.
//!
//! Everything here is plain `std` byte-pushing — the format is fully
//! described in the crate-level docs ([`crate`]). In short: every message
//! is one *frame* (`u32` big-endian payload length, then a `u32`-BE
//! **request id**, then the payload), the payload's first byte is the
//! opcode, and all variable-length fields are `u32`-BE length-prefixed
//! UTF-8 strings.
//!
//! # Request ids and pipelining
//!
//! A server answers a connection's frames in the order it read them, so a
//! client can keep several requests in flight on one connection and pair
//! each answer with its oldest unanswered request. The server echoes each
//! request's id on its response frame, which lets the client check that
//! the two sides agree. Clients number requests from 1; id `0` tags the
//! error frames a server sends when it cannot read a request's id, each
//! answering the oldest unanswered request before the server closes the
//! connection.

use std::io::{self, Read, Write};

use crate::registry::RegistryStats;

/// Hard cap on a frame's payload length (16 MiB). A peer announcing more
/// is answered with [`ErrorCode::FrameTooLarge`] and disconnected — the
/// declared bytes are never read, so a hostile header cannot make the
/// server buffer unbounded input.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Request opcodes (first payload byte, client → server).
pub mod op {
    /// Compile (or look up) the embedding for a DTD pair.
    pub const COMPILE: u8 = 0x01;
    /// Map a source document through `σd`.
    pub const APPLY: u8 = 0x02;
    /// Recover a source document through `σd⁻¹`.
    pub const INVERT: u8 = 0x03;
    /// Translate a source query to the target schema.
    pub const TRANSLATE: u8 = 0x04;
    /// Fetch registry statistics.
    pub const STATS: u8 = 0x05;
    /// Drop the pair's cached embedding.
    pub const EVICT: u8 = 0x06;
}

/// Response opcodes (first payload byte, server → client).
pub mod resp {
    /// Embedding compiled / found: hashes + size.
    pub const COMPILED: u8 = 0x81;
    /// A document (apply / invert result).
    pub const DOCUMENT: u8 = 0x82;
    /// Translation metrics.
    pub const TRANSLATED: u8 = 0x83;
    /// Registry statistics.
    pub const STATS: u8 = 0x84;
    /// Eviction acknowledgement.
    pub const EVICTED: u8 = 0x85;
    /// Structured error.
    pub const ERROR: u8 = 0xFF;
}

/// Structured error codes carried by [`Response::Error`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ErrorCode {
    /// Declared frame length exceeds [`MAX_FRAME_LEN`]; connection closes.
    FrameTooLarge,
    /// Payload too short / length fields inconsistent / invalid UTF-8.
    Malformed,
    /// First payload byte is not a known request opcode.
    UnknownOpcode,
    /// A DTD field failed to parse or reduce.
    BadDtd,
    /// A document field failed to parse or validate.
    BadDocument,
    /// A query field failed to parse.
    BadQuery,
    /// Discovery found no information-preserving embedding for the pair.
    NoEmbedding,
    /// The engine rejected an otherwise well-formed request (apply/invert
    /// failure, internal error).
    EngineError,
    /// Reserved: no request produces it. (An `Evict` of a pair that is
    /// not cached answers `Evicted { existed: false }`.) The code stays
    /// decodable so the wire numbering does not shift.
    NotFound,
    /// The server is shedding load (its connection cap was reached); the
    /// request was **not** executed and is always safe to retry elsewhere
    /// or later.
    Overloaded,
    /// A deadline expired: the server's per-request time budget ran out,
    /// or its read deadline fired while a frame was partially received.
    Timeout,
    /// A code byte this build does not know. Preserved verbatim so old
    /// clients stay able to log (and classify as fatal) errors introduced
    /// by newer servers instead of treating them as protocol violations.
    Unknown(u8),
}

impl ErrorCode {
    /// Every code this build knows, in wire-byte order (used by the
    /// taxonomy round-trip tests).
    pub const KNOWN: [ErrorCode; 11] = [
        ErrorCode::FrameTooLarge,
        ErrorCode::Malformed,
        ErrorCode::UnknownOpcode,
        ErrorCode::BadDtd,
        ErrorCode::BadDocument,
        ErrorCode::BadQuery,
        ErrorCode::NoEmbedding,
        ErrorCode::EngineError,
        ErrorCode::NotFound,
        ErrorCode::Overloaded,
        ErrorCode::Timeout,
    ];

    /// The wire byte. `Unknown` round-trips its original byte (it is a
    /// caller bug to construct `Unknown` with one of the assigned bytes).
    pub fn to_u8(self) -> u8 {
        match self {
            ErrorCode::FrameTooLarge => 1,
            ErrorCode::Malformed => 2,
            ErrorCode::UnknownOpcode => 3,
            ErrorCode::BadDtd => 4,
            ErrorCode::BadDocument => 5,
            ErrorCode::BadQuery => 6,
            ErrorCode::NoEmbedding => 7,
            ErrorCode::EngineError => 8,
            ErrorCode::NotFound => 9,
            ErrorCode::Overloaded => 10,
            ErrorCode::Timeout => 11,
            ErrorCode::Unknown(b) => b,
        }
    }

    /// Decode a wire byte; total — unassigned bytes stay distinguished as
    /// [`ErrorCode::Unknown`].
    pub fn from_u8(b: u8) -> ErrorCode {
        match b {
            1 => ErrorCode::FrameTooLarge,
            2 => ErrorCode::Malformed,
            3 => ErrorCode::UnknownOpcode,
            4 => ErrorCode::BadDtd,
            5 => ErrorCode::BadDocument,
            6 => ErrorCode::BadQuery,
            7 => ErrorCode::NoEmbedding,
            8 => ErrorCode::EngineError,
            9 => ErrorCode::NotFound,
            10 => ErrorCode::Overloaded,
            11 => ErrorCode::Timeout,
            other => ErrorCode::Unknown(other),
        }
    }
}

/// A decoded client request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Ensure the pair's embedding is compiled and cached.
    Compile {
        source_dtd: String,
        target_dtd: String,
    },
    /// `σd`: map `xml` (a source document) to the target schema. The
    /// server validates the parsed document, then writes `σd(xml)` straight
    /// to compact XML text with the engine's compiled programs
    /// (`CompiledEmbedding::apply_to_xml`): no output tree and no `idM` are
    /// built, and the text is byte for byte `apply(..).tree.to_xml()`.
    Apply {
        source_dtd: String,
        target_dtd: String,
        xml: String,
    },
    /// `σd⁻¹`: recover the source document from `xml` (a target document).
    Invert {
        source_dtd: String,
        target_dtd: String,
        xml: String,
    },
    /// `Tr`: translate `query` (source-side XR) to the target schema.
    Translate {
        source_dtd: String,
        target_dtd: String,
        query: String,
    },
    /// Registry statistics snapshot.
    Stats,
    /// Drop the pair's cached embedding.
    Evict {
        source_dtd: String,
        target_dtd: String,
    },
}

/// A decoded server response.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// The pair's embedding is cached; hashes identify the canonical DTDs.
    Compiled {
        source_hash: String,
        target_hash: String,
        size: u64,
    },
    /// A serialized document (apply / invert output).
    Document { xml: String },
    /// Translation metrics: `|Tr(Q)|`, the automaton's state count, and
    /// the serving engine's cumulative plan-cache counters (so a client
    /// can observe whether its query hit a cached plan).
    Translated {
        size: u64,
        states: u64,
        plan_hits: u64,
        plan_misses: u64,
    },
    /// Registry statistics: the eleven [`RegistryStats`] counters, each a
    /// `u64` (BE) in field order.
    Stats(RegistryStats),
    /// Eviction acknowledgement (`existed` = whether the pair was cached).
    Evicted { existed: bool },
    /// Structured failure.
    Error { code: ErrorCode, message: String },
}

/// Why a frame could not be read. Clean closes, truncations and expired
/// deadlines are distinguished so callers (the server's per-connection
/// loop, the client's retry policy) can react differently: a `Closed`
/// peer simply went away between requests, a `Truncated` one died (or was
/// cut) mid-message, and `TimedOut` means the socket's read deadline
/// expired — the peer may still be alive but is too slow.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket/file error (deadline expiries are reported as
    /// [`FrameError::TimedOut`], not here).
    Io(io::Error),
    /// Peer announced a payload over [`MAX_FRAME_LEN`] bytes long.
    TooLarge(usize),
    /// Clean close: end-of-stream at a frame boundary, before any byte of
    /// the next frame arrived.
    Closed,
    /// End-of-stream in the middle of a frame (header or payload arrived
    /// incomplete) — the peer disconnected mid-message.
    Truncated,
    /// The socket's read deadline expired before a full frame arrived.
    /// `mid_frame` reports whether any byte of the frame had been
    /// received: `false` is an *idle* peer (normal keep-alive expiry),
    /// `true` a *stalled* one (it started a frame and went quiet).
    TimedOut {
        /// Whether part of a frame had already arrived.
        mid_frame: bool,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            FrameError::Closed => write!(f, "connection closed at a frame boundary"),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::TimedOut { mid_frame: true } => {
                write!(f, "read deadline expired mid-frame (stalled peer)")
            }
            FrameError::TimedOut { mid_frame: false } => {
                write!(f, "read deadline expired waiting for a frame (idle peer)")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether an i/o error kind is a socket deadline expiry. Unix reports
/// `SO_RCVTIMEO`/`SO_SNDTIMEO` expiry as `WouldBlock`, Windows as
/// `TimedOut`; both mean the same thing here.
pub fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Write one frame: `u32`-BE payload length, `u32`-BE request id, then
/// the payload. Request id 0 is the server's, for connection-level error
/// frames (see the [module docs](self)).
///
/// The header and payload are assembled into one buffer and handed to a
/// single `write_all`, so a frame leaves as one send. Sent as two, the
/// payload of a large frame waits behind the unacknowledged header
/// (Nagle) until the peer's delayed ACK fires, ~40 ms later.
///
/// # Errors
/// `InvalidInput` when the payload exceeds [`MAX_FRAME_LEN`] — an
/// oversized payload must fail loudly rather than wrap in the `u32`
/// length cast and desynchronize the stream.
pub fn write_frame(w: &mut impl Write, request_id: u32, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap",
                payload.len()
            ),
        ));
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&request_id.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame, returning `(request_id, payload)`. The
/// [`MAX_FRAME_LEN`] cap is enforced *before* reading the body (the full
/// 8-byte header is consumed first). An oversized announcement is
/// answered by the server with an **id-0** error frame, which answers the
/// oldest unanswered request before the connection closes. Clean closes
/// ([`FrameError::Closed`]) are distinguished from mid-frame disconnects
/// ([`FrameError::Truncated`]) and read-deadline expiries
/// ([`FrameError::TimedOut`]).
pub fn read_frame(r: &mut impl Read) -> Result<(u32, Vec<u8>), FrameError> {
    let mut header = [0u8; 8];
    fill(r, &mut header, true)?;
    let n = u32::from_be_bytes(header[..4].try_into().unwrap()) as usize;
    let request_id = u32::from_be_bytes(header[4..].try_into().unwrap());
    if n > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(n));
    }
    let mut payload = vec![0u8; n];
    fill(r, &mut payload, false)?;
    Ok((request_id, payload))
}

/// `read_exact` with typed outcomes. `at_boundary` is true for the length
/// header — EOF or a deadline before its **first** byte means the peer is
/// cleanly gone or merely idle, not truncated or stalled.
fn fill(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(if at_boundary && got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(e.kind()) => {
                return Err(FrameError::TimedOut {
                    mid_frame: !(at_boundary && got == 0),
                });
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Cursor over a payload; every getter fails soft so a truncated inner
/// field becomes a decode error, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.at..self.at + 8)?;
        self.at += 8;
        Some(u64::from_be_bytes(bytes.try_into().unwrap()))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.buf.get(self.at..self.at + 4)?;
        let len = u32::from_be_bytes(len.try_into().unwrap()) as usize;
        self.at += 4;
        let bytes = self.buf.get(self.at..self.at + len)?;
        self.at += len;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

impl Request {
    /// Whether re-executing this request cannot change its observable
    /// outcome. `compile`/`apply`/`invert`/`translate` are pure functions
    /// of their payload (compilation is cached, but a duplicate compile is
    /// invisible to callers) and `stats` is a read; `evict` is **not**
    /// idempotent — replaying it can flip the `existed` answer and drop an
    /// entry recompiled in between. The retry policy only replays
    /// idempotent requests after a post-send failure.
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, Request::Evict { .. })
    }

    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Compile {
                source_dtd,
                target_dtd,
            } => {
                buf.push(op::COMPILE);
                put_str(&mut buf, source_dtd);
                put_str(&mut buf, target_dtd);
            }
            Request::Apply {
                source_dtd,
                target_dtd,
                xml,
            } => {
                buf.push(op::APPLY);
                put_str(&mut buf, source_dtd);
                put_str(&mut buf, target_dtd);
                put_str(&mut buf, xml);
            }
            Request::Invert {
                source_dtd,
                target_dtd,
                xml,
            } => {
                buf.push(op::INVERT);
                put_str(&mut buf, source_dtd);
                put_str(&mut buf, target_dtd);
                put_str(&mut buf, xml);
            }
            Request::Translate {
                source_dtd,
                target_dtd,
                query,
            } => {
                buf.push(op::TRANSLATE);
                put_str(&mut buf, source_dtd);
                put_str(&mut buf, target_dtd);
                put_str(&mut buf, query);
            }
            Request::Stats => buf.push(op::STATS),
            Request::Evict {
                source_dtd,
                target_dtd,
            } => {
                buf.push(op::EVICT);
                put_str(&mut buf, source_dtd);
                put_str(&mut buf, target_dtd);
            }
        }
        buf
    }

    /// Decode a frame payload. `Err` carries the structured code to answer
    /// with ([`ErrorCode::Malformed`] or [`ErrorCode::UnknownOpcode`]).
    pub fn decode(payload: &[u8]) -> Result<Request, ErrorCode> {
        let mut c = Cursor::new(payload);
        let opcode = c.u8().ok_or(ErrorCode::Malformed)?;
        let req = match opcode {
            op::COMPILE => Request::Compile {
                source_dtd: c.str().ok_or(ErrorCode::Malformed)?,
                target_dtd: c.str().ok_or(ErrorCode::Malformed)?,
            },
            op::APPLY => Request::Apply {
                source_dtd: c.str().ok_or(ErrorCode::Malformed)?,
                target_dtd: c.str().ok_or(ErrorCode::Malformed)?,
                xml: c.str().ok_or(ErrorCode::Malformed)?,
            },
            op::INVERT => Request::Invert {
                source_dtd: c.str().ok_or(ErrorCode::Malformed)?,
                target_dtd: c.str().ok_or(ErrorCode::Malformed)?,
                xml: c.str().ok_or(ErrorCode::Malformed)?,
            },
            op::TRANSLATE => Request::Translate {
                source_dtd: c.str().ok_or(ErrorCode::Malformed)?,
                target_dtd: c.str().ok_or(ErrorCode::Malformed)?,
                query: c.str().ok_or(ErrorCode::Malformed)?,
            },
            op::STATS => Request::Stats,
            op::EVICT => Request::Evict {
                source_dtd: c.str().ok_or(ErrorCode::Malformed)?,
                target_dtd: c.str().ok_or(ErrorCode::Malformed)?,
            },
            _ => return Err(ErrorCode::UnknownOpcode),
        };
        if !c.done() {
            return Err(ErrorCode::Malformed);
        }
        Ok(req)
    }
}

impl Response {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Compiled {
                source_hash,
                target_hash,
                size,
            } => {
                buf.push(resp::COMPILED);
                put_str(&mut buf, source_hash);
                put_str(&mut buf, target_hash);
                put_u64(&mut buf, *size);
            }
            Response::Document { xml } => {
                buf.push(resp::DOCUMENT);
                put_str(&mut buf, xml);
            }
            Response::Translated {
                size,
                states,
                plan_hits,
                plan_misses,
            } => {
                buf.push(resp::TRANSLATED);
                put_u64(&mut buf, *size);
                put_u64(&mut buf, *states);
                put_u64(&mut buf, *plan_hits);
                put_u64(&mut buf, *plan_misses);
            }
            Response::Stats(s) => {
                buf.push(resp::STATS);
                for v in [
                    s.hits,
                    s.misses,
                    s.compiles,
                    s.single_flight_waits,
                    s.evictions,
                    s.entries,
                    s.compile_nanos,
                    s.plan_hits,
                    s.plan_misses,
                    s.plan_entries,
                    s.negative_hits,
                ] {
                    put_u64(&mut buf, v);
                }
            }
            Response::Evicted { existed } => {
                buf.push(resp::EVICTED);
                buf.push(u8::from(*existed));
            }
            Response::Error { code, message } => {
                buf.push(resp::ERROR);
                buf.push(code.to_u8());
                put_str(&mut buf, message);
            }
        }
        buf
    }

    /// Decode a frame payload; `None` on any malformation (clients treat
    /// that as a protocol error).
    pub fn decode(payload: &[u8]) -> Option<Response> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            resp::COMPILED => Response::Compiled {
                source_hash: c.str()?,
                target_hash: c.str()?,
                size: c.u64()?,
            },
            resp::DOCUMENT => Response::Document { xml: c.str()? },
            resp::TRANSLATED => Response::Translated {
                size: c.u64()?,
                states: c.u64()?,
                plan_hits: c.u64()?,
                plan_misses: c.u64()?,
            },
            resp::STATS => Response::Stats(RegistryStats {
                hits: c.u64()?,
                misses: c.u64()?,
                compiles: c.u64()?,
                single_flight_waits: c.u64()?,
                evictions: c.u64()?,
                entries: c.u64()?,
                compile_nanos: c.u64()?,
                plan_hits: c.u64()?,
                plan_misses: c.u64()?,
                plan_entries: c.u64()?,
                negative_hits: c.u64()?,
            }),
            // Only 0 and 1 are encodings of a bool; any other byte would
            // decode to a value that re-encodes differently.
            resp::EVICTED => Response::Evicted {
                existed: match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            },
            resp::ERROR => Response::Error {
                code: ErrorCode::from_u8(c.u8()?),
                message: c.str()?,
            },
            _ => return None,
        };
        if !c.done() {
            return None;
        }
        Some(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()), Ok(req));
    }

    fn roundtrip_resp(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()), Some(resp));
    }

    #[test]
    fn requests_roundtrip() {
        let d = "<!ELEMENT r (a)>".to_string();
        roundtrip_req(Request::Compile {
            source_dtd: d.clone(),
            target_dtd: d.clone(),
        });
        roundtrip_req(Request::Apply {
            source_dtd: d.clone(),
            target_dtd: d.clone(),
            xml: "<r><a/></r>".into(),
        });
        roundtrip_req(Request::Invert {
            source_dtd: d.clone(),
            target_dtd: d.clone(),
            xml: "<r/>".into(),
        });
        roundtrip_req(Request::Translate {
            source_dtd: d.clone(),
            target_dtd: d.clone(),
            query: "//a".into(),
        });
        roundtrip_req(Request::Stats);
        roundtrip_req(Request::Evict {
            source_dtd: d.clone(),
            target_dtd: d,
        });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Compiled {
            source_hash: "00ff".into(),
            target_hash: "abcd".into(),
            size: 42,
        });
        roundtrip_resp(Response::Document { xml: "<r/>".into() });
        roundtrip_resp(Response::Translated {
            size: 7,
            states: 3,
            plan_hits: 9,
            plan_misses: 1,
        });
        roundtrip_resp(Response::Stats(RegistryStats {
            hits: 1,
            misses: 2,
            compiles: 3,
            single_flight_waits: 4,
            evictions: 5,
            entries: 6,
            compile_nanos: 7,
            plan_hits: 8,
            plan_misses: 9,
            plan_entries: 10,
            negative_hits: 11,
        }));
        roundtrip_resp(Response::Evicted { existed: true });
        roundtrip_resp(Response::Error {
            code: ErrorCode::BadDtd,
            message: "nope".into(),
        });
    }

    #[test]
    fn stats_payload_bytes_are_pinned() {
        // Distinct values with a high and a low byte set, so a swapped
        // field, a dropped field or a little-endian write all change the
        // bytes.
        let v = |i: u64| (i << 56) | i;
        let stats = RegistryStats {
            hits: v(1),
            misses: v(2),
            compiles: v(3),
            single_flight_waits: v(4),
            evictions: v(5),
            entries: v(6),
            compile_nanos: v(7),
            plan_hits: v(8),
            plan_misses: v(9),
            plan_entries: v(10),
            negative_hits: v(11),
        };
        let mut expected = vec![0x84];
        for i in 1..=11 {
            expected.extend_from_slice(&v(i).to_be_bytes());
        }
        assert_eq!(expected.len(), 1 + 11 * 8);
        assert_eq!(Response::Stats(stats).encode(), expected);
        assert_eq!(Response::decode(&expected), Some(Response::Stats(stats)));
    }

    #[test]
    fn truncated_payloads_decode_to_malformed() {
        let full = Request::Apply {
            source_dtd: "<!ELEMENT r (a)>".into(),
            target_dtd: "<!ELEMENT r (a)>".into(),
            xml: "<r><a/></r>".into(),
        }
        .encode();
        for cut in [0, 1, 3, full.len() / 2, full.len() - 1] {
            let got = Request::decode(&full[..cut]);
            assert!(
                matches!(got, Err(ErrorCode::Malformed)),
                "cut at {cut}: {got:?}"
            );
        }
        // Trailing garbage is also malformed, not silently ignored.
        let mut padded = full.clone();
        padded.push(0);
        assert_eq!(Request::decode(&padded), Err(ErrorCode::Malformed));
    }

    #[test]
    fn unknown_opcode_is_distinguished() {
        assert_eq!(Request::decode(&[0x7E]), Err(ErrorCode::UnknownOpcode));
    }

    #[test]
    fn frame_layer_roundtrips_and_caps() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello").unwrap();
        assert_eq!(buf, [&[0, 0, 0, 5, 0, 0, 0, 7][..], b"hello"].concat());
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), (7, b"hello".to_vec()));

        // Id 0 (the server's connection-level tag) round-trips like any
        // other.
        let mut buf = Vec::new();
        write_frame(&mut buf, 0, b"x").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), (0, b"x".to_vec()));

        // Oversized header: rejected before any body bytes are read.
        let mut huge = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec();
        huge.extend_from_slice(&9u32.to_be_bytes());
        let mut r = &huge[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::TooLarge(_))));

        // Oversized payload on the write side: fails loudly (InvalidInput)
        // with nothing written, instead of wrapping the u32 length cast.
        let mut sink = Vec::new();
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        let err = write_frame(&mut sink, 0, &big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty());

        // Clean close at a frame boundary vs. close mid-frame are
        // distinguished: the retry policy treats them differently.
        let mut r: &[u8] = &[];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
        // Partial header: the peer died while announcing a frame.
        let mut r: &[u8] = &[0, 0];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Length but no id: still a truncated header.
        let mut r: &[u8] = &[0, 0, 0, 9, 0, 0];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
        // Full header, partial payload: same verdict.
        let mut r: &[u8] = &[0, 0, 0, 9, 0, 0, 0, 1, b'x'];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
    }

    /// A writer that records every `write` call separately, standing in
    /// for a socket where each call is one send.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_sends_each_frame_in_one_write() {
        // Empty, just under / at an 8 KiB buffer boundary, and a large
        // migration-sized document: always exactly one write call.
        for len in [0, 8 * 1024 - 8, 8 * 1024, 56 * 1024] {
            let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut w = CountingWriter::default();
            write_frame(&mut w, 42, &payload).unwrap();
            assert_eq!(w.writes.len(), 1, "{len}-byte payload");
            assert_eq!(w.writes[0].len(), 8 + len);
            let mut r = &w.writes[0][..];
            assert_eq!(read_frame(&mut r).unwrap(), (42, payload));
            assert!(r.is_empty(), "{len}-byte payload: trailing bytes");
        }
        // Oversized: rejected before anything reaches the writer.
        let mut w = CountingWriter::default();
        let err = write_frame(&mut w, 1, &vec![0u8; MAX_FRAME_LEN + 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(w.writes.is_empty());
    }

    /// A reader that yields some bytes, then reports a socket deadline
    /// expiry (as `WouldBlock`, the Unix spelling).
    struct StallAfter {
        bytes: Vec<u8>,
        at: usize,
    }

    impl Read for StallAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.at == self.bytes.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"));
            }
            let n = (self.bytes.len() - self.at).min(buf.len());
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn deadline_expiry_distinguishes_idle_from_stalled() {
        // No bytes at all: the peer is idle, not stalled.
        let mut idle = StallAfter {
            bytes: vec![],
            at: 0,
        };
        assert!(matches!(
            read_frame(&mut idle),
            Err(FrameError::TimedOut { mid_frame: false })
        ));
        // Half a header: stalled mid-frame.
        let mut header = StallAfter {
            bytes: vec![0, 0],
            at: 0,
        };
        assert!(matches!(
            read_frame(&mut header),
            Err(FrameError::TimedOut { mid_frame: true })
        ));
        // Full header, partial payload: stalled mid-frame.
        let mut body = StallAfter {
            bytes: vec![0, 0, 0, 4, 0, 0, 0, 1, b'x'],
            at: 0,
        };
        assert!(matches!(
            read_frame(&mut body),
            Err(FrameError::TimedOut { mid_frame: true })
        ));
    }

    #[test]
    fn error_code_taxonomy_roundtrips() {
        // Every known code survives encode→decode inside an error frame,
        // and the wire bytes are pairwise distinct.
        let mut seen = std::collections::HashSet::new();
        for code in ErrorCode::KNOWN {
            assert!(seen.insert(code.to_u8()), "duplicate byte for {code:?}");
            assert_eq!(ErrorCode::from_u8(code.to_u8()), code);
            let resp = Response::Error {
                code,
                message: format!("{code:?}"),
            };
            assert_eq!(Response::decode(&resp.encode()), Some(resp));
        }
        // The new robustness codes are part of the taxonomy.
        assert!(ErrorCode::KNOWN.contains(&ErrorCode::Overloaded));
        assert!(ErrorCode::KNOWN.contains(&ErrorCode::Timeout));

        // Unassigned bytes stay distinguished — and distinguishable from
        // each other — instead of collapsing into a decode failure.
        for b in [0u8, 12, 57, 200, 255] {
            let code = ErrorCode::from_u8(b);
            assert_eq!(code, ErrorCode::Unknown(b));
            assert_eq!(code.to_u8(), b);
            let resp = Response::Error {
                code,
                message: "from the future".into(),
            };
            assert_eq!(Response::decode(&resp.encode()), Some(resp));
        }
        assert_ne!(ErrorCode::from_u8(200), ErrorCode::from_u8(201));
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        // COMPILE with a source string whose bytes are not UTF-8.
        let mut buf = vec![op::COMPILE];
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        buf.extend_from_slice(&0u32.to_be_bytes());
        assert_eq!(Request::decode(&buf), Err(ErrorCode::Malformed));
    }
}
