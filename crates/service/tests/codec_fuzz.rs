//! Seeded fuzzing of the wire codec: byte flips, truncations and
//! extensions of encoded `Request` and `Response` payloads, and arbitrary
//! byte streams into `read_frame`, read in short chunks. Every input must
//! be rejected (`Err` / `None`) or decode to a value that re-encodes to
//! exactly the bytes it was decoded from, and none may panic.

use std::io::{self, Read};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xse_service::proto::{read_frame, write_frame, FrameError};
use xse_service::{ErrorCode, RegistryStats, Request, Response, MAX_FRAME_LEN};

/// A short string over ASCII markup and multi-byte characters, so a flip
/// or a cut can land inside a UTF-8 sequence.
fn text(rng: &mut StdRng) -> String {
    const CHARS: [char; 10] = ['a', 'r', '<', '>', '/', '#', ' ', 'é', 'σ', '😀'];
    (0..rng.random_range(0..24))
        .map(|_| CHARS[rng.random_range(0..CHARS.len())])
        .collect()
}

fn request(rng: &mut StdRng) -> Request {
    let (source_dtd, target_dtd) = (text(rng), text(rng));
    match rng.random_range(0..6) {
        0 => Request::Compile {
            source_dtd,
            target_dtd,
        },
        1 => Request::Apply {
            source_dtd,
            target_dtd,
            xml: text(rng),
        },
        2 => Request::Invert {
            source_dtd,
            target_dtd,
            xml: text(rng),
        },
        3 => Request::Translate {
            source_dtd,
            target_dtd,
            query: text(rng),
        },
        4 => Request::Stats,
        _ => Request::Evict {
            source_dtd,
            target_dtd,
        },
    }
}

fn response(rng: &mut StdRng) -> Response {
    match rng.random_range(0..6) {
        0 => Response::Compiled {
            source_hash: text(rng),
            target_hash: text(rng),
            size: rng.random(),
        },
        1 => Response::Document { xml: text(rng) },
        2 => Response::Translated {
            size: rng.random(),
            states: rng.random(),
            plan_hits: rng.random(),
            plan_misses: rng.random(),
        },
        3 => Response::Stats(RegistryStats {
            hits: rng.random(),
            misses: rng.random(),
            compiles: rng.random(),
            single_flight_waits: rng.random(),
            evictions: rng.random(),
            entries: rng.random(),
            compile_nanos: rng.random(),
            plan_hits: rng.random(),
            plan_misses: rng.random(),
            plan_entries: rng.random(),
            negative_hits: rng.random(),
        }),
        4 => Response::Evicted {
            existed: rng.random(),
        },
        _ => Response::Error {
            code: ErrorCode::from_u8(rng.random()),
            message: text(rng),
        },
    }
}

/// One to three mutations of `bytes`: flip a byte, cut the tail, or
/// append random bytes.
fn mutate(rng: &mut StdRng, mut bytes: Vec<u8>) -> Vec<u8> {
    for _ in 0..rng.random_range(1..=3) {
        match rng.random_range(0..3) {
            0 if !bytes.is_empty() => {
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= rng.random_range(1..=255u8);
            }
            1 if !bytes.is_empty() => bytes.truncate(rng.random_range(0..bytes.len())),
            _ => bytes.extend((0..rng.random_range(1..9)).map(|_| rng.random::<u8>())),
        }
    }
    bytes
}

/// A reader over `data` that hands out at most `step` bytes per read, so
/// `read_frame` has to reassemble headers and payloads from pieces.
struct Chunked<'a> {
    data: &'a [u8],
    step: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.step).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// A byte stream of a few whole frames (so headers are mostly plausible)
/// or of pure noise, then mutated.
fn frame_stream(rng: &mut StdRng) -> Vec<u8> {
    let mut stream = Vec::new();
    if rng.random_bool(0.8) {
        for _ in 0..rng.random_range(0..4) {
            let payload: Vec<u8> = (0..rng.random_range(0..32)).map(|_| rng.random()).collect();
            write_frame(&mut stream, rng.random(), &payload).unwrap();
        }
    } else {
        stream.extend((0..rng.random_range(0..40)).map(|_| rng.random::<u8>()));
    }
    mutate(rng, stream)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    /// A mutated request payload is rejected with a request-level code or
    /// decodes to a request that re-encodes to the same bytes.
    #[test]
    fn mutated_requests_are_rejected_or_reencode_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let encoded = request(&mut rng).encode();
        let bytes = mutate(&mut rng, encoded);
        match Request::decode(&bytes) {
            Ok(req) => prop_assert_eq!(req.encode(), bytes),
            Err(code) => prop_assert!(
                matches!(code, ErrorCode::Malformed | ErrorCode::UnknownOpcode),
                "{code:?}"
            ),
        }
    }

    /// A mutated response payload is rejected or decodes to a response
    /// that re-encodes to the same bytes.
    #[test]
    fn mutated_responses_are_rejected_or_reencode_exactly(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let encoded = response(&mut rng).encode();
        let bytes = mutate(&mut rng, encoded);
        if let Some(resp) = Response::decode(&bytes) {
            prop_assert_eq!(resp.encode(), bytes);
        }
    }

    /// `read_frame` over an arbitrary stream returns each whole frame,
    /// which re-encodes to exactly the bytes it consumed, and then the
    /// error the remaining bytes call for.
    #[test]
    fn arbitrary_streams_read_as_whole_frames_or_typed_errors(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = frame_stream(&mut rng);
        let mut reader = Chunked { data: &stream, step: rng.random_range(1..12) };
        let mut at = 0;
        let err = loop {
            match read_frame(&mut reader) {
                Ok((id, payload)) => {
                    let mut again = Vec::new();
                    write_frame(&mut again, id, &payload).unwrap();
                    prop_assert_eq!(&again[..], &stream[at..at + again.len()]);
                    at += again.len();
                }
                Err(e) => break e,
            }
        };
        let rest = &stream[at..];
        let declared = rest
            .get(..4)
            .map(|n| u32::from_be_bytes(n.try_into().unwrap()) as usize);
        match err {
            FrameError::Closed => prop_assert!(rest.is_empty()),
            FrameError::TooLarge(n) => {
                prop_assert_eq!(Some(n), declared);
                prop_assert!(n > MAX_FRAME_LEN);
            }
            FrameError::Truncated => prop_assert!(
                !rest.is_empty() && rest.len() < 8 + declared.unwrap_or(0),
                "{} bytes left, {declared:?} declared",
                rest.len()
            ),
            other => panic!("a byte slice cannot fail with {other:?}"),
        }
    }
}
