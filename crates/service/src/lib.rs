//! Embedding service: a concurrent registry of compiled schema
//! embeddings, a `std`-only TCP wire protocol, and a load generator.
//!
//! The paper's scenario — many applications written against an old schema
//! `S1`, data and queries served against an evolved schema `S2` — is a
//! *serving* problem once embeddings exist: compilation (discovery) is
//! expensive and rare, while `apply` / `invert` / `translate` are cheap
//! and constant. This crate packages the workspace's engine accordingly:
//!
//! * [`EmbeddingRegistry`] — a concurrent cache keyed by the canonical
//!   content hashes of the (source, target) DTD pair, lock-striped into
//!   shards with per-shard single-flight compilation, a read-lock warm
//!   fast path, and least recently used eviction ([`registry`] docs).
//! * [`Server`] / [`Client`] — a length-prefixed binary protocol over
//!   `std::net::TcpStream`, one thread per admitted connection up to a
//!   cap. No async runtime. The server answers each connection in arrival
//!   order, so a client can keep up to K requests in flight on one
//!   connection ([`Client::submit`] / [`Client::recv`]) and read their
//!   answers in the order it sent them (see *Wire format*).
//! * [`loadgen`] — replays [`TrafficMix`](xse_workloads::traffic) request
//!   mixes built from the workloads corpora against one or more endpoints
//!   (in-process, TCP connections with a pipelining window, or retrying
//!   clients), one thread each, and reports per-op latency percentiles,
//!   QPS and hit rates. Its `--chaos` mode routes the replay through the
//!   fault proxy with a retrying client and reports shed/retry counts plus
//!   an error taxonomy.
//! * [`fault`] — [`FaultProxy`], an in-process chaos TCP proxy driven by a
//!   seeded, deterministic [`FaultPlan`] (delay, reset, truncate
//!   mid-frame, corrupt a byte), for exercising every failure path above
//!   without leaving the test process.
//!
//! # Wire format
//!
//! Every message is one **frame** with an 8-byte header:
//!
//! ```text
//! +----------------+----------------+---------------------------+
//! | len: u32 (BE)  | id: u32 (BE)   | payload: `len` bytes      |
//! +----------------+----------------+---------------------------+
//! ```
//!
//! `len` counts payload bytes only and must not exceed
//! [`MAX_FRAME_LEN`] (16 MiB); a larger announcement is answered with an
//! error frame (code `FrameTooLarge`, id `0`) and the connection is
//! closed without reading the body. The payload's first byte is the
//! **opcode**; all variable-length fields are `u32`-BE length-prefixed
//! UTF-8 strings and all integers are big-endian.
//!
//! Nesting is bounded as well. A DTD content model may nest at most
//! [`MAX_GROUP_DEPTH`](xse_dtd::MAX_GROUP_DEPTH) (256) parenthesized
//! groups, and a query at most
//! [`MAX_QUERY_DEPTH`](xse_rxpath::MAX_QUERY_DEPTH) (256) levels of its
//! syntax tree. Deeper input is answered `BadDtd` / `BadQuery`, so no
//! request can exhaust a connection thread's stack. A DTD may have at most
//! [`MAX_TYPES`](xse_dtd::MAX_TYPES) (2,048) types after normalization;
//! more is answered `BadDtd`, so no compile can allocate tables quadratic
//! in an unbounded type count.
//!
//! A connection is **one ordered lane**: the server answers a
//! connection's frames in the order it read them, one request at a time.
//! A client may keep many requests in flight on one connection
//! ([`Client::submit`]); each answer belongs to the oldest unanswered
//! request. A window of requests overlaps their transfer with the
//! server's compute, and requests run in parallel only across
//! connections. `id` is the **request id**, echoed verbatim in the
//! response frame; it checks that client and server agree on the order,
//! and a mismatch is a protocol error. Clients number requests from 1 and
//! leave id `0` to the server: it tags the error frames it sends when it
//! cannot read a request's id (`overloaded` on a shed connection,
//! `FrameTooLarge`, a mid-frame `timeout`). Such a frame answers the
//! oldest unanswered request, and the server then closes the connection.
//!
//! Every frame goes out **whole, in one write**, and every socket the
//! service opens or accepts (server, clients, fault proxy) sets
//! `TCP_NODELAY`. Sent as a separate header write, a large frame's
//! payload would wait behind the unacknowledged header (Nagle's
//! algorithm) until the peer's delayed ACK fires, ~40 ms later on Linux;
//! with whole-frame writes Nagle has nothing left to coalesce.
//!
//! Request opcodes (client → server; `s`/`t` abbreviate the source and
//! target DTD texts):
//!
//! | opcode | name        | fields                  |
//! |--------|-------------|-------------------------|
//! | `0x01` | `compile`   | `s`, `t`                |
//! | `0x02` | `apply`     | `s`, `t`, `xml`         |
//! | `0x03` | `invert`    | `s`, `t`, `xml`         |
//! | `0x04` | `translate` | `s`, `t`, `query`       |
//! | `0x05` | `stats`     | —                       |
//! | `0x06` | `evict`     | `s`, `t`                |
//!
//! `apply` answers with `σd(xml)` written straight to text from the
//! engine's compiled fragment programs
//! ([`apply_to_xml`](xse_core::CompiledEmbedding::apply_to_xml)), so no
//! output tree is built; `invert` builds the recovered source tree and
//! serializes it.
//!
//! `evict` drops the pair's cached engine and any failed-discovery
//! verdict. A found embedding's validated state stays, so the next request
//! gets the same engine back without searching or checking again (see
//! the [`registry`] docs).
//!
//! Response opcodes (server → client):
//!
//! | opcode | name         | fields                                        |
//! |--------|--------------|-----------------------------------------------|
//! | `0x81` | `compiled`   | `source_hash`, `target_hash`, `size: u64`     |
//! | `0x82` | `document`   | `xml`                                         |
//! | `0x83` | `translated` | `size`, `states`, `plan_hits`, `plan_misses` (`u64` each) |
//! | `0x84` | `stats`      | `hits`, `misses`, `compiles`, `single_flight_waits`, `evictions`, `entries`, `compile_nanos`, `plan_hits`, `plan_misses`, `plan_entries`, `negative_hits` (`u64` each, the [`RegistryStats`] fields in order) |
//! | `0x85` | `evicted`    | `existed: u8`                                 |
//! | `0xFF` | `error`      | `code: u8`, `message`                         |
//!
//! Error codes ([`proto::ErrorCode`]): `1` frame too large (connection
//! closes), `2` malformed payload, `3` unknown opcode, `4` bad DTD, `5`
//! bad document, `6` bad query, `7` no embedding found, `8` engine error,
//! `9` not found (reserved), `10` overloaded (shed before execution —
//! always safe to retry), `11` timeout (a server-side deadline expired).
//! Every error except `1` leaves the connection open for further
//! requests, and none of them poison the registry. Unassigned code bytes
//! decode to [`ErrorCode::Unknown`] — clients
//! must treat them as fatal application errors, not protocol violations,
//! so new codes can be introduced server-first.
//!
//! # Deadlines, overload, and retry semantics
//!
//! The serving layer never waits unboundedly on a peer:
//!
//! * **Server read/write deadlines** ([`ServerConfig::read_timeout`] /
//!   [`ServerConfig::write_timeout`]) bound every socket operation. A
//!   connection that is *idle* at its read deadline is closed silently
//!   (keep-alive expiry); one that stalls **mid-frame** is answered with a
//!   best-effort `timeout` (`11`) error frame and closed, freeing its
//!   connection slot.
//! * **Per-request budget** ([`ServerConfig::request_budget`]): a request
//!   whose handling exceeds the budget is answered with `timeout` instead
//!   of its (late) result. Blocking engine calls cannot be interrupted
//!   mid-flight, so the budget is enforced when the response is produced —
//!   it bounds what the server *returns*, while the client's own read
//!   deadline bounds what the client *waits for*.
//! * **Load shedding** ([`ServerConfig::max_connections`]): every
//!   admitted connection is served at once on its own thread, so no
//!   client waits for another to hang up. A connection that arrives while
//!   the cap is reached is answered immediately with an `overloaded`
//!   (`10`) error frame and closed instead of waiting. Shedding happens
//!   *before* any request is read, so an `overloaded` answer guarantees
//!   the request was never executed.
//! * **Graceful drain**: shutdown stops accepting, lets in-flight
//!   requests finish up to [`ServerConfig::drain_deadline`], then
//!   force-closes whatever remains.
//! * **Client deadlines** ([`ClientConfig`]): `connect`, reads and writes
//!   all carry timeouts, surfaced as the typed
//!   [`ServiceError::Timeout`] (distinct from [`ServiceError::Io`]).
//! * **Retries** ([`RetryPolicy`] / [`RetryingClient`]): exponential
//!   backoff with deterministic seeded jitter. A failed attempt is
//!   retried only when it is provably safe: connect-phase failures and
//!   `overloaded`/pre-execution rejections (`2`, `3`) retry any request;
//!   post-send transport failures retry only **idempotent** requests
//!   ([`Request::is_idempotent`] — everything except `evict`); structured
//!   application errors (bad DTD, no embedding, …) never retry.
//!
//! The `translate` response deliberately returns automaton *metrics*
//! (`|Tr(Q)|` and state count) rather than a rendered query: translation
//! to an executable target-side automaton is PTIME (Theorem 4.3b) and is
//! what a caller evaluates, while rendering back to XR syntax via state
//! elimination is worst-case exponential and belongs to an explicit
//! offline endpoint if ever needed. It also carries the serving engine's
//! cumulative plan-cache counters (`plan_hits`, `plan_misses`), so a
//! client can observe whether its query was served from a cached
//! [`TranslatePlan`](xse_core::TranslatePlan) without a second round-trip.

pub mod client;
pub mod fault;
pub mod loadgen;
pub mod proto;
pub mod registry;
pub mod server;

pub use client::{
    Client, ClientConfig, PipelinedClient, RetryPolicy, RetryStats, RetryingClient, TranslateReply,
};
pub use fault::{FaultAction, FaultPlan, FaultProxy, FaultProxyHandle};
pub use proto::{ErrorCode, Request, Response, MAX_FRAME_LEN};
pub use registry::{EmbeddingRegistry, PairKey, RegistryConfig, RegistryStats};
pub use server::{Server, ServerConfig, ServerHandle};

use xse_core::EmbeddingError;
use xse_xmltree::parse_xml;

/// Service-level failure, shared by the in-process API and the client.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServiceError {
    /// A DTD text failed to parse.
    BadDtd(String),
    /// A document failed to parse or to validate against its schema.
    BadDocument(String),
    /// A query failed to parse.
    BadQuery(String),
    /// Discovery found no information-preserving embedding for the pair.
    NoEmbedding,
    /// The engine failed on an otherwise well-formed request.
    Engine(String),
    /// Client side: socket-level failure.
    Io(String),
    /// Client side: a deadline expired — connecting, writing the request,
    /// or waiting for the response took longer than the configured bound.
    /// Distinct from [`ServiceError::Io`] so retry policies can treat
    /// slowness differently from broken sockets.
    Timeout(String),
    /// Client side: the peer closed the connection cleanly at a frame
    /// boundary (e.g. the server drained for shutdown or dropped an idle
    /// connection at its read deadline).
    Closed,
    /// Client side: the peer broke the framing/encoding rules.
    Protocol(String),
    /// Client side: the server answered with an error frame.
    Remote {
        /// Structured code from the error frame.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadDtd(m) => write!(f, "bad DTD: {m}"),
            ServiceError::BadDocument(m) => write!(f, "bad document: {m}"),
            ServiceError::BadQuery(m) => write!(f, "bad query: {m}"),
            ServiceError::NoEmbedding => write!(f, "no information-preserving embedding found"),
            ServiceError::Engine(m) => write!(f, "engine error: {m}"),
            ServiceError::Io(m) => write!(f, "i/o error: {m}"),
            ServiceError::Timeout(m) => write!(f, "deadline expired: {m}"),
            ServiceError::Closed => write!(f, "peer closed the connection at a frame boundary"),
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// The wire code this error maps to.
    pub fn code(&self) -> ErrorCode {
        match self {
            ServiceError::BadDtd(_) => ErrorCode::BadDtd,
            ServiceError::BadDocument(_) => ErrorCode::BadDocument,
            ServiceError::BadQuery(_) => ErrorCode::BadQuery,
            ServiceError::NoEmbedding => ErrorCode::NoEmbedding,
            ServiceError::Timeout(_) => ErrorCode::Timeout,
            ServiceError::Engine(_)
            | ServiceError::Io(_)
            | ServiceError::Closed
            | ServiceError::Protocol(_)
            | ServiceError::Remote { .. } => ErrorCode::EngineError,
        }
    }

    /// Render as an error response frame payload.
    pub fn to_response(&self) -> Response {
        Response::Error {
            code: self.code(),
            message: self.to_string(),
        }
    }
}

/// Execute one request against a registry. This is the single dispatcher
/// both the TCP server and the in-process load-generator endpoint share,
/// so the two paths cannot drift.
pub fn handle_request(registry: &EmbeddingRegistry, req: &Request) -> Response {
    match try_handle(registry, req) {
        Ok(resp) => resp,
        Err(e) => e.to_response(),
    }
}

fn try_handle(registry: &EmbeddingRegistry, req: &Request) -> Result<Response, ServiceError> {
    match req {
        Request::Compile {
            source_dtd,
            target_dtd,
        } => {
            let (key, engine) = registry.get_or_compile(source_dtd, target_dtd)?;
            Ok(Response::Compiled {
                source_hash: key.source.to_hex(),
                target_hash: key.target.to_hex(),
                size: engine.size() as u64,
            })
        }
        Request::Apply {
            source_dtd,
            target_dtd,
            xml,
        } => {
            let (_, engine) = registry.get_or_compile(source_dtd, target_dtd)?;
            let doc = parse_xml(xml).map_err(|e| ServiceError::BadDocument(e.to_string()))?;
            let xml = engine.apply_to_xml(&doc).map_err(engine_error)?;
            Ok(Response::Document { xml })
        }
        Request::Invert {
            source_dtd,
            target_dtd,
            xml,
        } => {
            let (_, engine) = registry.get_or_compile(source_dtd, target_dtd)?;
            let doc = parse_xml(xml).map_err(|e| ServiceError::BadDocument(e.to_string()))?;
            let out = engine.invert(&doc).map_err(engine_error)?;
            Ok(Response::Document { xml: out.to_xml() })
        }
        Request::Translate {
            source_dtd,
            target_dtd,
            query,
        } => {
            let (_, engine) = registry.get_or_compile(source_dtd, target_dtd)?;
            let q = xse_rxpath::parse_query(query)
                .map_err(|e| ServiceError::BadQuery(e.to_string()))?;
            let tr = engine.translate(&q).map_err(engine_error)?;
            let plan = engine.plan_stats();
            Ok(Response::Translated {
                size: tr.size() as u64,
                states: tr.anfa.state_count() as u64,
                plan_hits: plan.hits,
                plan_misses: plan.misses,
            })
        }
        Request::Stats => Ok(Response::Stats(registry.stats())),
        Request::Evict {
            source_dtd,
            target_dtd,
        } => {
            let existed = registry.evict(source_dtd, target_dtd)?;
            Ok(Response::Evicted { existed })
        }
    }
}

/// Map engine failures onto wire semantics: invalid input documents are
/// the *caller's* fault (`BadDocument`), everything else is an engine
/// error.
fn engine_error(e: EmbeddingError) -> ServiceError {
    match e {
        EmbeddingError::SourceInvalid(_) | EmbeddingError::TargetInvalid(_) => {
            ServiceError::BadDocument(e.to_string())
        }
        other => ServiceError::Engine(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> EmbeddingRegistry {
        EmbeddingRegistry::new(RegistryConfig {
            capacity: 8,
            ..RegistryConfig::default()
        })
    }

    fn wrap_pair() -> (String, String) {
        let s1 = "<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (c*)>\n<!ELEMENT c (#PCDATA)>";
        let s2 = "<!ELEMENT r (x, y)>\n<!ELEMENT x (a)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT y (w)>\n<!ELEMENT w (c2*)>\n<!ELEMENT c2 (c)>\n<!ELEMENT c (#PCDATA)>";
        (s1.to_string(), s2.to_string())
    }

    #[test]
    fn dispatcher_covers_every_opcode() {
        let reg = registry();
        let (s, t) = wrap_pair();
        let compiled = handle_request(
            &reg,
            &Request::Compile {
                source_dtd: s.clone(),
                target_dtd: t.clone(),
            },
        );
        let Response::Compiled { size, .. } = compiled else {
            panic!("{compiled:?}");
        };
        assert!(size > 0);

        let applied = handle_request(
            &reg,
            &Request::Apply {
                source_dtd: s.clone(),
                target_dtd: t.clone(),
                xml: "<r><a>hi</a><b><c>1</c></b></r>".into(),
            },
        );
        let Response::Document { xml } = applied else {
            panic!("{applied:?}");
        };
        let inverted = handle_request(
            &reg,
            &Request::Invert {
                source_dtd: s.clone(),
                target_dtd: t.clone(),
                xml,
            },
        );
        let Response::Document { xml: back } = inverted else {
            panic!("{inverted:?}");
        };
        assert_eq!(back, "<r><a>hi</a><b><c>1</c></b></r>");

        let translated = handle_request(
            &reg,
            &Request::Translate {
                source_dtd: s.clone(),
                target_dtd: t.clone(),
                query: "b/c".into(),
            },
        );
        assert!(
            matches!(
                translated,
                Response::Translated { size, states, plan_hits: 0, plan_misses: 1 }
                    if size > 0 && states > 0
            ),
            "{translated:?}"
        );
        // The same query again is served from the cached plan.
        let again = handle_request(
            &reg,
            &Request::Translate {
                source_dtd: s.clone(),
                target_dtd: t.clone(),
                query: "b/c".into(),
            },
        );
        assert!(
            matches!(
                again,
                Response::Translated {
                    plan_hits: 1,
                    plan_misses: 1,
                    ..
                }
            ),
            "{again:?}"
        );

        let stats = handle_request(&reg, &Request::Stats);
        let Response::Stats(w) = stats else {
            panic!("{stats:?}");
        };
        assert_eq!(w.compiles, 1, "one pair, one compile: {w:?}");
        assert_eq!(w.entries, 1);

        let evicted = handle_request(
            &reg,
            &Request::Evict {
                source_dtd: s,
                target_dtd: t,
            },
        );
        assert_eq!(evicted, Response::Evicted { existed: true });
    }

    #[test]
    fn dispatcher_maps_failures_to_codes() {
        let reg = registry();
        let (s, t) = wrap_pair();
        let bad_dtd = handle_request(
            &reg,
            &Request::Compile {
                source_dtd: "<!ELEMENT".into(),
                target_dtd: t.clone(),
            },
        );
        assert!(
            matches!(
                bad_dtd,
                Response::Error {
                    code: ErrorCode::BadDtd,
                    ..
                }
            ),
            "{bad_dtd:?}"
        );
        let bad_doc = handle_request(
            &reg,
            &Request::Apply {
                source_dtd: s.clone(),
                target_dtd: t.clone(),
                xml: "<r><nope/></r>".into(),
            },
        );
        assert!(
            matches!(
                bad_doc,
                Response::Error {
                    code: ErrorCode::BadDocument,
                    ..
                }
            ),
            "{bad_doc:?}"
        );
        let bad_query = handle_request(
            &reg,
            &Request::Translate {
                source_dtd: s,
                target_dtd: t,
                query: "///".into(),
            },
        );
        assert!(
            matches!(
                bad_query,
                Response::Error {
                    code: ErrorCode::BadQuery,
                    ..
                }
            ),
            "{bad_query:?}"
        );
    }
}
