//! Blocking TCP clients for the embedding service: a deadline-bounded
//! [`Client`], which keeps one or more requests in flight on one
//! connection and reads their answers in the order it sent them, and a
//! [`RetryingClient`] wrapper that reconnects and retries with exponential
//! backoff and deterministic seeded jitter.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::proto::{self, read_frame, write_frame, ErrorCode, FrameError, Request, Response};
use crate::{RegistryStats, ServiceError};

/// Typed `translate` response: automaton metrics plus the serving
/// engine's cumulative plan-cache counters at the time of the call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TranslateReply {
    /// Size of the translated automaton, `|Tr(Q)|`.
    pub size: u64,
    /// Number of ANFA states after pruning.
    pub states: u64,
    /// Engine's plan-cache hits so far (this call included).
    pub plan_hits: u64,
    /// Engine's plan-cache misses so far (this call included).
    pub plan_misses: u64,
}

/// Client-side deadlines. `None` disables the corresponding timeout
/// (blocks indefinitely) — only do that in controlled tests.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
    /// Deadline for each response read. Covers server compute time, so it
    /// should exceed the server's request budget.
    pub read_timeout: Option<Duration>,
    /// Deadline for each request write.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(1)),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(5)),
        }
    }
}

/// One connection to a running [`Server`](crate::Server), an ordered lane:
/// the server answers the connection's requests in the order it read them.
///
/// [`Client::submit`] sends a request under a fresh nonzero id without
/// waiting, and [`Client::recv`] reads the next answer, which belongs to
/// the oldest request still unanswered. The echoed id only checks that
/// the two sides agree. A window of requests overlaps their transfer with
/// the server's compute; for requests that run in parallel, open more
/// connections. [`Client::call`] and the typed helpers are `submit` then
/// `recv`, and [`Client::call_pipelined`] windows a whole batch.
///
/// A structured error frame fails only the request it answers; the
/// connection and every later request stay live. The server sends an
/// error frame with id 0 when it cannot read a request's id (shed
/// connection, oversized frame, read deadline mid-frame) and then closes,
/// so such a frame answers the oldest unanswered request and the next
/// read reports [`ServiceError::Closed`].
///
/// For several concurrent callers, open one client each.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u32,
    /// Ids of the requests sent and not yet answered, oldest first.
    inflight: VecDeque<u32>,
}

/// The name [`Client`] had in its pipelined role, kept as an alias for
/// code written against it.
pub type PipelinedClient = Client;

/// Resolve `addr` to at least one socket address.
fn resolve(addr: impl ToSocketAddrs) -> Result<Vec<SocketAddr>, ServiceError> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| ServiceError::Io(format!("address resolution failed: {e}")))?
        .collect();
    if addrs.is_empty() {
        return Err(ServiceError::Io("address resolved to nothing".into()));
    }
    Ok(addrs)
}

impl Client {
    /// Connect with the default [`ClientConfig`] deadlines.
    ///
    /// # Errors
    /// [`ServiceError::Timeout`] when the connect deadline expires,
    /// [`ServiceError::Io`] for any other connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServiceError> {
        Client::connect_with(addr, &ClientConfig::default())
    }

    /// Connect with explicit deadlines. Resolution may yield several
    /// addresses; each is tried in turn and the last failure is returned.
    ///
    /// # Errors
    /// As in [`Client::connect`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> Result<Client, ServiceError> {
        let mut last = None;
        for a in resolve(addr)? {
            match connect_one(&a, config.connect_timeout) {
                Ok(conn) => return Client::from_stream(conn, config),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one address was tried"))
    }

    fn from_stream(conn: TcpStream, config: &ClientConfig) -> Result<Client, ServiceError> {
        conn.set_read_timeout(config.read_timeout)
            .and_then(|()| conn.set_write_timeout(config.write_timeout))
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        let read_half = conn
            .try_clone()
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: conn,
            next_id: 1,
            inflight: VecDeque::new(),
        })
    }

    /// The connection's socket (for socket-option tests).
    #[cfg(test)]
    pub(crate) fn socket(&self) -> &TcpStream {
        &self.writer
    }

    /// Refuse to start a call while submitted requests are unanswered:
    /// the call would read an earlier request's answer as its own.
    fn ensure_idle(&self) -> Result<(), ServiceError> {
        if self.inflight.is_empty() {
            Ok(())
        } else {
            Err(ServiceError::Protocol(format!(
                "{} submitted requests are unanswered; receive them first",
                self.inflight.len()
            )))
        }
    }

    /// Send one request and wait for its answer.
    ///
    /// # Errors
    /// [`ServiceError::Protocol`] when submitted requests are still in
    /// flight (their answers come first), or when the response is
    /// truncated, undecodable or carries the wrong id;
    /// [`ServiceError::Timeout`] when a read or write deadline expires;
    /// [`ServiceError::Closed`] when the server closed cleanly between
    /// frames; [`ServiceError::Io`] otherwise. A [`Response::Error`] is a
    /// *successful* call — match on it (or use the typed helpers, which
    /// surface it as [`ServiceError::Remote`]).
    pub fn call(&mut self, req: &Request) -> Result<Response, ServiceError> {
        self.ensure_idle()?;
        self.submit(req)?;
        Ok(self.recv()?.1)
    }

    /// `compile`: returns `(source_hash, target_hash, |σ|)`.
    ///
    /// # Errors
    /// Transport errors as in [`Client::call`]; server-side failures as
    /// [`ServiceError::Remote`].
    pub fn compile(
        &mut self,
        source_dtd: &str,
        target_dtd: &str,
    ) -> Result<(String, String, u64), ServiceError> {
        match self.call(&Request::Compile {
            source_dtd: source_dtd.into(),
            target_dtd: target_dtd.into(),
        })? {
            Response::Compiled {
                source_hash,
                target_hash,
                size,
            } => Ok((source_hash, target_hash, size)),
            other => Err(unexpected(other)),
        }
    }

    /// `apply`: σd on a source document, returning the target XML.
    ///
    /// # Errors
    /// As in [`Client::compile`].
    pub fn apply(
        &mut self,
        source_dtd: &str,
        target_dtd: &str,
        xml: &str,
    ) -> Result<String, ServiceError> {
        match self.call(&Request::Apply {
            source_dtd: source_dtd.into(),
            target_dtd: target_dtd.into(),
            xml: xml.into(),
        })? {
            Response::Document { xml } => Ok(xml),
            other => Err(unexpected(other)),
        }
    }

    /// `invert`: σd⁻¹ on a target document, returning the source XML.
    ///
    /// # Errors
    /// As in [`Client::compile`].
    pub fn invert(
        &mut self,
        source_dtd: &str,
        target_dtd: &str,
        xml: &str,
    ) -> Result<String, ServiceError> {
        match self.call(&Request::Invert {
            source_dtd: source_dtd.into(),
            target_dtd: target_dtd.into(),
            xml: xml.into(),
        })? {
            Response::Document { xml } => Ok(xml),
            other => Err(unexpected(other)),
        }
    }

    /// `translate`: automaton metrics plus plan-cache counters.
    ///
    /// # Errors
    /// As in [`Client::compile`].
    pub fn translate(
        &mut self,
        source_dtd: &str,
        target_dtd: &str,
        query: &str,
    ) -> Result<TranslateReply, ServiceError> {
        match self.call(&Request::Translate {
            source_dtd: source_dtd.into(),
            target_dtd: target_dtd.into(),
            query: query.into(),
        })? {
            Response::Translated {
                size,
                states,
                plan_hits,
                plan_misses,
            } => Ok(TranslateReply {
                size,
                states,
                plan_hits,
                plan_misses,
            }),
            other => Err(unexpected(other)),
        }
    }

    /// `stats`: the registry's aggregate counters.
    ///
    /// # Errors
    /// As in [`Client::compile`].
    pub fn stats(&mut self) -> Result<RegistryStats, ServiceError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// `evict`: returns whether the pair was cached.
    ///
    /// # Errors
    /// As in [`Client::compile`].
    pub fn evict(&mut self, source_dtd: &str, target_dtd: &str) -> Result<bool, ServiceError> {
        match self.call(&Request::Evict {
            source_dtd: source_dtd.into(),
            target_dtd: target_dtd.into(),
        })? {
            Response::Evicted { existed } => Ok(existed),
            other => Err(unexpected(other)),
        }
    }

    /// Number of submitted requests whose responses are still outstanding.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Send `req` without waiting, returning the id its response will
    /// echo. Ids are assigned 1, 2, 3, … (wrapping past `u32::MAX` back
    /// to 1 — 0 is left to the server's connection-level error frames).
    ///
    /// # Errors
    /// [`ServiceError::Timeout`] when the write deadline expires,
    /// [`ServiceError::Io`] on any other socket failure.
    pub fn submit(&mut self, req: &Request) -> Result<u32, ServiceError> {
        let id = self.next_id;
        self.next_id = self.next_id.checked_add(1).unwrap_or(1);
        write_frame(&mut self.writer, id, &req.encode()).map_err(|e| {
            if proto::is_timeout(e.kind()) {
                ServiceError::Timeout("write deadline expired sending the request".into())
            } else {
                ServiceError::Io(e.to_string())
            }
        })?;
        self.inflight.push_back(id);
        Ok(id)
    }

    /// Wait for the next response, which answers the oldest unanswered
    /// request, and return it with that request's id. An id-0 error frame
    /// answers that request too (see [`Client`]).
    ///
    /// # Errors
    /// Transport errors as in [`Client::call`];
    /// [`ServiceError::Protocol`] when the frame carries any other id (the
    /// two sides disagree on the lane, so the connection is unusable);
    /// [`ServiceError::Remote`] for an id-0 error frame while nothing is
    /// in flight.
    pub fn recv(&mut self) -> Result<(u32, Response), ServiceError> {
        let (id, payload) = read_frame(&mut self.reader).map_err(|e| match e {
            FrameError::TooLarge(n) => {
                ServiceError::Protocol(format!("server announced a {n}-byte frame"))
            }
            FrameError::Closed => ServiceError::Closed,
            FrameError::Truncated => ServiceError::Protocol("response truncated mid-frame".into()),
            FrameError::TimedOut { .. } => {
                ServiceError::Timeout("read deadline expired awaiting the response".into())
            }
            FrameError::Io(e) => ServiceError::Io(e.to_string()),
        })?;
        let resp = Response::decode(&payload)
            .ok_or_else(|| ServiceError::Protocol("undecodable response payload".into()))?;
        let connection_error = id == 0 && matches!(resp, Response::Error { .. });
        match self.inflight.front() {
            Some(&head) if id == head || connection_error => {
                self.inflight.pop_front();
                Ok((head, resp))
            }
            Some(&head) => Err(ServiceError::Protocol(format!(
                "expected response id {head}, got {id}"
            ))),
            None => Err(match resp {
                Response::Error { code, message } if id == 0 => {
                    ServiceError::Remote { code, message }
                }
                _ => ServiceError::Protocol(format!(
                    "response id {id} arrived with no request in flight"
                )),
            }),
        }
    }

    /// Run `reqs` through the connection keeping at most `window` in
    /// flight, and return the responses in request order, which is the
    /// order they arrive in.
    ///
    /// # Errors
    /// [`ServiceError::Protocol`] when submitted requests are still in
    /// flight, as in [`Client::call`]. The first transport error aborts
    /// the batch (per-request failures arrive as `Ok(Response::Error { ..
    /// })` entries instead).
    pub fn call_pipelined(
        &mut self,
        reqs: &[Request],
        window: usize,
    ) -> Result<Vec<Response>, ServiceError> {
        self.ensure_idle()?;
        let mut unsent = reqs.iter();
        let mut answers = Vec::with_capacity(reqs.len());
        while answers.len() < reqs.len() {
            while self.in_flight() < window.max(1) {
                let Some(req) = unsent.next() else { break };
                self.submit(req)?;
            }
            answers.push(self.recv()?.1);
        }
        Ok(answers)
    }
}

fn connect_one(addr: &SocketAddr, timeout: Option<Duration>) -> Result<TcpStream, ServiceError> {
    let result = match timeout {
        Some(t) => TcpStream::connect_timeout(addr, t),
        None => TcpStream::connect(addr),
    };
    let conn = result.map_err(|e| {
        if proto::is_timeout(e.kind()) {
            ServiceError::Timeout(format!("connect to {addr} timed out"))
        } else {
            ServiceError::Io(format!("connect to {addr} failed: {e}"))
        }
    })?;
    // Requests go out as whole frames; Nagle could only hold them back.
    conn.set_nodelay(true)
        .map_err(|e| ServiceError::Io(e.to_string()))?;
    Ok(conn)
}

fn unexpected(resp: Response) -> ServiceError {
    match resp {
        Response::Error { code, message } => ServiceError::Remote { code, message },
        other => ServiceError::Protocol(format!("unexpected response: {other:?}")),
    }
}

/// Exponential backoff with deterministic seeded jitter.
///
/// Attempt `i` sleeps a uniform duration in `[d/2, d]` where
/// `d = min(max_backoff, base_backoff · 2^i)` — full determinism per
/// `seed`, so test runs and chaos soaks replay identically.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, first try included (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling on the (pre-jitter) backoff.
    pub max_backoff: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry number `attempt` (0-based count
    /// of *failed* attempts so far), drawn from `rng`.
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let base = self.base_backoff.as_nanos().min(u128::from(u64::MAX)) as u64;
        let exp = base.saturating_shl(attempt);
        let capped = exp.min(self.max_backoff.as_nanos().min(u128::from(u64::MAX)) as u64);
        if capped == 0 {
            return Duration::ZERO;
        }
        let lo = capped / 2;
        Duration::from_nanos(rng.random_range(lo..=capped))
    }
}

trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if self == 0 {
            0
        } else if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

/// Counters a [`RetryingClient`] accumulates across calls.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct RetryStats {
    /// Attempts made (each call contributes at least one).
    pub attempts: u64,
    /// Attempts that were retries of a failed one.
    pub retries: u64,
    /// Connections (re-)established.
    pub reconnects: u64,
}

/// How safe it is to resend a request after a given failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Retryability {
    /// The request provably never executed — retry anything.
    Safe,
    /// The request may have executed — retry only idempotent requests.
    IfIdempotent,
    /// Retrying cannot help (structured application error).
    Fatal,
}

/// A [`Client`] wrapper that reconnects and retries per [`RetryPolicy`].
///
/// Retry-safety rules (see the crate docs): connect-phase failures and
/// server rejections that provably precede execution (`overloaded`,
/// `malformed`, `unknown opcode` — the latter two also cover request
/// frames corrupted in transit) retry *any* request; transport failures
/// after the request was sent retry only idempotent requests
/// ([`Request::is_idempotent`]); all other structured application errors
/// are returned to the caller unretried.
pub struct RetryingClient {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    policy: RetryPolicy,
    rng: StdRng,
    conn: Option<Client>,
    stats: RetryStats,
}

impl RetryingClient {
    /// Resolve `addr` and build a lazily-connecting retrying client (the
    /// first [`RetryingClient::call`] opens the connection).
    ///
    /// # Errors
    /// [`ServiceError::Io`] when resolution fails or yields no address.
    pub fn new(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
        policy: RetryPolicy,
    ) -> Result<RetryingClient, ServiceError> {
        Ok(RetryingClient {
            addrs: resolve(addr)?,
            config,
            policy,
            rng: StdRng::seed_from_u64(policy.seed),
            conn: None,
            stats: RetryStats::default(),
        })
    }

    /// Cumulative retry counters.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Send `req`, retrying per the policy. Returns the last outcome when
    /// attempts are exhausted: `Ok(Response::Error { .. })` when the
    /// server kept answering a retryable error frame, `Err` when the
    /// transport kept failing.
    ///
    /// # Errors
    /// The final attempt's transport error.
    pub fn call(&mut self, req: &Request) -> Result<Response, ServiceError> {
        let mut failures = 0u32;
        loop {
            self.stats.attempts += 1;
            let (outcome, class) = self.attempt(req);
            let retryable = match class {
                Retryability::Safe => true,
                Retryability::IfIdempotent => req.is_idempotent(),
                Retryability::Fatal => false,
            };
            if !retryable || failures + 1 >= self.policy.max_attempts.max(1) {
                return outcome;
            }
            let pause = self.policy.backoff(failures, &mut self.rng);
            failures += 1;
            self.stats.retries += 1;
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }

    /// One attempt: connect if needed, send, receive, classify.
    fn attempt(&mut self, req: &Request) -> (Result<Response, ServiceError>, Retryability) {
        if self.conn.is_none() {
            match Client::connect_with(&self.addrs[..], &self.config) {
                Ok(c) => {
                    self.conn = Some(c);
                    self.stats.reconnects += 1;
                }
                // Connect-phase: the request was never sent.
                Err(e) => return (Err(e), Retryability::Safe),
            }
        }
        let conn = self.conn.as_mut().expect("connected above");
        if let Err(e) = conn.submit(req) {
            // The write may have partially reached the server — treat as
            // post-send. The connection is dead either way.
            self.conn = None;
            return (Err(e), Retryability::IfIdempotent);
        }
        match conn.recv() {
            Ok((_, resp)) => {
                let class = classify_response(&resp);
                // A pre-execution rejection usually precedes a server-side
                // close (e.g. shed connections); reconnect for the retry.
                if class != Retryability::Fatal {
                    self.conn = None;
                }
                (Ok(resp), class)
            }
            Err(e) => {
                self.conn = None;
                (Err(e), Retryability::IfIdempotent)
            }
        }
    }
}

/// Classify a decoded response frame. `Fatal` here means "do not retry";
/// for non-error responses that is simply "done".
fn classify_response(resp: &Response) -> Retryability {
    match resp {
        Response::Error { code, .. } => match code {
            // Answered before the request executed — always retryable.
            // Malformed/UnknownOpcode also cover request frames corrupted
            // in transit, which a resend fixes.
            ErrorCode::Overloaded | ErrorCode::Malformed | ErrorCode::UnknownOpcode => {
                Retryability::Safe
            }
            // The server may have done the work before the deadline hit.
            ErrorCode::Timeout => Retryability::IfIdempotent,
            _ => Retryability::Fatal,
        },
        _ => Retryability::Fatal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(policy.seed);
        let mut b = StdRng::seed_from_u64(policy.seed);
        for attempt in 0..8 {
            let x = policy.backoff(attempt, &mut a);
            let y = policy.backoff(attempt, &mut b);
            assert_eq!(x, y, "same seed, same jitter (attempt {attempt})");
            let cap = policy
                .max_backoff
                .min(policy.base_backoff * 2u32.saturating_pow(attempt));
            assert!(x <= cap, "attempt {attempt}: {x:?} > {cap:?}");
            assert!(x >= cap / 2, "attempt {attempt}: {x:?} < {:?}", cap / 2);
        }
        // A different seed jitters differently somewhere in the stream.
        let mut c = StdRng::seed_from_u64(policy.seed ^ 1);
        let mut a = StdRng::seed_from_u64(policy.seed);
        assert!((0..8).any(|i| policy.backoff(i, &mut a) != policy.backoff(i, &mut c)));
    }

    #[test]
    fn backoff_growth_saturates_instead_of_overflowing() {
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            seed: 9,
        };
        let mut rng = StdRng::seed_from_u64(policy.seed);
        // Shifts far past 64 bits must clamp to max_backoff, not wrap.
        for attempt in [40, 64, 200, u32::MAX] {
            let d = policy.backoff(attempt, &mut rng);
            assert!(d <= policy.max_backoff);
            assert!(d >= policy.max_backoff / 2);
        }
    }

    #[test]
    fn response_classification_matches_the_documented_rules() {
        let err = |code: ErrorCode| Response::Error {
            code,
            message: String::new(),
        };
        assert_eq!(
            classify_response(&err(ErrorCode::Overloaded)),
            Retryability::Safe
        );
        assert_eq!(
            classify_response(&err(ErrorCode::Malformed)),
            Retryability::Safe
        );
        assert_eq!(
            classify_response(&err(ErrorCode::UnknownOpcode)),
            Retryability::Safe
        );
        assert_eq!(
            classify_response(&err(ErrorCode::Timeout)),
            Retryability::IfIdempotent
        );
        for fatal in [
            ErrorCode::BadDtd,
            ErrorCode::BadDocument,
            ErrorCode::BadQuery,
            ErrorCode::NoEmbedding,
            ErrorCode::EngineError,
            ErrorCode::NotFound,
            ErrorCode::FrameTooLarge,
            ErrorCode::Unknown(200),
        ] {
            assert_eq!(classify_response(&err(fatal)), Retryability::Fatal);
        }
        let done = Response::Evicted { existed: true };
        assert_eq!(classify_response(&done), Retryability::Fatal);
    }
}
