//! Load generator: replays [`TrafficMix`] request streams against one or
//! more endpoints — an in-process registry, TCP connections, or retrying
//! clients behind a fault proxy.
//!
//! Fixtures are *embeddable by construction*: each [`SchemaPair`] takes a
//! corpus (or synthetic) DTD as the source and a
//! [`noised_copy`](xse_workloads::noise::noised_copy()) of it as the target,
//! retrying noise seeds until discovery verifiably succeeds — so the replay
//! measures serving behaviour, not discovery failure rates. Setup also
//! pre-computes source documents, their images under `σd` (for `invert`
//! traffic), and translatable queries, all serialized to text exactly as a
//! remote client would hold them.
//!
//! [`run`] drives every endpoint on its own scoped thread. Each endpoint
//! replays a request stream sampled as it goes from its own seeded
//! [`StdRng`] (endpoint `i` seeds `seed ^ i·φ`, so endpoint 0 replays the
//! same stream whatever the endpoint count): op kinds, pair choices and
//! payload choices are deterministic per `(mix, seed, pairs)`. A TCP
//! endpoint keeps up to [`LoadConfig::inflight`] requests in flight;
//! every other endpoint answers one request at a time.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xse_discovery::{find_embedding, DiscoveryConfig};
use xse_dtd::{Dtd, GenConfig, InstanceGenerator};
use xse_workloads::corpus::corpus;
use xse_workloads::noise::{noised_copy, NoiseConfig};
use xse_workloads::querygen::{random_queries, QueryConfig};
use xse_workloads::scale;
use xse_workloads::traffic::{ServiceOp, TrafficMix};

use crate::proto::{ErrorCode, Request, Response};
use crate::registry::{default_similarity, EmbeddingRegistry, RegistryStats};
use crate::{Client, RetryStats, RetryingClient, ServiceError};

/// One source/target schema pair with pre-generated request payloads.
pub struct SchemaPair {
    /// Corpus name (or `scale-N` for synthetic schemas).
    pub name: String,
    /// Source DTD text.
    pub source_text: String,
    /// Target DTD text (a noised, embeddable copy of the source).
    pub target_text: String,
    /// Source documents, serialized.
    pub docs: Vec<String>,
    /// The same documents mapped through `σd`, serialized (inputs for
    /// `invert` traffic).
    pub target_docs: Vec<String>,
    /// Source-side XR queries that translate successfully.
    pub queries: Vec<String>,
}

/// Build `count` embeddable schema pairs: the workloads corpus first,
/// then synthetic schemas once the corpus is exhausted. Noise seeds are
/// retried (and the noise level lowered) until discovery succeeds; as a
/// last resort the pair degrades to an identity pair (target = source),
/// which is always embeddable.
pub fn build_pairs(count: usize, seed: u64) -> Vec<SchemaPair> {
    let named: Vec<(String, Dtd)> = corpus()
        .into_iter()
        .map(|(n, d)| (n.to_string(), d))
        .chain((0..count).map(|i| {
            let n = 12 + 3 * i;
            (
                format!("scale-{n}"),
                scale::random_schema(n, seed ^ i as u64),
            )
        }))
        .take(count)
        .collect();
    named
        .into_iter()
        .enumerate()
        .map(|(i, (name, source))| build_pair(name, &source, seed.wrapping_add(i as u64)))
        .collect()
}

fn build_pair(name: String, source: &Dtd, seed: u64) -> SchemaPair {
    let cfg = DiscoveryConfig::default();
    let mut chosen: Option<(Dtd, xse_core::CompiledEmbedding)> = None;
    // Setup must predict the registry's verdict exactly, so verification
    // uses the registry's default similarity heuristic and discovery config
    // (discovery is deterministic per seed, independent of thread count).
    'search: for (attempt, level) in [
        (0u64, 0.3),
        (1, 0.3),
        (2, 0.3),
        (3, 0.2),
        (4, 0.2),
        (5, 0.1),
        (6, 0.1),
        (7, 0.05),
    ] {
        let noised = noised_copy(
            source,
            NoiseConfig::level(level),
            seed.wrapping_mul(31) + attempt,
        );
        let att = default_similarity(source, &noised.target);
        if let Some(e) = find_embedding(source, &noised.target, &att, &cfg) {
            chosen = Some((noised.target, e));
            break 'search;
        }
    }
    let (target, engine) = chosen.unwrap_or_else(|| {
        // Identity fallback: a schema always embeds into itself.
        let att = default_similarity(source, source);
        let e = find_embedding(source, source, &att, &cfg)
            .expect("identity embedding must always exist");
        (source.clone(), e)
    });

    let gen = InstanceGenerator::new(
        source,
        GenConfig {
            max_nodes: 120,
            ..GenConfig::default()
        },
    );
    let mut docs = Vec::new();
    let mut target_docs = Vec::new();
    for i in 0..3u64 {
        let doc = gen.generate(seed.wrapping_add(1000 + i));
        if let Ok(out) = engine.apply(&doc) {
            docs.push(doc.to_xml());
            target_docs.push(out.tree.to_xml());
        }
    }
    // Serving-shaped queries: short navigations with occasional
    // qualifiers, the high-QPS lookups a translation tier fields (deep
    // star/union analytics queries belong to the offline benches).
    let qcfg = QueryConfig {
        max_depth: 3,
        qualifier_p: 0.15,
        union_p: 0.1,
        star_p: 0.1,
    };
    let queries: Vec<String> = random_queries(source, qcfg, seed, 12)
        .into_iter()
        .filter(|q| engine.translate(q).is_ok())
        .take(6)
        .map(|q| q.to_string())
        .collect();
    SchemaPair {
        name,
        source_text: source.to_string(),
        target_text: target.to_string(),
        docs,
        target_docs,
        queries,
    }
}

/// Where requests are sent: in-process dispatch or a TCP connection.
pub enum Endpoint {
    /// Direct calls into [`handle_request`](crate::handle_request) — no
    /// sockets, measures the registry + engine alone.
    InProcess(Arc<EmbeddingRegistry>),
    /// A connected client — measures the full wire path.
    Tcp(Client),
    /// A reconnecting, retrying client — the endpoint for chaos replays
    /// (transport failures don't end the run; the client re-dials).
    Retry(RetryingClient),
}

impl Endpoint {
    /// One request, answered before it returns: the replay of the
    /// in-process and retrying endpoints, and the one-shot calls of
    /// [`prewarm`] and [`run`]'s closing `Stats` on any endpoint.
    fn exec(&mut self, req: &Request) -> Result<Response, ServiceError> {
        match self {
            Endpoint::InProcess(reg) => Ok(crate::handle_request(reg, req)),
            Endpoint::Tcp(client) => client.call(req),
            Endpoint::Retry(client) => client.call(req),
        }
    }

    fn retry_stats(&self) -> Option<RetryStats> {
        match self {
            Endpoint::Retry(client) => Some(client.stats()),
            _ => None,
        }
    }
}

/// Replay parameters.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// The traffic mix to sample.
    pub mix: TrafficMix,
    /// Timed operations each endpoint issues.
    pub ops: usize,
    /// RNG seed: endpoint `i` samples its stream from `seed ^ i·φ`.
    pub seed: u64,
    /// Requests an [`Endpoint::Tcp`] keeps in flight on its connection
    /// (0 counts as 1). Other endpoints always answer one request at a
    /// time.
    pub inflight: usize,
}

/// Latency digest for one op kind.
#[derive(Clone, Copy, Debug)]
pub struct OpDigest {
    /// Timed requests of this kind.
    pub count: u64,
    /// Median latency.
    pub p50_nanos: u64,
    /// 99th-percentile latency.
    pub p99_nanos: u64,
}

/// Failures bucketed by kind, for the chaos report. Structured error
/// frames and transport errors are disjoint buckets: a request counts in
/// exactly one.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct ErrorTaxonomy {
    /// `overloaded` error frames (the server shed the connection).
    pub overloaded: u64,
    /// Timeouts: `timeout` error frames plus client-side deadline expiry.
    pub timeout: u64,
    /// Wire-shape rejections: frame-too-large, malformed payload, unknown
    /// opcode (under chaos, mostly corrupted request frames).
    pub malformed: u64,
    /// Other structured application errors (bad DTD, no embedding, …).
    pub app: u64,
    /// Transport gone: socket errors and connection closures.
    pub io: u64,
    /// Protocol violations observed client-side: truncated or
    /// undecodable response frames.
    pub protocol: u64,
}

impl ErrorTaxonomy {
    fn merge(&mut self, other: &ErrorTaxonomy) {
        self.overloaded += other.overloaded;
        self.timeout += other.timeout;
        self.malformed += other.malformed;
        self.app += other.app;
        self.io += other.io;
        self.protocol += other.protocol;
    }

    fn note_response(&mut self, code: ErrorCode) {
        match code {
            ErrorCode::Overloaded => self.overloaded += 1,
            ErrorCode::Timeout => self.timeout += 1,
            ErrorCode::FrameTooLarge | ErrorCode::Malformed | ErrorCode::UnknownOpcode => {
                self.malformed += 1;
            }
            _ => self.app += 1,
        }
    }

    fn note_transport(&mut self, err: &ServiceError) {
        match err {
            ServiceError::Timeout(_) => self.timeout += 1,
            ServiceError::Protocol(_) => self.protocol += 1,
            _ => self.io += 1,
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"overloaded\":{},\"timeout\":{},\"malformed\":{},\"app\":{},\
             \"io\":{},\"protocol\":{}}}",
            self.overloaded, self.timeout, self.malformed, self.app, self.io, self.protocol
        )
    }
}

/// Machine-readable result of one replay.
pub struct LoadSummary {
    /// Mix name.
    pub mix: String,
    /// Timed operations issued.
    pub ops: u64,
    /// Wall-clock time of the timed section.
    pub elapsed_nanos: u64,
    /// Timed operations per second.
    pub qps: f64,
    /// Registry hit rate at the end of the run
    /// ([`RegistryStats::hit_rate`]).
    pub hit_rate: f64,
    /// Translation-plan cache hit rate at the end of the run
    /// ([`RegistryStats::plan_hit_rate`]).
    pub plan_hit_rate: f64,
    /// Transport-level failures (socket errors, undecodable frames).
    pub protocol_errors: u64,
    /// Structured error responses (the request reached the server and was
    /// answered with an error frame).
    pub op_errors: u64,
    /// Failures bucketed by kind (see [`ErrorTaxonomy`]).
    pub errors: ErrorTaxonomy,
    /// `overloaded` error frames observed — requests the server shed.
    pub shed: u64,
    /// Successful responses of the *wrong kind* for their request (e.g. a
    /// `document` answer to a `translate`). Must be zero on any run, chaos
    /// included: corruption is designed to be undecodable, never silently
    /// misread.
    pub misinterpretations: u64,
    /// Retry counters summed over the [`Endpoint::Retry`] endpoints;
    /// `None` when there were none.
    pub retry: Option<RetryStats>,
    /// Per-op latency digests, in [`ServiceOp::ALL`] order, `None` when
    /// the op never ran.
    pub per_op: Vec<(ServiceOp, Option<OpDigest>)>,
    /// Registry counters after the run.
    pub registry: RegistryStats,
    /// Latency digest across *all* timed ops (the warm/cold comparison
    /// metric).
    pub overall_digest: Option<OpDigest>,
}

impl LoadSummary {
    /// Render as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut per_op = String::new();
        for (op, digest) in &self.per_op {
            let Some(d) = digest else { continue };
            if !per_op.is_empty() {
                per_op.push(',');
            }
            per_op.push_str(&format!(
                "\"{}\":{{\"count\":{},\"p50_nanos\":{},\"p99_nanos\":{}}}",
                op.name(),
                d.count,
                d.p50_nanos,
                d.p99_nanos
            ));
        }
        let overall = self
            .overall_digest
            .map(|d| {
                format!(
                    "{{\"count\":{},\"p50_nanos\":{},\"p99_nanos\":{}}}",
                    d.count, d.p50_nanos, d.p99_nanos
                )
            })
            .unwrap_or_else(|| "null".into());
        let retry = self
            .retry
            .map(|r| {
                format!(
                    "{{\"attempts\":{},\"retries\":{},\"reconnects\":{}}}",
                    r.attempts, r.retries, r.reconnects
                )
            })
            .unwrap_or_else(|| "null".into());
        format!(
            "{{\"mix\":\"{}\",\"ops\":{},\"elapsed_nanos\":{},\"qps\":{:.2},\
             \"hit_rate\":{:.4},\"plan_hit_rate\":{:.4},\
             \"protocol_errors\":{},\"op_errors\":{},\"shed\":{},\
             \"misinterpretations\":{},\"errors\":{},\"retry\":{retry},\
             \"overall\":{overall},\"per_op\":{{{per_op}}},\
             \"registry\":{{\"hits\":{},\"misses\":{},\"compiles\":{},\
             \"single_flight_waits\":{},\"evictions\":{},\"entries\":{},\
             \"compile_nanos\":{},\"plan_hits\":{},\"plan_misses\":{},\
             \"plan_entries\":{},\"negative_hits\":{}}}}}",
            self.mix,
            self.ops,
            self.elapsed_nanos,
            self.qps,
            self.hit_rate,
            self.plan_hit_rate,
            self.protocol_errors,
            self.op_errors,
            self.shed,
            self.misinterpretations,
            self.errors.to_json(),
            self.registry.hits,
            self.registry.misses,
            self.registry.compiles,
            self.registry.single_flight_waits,
            self.registry.evictions,
            self.registry.entries,
            self.registry.compile_nanos,
            self.registry.plan_hits,
            self.registry.plan_misses,
            self.registry.plan_entries,
            self.registry.negative_hits,
        )
    }
}

/// Whether a *successful* response is of the kind `req` calls for. Error
/// frames and transport failures are judged elsewhere; this catches the
/// one thing that must never happen — a wrong-kind success (a frame
/// misread as an answer it isn't).
pub fn response_matches(req: &Request, resp: &Response) -> bool {
    matches!(
        (req, resp),
        (Request::Compile { .. }, Response::Compiled { .. })
            | (Request::Apply { .. }, Response::Document { .. })
            | (Request::Invert { .. }, Response::Document { .. })
            | (Request::Translate { .. }, Response::Translated { .. })
            | (Request::Stats, Response::Stats(_))
            | (Request::Evict { .. }, Response::Evicted { .. })
            | (_, Response::Error { .. })
    )
}

/// Compile every pair once through `endpoint` (untimed), so a following
/// replay measures the warm path — cache reads racing across endpoints,
/// plus wire queueing — rather than compile storms.
///
/// # Errors
/// The first transport failure.
pub fn prewarm(endpoint: &mut Endpoint, pairs: &[SchemaPair]) -> Result<(), ServiceError> {
    for pair in pairs {
        endpoint.exec(&compile_request(pair))?;
    }
    Ok(())
}

/// Replay `cfg.ops` sampled operations on every endpoint at once, one
/// scoped thread per endpoint, and merge what they measured.
///
/// Structured error responses are counted and the replay continues.
/// Transport failures are counted; on a plain [`Endpoint::Tcp`] they also
/// end that endpoint's stream (a broken connection cannot carry further
/// requests), while the retrying endpoint re-dials and presses on. The
/// closing `Stats` request goes to the endpoints in order until one
/// answers; if none does, the summary's registry counters read zero.
pub fn run(endpoints: &mut [Endpoint], pairs: &[SchemaPair], cfg: &LoadConfig) -> LoadSummary {
    assert!(!pairs.is_empty(), "load generation needs at least one pair");
    assert!(!endpoints.is_empty(), "load generation needs an endpoint");

    let t0 = Instant::now();
    let mut out = ReplayOutcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .iter_mut()
            .enumerate()
            .map(|(i, endpoint)| {
                scope.spawn(move || replay(endpoint, sample_stream(pairs, cfg, i as u64), cfg))
            })
            .collect();
        for handle in handles {
            out.merge(handle.join().expect("replay thread panicked"));
        }
    });
    let elapsed = t0.elapsed();

    let retry = endpoints
        .iter()
        .filter_map(Endpoint::retry_stats)
        .reduce(|a, b| RetryStats {
            attempts: a.attempts + b.attempts,
            retries: a.retries + b.retries,
            reconnects: a.reconnects + b.reconnects,
        });
    let registry = endpoints
        .iter_mut()
        .find_map(|endpoint| match endpoint.exec(&Request::Stats) {
            Ok(Response::Stats(s)) => Some(s),
            _ => None,
        })
        .unwrap_or_default();
    out.summarize(&cfg.mix, elapsed, registry, retry)
}

/// One sampled request: its op kind and the request itself.
type Sampled = (ServiceOp, Request);

/// Endpoint `index`'s request stream, sampled one request at a time as
/// the replay pulls it, so only the requests in flight are held.
fn sample_stream<'a>(
    pairs: &'a [SchemaPair],
    cfg: &'a LoadConfig,
    index: u64,
) -> impl Iterator<Item = Sampled> + 'a {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..cfg.ops).map(move |_| {
        let pair = &pairs[rng.random_range(0..pairs.len())];
        let op = cfg.mix.sample(&mut rng);
        // A pair can lack payloads for this op (e.g. no translatable
        // queries survived setup); degrade to a cache touch.
        let req = build_request(pair, op, &mut rng, cfg.mix.zipf_queries())
            .unwrap_or_else(|| compile_request(pair));
        (op, req)
    })
}

/// Replay one endpoint's stream.
fn replay(
    endpoint: &mut Endpoint,
    stream: impl Iterator<Item = Sampled>,
    cfg: &LoadConfig,
) -> ReplayOutcome {
    if let Endpoint::Tcp(client) = endpoint {
        return pipeline(client, stream, cfg.inflight.max(1));
    }
    let mut out = ReplayOutcome::default();
    for (op, req) in stream {
        let start = Instant::now();
        match endpoint.exec(&req) {
            Ok(resp) => out.record(op, &req, &resp, start.elapsed()),
            Err(e) => out.transport_failure(&e),
        }
    }
    out
}

/// Replay `stream` on one connection, keeping up to `window` requests in
/// flight. Answers arrive in submission order, so the oldest pending
/// request is the one each answer belongs to. Latency is submit→receive,
/// so under a deep window it includes time spent queued behind the
/// connection's other requests: the latency a pipelined caller observes.
fn pipeline(
    client: &mut Client,
    mut stream: impl Iterator<Item = Sampled>,
    window: usize,
) -> ReplayOutcome {
    let mut out = ReplayOutcome::default();
    let mut pending: VecDeque<(ServiceOp, Request, Instant)> = VecDeque::new();
    loop {
        // Fill the window first, then block on one completion.
        if pending.len() < window {
            if let Some((op, req)) = stream.next() {
                let started = Instant::now();
                match client.submit(&req) {
                    Ok(_) => {
                        pending.push_back((op, req, started));
                        continue;
                    }
                    Err(e) => {
                        out.transport_failure(&e);
                        break;
                    }
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        match client.recv() {
            Ok((_, resp)) => {
                let (op, req, started) = pending.pop_front().expect("checked nonempty");
                out.record(op, &req, &resp, started.elapsed());
            }
            Err(e) => {
                out.transport_failure(&e);
                break;
            }
        }
    }
    out
}

/// What a replay (or one endpoint's share of it) produced.
#[derive(Default)]
struct ReplayOutcome {
    /// Latencies in nanoseconds, one list per [`ServiceOp::ALL`] slot.
    latencies: [Vec<u64>; ServiceOp::ALL.len()],
    issued: u64,
    op_errors: u64,
    protocol_errors: u64,
    errors: ErrorTaxonomy,
    shed: u64,
    misinterpretations: u64,
}

impl ReplayOutcome {
    /// Count one answered request of kind `op` and its latency.
    fn record(&mut self, op: ServiceOp, req: &Request, resp: &Response, latency: Duration) {
        match resp {
            Response::Error { code, message: _ } => {
                self.op_errors += 1;
                self.errors.note_response(*code);
                if *code == ErrorCode::Overloaded {
                    self.shed += 1;
                }
            }
            resp => {
                if !response_matches(req, resp) {
                    self.misinterpretations += 1;
                }
            }
        }
        self.issued += 1;
        let slot = ServiceOp::ALL
            .iter()
            .position(|&o| o == op)
            .expect("in ALL");
        self.latencies[slot].push(latency.as_nanos() as u64);
    }

    fn transport_failure(&mut self, e: &ServiceError) {
        self.protocol_errors += 1;
        self.errors.note_transport(e);
    }

    fn merge(&mut self, other: ReplayOutcome) {
        for (mine, theirs) in self.latencies.iter_mut().zip(other.latencies) {
            mine.extend(theirs);
        }
        self.issued += other.issued;
        self.op_errors += other.op_errors;
        self.protocol_errors += other.protocol_errors;
        self.errors.merge(&other.errors);
        self.shed += other.shed;
        self.misinterpretations += other.misinterpretations;
    }

    /// Turn the counts, the timed section's wall time and the server's
    /// closing counters into the run's [`LoadSummary`].
    fn summarize(
        mut self,
        mix: &TrafficMix,
        elapsed: Duration,
        registry: RegistryStats,
        retry: Option<RetryStats>,
    ) -> LoadSummary {
        let elapsed_nanos = elapsed.as_nanos() as u64;
        let mut all: Vec<u64> = self.latencies.iter().flatten().copied().collect();
        let per_op = ServiceOp::ALL
            .iter()
            .zip(self.latencies.iter_mut())
            .map(|(&op, lat)| (op, digest(lat)))
            .collect();
        LoadSummary {
            mix: mix.name().to_string(),
            ops: self.issued,
            elapsed_nanos,
            qps: if elapsed_nanos == 0 {
                0.0
            } else {
                self.issued as f64 * 1e9 / elapsed_nanos as f64
            },
            hit_rate: registry.hit_rate(),
            plan_hit_rate: registry.plan_hit_rate(),
            protocol_errors: self.protocol_errors,
            op_errors: self.op_errors,
            errors: self.errors,
            shed: self.shed,
            misinterpretations: self.misinterpretations,
            retry,
            per_op,
            registry,
            overall_digest: digest(&mut all),
        }
    }
}

fn digest(lat: &mut [u64]) -> Option<OpDigest> {
    if lat.is_empty() {
        return None;
    }
    lat.sort_unstable();
    let pick = |p: f64| lat[((lat.len() - 1) as f64 * p).round() as usize];
    Some(OpDigest {
        count: lat.len() as u64,
        p50_nanos: pick(0.50),
        p99_nanos: pick(0.99),
    })
}

fn compile_request(pair: &SchemaPair) -> Request {
    Request::Compile {
        source_dtd: pair.source_text.clone(),
        target_dtd: pair.target_text.clone(),
    }
}

fn build_request(
    pair: &SchemaPair,
    op: ServiceOp,
    rng: &mut StdRng,
    zipf_queries: bool,
) -> Option<Request> {
    let (s, t) = (pair.source_text.clone(), pair.target_text.clone());
    Some(match op {
        ServiceOp::Compile => Request::Compile {
            source_dtd: s,
            target_dtd: t,
        },
        ServiceOp::Apply => Request::Apply {
            source_dtd: s,
            target_dtd: t,
            xml: pick(&pair.docs, rng)?.clone(),
        },
        ServiceOp::Invert => Request::Invert {
            source_dtd: s,
            target_dtd: t,
            xml: pick(&pair.target_docs, rng)?.clone(),
        },
        ServiceOp::Translate => Request::Translate {
            source_dtd: s,
            target_dtd: t,
            query: if zipf_queries {
                pick_zipf(&pair.queries, rng)?.clone()
            } else {
                pick(&pair.queries, rng)?.clone()
            },
        },
        ServiceOp::Stats => Request::Stats,
        ServiceOp::Evict => Request::Evict {
            source_dtd: s,
            target_dtd: t,
        },
    })
}

fn pick<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.random_range(0..items.len())])
    }
}

/// Zipf-ish choice: the i-th item is drawn with probability ∝ 1/(i+1)
/// (fixed-point harmonic weights), so early items dominate the stream.
fn pick_zipf<'a, T>(items: &'a [T], rng: &mut StdRng) -> Option<&'a T> {
    if items.is_empty() {
        return None;
    }
    const SCALE: u32 = 840; // divisible by 1..=8, exact for small lists
    let weights: Vec<u32> = (0..items.len()).map(|i| SCALE / (i as u32 + 1)).collect();
    let total: u32 = weights.iter().sum();
    let mut roll = rng.random_range(0..total);
    for (item, &w) in items.iter().zip(&weights) {
        if roll < w {
            return Some(item);
        }
        roll -= w;
    }
    unreachable!("roll exceeds total weight")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use crate::{Server, ServerConfig};

    #[test]
    fn pairs_are_embeddable_with_payloads() {
        let pairs = build_pairs(3, 7);
        assert_eq!(pairs.len(), 3);
        for p in &pairs {
            assert!(!p.docs.is_empty(), "{} has no documents", p.name);
            assert_eq!(p.docs.len(), p.target_docs.len());
            // Each pair must compile through the registry path too.
            let reg = EmbeddingRegistry::new(RegistryConfig {
                capacity: 2,
                ..RegistryConfig::default()
            });
            reg.get_or_compile(&p.source_text, &p.target_text)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn replay_is_deterministic_and_clean() {
        let pairs = build_pairs(2, 11);
        let reg = Arc::new(EmbeddingRegistry::new(RegistryConfig {
            capacity: 8,
            ..RegistryConfig::default()
        }));
        let cfg = LoadConfig {
            mix: TrafficMix::mixed(),
            ops: 60,
            seed: 5,
            inflight: 1,
        };
        let summary = run(&mut [Endpoint::InProcess(Arc::clone(&reg))], &pairs, &cfg);
        assert_eq!(summary.ops, 60);
        assert_eq!(summary.protocol_errors, 0);
        assert_eq!(summary.op_errors, 0, "{}", summary.to_json());
        assert!(summary.qps > 0.0);
        assert_eq!(summary.misinterpretations, 0);
        assert_eq!(summary.shed, 0);
        assert!(summary.retry.is_none(), "in-process endpoint never retries");
        let json = summary.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"mix\":\"mixed\""), "{json}");
        assert!(json.contains("\"plan_hit_rate\""), "{json}");
        assert!(json.contains("\"errors\":{\"overloaded\":0"), "{json}");
        assert!(json.contains("\"retry\":null"), "{json}");
        assert!(json.contains("\"negative_hits\":0"), "{json}");
    }

    #[test]
    fn response_matching_rejects_wrong_kind_successes() {
        let compile = Request::Compile {
            source_dtd: "s".into(),
            target_dtd: "t".into(),
        };
        let compiled = Response::Compiled {
            source_hash: "a".into(),
            target_hash: "b".into(),
            size: 1,
        };
        let doc = Response::Document { xml: "<r/>".into() };
        assert!(response_matches(&compile, &compiled));
        assert!(!response_matches(&compile, &doc));
        assert!(!response_matches(&Request::Stats, &compiled));
        // Error frames are never misinterpretations — they are counted in
        // the taxonomy instead.
        let err = Response::Error {
            code: ErrorCode::Overloaded,
            message: String::new(),
        };
        assert!(response_matches(&compile, &err));
        assert!(response_matches(&Request::Stats, &err));
    }

    #[test]
    fn repeated_query_mix_mostly_hits_the_plan_cache() {
        let pairs = build_pairs(2, 11);
        let reg = Arc::new(EmbeddingRegistry::new(RegistryConfig {
            capacity: 8,
            ..RegistryConfig::default()
        }));
        let cfg = LoadConfig {
            mix: TrafficMix::repeated_query(),
            ops: 300,
            seed: 5,
            inflight: 1,
        };
        let summary = run(&mut [Endpoint::InProcess(Arc::clone(&reg))], &pairs, &cfg);
        assert_eq!(summary.protocol_errors + summary.op_errors, 0);
        // Two pairs hold at most 12 distinct queries between them, so with
        // ~280 translates nearly all land on cached plans.
        assert!(
            summary.plan_hit_rate >= 0.90,
            "plan hit rate {} too low: {}",
            summary.plan_hit_rate,
            summary.to_json()
        );
        assert!(summary.registry.plan_hits > summary.registry.plan_misses * 5);
    }

    #[test]
    fn pipelined_replay_over_several_connections_is_clean() {
        let pairs = build_pairs(2, 11);
        let reg = Arc::new(EmbeddingRegistry::new(RegistryConfig::default()));
        let connections = 3;
        let server = Server::bind(("127.0.0.1", 0), reg, ServerConfig::default()).expect("bind");
        let mut endpoints: Vec<Endpoint> = (0..connections)
            .map(|_| Endpoint::Tcp(Client::connect(server.addr()).expect("connect")))
            .collect();
        prewarm(&mut endpoints[0], &pairs).expect("prewarm");
        let cfg = LoadConfig {
            mix: TrafficMix::translate_heavy(),
            ops: 80,
            seed: 5,
            inflight: 4,
        };
        let summary = run(&mut endpoints, &pairs, &cfg);
        assert_eq!(summary.ops, (connections * cfg.ops) as u64);
        assert_eq!(summary.protocol_errors, 0, "{}", summary.to_json());
        assert_eq!(summary.misinterpretations, 0, "{}", summary.to_json());
        assert_eq!(summary.op_errors, 0, "{}", summary.to_json());
        // Prewarmed and never evicted: only the prewarm compiles missed.
        assert_eq!(summary.registry.misses, pairs.len() as u64);
        assert!(summary.retry.is_none());
    }

    /// A shed arrives as an id-0 `Overloaded` frame whatever the window, so
    /// a pipelined connection counts it as a shed, as a lockstep one does,
    /// and not as a transport failure.
    #[test]
    fn pipelined_replay_counts_a_shed_as_overloaded() {
        let pairs = build_pairs(1, 11);
        let reg = Arc::new(EmbeddingRegistry::new(RegistryConfig::default()));
        let server = Server::bind(
            ("127.0.0.1", 0),
            reg,
            ServerConfig {
                max_connections: 0,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
        let mut endpoints = [Endpoint::Tcp(
            Client::connect(server.addr()).expect("connect"),
        )];
        let cfg = LoadConfig {
            mix: TrafficMix::translate_heavy(),
            ops: 8,
            seed: 5,
            inflight: 4,
        };
        let summary = run(&mut endpoints, &pairs, &cfg);
        assert!(summary.shed >= 1, "{}", summary.to_json());
        assert!(summary.errors.overloaded >= 1, "{}", summary.to_json());
    }
}
