//! # `xse` — Information Preserving XML Schema Embedding
//!
//! A Rust implementation of **Fan & Bohannon, *Information Preserving XML
//! Schema Embedding*** (VLDB 2005; extended in ACM TODS 33(1), 2008).
//!
//! A *schema embedding* `σ = (λ, path)` maps every element type of a source
//! DTD to a type of a target DTD and every *edge* of the source schema graph
//! to a *path* of the target graph, subject to path-type and prefix-free
//! validity conditions. The library is built around one artifact — the
//! **compiled embedding**: assemble `σ` once (by hand through a fallible
//! builder, or automatically through discovery), validate and compile it
//! once, then run the derived operations as often as you like:
//!
//! * an instance-level mapping `σd` that is **type safe** (the output
//!   conforms to the target DTD) and **injective** (Theorem 4.1), with a
//!   batch mode that fans documents out over threads;
//! * an **inverse** `σd⁻¹` recovering the source document (Theorem 4.3a);
//! * a **query translation** `Tr` such that every regular XPath query `Q`
//!   over the source satisfies `Q(T) = idM(Tr(Q)(σd(T)))` (Theorem 4.3b);
//! * **XSLT stylesheets** implementing `σd` and `σd⁻¹` (Section 4.3);
//! * heuristic **discovery** of embeddings from a similarity matrix
//!   (Section 5 — the problem itself is NP-complete, Theorem 5.1). The
//!   restart search runs sequentially by default;
//!   [`DiscoveryConfig::threads`](crate::discovery::DiscoveryConfig::threads)
//!   opts into parallel restarts, which return a byte-identical embedding
//!   for every thread count.
//!
//! The compiled engine ([`CompiledEmbedding`](crate::core::CompiledEmbedding))
//! owns its schemas via `Arc`, carries no lifetime parameter, and is
//! `Send + Sync` — build it once, share it across threads, serve traffic.
//!
//! The facade re-exports the workspace crates under stable module names:
//!
//! | module | contents |
//! |--------|----------|
//! | [`xmltree`] | ordered labeled trees, node ids, `idM` |
//! | [`dtd`] | DTDs, schema graphs, validation, `mindef`, instance generation |
//! | [`rxpath`] | regular XPath (`XR`) and the XPath fragment `X` |
//! | [`anfa`] | annotated NFAs representing `XR` queries |
//! | [`core`] | compiled embeddings, `σd`, `σd⁻¹`, `Tr`, preservation checkers |
//! | [`xslt`] | the §4.3 XSLT processing model + stylesheet generation |
//! | [`discovery`] | computing embeddings (prefix-free paths, heuristics) |
//! | [`workloads`] | schema corpus, noise, similarity, query and traffic generators |
//! | [`service`] | embedding registry, TCP wire protocol, retrying client, fault injection, load generator |
//!
//! ## Quickstart
//!
//! ```
//! use xse::prelude::*;
//!
//! // A source catalog embeds into a more general target that wraps every
//! // region one level deeper and adds extra (default-filled) structure.
//! let source = Dtd::parse(
//!     "<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)>\
//!      <!ELEMENT b (c)*><!ELEMENT c (#PCDATA)>",
//! ).unwrap();
//! let target = Dtd::parse(
//!     "<!ELEMENT r (x, y)><!ELEMENT x (a, pad)><!ELEMENT a (#PCDATA)>\
//!      <!ELEMENT pad (#PCDATA)><!ELEMENT y (w)><!ELEMENT w (c2)*>\
//!      <!ELEMENT c2 (c)><!ELEMENT c (#PCDATA)>",
//! ).unwrap();
//!
//! // 1. Discover a valid embedding from a similarity matrix (§5). The
//! //    result is owned and `Send + Sync` — no lifetimes, safe to store.
//! let att = SimilarityMatrix::permissive(&source, &target);
//! let embedding: CompiledEmbedding =
//!     find_embedding(&source, &target, &att, &DiscoveryConfig::default())
//!         .expect("source embeds into target");
//!
//! // …or write the same embedding out by hand with the fallible builder
//! // (errors accumulate — nothing panics on a typo'd tag or path):
//! let embedding = EmbeddingBuilder::new(source, target.clone())
//!     .map_type("b", "w")
//!     .edge("r", "a", "x/a")
//!     .edge("r", "b", "y/w")
//!     .edge("b", "c", "c2/c")
//!     .text_edge("a", "text()")
//!     .text_edge("c", "text()")
//!     .build()
//!     .unwrap();
//!
//! // 2. Map an instance (Theorem 4.1: type safe) and invert it back
//! //    (Theorem 4.3a: information is preserved).
//! let doc = parse_xml("<r><a>hi</a><b><c>1</c><c>2</c></b></r>").unwrap();
//! let out = embedding.apply(&doc).unwrap();
//! target.validate(&out.tree).unwrap();
//! let back = embedding.invert(&out.tree).unwrap();
//! assert!(back.equals(&doc));
//!
//! // 3. Queries translate too (Theorem 4.3b): Q(T) = idM(Tr(Q)(σd(T))).
//! let q = parse_query("b/c[position() = 2]/text()").unwrap();
//! let translated = embedding.translate(&q).unwrap();
//! let direct = q.eval(&doc);
//! let mapped: Vec<_> = out.idmap.map_result(translated.eval(&out.tree)).collect();
//! assert_eq!(direct, mapped);
//!
//! // 4. Batches fan out over scoped threads — same results, in order.
//! let docs = vec![doc.clone(), doc.clone(), doc];
//! for result in embedding.apply_batch(&docs) {
//!     assert!(target.validate(&result.unwrap().tree).is_ok());
//! }
//! ```
//!
//! ## Translation
//!
//! [`CompiledEmbedding::translate`](crate::core::CompiledEmbedding::translate)
//! does not re-run the `Tr` construction per call: each query is reduced
//! to a canonical *shape key* ([`shape_key`](crate::rxpath::shape_key) —
//! equivalent spellings like `a[true]` and `a` share one key) and the
//! compiled [`TranslatePlan`](crate::core::TranslatePlan) — the pruned
//! product ANFA plus tag-id transition tables — is cached per embedding
//! (bounded, LRU). Repeat translations return the same
//! `Arc<TranslatePlan>`; [`plan_stats`](crate::core::CompiledEmbedding::plan_stats)
//! exposes the hit/miss counters. For hot loops,
//! [`TranslatePlan::eval_with`](crate::core::TranslatePlan::eval_with)
//! reuses caller-owned scratch buffers so evaluation allocates nothing
//! per call:
//!
//! ```
//! use std::sync::Arc;
//! use xse::prelude::*;
//!
//! let source = Dtd::parse(
//!     "<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)>\
//!      <!ELEMENT b (c)*><!ELEMENT c (#PCDATA)>",
//! ).unwrap();
//! let att = SimilarityMatrix::permissive(&source, &source);
//! let embedding =
//!     find_embedding(&source, &source, &att, &DiscoveryConfig::default()).unwrap();
//! let doc = parse_xml("<r><a>hi</a><b><c>1</c><c>2</c></b></r>").unwrap();
//! let out = embedding.apply(&doc).unwrap();
//!
//! // First call compiles the plan; an equivalent spelling reuses it.
//! let q = parse_query("b/c").unwrap();
//! let plan = embedding.translate(&q).unwrap();
//! let again = embedding.translate(&parse_query("./b[true]/c").unwrap()).unwrap();
//! assert!(Arc::ptr_eq(&plan, &again));
//! let stats: PlanCacheStats = embedding.plan_stats();
//! assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
//!
//! // Warm-path evaluation with pooled scratch: no per-call allocations.
//! let mut scratch = EvalScratch::new();
//! let mut matches = Vec::new();
//! plan.eval_with(&out.tree, &mut scratch, &mut matches);
//! let mapped: Vec<_> = out.idmap.map_result(matches).collect();
//! assert_eq!(mapped, q.eval(&doc));
//! ```
//!
//! ## Serving
//!
//! Compilation (discovery) is the expensive step; everything derived from
//! a [`CompiledEmbedding`](crate::core::CompiledEmbedding) is cheap. The
//! [`service`] crate packages that asymmetry for long-running processes:
//! an [`EmbeddingRegistry`](crate::service::EmbeddingRegistry) caches
//! compiled embeddings keyed by the *canonical content hashes*
//! ([`DtdHash`](crate::dtd::DtdHash)) of the reduced DTD pair — permuted
//! but equivalent DTD texts share one entry — with single-flight
//! compilation (N concurrent requests for an uncached pair compile once)
//! and weighted (compile-cost × recency) eviction. Eviction drops an
//! engine but not what discovery found: each shard keeps a bounded map of
//! discovery verdicts, so the pair's next miss rebuilds the engine from
//! its `(λ, path)` (the polynomial §4.1 checks) instead of re-running the
//! NP-complete search. The registry is lock-striped across
//! [`RegistryConfig::shards`](crate::service::RegistryConfig) independent shards
//! (default 8) keyed by the pair hash: each shard has its own mutex,
//! single-flight table and verdict map, and warm hits resolve through
//! a read-locked fast table without ever touching a shard mutex — a hot
//! `Arc` clone never blocks behind another pair's compile. `shards: 1`
//! reproduces single-mutex behavior exactly; aggregate
//! [`stats`](crate::service::EmbeddingRegistry::stats) are a monotone
//! merge over shards. A `std`-only TCP server and client
//! ([`service::Server`] / [`service::Client`]) expose `compile`,
//! `apply`, `invert`, `translate`, `stats` and `evict` over a
//! length-prefixed binary protocol (documented in [`service`]), and the
//! `xse-loadgen` binary replays
//! [`TrafficMix`](crate::workloads::traffic::TrafficMix) workloads against
//! either endpoint, reporting per-op latency percentiles, QPS and cache
//! hit rates:
//!
//! ```
//! use std::sync::Arc;
//! use xse::prelude::*;
//!
//! let registry = Arc::new(EmbeddingRegistry::new(RegistryConfig::default()));
//! let source = "<!ELEMENT r (a)>\n<!ELEMENT a (#PCDATA)>";
//! // Same schema, spelled differently: one cache entry, one compile.
//! let source_permuted = "<!ELEMENT r (a)><!ELEMENT a (#PCDATA)>";
//! let (key, engine) = registry.get_or_compile(source, source).unwrap();
//! let (key2, _) = registry.get_or_compile(source_permuted, source).unwrap();
//! assert_eq!(key, key2);
//! assert_eq!(registry.stats().compiles, 1);
//! assert!(engine.apply(&parse_xml("<r><a>x</a></r>").unwrap()).is_ok());
//! ```
//!
//! Every frame carries a u32 *request id*. Id 0 is answered in lockstep:
//! [`Client::call`](crate::service::Client::call) and the typed helpers
//! send one id-0 request and read its answer. A nonzero id may complete
//! out of order: [`Client::submit`](crate::service::Client::submit) and
//! [`Client::recv`](crate::service::Client::recv) keep a window of
//! tagged requests in flight on the same connection, and the server,
//! which serves each connection with up to four threads, matches
//! responses to requests by id alone. `xse-loadgen --connections N
//! --inflight K` measures the contended path (see `EXPERIMENTS.md`):
//!
//! ```
//! use std::sync::Arc;
//! use xse::prelude::*;
//! use xse::service::{Request, Response};
//!
//! let registry = Arc::new(EmbeddingRegistry::new(RegistryConfig::default()));
//! let server = Server::bind(("127.0.0.1", 0), registry, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! let source = "<!ELEMENT r (a)>\n<!ELEMENT a (#PCDATA)>";
//! // Two requests on the wire before either response is read.
//! let first = client
//!     .submit(&Request::Compile { source_dtd: source.into(), target_dtd: source.into() })
//!     .unwrap();
//! let second = client.submit(&Request::Stats).unwrap();
//! assert_eq!(client.in_flight(), 2);
//! // Responses are matched to requests by id, whatever order they land in.
//! for _ in 0..2 {
//!     let (id, resp) = client.recv().unwrap();
//!     match resp {
//!         Response::Compiled { .. } => assert_eq!(id, first),
//!         Response::Stats(_) => assert_eq!(id, second),
//!         other => panic!("unexpected {other:?}"),
//!     }
//! }
//! assert_eq!(client.in_flight(), 0);
//! ```
//!
//! ## Robustness
//!
//! The serving layer is built to degrade predictably rather than wedge:
//! the server enforces per-connection read/write deadlines and a
//! per-request time budget, sheds connections with a structured
//! `Overloaded` error frame when its accept queue is full, and drains
//! gracefully on shutdown
//! ([`ServerConfig`](crate::service::ServerConfig)). The client side
//! bounds every phase (`connect_timeout`, read/write deadlines on
//! [`ClientConfig`](crate::service::ClientConfig)) and classifies
//! failures: connect-phase errors and pre-execution rejections
//! (`Overloaded`, `Malformed`, `UnknownOpcode`) are always safe to
//! retry, post-send transport failures are retried only for idempotent
//! requests, and structured application errors are never retried.
//! [`RetryingClient`](crate::service::RetryingClient) packages that
//! policy with exponential backoff and deterministic seeded jitter
//! ([`RetryPolicy`](crate::service::RetryPolicy)); registries remember
//! what discovery concluded for each DTD pair, so a failing pair fails
//! fast until its verdict's TTL
//! ([`RegistryConfig::negative_ttl`](crate::service::RegistryConfig))
//! runs out and an evicted engine is rebuilt from its kept `(λ, path)`
//! without searching again;
//! and a deterministic in-process chaos proxy
//! ([`service::fault::FaultProxy`])
//! injects delays, resets, truncations and opcode corruption on a seeded
//! schedule for tests and the `xse-loadgen --chaos` soak:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use xse::prelude::*;
//! use xse::service::Request;
//!
//! let registry = Arc::new(EmbeddingRegistry::new(RegistryConfig::default()));
//! let server = Server::bind(
//!     ("127.0.0.1", 0),
//!     registry,
//!     ServerConfig {
//!         read_timeout: Some(Duration::from_secs(2)),
//!         request_budget: Some(Duration::from_secs(5)),
//!         ..ServerConfig::default()
//!     },
//! )
//! .unwrap();
//!
//! // Retries are bounded, backoff is jittered deterministically per seed,
//! // and only safe-to-retry failures are retried at all.
//! let mut client = RetryingClient::new(
//!     server.addr(),
//!     ClientConfig {
//!         connect_timeout: Some(Duration::from_millis(500)),
//!         ..ClientConfig::default()
//!     },
//!     RetryPolicy { max_attempts: 3, seed: 42, ..RetryPolicy::default() },
//! )
//! .unwrap();
//! let source = "<!ELEMENT r (a)>\n<!ELEMENT a (#PCDATA)>";
//! let reply = client
//!     .call(&Request::Compile {
//!         source_dtd: source.into(),
//!         target_dtd: source.into(),
//!     })
//!     .unwrap();
//! assert!(matches!(reply, xse::service::Response::Compiled { .. }));
//! assert_eq!(client.stats().retries, 0); // healthy server: first try lands
//! ```

pub use xse_anfa as anfa;
pub use xse_core as core;
pub use xse_discovery as discovery;
pub use xse_dtd as dtd;
pub use xse_rxpath as rxpath;
pub use xse_service as service;
pub use xse_workloads as workloads;
pub use xse_xmltree as xmltree;
pub use xse_xslt as xslt;

/// One-stop imports for examples and applications.
///
/// The surface is panic-free by construction: embeddings are assembled with
/// the fallible [`EmbeddingBuilder`](xse_core::EmbeddingBuilder) and every
/// failure is an [`EmbeddingError`](xse_core::EmbeddingError).
pub mod prelude {
    pub use xse_anfa::EvalScratch;
    pub use xse_core::{
        CompiledEmbedding, EmbeddingBuilder, EmbeddingError, MappingOutput, PlanCacheStats,
        SimilarityMatrix, TranslatePlan, TypeMapping,
    };
    pub use xse_discovery::{
        find_embedding, find_embedding_with_stats, DiscoveryConfig, DiscoveryStats, Strategy,
    };
    pub use xse_dtd::{Dtd, Production, TypeId};
    pub use xse_rxpath::{parse_query, XrQuery};
    pub use xse_service::{
        Client, ClientConfig, EmbeddingRegistry, RegistryConfig, RetryPolicy, RetryingClient,
        Server, ServerConfig,
    };
    pub use xse_xmltree::{parse_xml, IdMap, NodeId, TreeBuilder, XmlTree};
    pub use xse_xslt::{generate_forward, generate_inverse, Stylesheet, StylesheetGen};
}
