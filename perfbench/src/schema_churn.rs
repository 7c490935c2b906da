//! `schema-churn`: the registry's write side, in-process through
//! `handle_request` on one thread. The population (corpus pairs,
//! synthetic `scale-N` pairs and pairs known to fail discovery) is several
//! times the registry's capacity and requested with harmonic (Zipf,
//! s = 1) popularity, so the loop keeps missing, compiling, evicting and
//! answering from the negative cache. The op mix is the service's
//! `cold-cache-adversarial` traffic (see [`mix`]): compile, translate, a
//! small apply, evict, and answer — the Theorem 4.3 path on the registry's
//! engine: translate a query, evaluate the plan on `σd(T)` with
//! `TranslatePlan::eval_with` and map the result back through
//! `IdMap::map_result`, checked against direct evaluation of the query on
//! `T`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xse_anfa::EvalScratch;
use xse_discovery::find_embedding_with_stats;
use xse_dtd::Dtd;
use xse_rxpath::{eval_at_root, parse_query};
use xse_service::registry::default_similarity;
use xse_service::{
    handle_request, EmbeddingRegistry, ErrorCode, RegistryStats, Request, Response, ServiceError,
};
use xse_workloads::scale::random_schema;
use xse_workloads::traffic::{ServiceOp, TrafficMix};
use xse_xmltree::{IdMap, NodeId, XmlTree};

use crate::inputs::{
    compile_texts, corpus_pairs, digest_pair, discovery_config, identity_pair, sized_document,
    translatable_queries, Pair, PAIR_SEED,
};
use crate::replay::execute;
use crate::stats::{harmonic, Digest};
use crate::trace::Tracer;
use crate::{served, DiscoveryTally, Phase, Tally, TraceMode, Workload};

pub const NAME: &str = "schema-churn";

/// Registry capacity, well below the population.
const CAPACITY: usize = 4;
const SHARDS: usize = 2;
/// Type counts of the synthetic `scale-N` pairs: identity pairs, whose
/// discovery cost follows the schema's size. Like the corpus pairs, the
/// synthetic and unembeddable pairs come from `PAIR_SEED`, so the
/// population is the same for every run seed.
const SCALE_SIZES: [usize; 6] = [32, 64, 96, 128, 192, 256];
/// Pairs that must fail discovery, and the candidates tried to find them.
const FAILING: usize = 3;
const FAILING_CANDIDATES: usize = 24;
const QUERIES_PER_PAIR: usize = 6;
const APPLY_NODES: std::ops::RangeInclusive<usize> = 20..=60;
const SEQUENCE_LEN: usize = 8192;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Compile,
    Translate,
    Answer,
    Apply,
    Evict,
}

/// The op mix: the weights of the service's `cold-cache-adversarial`
/// traffic (compile 100, apply 150, invert 100, translate 300, stats 50,
/// evict 300) with Stats dropped, since it does not touch the registry's
/// write side, and Invert folded into Apply, both being one document
/// migration through a resolved pair: compile 100, apply 250,
/// translate 300, evict 300. Half of the sampled translates become
/// Answer ops (see [`ANSWER_SHARE`]).
pub fn mix() -> TrafficMix {
    let w = |op| TrafficMix::cold_cache_adversarial().weight(op);
    TrafficMix::custom(
        "schema-churn",
        [
            w(ServiceOp::Compile),
            w(ServiceOp::Apply) + w(ServiceOp::Invert),
            0,
            w(ServiceOp::Translate),
            0,
            w(ServiceOp::Evict),
        ],
    )
}

/// Share of the mix's translates that are answered: the translated query
/// is then evaluated and mapped back, as Theorem 4.3 puts a translation
/// to use. Translate and Answer get 150 of the 950 weight each.
const ANSWER_SHARE: f64 = 0.5;

struct Entry {
    name: String,
    source_text: String,
    target_text: String,
    embeddable: bool,
    compile: Request,
    evict: Request,
    /// Translate requests and their `(|Tr(Q)|, states)` references.
    translations: Vec<(Request, (u64, u64))>,
    /// A small apply request and its reference output.
    apply: Option<(Request, String)>,
    /// The same document migrated, for answer ops.
    answers: Option<Answers>,
}

/// `σd(T)` and `idM` of one source document `T`, and queries with `Q(T)`
/// by direct evaluation on `T`, sorted.
struct Answers {
    image: XmlTree,
    idmap: IdMap,
    queries: Vec<(String, Vec<NodeId>)>,
}

#[derive(Clone, Copy)]
struct Op {
    entry: u32,
    kind: Kind,
    variant: u32,
}

pub struct SchemaChurn {
    registry: Arc<EmbeddingRegistry>,
    entries: Vec<Entry>,
    sequence: Vec<Op>,
    digest: u64,
    checks: Vec<(String, bool)>,
}

fn entry_from_pair(pair: &Pair, seed: u64) -> Entry {
    let queries = translatable_queries(pair, seed, QUERIES_PER_PAIR);
    let translations = queries
        .iter()
        .map(|(text, q)| {
            let plan = pair
                .engine
                .compile_translation(q)
                .expect("translatable_queries keeps only translatable queries");
            (
                Request::Translate {
                    source_dtd: pair.source_text.clone(),
                    target_dtd: pair.target_text.clone(),
                    query: text.clone(),
                },
                (plan.size() as u64, plan.state_count() as u64),
            )
        })
        .collect();
    let doc = sized_document(pair, seed ^ 0xa5a5, APPLY_NODES, 8);
    let mut e = entry(
        &pair.name,
        &pair.source_text,
        &pair.target_text,
        true,
        translations,
    );
    if let Ok(out) = pair.engine.apply(&doc) {
        e.apply = Some((
            Request::Apply {
                source_dtd: pair.source_text.clone(),
                target_dtd: pair.target_text.clone(),
                xml: doc.to_xml(),
            },
            out.tree.to_xml(),
        ));
        let queries = queries
            .into_iter()
            .map(|(text, q)| {
                let mut expect = eval_at_root(&doc, &q);
                expect.sort_unstable();
                (text, expect)
            })
            .collect::<Vec<_>>();
        if !queries.is_empty() {
            e.answers = Some(Answers {
                image: out.tree,
                idmap: out.idmap,
                queries,
            });
        }
    }
    e
}

fn entry(
    name: &str,
    source_text: &str,
    target_text: &str,
    embeddable: bool,
    translations: Vec<(Request, (u64, u64))>,
) -> Entry {
    Entry {
        name: name.to_string(),
        source_text: source_text.to_string(),
        target_text: target_text.to_string(),
        embeddable,
        compile: Request::Compile {
            source_dtd: source_text.to_string(),
            target_dtd: target_text.to_string(),
        },
        evict: Request::Evict {
            source_dtd: source_text.to_string(),
            target_dtd: target_text.to_string(),
        },
        translations,
        apply: None,
        answers: None,
    }
}

/// Pairs that discovery provably fails on: a synthetic source against a
/// smaller, unrelated synthetic target.
fn failing_entries() -> Vec<Entry> {
    let seed = PAIR_SEED;
    let mut out = Vec::new();
    for c in 0..FAILING_CANDIDATES as u64 {
        if out.len() == FAILING {
            break;
        }
        let n = 12 + 4 * (c as usize % 4);
        let source = random_schema(n, seed ^ (0xfa11 + c)).to_string();
        let target = random_schema(n / 2, seed.rotate_left(17) ^ (0x0bad + c)).to_string();
        if compile_texts(&source, &target).is_none() {
            out.push(entry(
                &format!("failing-{n}"),
                &source,
                &target,
                false,
                Vec::new(),
            ));
        }
    }
    out
}

impl SchemaChurn {
    fn request(&self, op: Op) -> &Request {
        let e = &self.entries[op.entry as usize];
        match op.kind {
            Kind::Compile => &e.compile,
            Kind::Evict => &e.evict,
            Kind::Translate => &e.translations[op.variant as usize].0,
            Kind::Apply => &e.apply.as_ref().expect("apply ops need a document").0,
            Kind::Answer => unreachable!("answer ops are library calls, not requests"),
        }
    }

    /// The answer op: `idM(Tr(Q)(σd(T)))` through the registry's engine,
    /// each call in a span when traced.
    fn answer(
        &self,
        op: Op,
        mut tr: Option<&mut Tracer>,
        scratch: &mut EvalScratch,
        out: &mut Vec<NodeId>,
    ) -> Result<Vec<NodeId>, ServiceError> {
        let e = &self.entries[op.entry as usize];
        let a = e.answers.as_ref().expect("answer ops need a document");
        let query = &a.queries[op.variant as usize].0;
        let (_, engine) = timed(&mut tr, "registry.get_or_compile", || {
            self.registry.get_or_compile(&e.source_text, &e.target_text)
        })?;
        let q = timed(&mut tr, "rxpath.parse_query", || parse_query(query))
            .map_err(|err| ServiceError::BadQuery(err.to_string()))?;
        let plan = timed(&mut tr, "core.translate", || engine.translate(&q))
            .map_err(|err| ServiceError::Engine(err.to_string()))?;
        timed(&mut tr, "anfa.eval", || {
            plan.eval_with(&a.image, scratch, out)
        });
        Ok(timed(&mut tr, "xmltree.map_result", || {
            a.idmap.map_result(out.iter().copied()).collect()
        }))
    }

    /// Whether an answer op returned `Q(T)`.
    fn judge_answer(&self, tally: &mut Tally, op: Op, result: Result<Vec<NodeId>, ServiceError>) {
        let e = &self.entries[op.entry as usize];
        match result {
            Ok(mut mapped) => {
                mapped.sort_unstable();
                let expect = e
                    .answers
                    .as_ref()
                    .map(|a| &a.queries[op.variant as usize].1);
                if expect != Some(&mapped) {
                    tally.wrong += 1;
                }
            }
            Err(err) => tally.error_code(err.code()),
        }
    }

    /// Whether `resp` is the answer the references predict for `op`.
    fn judge(&self, tally: &mut Tally, op: Op, resp: &Response) {
        let e = &self.entries[op.entry as usize];
        let ok = match (op.kind, resp) {
            (Kind::Evict, Response::Evicted { .. }) => true,
            (_, Response::Error { code, .. })
                if e.embeddable || *code != ErrorCode::NoEmbedding =>
            {
                tally.error_code(*code);
                return;
            }
            (_, Response::Error { .. }) => true,
            (Kind::Compile, Response::Compiled { .. }) => e.embeddable,
            (Kind::Translate, Response::Translated { size, states, .. }) => {
                (*size, *states) == e.translations[op.variant as usize].1
            }
            (Kind::Apply, Response::Document { xml }) => {
                e.apply.as_ref().is_some_and(|(_, expect)| expect == xml)
            }
            _ => false,
        };
        if !ok {
            tally.wrong += 1;
        }
    }
}

impl Workload for SchemaChurn {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut d = Digest::default();
        let corpus = corpus_pairs();
        let scale: Vec<Pair> = SCALE_SIZES
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let source = random_schema(n, PAIR_SEED ^ (0x5ca1e + i as u64));
                identity_pair(&format!("scale-{n}"), &source)
            })
            .collect();
        let to_entries = |pairs: &[Pair], d: &mut Digest, salt: u64| -> Vec<Entry> {
            pairs
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    digest_pair(d, p);
                    let s = seed
                        .wrapping_mul(2_654_435_761)
                        .wrapping_add(salt + i as u64);
                    entry_from_pair(p, s)
                })
                .collect()
        };
        let corpus = to_entries(&corpus, &mut d, 0);
        let scale = to_entries(&scale, &mut d, 100);
        let failing = failing_entries();
        let failing_found = failing.len();
        for e in &failing {
            d.str(&e.source_text);
            d.str(&e.target_text);
        }
        // Popularity rank is the position in a fixed interleaving of the
        // three kinds, the same for every seed: the seed changes the
        // queries, documents and op sequence, not which pair is hot.
        let mut entries = Vec::new();
        let mut kinds = [corpus.into_iter(), scale.into_iter(), failing.into_iter()];
        loop {
            let before = entries.len();
            entries.extend(kinds.iter_mut().filter_map(Iterator::next));
            if entries.len() == before {
                break;
            }
        }

        // Op sequence: a harmonic pick over the ranks, then a kind from the
        // mix (pairs without translations or documents, and failing pairs,
        // fall back to compile).
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_7572_6e21);
        let mix = mix();
        let sequence: Vec<Op> = (0..SEQUENCE_LEN)
            .map(|_| {
                let entry = harmonic(entries.len(), &mut rng);
                let e = &entries[entry];
                let kind = match mix.sample(&mut rng) {
                    ServiceOp::Translate if rng.random_bool(ANSWER_SHARE) => Kind::Answer,
                    ServiceOp::Translate => Kind::Translate,
                    ServiceOp::Apply | ServiceOp::Invert => Kind::Apply,
                    ServiceOp::Evict => Kind::Evict,
                    ServiceOp::Compile | ServiceOp::Stats => Kind::Compile,
                };
                let kind = match kind {
                    Kind::Translate if e.translations.is_empty() => Kind::Compile,
                    Kind::Apply if e.apply.is_none() => Kind::Compile,
                    Kind::Answer if e.answers.is_none() => Kind::Compile,
                    k => k,
                };
                let variant = match (kind, &e.answers) {
                    (Kind::Translate, _) => rng.random_range(0..e.translations.len()),
                    (Kind::Answer, Some(a)) => rng.random_range(0..a.queries.len()),
                    _ => 0,
                };
                Op {
                    entry: entry as u32,
                    kind,
                    variant: variant as u32,
                }
            })
            .collect();
        for op in &sequence {
            d.u64(u64::from(op.entry));
            d.u64(op.kind as u64);
            d.u64(u64::from(op.variant));
        }

        let registry = served::registry(CAPACITY, SHARDS);
        let mut churn = SchemaChurn {
            registry,
            entries,
            sequence,
            digest: d.finish(),
            checks: Vec::new(),
        };
        // Prewarm: compile every pair once through the dispatcher; each
        // verdict must match the pair's known embeddability.
        let mut prewarm = Tally::default();
        for i in 0..churn.entries.len() {
            let op = Op {
                entry: i as u32,
                kind: Kind::Compile,
                variant: 0,
            };
            let resp = handle_request(&churn.registry, churn.request(op));
            churn.judge(&mut prewarm, op, &resp);
        }
        churn.checks = vec![
            (
                format!("{failing_found} of {FAILING} pairs known to fail discovery were found"),
                failing_found == FAILING,
            ),
            (
                "prewarm verdicts match each pair's known embeddability".to_string(),
                prewarm.failed() == 0,
            ),
        ];
        Ok(churn)
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn describe(&self) -> String {
        let failing = self.entries.iter().filter(|e| !e.embeddable).count();
        format!(
            "{} pairs ({} embeddable: {}; {failing} failing), registry capacity {CAPACITY} over \
             {SHARDS} shards, op sequence of {} (harmonic pair pick, {} mix), one thread",
            self.entries.len(),
            self.entries.len() - failing,
            self.entries
                .iter()
                .filter(|e| e.embeddable)
                .map(|e| e.name.as_str())
                .collect::<Vec<_>>()
                .join(" "),
            self.sequence.len(),
            mix().name()
        )
    }

    fn checks(&self) -> Vec<(String, bool)> {
        self.checks.clone()
    }

    fn counters(&self) -> RegistryStats {
        self.registry.stats()
    }

    fn final_checks(&self) -> Vec<(String, bool)> {
        let s = self.registry.stats();
        vec![(
            format!(
                "compiles {} == entries {} + evictions {}",
                s.compiles, s.entries, s.evictions
            ),
            s.compiles == s.entries + s.evictions,
        )]
    }

    fn drive(&self, budget: Duration, trace: Option<TraceMode>) -> Phase {
        let start = Instant::now();
        let deadline = start + budget;
        let mut tracer = trace.map(|m| Tracer::new(m.epoch, m.cap));
        let mut phase = Phase::new(start, budget);
        let mut scratch = EvalScratch::new();
        let mut out: Vec<NodeId> = Vec::new();
        let mut cursor = 0usize;
        while Instant::now() < deadline && !tracer.as_ref().is_some_and(Tracer::full) {
            let op = self.sequence[cursor % self.sequence.len()];
            cursor += 1;
            phase.tally.attempted += 1;
            let misses = tracer.as_ref().map(|_| self.registry.stats().misses);
            let t0 = Instant::now();
            if op.kind == Kind::Answer {
                let result = match &mut tracer {
                    None => self.answer(op, None, &mut scratch, &mut out),
                    Some(tr) => {
                        tr.set_request(phase.tally.attempted);
                        tr.enter("request");
                        let r = self.answer(op, Some(&mut *tr), &mut scratch, &mut out);
                        tr.exit();
                        r
                    }
                };
                phase.record(t0, Instant::now());
                if let Ok(mapped) = &result {
                    phase.answers += 1;
                    phase.result_nodes += mapped.len() as u64;
                }
                self.judge_answer(&mut phase.tally, op, result);
            } else {
                let req = self.request(op);
                let resp = match &mut tracer {
                    None => handle_request(&self.registry, req),
                    Some(tr) => {
                        tr.set_request(phase.tally.attempted);
                        tr.enter("request");
                        let resp =
                            execute(tr, &self.registry, req).unwrap_or_else(|e| e.to_response());
                        tr.exit();
                        resp
                    }
                };
                phase.record(t0, Instant::now());
                self.judge(&mut phase.tally, op, &resp);
            }
            if let (Some(tr), Some(before)) = (&mut tracer, misses) {
                if self.registry.stats().misses > before {
                    self.replay_compile(tr, op, &mut phase.discovery, &mut phase.tally);
                }
            }
        }
        phase.finish(tracer)
    }
}

/// Run `f`, inside a span called `name` when traced.
fn timed<R>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

impl SchemaChurn {
    /// Replay the compile a miss just ran, split into its library calls.
    fn replay_compile(
        &self,
        tr: &mut Tracer,
        op: Op,
        disc: &mut DiscoveryTally,
        tally: &mut Tally,
    ) {
        let e = &self.entries[op.entry as usize];
        tr.enter("compile");
        let parsed = tr
            .span("dtd.parse", || Dtd::parse(&e.source_text))
            .ok()
            .zip(tr.span("dtd.parse", || Dtd::parse(&e.target_text)).ok());
        if let Some((source, target)) = parsed {
            tr.span("dtd.content_hash", || source.content_hash());
            tr.span("dtd.content_hash", || target.content_hash());
            let att = tr.span("core.similarity", || default_similarity(&source, &target));
            let (found, stats) = tr.span("discovery.find_embedding", || {
                find_embedding_with_stats(&source, &target, &att, &discovery_config())
            });
            disc.runs += 1;
            disc.attempts += stats.attempts as u64;
            disc.found += u64::from(found.is_some());
            if found.is_some() != e.embeddable {
                tally.wrong += 1;
            }
        } else {
            tally.wrong += 1;
        }
        tr.exit();
    }
}
