//! Input generation from the seed: schema pairs, documents and queries,
//! plus the references every correctness check compares against.
//!
//! References come from the library alone (DTD parser, `find_embedding`,
//! the engine's uncached `compile_translation`, direct `rxpath`
//! evaluation), never from the registry or the server, so a served answer
//! is checked against an independent path. Every schema is rendered to
//! text and parsed back first, exactly as the server sees it, so the
//! reference engine is the one the server's registry will compile.

use xse_core::CompiledEmbedding;
use xse_discovery::{find_embedding, DiscoveryConfig};
use xse_dtd::{Dtd, GenConfig, InstanceGenerator};
use xse_rxpath::{parse_query, XrQuery};
use xse_service::registry::default_similarity;
use xse_workloads::corpus::corpus;
use xse_workloads::noise::{noised_copy, NoiseConfig};
use xse_workloads::querygen::{random_queries, QueryConfig};
use xse_xmltree::XmlTree;

use crate::stats::Digest;

/// The discovery configuration of every compile, in the references and in
/// the registries under test: single-threaded, so a compile costs the same
/// whatever else runs, and the verdict is the same for every thread count.
pub fn discovery_config() -> DiscoveryConfig {
    DiscoveryConfig {
        threads: 1,
        ..DiscoveryConfig::default()
    }
}

/// A source/target schema pair as a client holds it (two DTD texts) and
/// as the reference path compiled it.
pub struct Pair {
    pub name: String,
    pub source_text: String,
    pub target_text: String,
    /// The source schema parsed back from `source_text`.
    pub source: Dtd,
    /// The reference engine, compiled by the library from the two texts.
    pub engine: CompiledEmbedding,
}

/// Parse both texts and run discovery with the registry's similarity
/// heuristic: the verdict the registry will reach for the same texts.
pub fn compile_texts(source_text: &str, target_text: &str) -> Option<(Dtd, CompiledEmbedding)> {
    let source = Dtd::parse(source_text).ok()?;
    let target = Dtd::parse(target_text).ok()?;
    let att = default_similarity(&source, &target);
    let engine = find_embedding(&source, &target, &att, &discovery_config())?;
    Some((source, engine))
}

/// An embeddable pair for `source`: its target is a noised copy, with the
/// noise seed retried and the noise level lowered until discovery
/// succeeds; the last resort is the identity pair.
pub fn embeddable_pair(name: &str, source: &Dtd, seed: u64) -> Pair {
    let source_text = source.to_string();
    let levels = [0.3, 0.3, 0.3, 0.2, 0.2, 0.1, 0.1, 0.05];
    let candidates = levels.iter().enumerate().map(|(attempt, &level)| {
        noised_copy(
            source,
            NoiseConfig::level(level),
            seed.wrapping_mul(31).wrapping_add(attempt as u64),
        )
        .target
        .to_string()
    });
    for target_text in candidates.chain(std::iter::once(source_text.clone())) {
        if let Some((parsed, engine)) = compile_texts(&source_text, &target_text) {
            return Pair {
                name: name.to_string(),
                source_text,
                target_text,
                source: parsed,
                engine,
            };
        }
    }
    panic!("{name}: a schema always embeds into itself");
}

/// The identity pair of `source` (target = source): always embeddable,
/// and its discovery cost depends on the schema's size, not on noise.
pub fn identity_pair(name: &str, source: &Dtd) -> Pair {
    let text = source.to_string();
    let (parsed, engine) = compile_texts(&text, &text)
        .unwrap_or_else(|| panic!("{name}: a schema embeds into itself"));
    Pair {
        name: name.to_string(),
        source_text: text.clone(),
        target_text: text,
        source: parsed,
        engine,
    }
}

/// Seed of the schema pairs every workload serves. Discovery cost on a
/// noised pair varies up to twentyfold with the noise drawn, and set-up
/// runs discovery for every pair, so the pairs are the same for every run
/// seed: a fixed schema evolution, over which the run seed draws the
/// traffic (queries, documents, op sequences).
pub const PAIR_SEED: u64 = 0x5eed;

/// One embeddable pair per corpus schema (eight), noised by [`PAIR_SEED`].
pub fn corpus_pairs() -> Vec<Pair> {
    corpus()
        .into_iter()
        .enumerate()
        .map(|(i, (name, dtd))| embeddable_pair(name, &dtd, PAIR_SEED.wrapping_add(i as u64)))
        .collect()
}

/// Up to `want` short serving-shaped queries over the pair's source schema
/// that the reference engine translates, as text and parsed back.
pub fn translatable_queries(pair: &Pair, seed: u64, want: usize) -> Vec<(String, XrQuery)> {
    let cfg = QueryConfig {
        max_depth: 3,
        qualifier_p: 0.15,
        union_p: 0.1,
        star_p: 0.1,
    };
    let mut out: Vec<(String, XrQuery)> = Vec::new();
    for q in random_queries(&pair.source, cfg, seed, want * 3) {
        let text = q.to_string();
        let Ok(parsed) = parse_query(&text) else {
            continue;
        };
        if out.iter().any(|(t, _)| *t == text) || pair.engine.compile_translation(&parsed).is_err()
        {
            continue;
        }
        out.push((text, parsed));
        if out.len() == want {
            break;
        }
    }
    out
}

/// A source document whose node count lies in `nodes`, generated with
/// wide stars so that shallow schemas reach it too. The generator's node
/// budget is only a soft limit (recursive schemas overshoot it several
/// times), so the `tries` candidates cycle the budget through the range's
/// upper end and its half, quarter and eighth, each with its own seed.
/// When no candidate lands in the range (some schemas only have small
/// instances), the one closest to it is returned.
pub fn sized_document(
    pair: &Pair,
    seed: u64,
    nodes: std::ops::RangeInclusive<usize>,
    tries: u64,
) -> XmlTree {
    let distance = |n: usize| {
        if n < *nodes.start() {
            nodes.start() - n
        } else {
            n.saturating_sub(*nodes.end())
        }
    };
    let mut best: Option<XmlTree> = None;
    for k in 0..tries.max(1) {
        let cfg = GenConfig {
            star_mean: 6.0,
            star_max: 64,
            max_nodes: (*nodes.end() >> (k % 4)).max(1),
            ..GenConfig::default()
        };
        let doc = InstanceGenerator::new(&pair.source, cfg).generate(seed.wrapping_add(k));
        if distance(doc.len()) == 0 {
            return doc;
        }
        if best
            .as_ref()
            .is_none_or(|b| distance(doc.len()) < distance(b.len()))
        {
            best = Some(doc);
        }
    }
    best.expect("at least one candidate")
}

/// Feed a pair's texts into the input digest.
pub fn digest_pair(d: &mut Digest, pair: &Pair) {
    d.str(&pair.name);
    d.str(&pair.source_text);
    d.str(&pair.target_text);
}
