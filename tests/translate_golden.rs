//! Golden translations: `Tr(Q)` must stay byte-identical.
//!
//! A translation plan is what a served `Translate` answers with and what
//! every later evaluation runs, so a change to how `Tr` assembles its
//! automaton (where the per-edge chains come from, how a label's finals are
//! found) must not change the automaton it returns. This test pins, for
//! each of the eight corpus schemas against a noised target, the digest of
//! every translated query: the pruned automaton's `Display` followed by its
//! final-state labels in state order, or the error when translation fails.
//!
//! The queries are drawn from the source schema with two generators: the
//! serving-shaped configuration `xse-loadgen` uses (short navigations, few
//! qualifiers) and the default [`QueryConfig`] (deeper paths with more
//! qualifiers, unions and stars), so both the label, concatenation and
//! star cases and the `position()` cases are covered.

use xse::prelude::*;
use xse::workloads::corpus::corpus;
use xse::workloads::noise::{noised_copy, NoiseConfig};
use xse::workloads::querygen::{random_queries, QueryConfig};

/// FNV-1a, 64-bit: a fixed, documented hash, unlike `DefaultHasher`, whose
/// output may change between Rust releases.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Seed of the noised targets and of the generated queries.
const SEED: u64 = 1;

/// The serving-shaped query configuration of `xse-loadgen`.
const SERVING: QueryConfig = QueryConfig {
    max_depth: 3,
    qualifier_p: 0.15,
    union_p: 0.1,
    star_p: 0.1,
};

/// Queries drawn per schema and configuration.
const QUERIES: usize = 8;

/// Each corpus schema against the first noised copy (lowering the noise
/// level as `xse-loadgen` does) that discovery embeds it into, or against
/// itself when none does.
fn engines() -> Vec<(&'static str, CompiledEmbedding)> {
    let cfg = DiscoveryConfig::default();
    corpus()
        .into_iter()
        .enumerate()
        .map(|(i, (name, source))| {
            let seed = SEED.wrapping_add(i as u64);
            let noised = [0.3, 0.3, 0.3, 0.2, 0.2, 0.1, 0.1, 0.05]
                .into_iter()
                .enumerate()
                .find_map(|(attempt, level)| {
                    let copy = noised_copy(
                        &source,
                        NoiseConfig::level(level),
                        seed.wrapping_mul(31) + attempt as u64,
                    );
                    let att = SimilarityMatrix::by_name(&source, &copy.target, 0.25);
                    find_embedding(&source, &copy.target, &att, &cfg)
                });
            let engine = noised.unwrap_or_else(|| {
                let att = SimilarityMatrix::by_name(&source, &source, 0.25);
                find_embedding(&source, &source, &att, &cfg).expect("identity embeds")
            });
            (name, engine)
        })
        .collect()
}

/// The digest of a plan: its automaton and its labels in state order.
fn plan_digest(plan: &TranslatePlan) -> u64 {
    let mut labels: Vec<_> = plan.labels.iter().collect();
    labels.sort_by_key(|(state, _)| **state);
    fnv(format!("{}{:?}", plan.anfa, labels).as_bytes())
}

/// The digest of one uncached translation, or of its error.
fn digest(engine: &CompiledEmbedding, q: &XrQuery) -> u64 {
    match engine.compile_translation(q) {
        Ok(plan) => plan_digest(&plan),
        Err(e) => fnv(format!("error: {e}").as_bytes()),
    }
}

/// Digests recorded before the per-edge chain table was removed; one per
/// `(schema, configuration)`, each folding that configuration's queries in
/// order.
const GOLDEN: &[(&str, u64)] = &[
    ("fig1-class/serving", 0x472d02bab5aa591a),
    ("fig1-class/default", 0x8d8cc64c9ebb2620),
    ("fig1-student/serving", 0x78c019f42750e0b4),
    ("fig1-student/default", 0x51397ce2eff4fee1),
    ("dblp/serving", 0xc5dec56d53fca5b2),
    ("dblp/default", 0xbba04afe5816094d),
    ("auction/serving", 0xe7c8fc6cbfbfa6c0),
    ("auction/default", 0x977ef536b5862f66),
    ("mondial/serving", 0xa23fca95a6ce76df),
    ("mondial/default", 0x0dcae632d9acbbb9),
    ("orders/serving", 0x04f12ee03e739669),
    ("orders/default", 0x4a92523615a03a2c),
    ("genealogy/serving", 0xd195980ad7effee4),
    ("genealogy/default", 0xdd59327073703a4f),
    ("news/serving", 0x0d4f041eb0407b19),
    ("news/default", 0x2198b224cfc272c2),
];

#[test]
fn translations_match_the_recorded_digests() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for (name, engine) in engines() {
        for (cname, qcfg) in [("serving", SERVING), ("default", QueryConfig::default())] {
            let queries = random_queries(engine.source(), qcfg, SEED, QUERIES);
            let per_query: Vec<u64> = queries.iter().map(|q| digest(&engine, q)).collect();
            // A cached plan is the same automaton as a fresh compile.
            for (q, &d) in queries.iter().zip(&per_query) {
                if let Ok(plan) = engine.translate(q) {
                    assert_eq!(plan_digest(&plan), d, "{name}: {q}");
                }
            }
            let folded: Vec<u8> = per_query.iter().flat_map(|d| d.to_le_bytes()).collect();
            actual.push((format!("{name}/{cname}"), fnv(&folded)));
        }
    }
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
            .collect();
        let diverged: Vec<&str> = actual
            .iter()
            .filter(|a| !expected.contains(a))
            .map(|(l, _)| l.as_str())
            .collect();
        panic!(
            "translation diverged from the recorded results on {} of {} sets: {diverged:?}\n\
             actual digests:\n{table}",
            diverged.len(),
            actual.len()
        );
    }
}
