//! Golden discovery results: the search must stay byte-identical.
//!
//! Discovery is a randomized heuristic, and callers depend on *which*
//! embedding it returns, not only on whether it finds one — the benchmark
//! even picks its schema pairs by whether discovery succeeds. Every
//! optimization of the search must therefore return the same winning
//! attempt, the same `(λ, path)` and the same counters. This test pins all
//! three: for a fixed set of pairs, each run under the three strategies
//! with `threads: 1`, it hashes `describe()` together with every
//! `DiscoveryStats` field and compares against digests recorded before the
//! search was optimized.
//!
//! The pairs: the eight corpus schemas against noised targets at four noise
//! levels, identity pairs of large random schemas, and random schemas
//! against unrelated half-size targets, which discovery fails on (so every
//! restart runs to exhaustion). The similarity matrix is the registry's
//! default (1 for equal names, 0.25 everywhere else), plus one noisy
//! matcher's matrix per corpus schema, whose weights are rarely tied.

use xse::prelude::*;
use xse::workloads::corpus::corpus;
use xse::workloads::noise::{noised_copy, NoiseConfig};
use xse::workloads::scale::random_schema;
use xse::workloads::simgen::{ambiguous, SimConfig};

/// FNV-1a, 64-bit: a fixed, documented hash, unlike `DefaultHasher`, whose
/// output may change between Rust releases.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn count(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }
}

/// The digest of one discovery: the embedding (or its absence) and every
/// counter.
fn digest(found: Option<&CompiledEmbedding>, stats: &DiscoveryStats) -> u64 {
    let mut h = Fnv::new();
    match found {
        Some(e) => {
            h.bytes(b"found\n");
            h.bytes(e.describe().as_bytes());
        }
        None => h.bytes(b"none\n"),
    }
    let DiscoveryStats {
        attempts,
        local_solves,
        wis_seeds,
        validation_rejects,
        rejects_prefix,
        rejects_similarity,
        rejects_other,
    } = *stats;
    for n in [
        attempts,
        local_solves,
        wis_seeds,
        validation_rejects,
        rejects_prefix,
        rejects_similarity,
        rejects_other,
    ] {
        h.count(n);
    }
    h.0
}

/// Seed of the benchmark's schema pairs; the pairs below reuse its
/// derivations so the golden set covers the schemas the benchmark serves.
const PAIR_SEED: u64 = 0x5eed;

/// One golden pair: a label, the two schemas and the similarity matrix, and
/// whether discovery must fail on it.
struct Golden {
    label: String,
    source: Dtd,
    target: Dtd,
    att: SimilarityMatrix,
    must_fail: bool,
}

fn golden(label: String, source: Dtd, target: Dtd, must_fail: bool) -> Golden {
    // The registry's default similarity heuristic.
    let att = SimilarityMatrix::by_name(&source, &target, 0.25);
    Golden {
        label,
        source,
        target,
        att,
        must_fail,
    }
}

fn pairs() -> Vec<Golden> {
    let mut out = Vec::new();
    for (i, (name, source)) in corpus().into_iter().enumerate() {
        // The benchmark's first noise draw at each level (its retry index).
        for (level, retry) in [(0.3, 0), (0.2, 3), (0.1, 5), (0.05, 7)] {
            let seed = (PAIR_SEED + i as u64).wrapping_mul(31) + retry;
            let copy = noised_copy(&source, NoiseConfig::level(level), seed);
            if level == 0.2 {
                // Distinct, untied weights: a noisy matcher's matrix.
                let att = ambiguous(
                    &source,
                    &copy,
                    SimConfig {
                        accuracy: 0.8,
                        ambiguity: 2.0,
                    },
                    seed,
                );
                out.push(Golden {
                    label: format!("{name}@{level}/ambiguous"),
                    source: source.clone(),
                    target: copy.target.clone(),
                    att,
                    must_fail: false,
                });
            }
            out.push(golden(
                format!("{name}@{level}"),
                source.clone(),
                copy.target,
                false,
            ));
        }
    }
    for (i, n) in [(3u64, 128), (5, 256)] {
        let source = random_schema(n, PAIR_SEED ^ (0x5ca1e + i));
        out.push(golden(
            format!("identity-{n}"),
            source.clone(),
            source,
            false,
        ));
    }
    for c in 0..4u64 {
        let n = 12 + 4 * c as usize;
        let source = random_schema(n, PAIR_SEED ^ (0xfa11 + c));
        let target = random_schema(n / 2, PAIR_SEED.rotate_left(17) ^ (0x0bad + c));
        out.push(golden(format!("failing-{n}"), source, target, true));
    }
    out
}

const STRATEGIES: [(&str, Strategy); 3] = [
    ("random", Strategy::Random),
    ("quality", Strategy::QualityOrdered),
    ("wis", Strategy::IndependentSet),
];

/// Digests recorded before the search was optimized; one per
/// `(pair, strategy)`, in [`pairs`] × [`STRATEGIES`] order.
const GOLDEN: &[(&str, u64)] = &[
    ("fig1-class@0.3/random", 0xdb7f5918103a4f20),
    ("fig1-class@0.3/quality", 0xe0adfafb99ef1873),
    ("fig1-class@0.3/wis", 0xa8982c47de0f0a16),
    ("fig1-class@0.2/ambiguous/random", 0x964cbc8dc7788e79),
    ("fig1-class@0.2/ambiguous/quality", 0x0b3b18a19c54360b),
    ("fig1-class@0.2/ambiguous/wis", 0x5647e29edcdf1c3d),
    ("fig1-class@0.2/random", 0x8774d1878f80ed32),
    ("fig1-class@0.2/quality", 0x8774d1878f80ed32),
    ("fig1-class@0.2/wis", 0x2610da52025387d3),
    ("fig1-class@0.1/random", 0x4ecef43fddab7cfb),
    ("fig1-class@0.1/quality", 0x4ecef43fddab7cfb),
    ("fig1-class@0.1/wis", 0xb032eb756ad8e25a),
    ("fig1-class@0.05/random", 0xd35c7a0a7f4503ec),
    ("fig1-class@0.05/quality", 0xd35c7a0a7f4503ec),
    ("fig1-class@0.05/wis", 0x71f882d4f2179e8d),
    ("fig1-student@0.3/random", 0xf18f7d23a0866a88),
    ("fig1-student@0.3/quality", 0xf18f7d23a0866a88),
    ("fig1-student@0.3/wis", 0x902b85ee13590529),
    ("fig1-student@0.2/ambiguous/random", 0xf18f7d23a0866a88),
    ("fig1-student@0.2/ambiguous/quality", 0xf18f7d23a0866a88),
    ("fig1-student@0.2/ambiguous/wis", 0x902b85ee13590529),
    ("fig1-student@0.2/random", 0xf18f7d23a0866a88),
    ("fig1-student@0.2/quality", 0xf18f7d23a0866a88),
    ("fig1-student@0.2/wis", 0x902b85ee13590529),
    ("fig1-student@0.1/random", 0x1a01ed4f9070e2f0),
    ("fig1-student@0.1/quality", 0x1a01ed4f9070e2f0),
    ("fig1-student@0.1/wis", 0xc45f8f2071c5c110),
    ("fig1-student@0.05/random", 0xc1301b91b8882c0e),
    ("fig1-student@0.05/quality", 0xc1301b91b8882c0e),
    ("fig1-student@0.05/wis", 0x5fcc245c2b5ac6af),
    ("dblp@0.3/random", 0x5a631273d7cd5aed),
    ("dblp@0.3/quality", 0x055d6bde1db9b86e),
    ("dblp@0.3/wis", 0x4f4358c76e622ff5),
    ("dblp@0.2/ambiguous/random", 0x5a631273d7cd5aed),
    ("dblp@0.2/ambiguous/quality", 0x37a8bdc73a1b2aa2),
    ("dblp@0.2/ambiguous/wis", 0x4f4358c76e622ff5),
    ("dblp@0.2/random", 0x5a631273d7cd5aed),
    ("dblp@0.2/quality", 0xf413cc42477b69b8),
    ("dblp@0.2/wis", 0x4f4358c76e622ff5),
    ("dblp@0.1/random", 0xb92e26af566051a3),
    ("dblp@0.1/quality", 0xb3296476e6904127),
    ("dblp@0.1/wis", 0x39c33842644245b9),
    ("dblp@0.05/random", 0xabb5823b5c148c9c),
    ("dblp@0.05/quality", 0xabb5823b5c148c9c),
    ("dblp@0.05/wis", 0x4a518b05cee7273d),
    ("auction@0.3/random", 0x9eab660c604608ca),
    ("auction@0.3/quality", 0xe04a6bb01a3022b1),
    ("auction@0.3/wis", 0x9814b2290e2e1174),
    ("auction@0.2/ambiguous/random", 0x33fb6b4b6cfc7b35),
    ("auction@0.2/ambiguous/quality", 0x6a61818152484347),
    ("auction@0.2/ambiguous/wis", 0xad3a84d59f227620),
    ("auction@0.2/random", 0xfc5e4d24061b1868),
    ("auction@0.2/quality", 0x8715d830bd045eb3),
    ("auction@0.2/wis", 0xeaf418c038d09c3b),
    ("auction@0.1/random", 0xe3f1b25911daddfc),
    ("auction@0.1/quality", 0xc2191ccc93d12608),
    ("auction@0.1/wis", 0xfb0dd7ad73545107),
    ("auction@0.05/random", 0x90a3ce37c4e186ff),
    ("auction@0.05/quality", 0x90a3ce37c4e186ff),
    ("auction@0.05/wis", 0x6856f2c73af5d37e),
    ("mondial@0.3/random", 0x271d326fc85fb0e1),
    ("mondial@0.3/quality", 0x1b9e52bf59b4188a),
    ("mondial@0.3/wis", 0x106be3fe7f3f2c1d),
    ("mondial@0.2/ambiguous/random", 0x5ec9be2780db1cac),
    ("mondial@0.2/ambiguous/quality", 0x5ec9be2780db1cac),
    ("mondial@0.2/ambiguous/wis", 0xfd65c6f1f3adb74d),
    ("mondial@0.2/random", 0xaf518757d01bb4d0),
    ("mondial@0.2/quality", 0xf4da594de5ade107),
    ("mondial@0.2/wis", 0x339e92be4d1f2315),
    ("mondial@0.1/random", 0x463e5d3d7320fd60),
    ("mondial@0.1/quality", 0xebfc4ecb0be13a4c),
    ("mondial@0.1/wis", 0x106be3fe7f3f2c1d),
    ("mondial@0.05/random", 0xb072a3f15fcd2024),
    ("mondial@0.05/quality", 0xb072a3f15fcd2024),
    ("mondial@0.05/wis", 0x4f0eacbbd29fbac5),
    ("orders@0.3/random", 0xefa8658215d9e556),
    ("orders@0.3/quality", 0xc2c3d81f70c366af),
    ("orders@0.3/wis", 0xb1f55244765524a3),
    ("orders@0.2/ambiguous/random", 0xfd10187388407a77),
    ("orders@0.2/ambiguous/quality", 0xb4166dd8341901b6),
    ("orders@0.2/ambiguous/wis", 0xc0bf216bfe9caad5),
    ("orders@0.2/random", 0xfc81ff8a845a5f33),
    ("orders@0.2/quality", 0x289f023cb96a2546),
    ("orders@0.2/wis", 0xc73b0b072c3cbfe7),
    ("orders@0.1/random", 0x0dc58bc8c20b165e),
    ("orders@0.1/quality", 0x2ae823f47b300f8e),
    ("orders@0.1/wis", 0xb81a2b0f5222ed25),
    ("orders@0.05/random", 0x7035b7d8c55edd45),
    ("orders@0.05/quality", 0x33cc7e4bbaa4eb42),
    ("orders@0.05/wis", 0xeb4df9dc070da895),
    ("genealogy@0.3/random", 0x1282e1c059515054),
    ("genealogy@0.3/quality", 0xc9e8d310c0ba555a),
    ("genealogy@0.3/wis", 0xbd72bde5770b2df4),
    ("genealogy@0.2/ambiguous/random", 0xcdeecac1f35a2e4a),
    ("genealogy@0.2/ambiguous/quality", 0x446558ab3605946f),
    ("genealogy@0.2/ambiguous/wis", 0xa728bb0d79d81da8),
    ("genealogy@0.2/random", 0xce551a17a53c3715),
    ("genealogy@0.2/quality", 0x7853a97937077fec),
    ("genealogy@0.2/wis", 0x787a020c23a510e1),
    ("genealogy@0.1/random", 0xaab6664156153de1),
    ("genealogy@0.1/quality", 0x960a3e5738ba18d7),
    ("genealogy@0.1/wis", 0xdf7fbbd743d018ab),
    ("genealogy@0.05/random", 0x23a1d63e3700c6ed),
    ("genealogy@0.05/quality", 0x407b6e3637f3ea69),
    ("genealogy@0.05/wis", 0x8505cd73c42e2c4c),
    ("news@0.3/random", 0x6709fc5353f06917),
    ("news@0.3/quality", 0x43ccb16fce414b04),
    ("news@0.3/wis", 0x6196b365baa7ab97),
    ("news@0.2/ambiguous/random", 0x966a5b96ad2a3db9),
    ("news@0.2/ambiguous/quality", 0xdcd9a6529337d3a2),
    ("news@0.2/ambiguous/wis", 0xb2cbe9bef071e3bd),
    ("news@0.2/random", 0x306bb7d8858f7b08),
    ("news@0.2/quality", 0xf52282fa14b56d31),
    ("news@0.2/wis", 0xb2cbe9bef071e3bd),
    ("news@0.1/random", 0xe1f59d1850e6409b),
    ("news@0.1/quality", 0xe1f59d1850e6409b),
    ("news@0.1/wis", 0x4359944dde13a5fa),
    ("news@0.05/random", 0xd3cd88008641507c),
    ("news@0.05/quality", 0xe57919a24b27fbde),
    ("news@0.05/wis", 0xd547ab8c2df16b98),
    ("identity-128/random", 0x5263f1860954d185),
    ("identity-128/quality", 0x5263f1860954d185),
    ("identity-128/wis", 0xb3c7e8bb968236e4),
    ("identity-256/random", 0x01e68310d953798a),
    ("identity-256/quality", 0xbbb5d95a366128c5),
    ("identity-256/wis", 0x027aca4c7505c33d),
    ("failing-12/random", 0x4e7f67b3263cc871),
    ("failing-12/quality", 0x4c6cac745a72a981),
    ("failing-12/wis", 0x10c315cd213229e8),
    ("failing-16/random", 0x09330f939f33ff1d),
    ("failing-16/quality", 0x09330f939f33ff1d),
    ("failing-16/wis", 0x2a923c98db758005),
    ("failing-20/random", 0x09330f939f33ff1d),
    ("failing-20/quality", 0x09330f939f33ff1d),
    ("failing-20/wis", 0x2a923c98db758005),
    ("failing-24/random", 0x09330f939f33ff1d),
    ("failing-24/quality", 0x09330f939f33ff1d),
    ("failing-24/wis", 0x2a923c98db758005),
];

#[test]
fn discovery_results_match_the_recorded_digests() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for Golden {
        label,
        source,
        target,
        att,
        must_fail,
    } in pairs()
    {
        for (sname, strategy) in STRATEGIES {
            let cfg = DiscoveryConfig {
                strategy,
                threads: 1,
                ..DiscoveryConfig::default()
            };
            let (found, stats) = find_embedding_with_stats(&source, &target, &att, &cfg);
            if must_fail {
                assert!(found.is_none(), "{label}/{sname}: expected no embedding");
                assert_eq!(stats.attempts, cfg.restarts, "{label}/{sname}");
            }
            actual.push((format!("{label}/{sname}"), digest(found.as_ref(), &stats)));
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
            "discovery diverged from the recorded results on {} of {} runs: {diverged:?}\n\
             actual digests:\n{table}",
            diverged.len(),
            actual.len()
        );
    }
}
