//! The experiment suite (see DESIGN.md §5 and EXPERIMENTS.md).
//!
//! Every function returns printable rows so the `report` binary and the
//! Criterion benches share one implementation.

use std::time::Instant;

use xse_core::{preserve, SimilarityMatrix};
use xse_discovery::{find_embedding, find_embedding_with_stats, DiscoveryConfig, Strategy};
use xse_dtd::{Dtd, GenConfig, InstanceGenerator, SchemaGraph};
use xse_workloads::noise::{lambda_matches_truth, noised_copy, NoiseConfig};
use xse_workloads::querygen::{random_queries, QueryConfig};
use xse_workloads::simgen::{ambiguous, exact, SimConfig};
use xse_workloads::{corpus, scale};
use xse_xslt::{apply_stylesheet, generate_forward, generate_inverse};

/// One row of EXP-A / EXP-B: a success-rate measurement.
pub struct RateRow {
    /// The sweep coordinate (ambiguity or noise level).
    pub x: f64,
    /// Per strategy: (embedding found, λ equals ground truth), in
    /// `[Random, QualityOrdered, IndependentSet]` order, as percentages.
    pub found: [f64; 3],
    /// λ-accuracy percentage per strategy.
    pub correct: [f64; 3],
}

/// The strategies in report order.
pub const STRATEGIES: [Strategy; 3] = [
    Strategy::Random,
    Strategy::QualityOrdered,
    Strategy::IndependentSet,
];

/// Thread counts for the parallel-engine sweeps (EXP-P and the
/// `discovery_scale` bench): always 1 (sequential path) and 2 (parallel
/// path, even on a single-core box), then 4 and the machine's available
/// parallelism, deduplicated.
pub fn thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut t = vec![1, 2, 4, max];
    t.sort_unstable();
    t.dedup();
    t
}

/// EXP-A: success vs. similarity-matrix ambiguity (spurious candidates per
/// source type), at fixed structural noise.
pub fn exp_a(trials: usize) -> Vec<RateRow> {
    let sweep = [0.0, 1.0, 2.0, 4.0, 6.0, 8.0];
    let schemas = [
        corpus::fig1_class(),
        corpus::news_like(),
        corpus::orders_like(),
    ];
    sweep
        .iter()
        .map(|&ambiguity| {
            let mut found = [0usize; 3];
            let mut correct = [0usize; 3];
            let mut total = 0usize;
            for (si, src) in schemas.iter().enumerate() {
                for trial in 0..trials {
                    let seed = (si * 1000 + trial) as u64;
                    let copy = noised_copy(src, NoiseConfig::level(0.3), seed);
                    let att = ambiguous(
                        src,
                        &copy,
                        SimConfig {
                            accuracy: 0.9,
                            ambiguity,
                        },
                        seed ^ 0xABCD,
                    );
                    total += 1;
                    for (k, strategy) in STRATEGIES.into_iter().enumerate() {
                        let cfg = DiscoveryConfig {
                            strategy,
                            seed,
                            ..DiscoveryConfig::default()
                        };
                        if let Some(e) = find_embedding(src, &copy.target, &att, &cfg) {
                            found[k] += 1;
                            if lambda_matches_truth(src, &e, &copy) {
                                correct[k] += 1;
                            }
                        }
                    }
                }
            }
            RateRow {
                x: ambiguity,
                found: found.map(|f| 100.0 * f as f64 / total as f64),
                correct: correct.map(|c| 100.0 * c as f64 / total as f64),
            }
        })
        .collect()
}

/// EXP-B: success vs. structural noise level, at mild `att` ambiguity.
pub fn exp_b(trials: usize) -> Vec<RateRow> {
    let sweep = [0.0, 0.2, 0.4, 0.6, 0.8];
    let schemas = [
        corpus::dblp_like(),
        corpus::mondial_like(),
        corpus::genealogy_like(),
    ];
    sweep
        .iter()
        .map(|&level| {
            let mut found = [0usize; 3];
            let mut correct = [0usize; 3];
            let mut total = 0usize;
            for (si, src) in schemas.iter().enumerate() {
                for trial in 0..trials {
                    let seed = (si * 1000 + trial) as u64;
                    let copy = noised_copy(src, NoiseConfig::level(level), seed);
                    let att = ambiguous(
                        src,
                        &copy,
                        SimConfig {
                            accuracy: 1.0,
                            ambiguity: 2.0,
                        },
                        seed ^ 0xBEEF,
                    );
                    total += 1;
                    for (k, strategy) in STRATEGIES.into_iter().enumerate() {
                        let cfg = DiscoveryConfig {
                            strategy,
                            seed,
                            ..DiscoveryConfig::default()
                        };
                        if let Some(e) = find_embedding(src, &copy.target, &att, &cfg) {
                            found[k] += 1;
                            if lambda_matches_truth(src, &e, &copy) {
                                correct[k] += 1;
                            }
                        }
                    }
                }
            }
            RateRow {
                x: level,
                found: found.map(|f| 100.0 * f as f64 / total as f64),
                correct: correct.map(|c| 100.0 * c as f64 / total as f64),
            }
        })
        .collect()
}

/// One row of EXP-C: runtime vs. schema size.
pub struct ScaleRow {
    /// Source schema size (element types).
    pub size: usize,
    /// Discovery wall time (ms) per strategy.
    pub millis: [f64; 3],
    /// Whether each strategy found an embedding.
    pub found: [bool; 3],
}

/// EXP-C: discovery runtime vs. schema size on noised self-copies with
/// exact ground-truth `att` (the paper's "seconds or minutes" regime).
pub fn exp_c(sizes: &[usize]) -> Vec<ScaleRow> {
    sizes
        .iter()
        .map(|&n| {
            let src = scale::random_schema(n, n as u64);
            let copy = noised_copy(&src, NoiseConfig::level(0.25), 17);
            let att = exact(&src, &copy);
            let mut millis = [0.0; 3];
            let mut found = [false; 3];
            for (k, strategy) in STRATEGIES.into_iter().enumerate() {
                let cfg = DiscoveryConfig {
                    strategy,
                    restarts: 8,
                    ..DiscoveryConfig::default()
                };
                let t0 = Instant::now();
                let e = find_embedding(&src, &copy.target, &att, &cfg);
                millis[k] = t0.elapsed().as_secs_f64() * 1000.0;
                found[k] = e.is_some();
            }
            ScaleRow {
                size: n,
                millis,
                found,
            }
        })
        .collect()
}

/// One row of EXP-P: the parallel restart engine at one `(size, threads)`
/// coordinate.
pub struct ParallelRow {
    /// Source schema size (element types).
    pub size: usize,
    /// Worker threads (`DiscoveryConfig::threads`).
    pub threads: usize,
    /// Discovery wall time (ms).
    pub millis: f64,
    /// Whether an embedding was found.
    pub found: bool,
    /// Restart attempts started across all workers.
    pub attempts: usize,
    /// `threads = 1` wall time at the same size divided by this row's.
    pub speedup: f64,
}

/// EXP-P: discovery wall-clock vs. worker threads on large random schemas
/// with an ambiguous `att`, so several restarts fail before one succeeds —
/// the regime the parallel restart engine targets. The returned embedding
/// is asserted byte-identical across every thread count (the engine's
/// deterministic winner-selection rule).
pub fn exp_p(sizes: &[usize], thread_counts: &[usize]) -> Vec<ParallelRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let src = scale::random_schema(n, n as u64);
        let copy = noised_copy(&src, NoiseConfig::level(0.3), 17);
        // Accurate but ambiguous att: four spurious mid-score candidates
        // per type. The truth stays top-ranked, yet enough early attempts
        // wander off that the winner lands at attempt 2–14 across the
        // sweep — restarts genuinely matter.
        let att = ambiguous(
            &src,
            &copy,
            SimConfig {
                accuracy: 1.0,
                ambiguity: 4.0,
            },
            n as u64 ^ 0x5EED,
        );
        let mut base_ms = 0.0;
        let mut base_describe: Option<Option<String>> = None;
        for &threads in thread_counts {
            let cfg = DiscoveryConfig {
                restarts: 48,
                threads,
                ..DiscoveryConfig::default()
            };
            let t0 = Instant::now();
            let (e, stats) = find_embedding_with_stats(&src, &copy.target, &att, &cfg);
            let millis = t0.elapsed().as_secs_f64() * 1000.0;
            let describe = e.as_ref().map(|e| e.describe());
            match &base_describe {
                None => {
                    base_ms = millis;
                    base_describe = Some(describe.clone());
                }
                Some(b) => assert_eq!(
                    *b, describe,
                    "size {n}: threads={threads} diverged from threads={}",
                    thread_counts[0]
                ),
            }
            rows.push(ParallelRow {
                size: n,
                threads,
                millis,
                found: e.is_some(),
                attempts: stats.attempts,
                speedup: base_ms / millis,
            });
        }
    }
    rows
}

/// One row of EXP-T: sequential vs. two-worker discovery on one pair.
pub struct ThreadRow {
    /// Pair label.
    pub label: String,
    /// Whether an embedding was found.
    pub found: bool,
    /// Restart attempts the sequential engine ran (the winning attempt's
    /// index + 1, or every restart when none won).
    pub attempts: usize,
    /// Best sequential (`threads = 1`) wall time (ms).
    pub t1_millis: f64,
    /// Best two-worker (`threads = 2`) wall time (ms).
    pub t2_millis: f64,
}

/// EXP-T: which pairs the parallel restart engine speeds up. Each pair is
/// discovered with the default config at `threads` 1 and 2, best of
/// `reps` runs each; the embedding is asserted identical. Pairs: the
/// corpus at noise 0.3 under the registry's name similarity (won in the
/// first attempts), random pairs whose target is too small to embed the
/// source (every restart fails), and a 120-type random schema under an
/// ambiguity-6 `att` (several restarts fail before one wins).
pub fn exp_t(reps: usize) -> Vec<ThreadRow> {
    let mut pairs: Vec<(String, Dtd, Dtd, SimilarityMatrix)> = Vec::new();
    for (i, (name, source)) in corpus::corpus().into_iter().enumerate() {
        let copy = noised_copy(&source, NoiseConfig::level(0.3), (0x5eed + i as u64) * 31);
        let att = SimilarityMatrix::by_name(&source, &copy.target, 0.25);
        pairs.push((format!("{name}@0.3"), source, copy.target, att));
    }
    for (c, n) in [16usize, 20, 24, 160].into_iter().enumerate() {
        let source = scale::random_schema(n, 0x5eed ^ (0xfa11 + c as u64));
        let target = scale::random_schema(n / 2, 0x5eed_u64.rotate_left(17) ^ (0x0bad + c as u64));
        let att = SimilarityMatrix::by_name(&source, &target, 0.25);
        pairs.push((format!("failing-{n}"), source, target, att));
    }
    let source = scale::random_schema(120, 120);
    let copy = noised_copy(&source, NoiseConfig::level(0.3), 17);
    let sim = SimConfig {
        accuracy: 1.0,
        ambiguity: 6.0,
    };
    let att = ambiguous(&source, &copy, sim, 120 ^ 0x5EED);
    pairs.push(("ambiguity-6 n120".into(), source, copy.target, att));

    pairs
        .into_iter()
        .map(|(label, source, target, att)| {
            let best = |threads: usize| {
                let cfg = DiscoveryConfig {
                    threads,
                    ..DiscoveryConfig::default()
                };
                let mut best = f64::INFINITY;
                let mut last = None;
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let (e, stats) = find_embedding_with_stats(&source, &target, &att, &cfg);
                    best = best.min(t0.elapsed().as_secs_f64() * 1000.0);
                    last = Some((e.map(|e| e.describe()), stats.attempts));
                }
                (best, last.expect("reps >= 1"))
            };
            let (t1_millis, (describe, attempts)) = best(1);
            let (t2_millis, (describe2, _)) = best(2);
            assert_eq!(describe, describe2, "{label}: threads=2 diverged");
            ThreadRow {
                label,
                found: describe.is_some(),
                attempts,
                t1_millis,
                t2_millis,
            }
        })
        .collect()
}

/// One row of TAB-1: per-schema discovery on a noised copy.
pub struct CorpusRow {
    pub name: &'static str,
    pub types: usize,
    pub edges: usize,
    pub recursive: bool,
    pub found: bool,
    pub lambda_correct: bool,
    pub sigma_size: usize,
    pub millis: f64,
    pub attempts: usize,
}

/// TAB-1: the corpus at structural noise 0.4, exact att.
pub fn tab1() -> Vec<CorpusRow> {
    corpus::corpus()
        .into_iter()
        .map(|(name, src)| {
            let copy = noised_copy(&src, NoiseConfig::level(0.4), 23);
            let att = exact(&src, &copy);
            let cfg = DiscoveryConfig::default();
            let t0 = Instant::now();
            let (e, stats) = find_embedding_with_stats(&src, &copy.target, &att, &cfg);
            let millis = t0.elapsed().as_secs_f64() * 1000.0;
            let graph = SchemaGraph::new(&src);
            CorpusRow {
                name,
                types: src.type_count(),
                edges: graph.edge_count(),
                recursive: src.is_recursive(),
                found: e.is_some(),
                lambda_correct: e
                    .as_ref()
                    .is_some_and(|e| lambda_matches_truth(&src, e, &copy)),
                sigma_size: e.as_ref().map_or(0, |e| e.size()),
                millis,
                attempts: stats.attempts,
            }
        })
        .collect()
}

/// One row of TAB-2: translation size/time vs. query size.
pub struct TranslateRow {
    pub query: String,
    pub q_size: usize,
    pub tr_size: usize,
    pub bound: usize,
    pub micros: f64,
}

/// TAB-2: Theorem 4.3(b) bounds on the Figure 1 embedding with random
/// queries of growing depth.
pub fn tab2(count: usize) -> Vec<TranslateRow> {
    let (s0, s) = crate::fixtures::fig1_pair();
    let e = crate::fixtures::fig1_embedding(&s0, &s);
    let mut rows = Vec::new();
    for depth in [2, 4, 6, 8] {
        let queries = random_queries(
            &s0,
            QueryConfig {
                max_depth: depth,
                ..QueryConfig::default()
            },
            depth as u64,
            count,
        );
        for q in queries {
            let t0 = Instant::now();
            let Ok(tr) = e.translate(&q) else { continue };
            let micros = t0.elapsed().as_secs_f64() * 1e6;
            rows.push(TranslateRow {
                query: q.to_string(),
                q_size: q.size(),
                tr_size: tr.size(),
                bound: q.size() * e.size() * s0.type_count(),
                micros,
            });
        }
    }
    rows
}

/// One row of FIG-T: instance mapping scaling.
pub struct InstanceRow {
    pub src_nodes: usize,
    pub tgt_nodes: usize,
    pub apply_ms: f64,
    pub invert_ms: f64,
    pub xslt_fwd_ms: f64,
}

/// FIG-T: `InstMap` and `σd⁻¹` wall time vs. document size.
pub fn fig_t(sizes: &[usize]) -> Vec<InstanceRow> {
    let (s0, s) = crate::fixtures::fig1_pair();
    let e = crate::fixtures::fig1_embedding(&s0, &s);
    let fwd = generate_forward(&e);
    sizes
        .iter()
        .map(|&n| {
            let gen = InstanceGenerator::new(
                &s0,
                GenConfig {
                    max_nodes: n,
                    star_mean: 4.0,
                    ..GenConfig::default()
                },
            );
            // Geometric star counts occasionally roll tiny documents; take
            // the first seed that fills at least half the budget.
            let t1 = (0..64u64)
                .map(|s| gen.generate(n as u64 + s))
                .find(|t| t.len() >= n / 2)
                .expect("some seed fills the budget");
            let t0 = Instant::now();
            let out = e.apply(&t1).expect("type safe");
            let apply_ms = t0.elapsed().as_secs_f64() * 1000.0;
            let t0 = Instant::now();
            let back = e.invert(&out.tree).expect("invertible");
            let invert_ms = t0.elapsed().as_secs_f64() * 1000.0;
            assert!(back.equals(&t1), "roundtrip failed at size {n}");
            let t0 = Instant::now();
            let via = apply_stylesheet(&fwd, &t1, None).expect("stylesheet");
            let xslt_fwd_ms = t0.elapsed().as_secs_f64() * 1000.0;
            assert!(via.equals(&out.tree));
            InstanceRow {
                src_nodes: t1.len(),
                tgt_nodes: out.tree.len(),
                apply_ms,
                invert_ms,
                xslt_fwd_ms,
            }
        })
        .collect()
}

/// TAB-3: preservation guarantees over randomized instances and queries.
pub struct PreserveRow {
    pub name: &'static str,
    pub instances: usize,
    pub queries: usize,
    pub type_safe: usize,
    pub injective: usize,
    pub roundtrip: usize,
    pub query_preserving: usize,
    pub bound_ok: usize,
}

/// TAB-3 on the Figure 1 embedding plus discovered corpus embeddings.
pub fn tab3(instances: usize, queries_per: usize) -> Vec<PreserveRow> {
    let mut rows = Vec::new();
    let (s0, s) = crate::fixtures::fig1_pair();
    let e = crate::fixtures::fig1_embedding(&s0, &s);
    rows.push(preserve_row(
        "fig1-class->school",
        &s0,
        &e,
        instances,
        queries_per,
    ));

    for (name, src) in [
        ("dblp->noised", corpus::dblp_like()),
        ("news->noised", corpus::news_like()),
    ] {
        // The compiled embedding is owned, so the schemas can stay on the
        // stack (the old lifetime-bound API needed Box::leak here).
        let copy = noised_copy(&src, NoiseConfig::level(0.4), 31);
        let att = exact(&src, &copy);
        if let Some(e) = find_embedding(&src, &copy.target, &att, &DiscoveryConfig::default()) {
            rows.push(preserve_row(name, &src, &e, instances, queries_per));
        }
    }
    rows
}

fn preserve_row(
    name: &'static str,
    src: &Dtd,
    e: &xse_core::CompiledEmbedding,
    instances: usize,
    queries_per: usize,
) -> PreserveRow {
    let gen = InstanceGenerator::new(
        src,
        GenConfig {
            max_nodes: 400,
            ..GenConfig::default()
        },
    );
    let queries = random_queries(src, QueryConfig::default(), 5, queries_per);
    let mut row = PreserveRow {
        name,
        instances,
        queries: queries.len() * instances,
        type_safe: 0,
        injective: 0,
        roundtrip: 0,
        query_preserving: 0,
        bound_ok: 0,
    };
    for seed in 0..instances {
        let t1 = gen.generate(seed as u64);
        row.type_safe += usize::from(preserve::check_type_safety(e, &t1).is_ok());
        row.injective += usize::from(preserve::check_injectivity(e, &t1).is_ok());
        row.roundtrip += usize::from(preserve::check_roundtrip(e, &t1).is_ok());
        for q in &queries {
            row.query_preserving +=
                usize::from(preserve::check_query_preservation(e, &t1, q).is_ok());
            row.bound_ok += usize::from(preserve::check_translation_bound(e, q).is_ok());
        }
    }
    row
}

/// TAB-4: XSLT stylesheets vs. the direct algorithms.
pub struct XsltRow {
    pub name: &'static str,
    pub rules_fwd: usize,
    pub rules_inv: usize,
    pub trials: usize,
    pub fwd_equal: usize,
    pub roundtrip_equal: usize,
}

/// TAB-4 over the Figure 1 embedding.
pub fn tab4(trials: usize) -> XsltRow {
    let (s0, s) = crate::fixtures::fig1_pair();
    let e = crate::fixtures::fig1_embedding(&s0, &s);
    let fwd = generate_forward(&e);
    let inv = generate_inverse(&e);
    let gen = InstanceGenerator::new(
        &s0,
        GenConfig {
            max_nodes: 300,
            ..GenConfig::default()
        },
    );
    let mut row = XsltRow {
        name: "fig1-class->school",
        rules_fwd: fwd.len(),
        rules_inv: inv.len(),
        trials,
        fwd_equal: 0,
        roundtrip_equal: 0,
    };
    for seed in 0..trials {
        let t1 = gen.generate(seed as u64);
        let direct = e.apply(&t1).unwrap().tree;
        let via = apply_stylesheet(&fwd, &t1, None).unwrap();
        row.fwd_equal += usize::from(direct.equals(&via));
        let back = apply_stylesheet(&inv, &via, None).unwrap();
        row.roundtrip_equal += usize::from(back.equals(&t1));
    }
    row
}

/// EXP-E: the Theorem 5.1 reduction, satisfiable vs. not.
pub struct SatRow {
    pub formula: String,
    pub satisfiable: bool,
    pub embedding_found: bool,
}

/// EXP-E over a few fixed tiny formulas.
pub fn exp_e() -> Vec<SatRow> {
    use xse_discovery::sat::{Lit, Sat};
    let lit = |var, positive| Lit { var, positive };
    let cases: Vec<(&str, Sat)> = vec![
        (
            "(x1 ∨ x2) ∧ (¬x1 ∨ x2)",
            Sat {
                vars: 2,
                clauses: vec![
                    vec![lit(0, true), lit(1, true)],
                    vec![lit(0, false), lit(1, true)],
                ],
            },
        ),
        (
            "x1 ∧ ¬x1",
            Sat {
                vars: 1,
                clauses: vec![vec![lit(0, true)], vec![lit(0, false)]],
            },
        ),
        (
            "(x1 ∨ ¬x2) ∧ (¬x1 ∨ x2) ∧ (x1 ∨ x2)",
            Sat {
                vars: 2,
                clauses: vec![
                    vec![lit(0, true), lit(1, false)],
                    vec![lit(0, false), lit(1, true)],
                    vec![lit(0, true), lit(1, true)],
                ],
            },
        ),
    ];
    cases
        .into_iter()
        .map(|(formula, sat)| {
            let s1 = xse_discovery::sat::source_dtd(&sat);
            let s2 = xse_discovery::sat::target_dtd(&sat);
            // The Theorem 5.1 proof forces λ(Ci)=Ci, λ(Z)=Z, λ(W)=W and
            // λ(Ys) ∈ {Ts, Fs} in any valid embedding; encoding exactly
            // those candidates in att preserves the iff while keeping the
            // heuristic search tractable (the free Ys choices still carry
            // the truth assignment).
            let mut att = SimilarityMatrix::zero(s1.type_count(), s2.type_count());
            for a in s1.types() {
                let name = s1.name(a).to_string();
                if name.starts_with('Y') {
                    for b in s2.types() {
                        if s2.name(b).starts_with('T') || s2.name(b).starts_with('F') {
                            att.set(a, b, 1.0);
                        }
                    }
                } else if let Some(b) = s2.type_id(&name) {
                    att.set(a, b, 1.0);
                }
            }
            let cfg = DiscoveryConfig {
                restarts: 400,
                max_combos: 256,
                ..DiscoveryConfig::default()
            };
            SatRow {
                formula: formula.to_string(),
                satisfiable: sat.satisfiable(),
                embedding_found: find_embedding(&s1, &s2, &att, &cfg).is_some(),
            }
        })
        .collect()
}

/// ABL-1: prefix-free search with and without reachability pruning, and
/// with and without the star-bump refinement.
pub struct AblationRow {
    pub config: &'static str,
    pub solved: usize,
    pub total: usize,
    pub millis: f64,
}

/// ABL-1 instances: large noised random schemas (pruning pressure) plus a
/// schema whose two fixed children share one target star (bump pressure).
fn abl1_cases() -> Vec<(Dtd, Dtd, SimilarityMatrix)> {
    let mut cases = Vec::new();
    for n in [80usize, 160] {
        let src = scale::random_schema(n, n as u64);
        let copy = noised_copy(&src, NoiseConfig::level(0.5), 29);
        let att = exact(&src, &copy);
        cases.push((src, copy.target, att));
    }
    // Star-sharing pair: r → a, b must land in positions 1 and 2 of the
    // target's single repetition — unsolvable without the star bump.
    let src = Dtd::builder("r")
        .concat("r", &["a", "b"])
        .str_type("a")
        .str_type("b")
        .build()
        .unwrap();
    let tgt = Dtd::builder("r")
        .star("r", "slot")
        .concat("slot", &["v"])
        .str_type("v")
        .build()
        .unwrap();
    let att = SimilarityMatrix::permissive(&src, &tgt);
    cases.push((src, tgt, att));
    cases
}

/// ABL-1 over hard instances.
pub fn abl1() -> Vec<AblationRow> {
    let cases: [(&'static str, bool, usize); 3] = [
        ("full (pruning + bump)", false, 8),
        ("no reach pruning", true, 8),
        ("no star bump", false, 0),
    ];
    let instances = abl1_cases();
    cases
        .into_iter()
        .map(|(label, disable_pruning, max_bump)| {
            let mut solved = 0;
            let mut total = 0;
            let t0 = Instant::now();
            for (src, tgt, att) in &instances {
                let mut cfg = DiscoveryConfig::default();
                cfg.pfp.disable_reach_pruning = disable_pruning;
                cfg.pfp.max_star_bump = max_bump;
                total += 1;
                solved += usize::from(find_embedding(src, tgt, att, &cfg).is_some());
            }
            AblationRow {
                config: label,
                solved,
                total,
                millis: t0.elapsed().as_secs_f64() * 1000.0,
            }
        })
        .collect()
}
