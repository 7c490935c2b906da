//! Concurrency battery for the sharded registry: warm hits stay
//! byte-identical to a sequential baseline, single-flight compiles once
//! per pair under 16 threads, aggregate stats are exactly the fold of the
//! per-shard stats, snapshots stay monotone while two shards evict
//! concurrently, and shard counts {1, 2, 8} are observationally
//! equivalent for any single-threaded op sequence.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xse_service::{
    handle_request, EmbeddingRegistry, RegistryConfig, RegistryStats, Request, Response,
    ServiceError,
};

/// Identity pair `i`: a tiny DTD that always embeds into itself, with
/// per-index element names so distinct indices are distinct cache keys.
fn ident_dtd(i: usize) -> String {
    format!("<!ELEMENT r{i} (a{i}*)>\n<!ELEMENT a{i} (#PCDATA)>")
}

/// A pair that cannot embed (two required leaves into a single PCDATA
/// root), for exercising the negative cache.
fn bad_pair(i: usize) -> (String, String) {
    (
        format!(
            "<!ELEMENT q{i} (u{i}, v{i})>\n<!ELEMENT u{i} (#PCDATA)>\n<!ELEMENT v{i} (#PCDATA)>"
        ),
        format!("<!ELEMENT q{i} (#PCDATA)>"),
    )
}

fn registry(shards: usize, capacity: usize) -> EmbeddingRegistry {
    EmbeddingRegistry::new(RegistryConfig {
        capacity,
        shards,
        ..RegistryConfig::default()
    })
}

fn apply_doc(reg: &EmbeddingRegistry, dtd: &str, xml: &str) -> String {
    match handle_request(
        reg,
        &Request::Apply {
            source_dtd: dtd.to_string(),
            target_dtd: dtd.to_string(),
            xml: xml.to_string(),
        },
    ) {
        Response::Document { xml } => xml,
        other => panic!("apply failed: {other:?}"),
    }
}

/// (a) Every warm hit under contention returns an engine producing output
/// byte-identical to a sequential single-shard baseline.
#[test]
fn warm_hits_match_sequential_baseline_byte_for_byte() {
    const PAIRS: usize = 6;
    const THREADS: usize = 8;
    let dtds: Vec<String> = (0..PAIRS).map(ident_dtd).collect();
    let docs: Vec<String> = (0..PAIRS)
        .map(|i| format!("<r{i}><a{i}>v</a{i}><a{i}>w</a{i}></r{i}>"))
        .collect();

    // Sequential baseline on a single-shard registry: the seed behavior.
    let base = registry(1, 64);
    let baseline: Vec<String> = (0..PAIRS)
        .map(|i| apply_doc(&base, &dtds[i], &docs[i]))
        .collect();

    let reg = registry(8, 64);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        let (reg, barrier, dtds, docs, baseline) = (&reg, &barrier, &dtds, &docs, &baseline);
        for t in 0..THREADS {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                barrier.wait();
                for _ in 0..40 {
                    let i = rng.random_range(0..PAIRS);
                    assert_eq!(
                        apply_doc(reg, &dtds[i], &docs[i]),
                        baseline[i],
                        "pair {i} diverged from the sequential baseline"
                    );
                }
            });
        }
    });
    let stats = reg.stats();
    assert_eq!(stats.compiles, PAIRS as u64, "{stats:?}");
    assert_eq!(stats.entries, PAIRS as u64, "{stats:?}");
}

/// (b) Single-flight under 16 threads: each pair compiles exactly once,
/// and every thread receives the same shared engine (`Arc` identity).
#[test]
fn single_flight_compiles_each_pair_exactly_once_under_16_threads() {
    const PAIRS: usize = 4;
    const THREADS: usize = 16;
    let dtds: Vec<String> = (0..PAIRS).map(ident_dtd).collect();
    let reg = registry(8, 64);
    let barrier = Barrier::new(THREADS);

    let ptrs: Vec<Vec<usize>> = std::thread::scope(|s| {
        let (reg, barrier, dtds) = (&reg, &barrier, &dtds);
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(move || {
                    barrier.wait();
                    (0..PAIRS)
                        .map(|i| {
                            let (_, engine) = reg
                                .get_or_compile(&dtds[i], &dtds[i])
                                .expect("identity pair must compile");
                            Arc::as_ptr(&engine) as usize
                        })
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for i in 0..PAIRS {
        let first = ptrs[0][i];
        assert!(
            ptrs.iter().all(|per_thread| per_thread[i] == first),
            "pair {i}: threads saw different engines (single-flight broke)"
        );
    }
    let stats = reg.stats();
    assert_eq!(stats.compiles, PAIRS as u64, "{stats:?}");
    assert_eq!(stats.misses, PAIRS as u64, "{stats:?}");
    assert_eq!(
        stats.hits + stats.single_flight_waits,
        (THREADS * PAIRS - PAIRS) as u64,
        "every non-compiling resolution is a hit or a wait: {stats:?}"
    );
}

/// (c) After a randomized interleaving of get / translate / evict / stats
/// calls, the aggregate equals the fold of the per-shard snapshots and
/// the conservation laws hold: every get is accounted exactly once, every
/// compile is either live or evicted, and no translation was lost or
/// double-counted across the retire seam.
#[test]
fn aggregate_stats_equal_shard_sum_after_randomized_interleaving() {
    const PAIRS: usize = 8;
    const THREADS: usize = 8;
    let dtds: Vec<String> = (0..PAIRS).map(ident_dtd).collect();
    // Small capacity: per-shard cap 1, so eviction churns concurrently
    // with gets on other shards.
    let reg = registry(8, 4);
    let gets = AtomicU64::new(0);
    let translations = AtomicU64::new(0);

    std::thread::scope(|s| {
        let (reg, dtds, gets, translations) = (&reg, &dtds, &gets, &translations);
        for t in 0..THREADS {
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ t as u64);
                for _ in 0..60 {
                    let i = rng.random_range(0..PAIRS);
                    match rng.random_range(0..10u32) {
                        0..=4 => {
                            reg.get_or_compile(&dtds[i], &dtds[i]).unwrap();
                            gets.fetch_add(1, Ordering::Relaxed);
                        }
                        5..=6 => {
                            let resp = handle_request(
                                reg,
                                &Request::Translate {
                                    source_dtd: dtds[i].clone(),
                                    target_dtd: dtds[i].clone(),
                                    query: format!("a{i}"),
                                },
                            );
                            assert!(matches!(resp, Response::Translated { .. }), "{resp:?}");
                            // The dispatcher resolves the pair first, so
                            // one translate is also one get.
                            gets.fetch_add(1, Ordering::Relaxed);
                            translations.fetch_add(1, Ordering::Relaxed);
                        }
                        7..=8 => {
                            reg.evict(&dtds[i], &dtds[i]).unwrap();
                        }
                        _ => {
                            let _ = reg.stats();
                        }
                    }
                }
            });
        }
    });

    let merged = reg
        .shard_stats()
        .into_iter()
        .fold(RegistryStats::default(), |a, b| a + b);
    let stats = reg.stats();
    assert_eq!(stats, merged, "aggregate must be the fold of the shards");
    // Each resolution ends as exactly one of: counted hit, miss,
    // negative hit, or an uncounted waited-hit (its wait was already
    // counted). A call may wait *and* then miss when the leader's entry
    // is evicted before the waiter wakes, so the sum brackets the issued
    // count from above by at most `single_flight_waits`.
    let issued = gets.load(Ordering::Relaxed);
    let resolved = stats.hits + stats.misses + stats.single_flight_waits;
    assert!(
        resolved >= issued && resolved - issued <= stats.single_flight_waits,
        "resolution accounting drifted: issued {issued}, {stats:?}"
    );
    assert_eq!(
        stats.compiles,
        stats.entries + stats.evictions,
        "every compiled entry is live or was evicted: {stats:?}"
    );
    // Plan counters live in the engines: a translate that races the
    // eviction of its own engine bumps the counter *after* the retire
    // fold snapshotted it, so the aggregate may under-count such races —
    // but it must never over-count (double-fold) them.
    assert!(
        stats.plan_hits + stats.plan_misses <= translations.load(Ordering::Relaxed),
        "retire fold double-counted plan counters: {stats:?}"
    );

    // Quiescent phase: with no eviction racing, the fold is exact — ten
    // more translates advance the aggregate by exactly ten.
    let before = reg.stats();
    for n in 0..10u64 {
        let i = (n as usize) % PAIRS;
        let resp = handle_request(
            &reg,
            &Request::Translate {
                source_dtd: dtds[i].clone(),
                target_dtd: dtds[i].clone(),
                query: format!("a{i}"),
            },
        );
        assert!(matches!(resp, Response::Translated { .. }), "{resp:?}");
    }
    let after = reg.stats();
    assert_eq!(
        (after.plan_hits + after.plan_misses) - (before.plan_hits + before.plan_misses),
        10,
        "quiescent translates must be conserved exactly: {before:?} -> {after:?}"
    );
}

/// Regression for the stats-merge seam: while two pairs on *different*
/// shards are hammered with translate + evict cycles, every `stats()`
/// snapshot must be monotone in all cumulative counters — retirement
/// folds plan totals in the same critical section that removes the entry,
/// so no snapshot can observe a dip or a double-count.
#[test]
fn stats_snapshots_stay_monotone_under_concurrent_two_shard_eviction() {
    let reg = registry(8, 16);
    // Find two identity pairs routed to different shards.
    let mut picked: Vec<(usize, usize)> = Vec::new();
    for i in 0..64 {
        let d = ident_dtd(i);
        let key = EmbeddingRegistry::key_for(&d, &d).unwrap();
        let shard = reg.shard_of(key);
        if picked.iter().all(|&(_, s)| s != shard) {
            picked.push((i, shard));
            if picked.len() == 2 {
                break;
            }
        }
    }
    assert_ne!(picked[0].1, picked[1].1, "need two distinct shards");

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (reg, stop) = (&reg, &stop);
        let workers: Vec<_> = picked
            .iter()
            .map(|&(i, _)| {
                s.spawn(move || {
                    let dtd = ident_dtd(i);
                    for _ in 0..150 {
                        let resp = handle_request(
                            reg,
                            &Request::Translate {
                                source_dtd: dtd.clone(),
                                target_dtd: dtd.clone(),
                                query: format!("a{i}"),
                            },
                        );
                        assert!(matches!(resp, Response::Translated { .. }), "{resp:?}");
                        reg.evict(&dtd, &dtd).unwrap();
                    }
                })
            })
            .collect();
        s.spawn(move || {
            let mut prev = RegistryStats::default();
            while !stop.load(Ordering::Relaxed) {
                let cur = reg.stats();
                for (name, p, c) in [
                    ("hits", prev.hits, cur.hits),
                    ("misses", prev.misses, cur.misses),
                    ("compiles", prev.compiles, cur.compiles),
                    ("waits", prev.single_flight_waits, cur.single_flight_waits),
                    ("evictions", prev.evictions, cur.evictions),
                    ("compile_nanos", prev.compile_nanos, cur.compile_nanos),
                    ("plan_hits", prev.plan_hits, cur.plan_hits),
                    ("plan_misses", prev.plan_misses, cur.plan_misses),
                    ("negative_hits", prev.negative_hits, cur.negative_hits),
                ] {
                    assert!(
                        c >= p,
                        "{name} went backwards: {p} -> {c} ({prev:?} -> {cur:?})"
                    );
                }
                prev = cur;
            }
        });
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
}

/// Capacity-pressure safety: an in-flight compile can never be evicted —
/// waiters always receive a usable engine even while another thread
/// hammers `evict` on the same keys with a per-shard capacity of one.
#[test]
fn eviction_never_kills_an_inflight_compile() {
    const PAIRS: usize = 4;
    let dtds: Vec<String> = (0..PAIRS).map(ident_dtd).collect();
    // One shard, capacity one: maximum eviction pressure on one stripe.
    let reg = registry(1, 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (reg, dtds, stop) = (&reg, &dtds, &stop);
        s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(99);
            while !stop.load(Ordering::Relaxed) {
                let i = rng.random_range(0..PAIRS);
                reg.evict(&dtds[i], &dtds[i]).unwrap();
            }
        });
        let getters: Vec<_> = (0..PAIRS)
            .map(|i| {
                s.spawn(move || {
                    for _ in 0..50 {
                        let (_, engine) = reg
                            .get_or_compile(&dtds[i], &dtds[i])
                            .expect("eviction pressure must never fail a compile");
                        assert!(engine.size() > 0);
                    }
                })
            })
            .collect();
        for g in getters {
            g.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
    let stats = reg.stats();
    assert!(stats.compiles >= PAIRS as u64, "{stats:?}");
    assert!(stats.entries <= 1, "capacity 1 on one shard: {stats:?}");
    assert_eq!(stats.compiles, stats.entries + stats.evictions, "{stats:?}");
}

/// One observable step of the sequential model: what a `get` did, or what
/// an `evict` returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Outcome {
    Hit,
    Miss,
    NegativeHit,
    NoEmbedding,
    Evicted(bool),
}

fn zero_clock(mut s: RegistryStats) -> RegistryStats {
    s.compile_nanos = 0;
    s
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Sharding is an implementation detail: for any single-threaded
    /// sequence of (get, fail, evict) ops over good and non-embeddable
    /// pairs, shard counts 1, 2 and 8 produce the same per-op outcomes
    /// and the same final counters (capacity exceeds the key count, so
    /// the weighted-eviction policy never has to pick a victim and the
    /// per-shard capacity split cannot diverge).
    #[test]
    fn shard_counts_are_observationally_equivalent(seed in 0u64..10_000) {
        const GOOD: usize = 5;
        const BAD: usize = 2;
        let good: Vec<String> = (0..GOOD).map(ident_dtd).collect();
        let bad: Vec<(String, String)> = (0..BAD).map(bad_pair).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let ops: Vec<(u8, usize)> = (0..30)
            .map(|_| (rng.random_range(0..4u8), rng.random_range(0..GOOD.max(BAD))))
            .collect();

        let run = |shards: usize| -> (Vec<Outcome>, RegistryStats) {
            let reg = registry(shards, 16);
            let outcomes = ops
                .iter()
                .map(|&(kind, i)| match kind {
                    0 | 1 => {
                        let before = reg.stats();
                        reg.get_or_compile(&good[i % GOOD], &good[i % GOOD])
                            .expect("identity pair compiles");
                        let after = reg.stats();
                        if after.hits > before.hits {
                            Outcome::Hit
                        } else {
                            Outcome::Miss
                        }
                    }
                    2 => {
                        let (s, t) = &bad[i % BAD];
                        let before = reg.stats();
                        match reg.get_or_compile(s, t) {
                            Err(ServiceError::NoEmbedding) => {}
                            other => panic!("bad pair must not embed: {other:?}"),
                        }
                        let after = reg.stats();
                        if after.negative_hits > before.negative_hits {
                            Outcome::NegativeHit
                        } else {
                            Outcome::NoEmbedding
                        }
                    }
                    _ => Outcome::Evicted(
                        reg.evict(&good[i % GOOD], &good[i % GOOD]).unwrap(),
                    ),
                })
                .collect();
            (outcomes, zero_clock(reg.stats()))
        };

        let (out1, stats1) = run(1);
        for shards in [2usize, 8] {
            let (out_n, stats_n) = run(shards);
            prop_assert_eq!(&out1, &out_n, "outcomes diverged at {} shards", shards);
            prop_assert_eq!(stats1, stats_n, "counters diverged at {} shards", shards);
        }
    }
}
