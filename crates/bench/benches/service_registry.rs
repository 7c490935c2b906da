//! Serving-layer micro-slice: the registry's warm hit path vs. the rebuild
//! of an evicted engine, plus the full `handle_request` dispatcher
//! round-trip.
//!
//! `XSE_SCALE_SMOKE=1` shrinks sample counts so CI can run the whole bench
//! as a regression gate; the correctness assertions (warm hits share one
//! `Arc`, warm lookup at least 10× faster than parsing the pair) run in
//! both modes.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use xse_service::{handle_request, EmbeddingRegistry, RegistryConfig, Request, Response};

fn wrap_pair() -> (String, String) {
    let s1 =
        "<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (c*)>\n<!ELEMENT c (#PCDATA)>";
    let s2 = "<!ELEMENT r (x, y)>\n<!ELEMENT x (a)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT y (w)>\n<!ELEMENT w (c2*)>\n<!ELEMENT c2 (c)>\n<!ELEMENT c (#PCDATA)>";
    (s1.to_string(), s2.to_string())
}

fn registry() -> Arc<EmbeddingRegistry> {
    Arc::new(EmbeddingRegistry::new(RegistryConfig::default()))
}

fn registry_with_shards(shards: usize) -> Arc<EmbeddingRegistry> {
    Arc::new(EmbeddingRegistry::new(RegistryConfig {
        shards,
        ..RegistryConfig::default()
    }))
}

/// Regression gate for the serving claim: resolving an already-compiled
/// pair (hash-memoized text lookup + `Arc` clone) must be at least 10×
/// faster than parsing both texts and hashing them
/// ([`EmbeddingRegistry::key_for`]), the least work a hit path that
/// re-parses does. The real margin is more than an order of magnitude; if
/// the hit path ever re-parses, re-runs the §4.1 checks or re-runs
/// discovery, this trips long before the e2e latency gate does.
/// Evict-then-get is no reference: it copies the engine the registry kept.
fn assert_warm_hit_beats_a_parse() {
    let (s, t) = wrap_pair();
    let reg = registry();
    let (_, first) = reg.get_or_compile(&s, &t).unwrap();
    let (_, second) = reg.get_or_compile(&s, &t).unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "warm hits must share one compiled engine"
    );
    let median = |f: &dyn Fn()| {
        let mut samples: Vec<std::time::Duration> = (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed()
            })
            .collect();
        samples.sort();
        samples[1]
    };
    let t_warm = median(&|| {
        for _ in 0..32 {
            std::hint::black_box(reg.get_or_compile(&s, &t).unwrap());
        }
    });
    let t_parse = median(&|| {
        for _ in 0..32 {
            std::hint::black_box(EmbeddingRegistry::key_for(&s, &t).unwrap());
        }
    });
    assert!(
        t_warm * 10 <= t_parse,
        "warm hit path ({t_warm:?}/32 ops) not 10x faster than parsing \
         the pair ({t_parse:?}/32 ops)"
    );
}

/// Regression gate for the negative cache: once a DTD pair has failed
/// discovery, repeating the request within the TTL must be answered from
/// the negative cache — no re-parse, no re-discovery — making the repeat
/// at least 10× faster than the initial failure and bumping the
/// `negative_hits` counter.
fn assert_negative_cache_absorbs_repeat_failures() {
    let (s, t) = (
        "<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b (#PCDATA)>",
        "<!ELEMENT r (#PCDATA)>",
    );
    let reg = registry();
    let t0 = std::time::Instant::now();
    assert!(reg.get_or_compile(s, t).is_err(), "pair must not embed");
    let t_fail = t0.elapsed();
    let t0 = std::time::Instant::now();
    for _ in 0..32 {
        assert!(reg.get_or_compile(s, t).is_err());
    }
    let t_cached = t0.elapsed();
    assert_eq!(reg.stats().negative_hits, 32, "repeats must hit the cache");
    assert!(
        t_cached * 10 <= t_fail * 32,
        "negative-cache hit ({t_cached:?}/32 ops) not 10x faster than the \
         initial failed discovery ({t_fail:?}/op)"
    );
}

/// Regression gate for sharding: routing a warm hit through the 8-shard
/// registry (hash-mix + stripe pick + read-locked table) must stay within
/// 3× of the single-shard lookup. The two paths share all code except the
/// stripe pick, so a real regression here means the fast path started
/// taking a shard mutex or re-hashing.
fn assert_sharded_warm_hit_not_regressed() {
    let (s, t) = wrap_pair();
    let one = registry_with_shards(1);
    let eight = registry_with_shards(8);
    one.get_or_compile(&s, &t).unwrap();
    eight.get_or_compile(&s, &t).unwrap();
    let median = |f: &dyn Fn()| {
        let mut samples: Vec<std::time::Duration> = (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed()
            })
            .collect();
        samples.sort();
        samples[2]
    };
    let t_one = median(&|| {
        for _ in 0..256 {
            std::hint::black_box(one.get_or_compile(&s, &t).unwrap());
        }
    });
    let t_eight = median(&|| {
        for _ in 0..256 {
            std::hint::black_box(eight.get_or_compile(&s, &t).unwrap());
        }
    });
    assert!(
        t_eight <= t_one * 3,
        "8-shard warm hit ({t_eight:?}/256 ops) regressed past 3x the \
         single-shard lookup ({t_one:?}/256 ops)"
    );
}

fn bench(c: &mut Criterion) {
    assert_warm_hit_beats_a_parse();
    assert_negative_cache_absorbs_repeat_failures();
    assert_sharded_warm_hit_not_regressed();

    let smoke = std::env::var_os("XSE_SCALE_SMOKE").is_some();
    let (s, t) = wrap_pair();
    let mut g = c.benchmark_group("service_registry");
    g.sample_size(if smoke { 10 } else { 20 });

    let warm = registry();
    warm.get_or_compile(&s, &t).unwrap();
    g.bench_function("get_or_compile/warm", |b| {
        b.iter(|| warm.get_or_compile(&s, &t).unwrap().1.size())
    });

    let warm_one = registry_with_shards(1);
    warm_one.get_or_compile(&s, &t).unwrap();
    g.bench_function("get_or_compile/warm_1shard", |b| {
        b.iter(|| warm_one.get_or_compile(&s, &t).unwrap().1.size())
    });

    g.bench_function("get_or_compile/rebuild", |b| {
        b.iter(|| {
            warm.evict(&s, &t).unwrap();
            warm.get_or_compile(&s, &t).unwrap().1.size()
        })
    });

    let served = registry();
    let doc = "<r><a>hi</a><b><c>1</c><c>2</c></b></r>";
    let apply = Request::Apply {
        source_dtd: s.clone(),
        target_dtd: t.clone(),
        xml: doc.to_string(),
    };
    g.bench_function("handle_request/apply", |b| {
        b.iter(|| match handle_request(&served, &apply) {
            Response::Document { xml } => xml.len(),
            other => panic!("{other:?}"),
        })
    });

    let translate = Request::Translate {
        source_dtd: s.clone(),
        target_dtd: t.clone(),
        query: "b/c".to_string(),
    };
    g.bench_function("handle_request/translate", |b| {
        b.iter(|| match handle_request(&served, &translate) {
            Response::Translated { size, states, .. } => size + states,
            other => panic!("{other:?}"),
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
