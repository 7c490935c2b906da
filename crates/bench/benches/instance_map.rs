//! FIG-T micro-slice: InstMap (into a tree, and straight to XML text) and
//! inverse wall time vs. document size, plus batch throughput of
//! `apply_batch` at 1 vs N threads.
//!
//! `XSE_SCALE_SMOKE=1` shrinks sizes and sample counts so CI can execute the
//! whole bench quickly; its assertions (the text path byte-identical to the
//! tree path + `to_xml`, batch output byte-identical to sequential, batch at
//! 1 thread not slower than sequential) run in both modes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xse_bench::fixtures;
use xse_dtd::{GenConfig, InstanceGenerator};

fn bench(c: &mut Criterion) {
    let smoke = std::env::var_os("XSE_SCALE_SMOKE").is_some();
    let (s0, s) = fixtures::fig1_pair();
    let e = fixtures::fig1_embedding(&s0, &s);
    let mut g = c.benchmark_group("instance_map");
    g.sample_size(if smoke { 10 } else { 20 });
    let sizes: &[usize] = if smoke {
        &[200, 800]
    } else {
        &[500, 2_000, 8_000]
    };
    for &n in sizes {
        let gen = InstanceGenerator::new(
            &s0,
            GenConfig {
                max_nodes: n,
                star_mean: 3.0,
                ..GenConfig::default()
            },
        );
        // Smoke mode keeps runs short, so dodge seeds whose star rolls
        // produce a near-empty document; the full run keeps the historical
        // seeds (and hence the historical size labels in EXPERIMENTS.md).
        let t1 = if smoke {
            (0..32)
                .map(|s| gen.generate(n as u64 + s))
                .max_by_key(|t| t.len())
                .unwrap()
        } else {
            gen.generate(n as u64)
        };
        let out = e.apply(&t1).unwrap();
        assert_eq!(
            e.apply_to_xml(&t1).unwrap(),
            out.tree.to_xml(),
            "apply_to_xml diverges from apply + to_xml on {} nodes",
            t1.len()
        );
        g.throughput(Throughput::Elements(t1.len() as u64));
        g.bench_with_input(BenchmarkId::new("apply", t1.len()), &t1, |b, t1| {
            b.iter(|| e.apply(t1).unwrap().tree.len())
        });
        g.bench_with_input(BenchmarkId::new("apply+to_xml", t1.len()), &t1, |b, t1| {
            b.iter(|| e.apply(t1).unwrap().tree.to_xml().len())
        });
        g.bench_with_input(BenchmarkId::new("apply_to_xml", t1.len()), &t1, |b, t1| {
            b.iter(|| e.apply_to_xml(t1).unwrap().len())
        });
        g.bench_with_input(
            BenchmarkId::new("invert", out.tree.len()),
            &out.tree,
            |b, t2| b.iter(|| e.invert(t2).unwrap().len()),
        );
    }
    g.finish();

    // Batch throughput: mid-sized documents, sequential vs scoped-thread
    // fan-out — the day-one measurement for the parallel path.
    let gen = InstanceGenerator::new(
        &s0,
        GenConfig {
            max_nodes: if smoke { 300 } else { 800 },
            star_mean: 3.0,
            ..GenConfig::default()
        },
    );
    let n_docs = if smoke { 8u64 } else { 64 };
    let docs: Vec<_> = (0..n_docs).map(|seed| gen.generate(seed)).collect();
    let total_nodes: u64 = docs.iter().map(|d| d.len() as u64).sum();
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // 1-vs-N comparison, part one — correctness: every batch configuration
    // produces byte-identical serialization to the sequential loop.
    let sequential: Vec<String> = docs
        .iter()
        .map(|d| e.apply(d).unwrap().tree.to_xml())
        .collect();
    for (d, want) in docs.iter().zip(&sequential) {
        assert_eq!(&e.apply_to_xml(d).unwrap(), want, "apply_to_xml diverges");
    }
    for threads in [1, 2, hw_threads] {
        let batch: Vec<String> = e
            .apply_batch_with(&docs, threads)
            .into_iter()
            .map(|r| r.unwrap().tree.to_xml())
            .collect();
        assert_eq!(batch, sequential, "apply_batch({threads}) diverges");
    }
    // Part two — no pessimization: batch at threads=1 must not lose to the
    // plain sequential loop (it degenerates to exactly that loop; the 1.5×
    // slack only absorbs scheduler noise). Median of 3 to de-flake.
    let time = |f: &dyn Fn() -> usize| {
        let mut samples: Vec<std::time::Duration> = (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                std::hint::black_box(f());
                t0.elapsed()
            })
            .collect();
        samples.sort();
        samples[1]
    };
    let t_seq = time(&|| docs.iter().map(|d| e.apply(d).unwrap().tree.len()).sum());
    let t_batch1 = time(&|| {
        e.apply_batch_with(&docs, 1)
            .into_iter()
            .map(|r| r.unwrap().tree.len())
            .sum()
    });
    assert!(
        t_batch1 <= t_seq * 3 / 2,
        "apply_batch(1) slower than sequential: {t_batch1:?} vs {t_seq:?}"
    );

    let mut g = c.benchmark_group("apply_batch");
    g.sample_size(10);
    g.throughput(Throughput::Elements(total_nodes));
    // BTreeSet dedups the thread counts (hw_threads may be 1 or 2).
    for threads in std::collections::BTreeSet::from([1usize, 2, hw_threads]) {
        g.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    e.apply_batch_with(&docs, threads)
                        .into_iter()
                        .map(|r| r.unwrap().tree.len())
                        .sum::<usize>()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
