//! FIG-T micro-slice: InstMap (into a tree, and straight to XML text) and
//! inverse wall time vs. document size.
//!
//! `XSE_SCALE_SMOKE=1` shrinks sizes and sample counts so CI can execute the
//! whole bench quickly; its assertion (the text path byte-identical to the
//! tree path + `to_xml`, on every FIG-T document and on a batch of
//! mid-sized documents) runs in both modes.

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

    // The text path on a batch of mid-sized documents.
    let gen = InstanceGenerator::new(
        &s0,
        GenConfig {
            max_nodes: if smoke { 300 } else { 800 },
            star_mean: 3.0,
            ..GenConfig::default()
        },
    );
    let n_docs = if smoke { 8u64 } else { 64 };
    for d in (0..n_docs).map(|seed| gen.generate(seed)) {
        assert_eq!(
            e.apply_to_xml(&d).unwrap(),
            e.apply(&d).unwrap().tree.to_xml(),
            "apply_to_xml diverges"
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
