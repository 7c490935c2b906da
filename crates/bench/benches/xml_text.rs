//! The two text endpoints of a served document: `parse_xml` and `to_xml`
//! throughput (MB/s) over corpus documents of 16–56 KiB, the size of the
//! migrate-docs workload's frames.
//!
//! Both modes first check correctness on every document: re-serializing the
//! parsed text is byte-identical, and the parsed tree equals the generated
//! one. `XSE_SCALE_SMOKE=1` stops there (CI runs it with no timing gate).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use xse_dtd::{GenConfig, InstanceGenerator};
use xse_xmltree::{parse_xml, XmlTree};

/// Serialized size range of the documents, in bytes.
const DOC_BYTES: std::ops::RangeInclusive<usize> = (16 * 1024)..=(56 * 1024);
/// Documents kept per corpus schema (some schemas yield none in range).
const DOCS_PER_SCHEMA: usize = 2;
/// Candidates generated per schema to find them.
const CANDIDATES: u64 = 48;

/// Corpus documents whose compact text lies in [`DOC_BYTES`], with that
/// text. Wide stars let shallow schemas reach the range; the node budget
/// cycles through halvings so deep schemas do not overshoot it.
fn documents() -> Vec<(XmlTree, String)> {
    let mut out = Vec::new();
    for (_, dtd) in xse_workloads::corpus::corpus() {
        let mut kept = 0;
        for k in 0..CANDIDATES {
            if kept == DOCS_PER_SCHEMA {
                break;
            }
            let cfg = GenConfig {
                star_mean: 6.0,
                star_max: 64,
                max_nodes: 4000 >> (k % 4),
                ..GenConfig::default()
            };
            let tree = InstanceGenerator::new(&dtd, cfg).generate(k);
            let text = tree.to_xml();
            if DOC_BYTES.contains(&text.len()) {
                out.push((tree, text));
                kept += 1;
            }
        }
    }
    out
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::var_os("XSE_SCALE_SMOKE").is_some();
    let docs = documents();
    assert!(
        docs.len() >= 8,
        "only {} corpus documents in range",
        docs.len()
    );
    for (tree, text) in &docs {
        let parsed = parse_xml(text).expect("generated document parses");
        assert!(parsed.equals(tree), "{:?}", parsed.first_difference(tree));
        assert!(
            parsed.to_xml() == *text,
            "re-serialization is not byte-identical"
        );
    }
    let bytes: usize = docs.iter().map(|(_, text)| text.len()).sum();
    println!(
        "xml_text: {} documents, {:.1} KB mean",
        docs.len(),
        bytes as f64 / docs.len() as f64 / 1000.0
    );
    if smoke {
        return;
    }
    let trees: Vec<XmlTree> = docs
        .iter()
        .map(|(_, text)| parse_xml(text).unwrap())
        .collect();
    let mut g = c.benchmark_group("xml_text");
    g.sample_size(30);
    g.throughput(Throughput::Bytes(bytes as u64));
    g.bench_function("parse_xml", |b| {
        b.iter(|| {
            docs.iter()
                .map(|(_, text)| parse_xml(text).unwrap().len())
                .sum::<usize>()
        })
    });
    g.bench_function("to_xml", |b| {
        b.iter(|| trees.iter().map(|t| t.to_xml().len()).sum::<usize>())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
