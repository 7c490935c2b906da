//! Integration tests spanning the whole pipeline:
//! parse → discover → map → query-translate → invert → XSLT.

use xse::core::{multi, preserve};
use xse::dtd::{GenConfig, InstanceGenerator};
use xse::prelude::*;
use xse::workloads::noise::{lambda_matches_truth, noised_copy, NoiseConfig};
use xse::workloads::querygen::{random_queries, QueryConfig};
use xse::workloads::{corpus, simgen};
use xse::xslt::apply_stylesheet;

/// Every corpus schema: noise it, discover the embedding, and verify every
/// paper guarantee on generated instances and random queries.
#[test]
fn corpus_discovery_preserves_information() {
    for (name, src) in corpus::corpus() {
        let copy = noised_copy(&src, NoiseConfig::level(0.4), 99);
        let att = simgen::exact(&src, &copy);
        let emb = find_embedding(&src, &copy.target, &att, &DiscoveryConfig::default())
            .unwrap_or_else(|| panic!("{name}: discovery failed"));
        assert!(lambda_matches_truth(&src, &emb, &copy), "{name}: wrong λ");

        let gen = InstanceGenerator::new(
            &src,
            GenConfig {
                max_nodes: 300,
                ..GenConfig::default()
            },
        );
        let queries = random_queries(&src, QueryConfig::default(), 3, 8);
        for seed in 0..4 {
            let t1 = gen.generate(seed);
            preserve::check_all(&emb, &t1, &queries)
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
        }
    }
}

/// The full school scenario through parsed DTD text and XSLT.
#[test]
fn school_pipeline_via_dtd_text_and_xslt() {
    let s0 = corpus::fig1_class();
    let s = corpus::fig1_school();
    let mut att = SimilarityMatrix::by_name(&s0, &s, 0.0);
    att.set(s0.type_id("db").unwrap(), s.root(), 1.0);
    att.set(
        s0.type_id("class").unwrap(),
        s.type_id("course").unwrap(),
        1.0,
    );
    att.set(
        s0.type_id("type").unwrap(),
        s.type_id("category").unwrap(),
        1.0,
    );
    let cfg = DiscoveryConfig {
        restarts: 60,
        ..DiscoveryConfig::default()
    };
    let emb = find_embedding(&s0, &s, &att, &cfg).expect("Example 4.2 exists");

    let gen = InstanceGenerator::new(
        &s0,
        GenConfig {
            max_nodes: 250,
            ..GenConfig::default()
        },
    );
    let fwd = generate_forward(&emb);
    let inv = generate_inverse(&emb);
    for seed in 0..6 {
        let t1 = gen.generate(seed);
        let direct = emb.apply(&t1).unwrap();
        s.validate(&direct.tree).unwrap();
        let via = apply_stylesheet(&fwd, &t1, None).unwrap();
        assert!(direct.tree.equals(&via), "forward XSLT diverged");
        let back = apply_stylesheet(&inv, &via, None).unwrap();
        assert!(back.equals(&t1), "inverse XSLT diverged");
    }
}

/// Multi-source integration: both Figure 1 sources into the school target
/// simultaneously, via the combined-source construction.
#[test]
fn multi_source_combined_embedding() {
    let s0 = multi::prefix_types(&corpus::fig1_class(), "c_");
    let s1 = multi::prefix_types(&corpus::fig1_student(), "s_");
    let combined = multi::combine_sources("sources", &[&s0, &s1]).unwrap();
    assert!(combined.is_consistent());

    let d0 = InstanceGenerator::new(&s0, GenConfig::default()).generate(1);
    let d1 = InstanceGenerator::new(&s1, GenConfig::default()).generate(2);
    let both = multi::combine_instances("sources", &[&d0, &d1]);
    combined.validate(&both).unwrap();
    let parts = multi::split_instance(&both);
    assert!(parts[0].equals(&d0));
    assert!(parts[1].equals(&d1));
}

/// Translated queries must never leak target-side padding nodes, even for
/// queries over every label of the schema (the Figure 7 pitfall).
#[test]
fn translated_queries_never_match_padding() {
    let src = corpus::fig1_class();
    let copy = noised_copy(&src, NoiseConfig::level(0.5), 7);
    let att = simgen::exact(&src, &copy);
    let emb = find_embedding(&src, &copy.target, &att, &DiscoveryConfig::default()).unwrap();
    let t1 = InstanceGenerator::new(&src, GenConfig::default()).generate(11);
    let out = emb.apply(&t1).unwrap();

    // `.//X` for every source label: results must all be idM-mapped.
    for ty in src.types() {
        let q = parse_query(&format!(".//{}", src.name(ty))).unwrap();
        let tr = emb.translate(&q).unwrap();
        let hits = tr.eval(&out.tree);
        let mapped = out.idmap.map_result(hits.iter().copied()).count();
        assert_eq!(hits.len(), mapped, "{} leaked padding", src.name(ty));
    }
}

/// The Example 4.2 embedding, pinned explicitly (shared fixture — one
/// authoritative copy of the builder chain lives in `xse_bench::fixtures`).
fn fig1_embedding() -> CompiledEmbedding {
    let (s0, s) = xse_bench::fixtures::fig1_pair();
    xse_bench::fixtures::fig1_embedding(&s0, &s)
}

/// Inverse detects tampered documents instead of fabricating sources.
#[test]
fn inverse_rejects_tampering() {
    let s = corpus::fig1_school();
    // Pinned explicitly (a discovered embedding could legitimately route
    // around the tampered region).
    let emb = fig1_embedding();
    // A conforming school document that σd cannot have produced: its
    // `class2` holds no semester, but σd always materializes semester[1].
    let t2 = parse_xml(
        "<school><courses><history/><current><course>\
           <basic><cno>X</cno><credit>c</credit><class2/></basic>\
           <category><advanced><project>p</project></advanced></category>\
         </course></current></courses>\
         <students><student><ssn>s</ssn><name>n</name><gpa>g</gpa><taking/></student></students>\
         </school>",
    )
    .unwrap();
    s.validate(&t2).unwrap();
    assert!(emb.invert(&t2).is_err());
}

/// Acceptance for the compiled engine: it is owned (`'static`),
/// `Send + Sync`, survives its input schemas, and scoped threads sharing
/// `&emb` map 64 generated documents to byte-identical trees to sequential
/// `apply`.
#[test]
fn compiled_embedding_is_owned_and_threads_sharing_it_match_sequential() {
    fn assert_engine<T: Send + Sync + 'static>(t: T) -> T {
        t
    }
    // Build inside a block so the source DTDs are dropped before use: an
    // owned engine must not borrow them.
    let emb = {
        let emb = fig1_embedding();
        assert_engine(emb)
    };

    let gen = InstanceGenerator::new(
        emb.source(),
        GenConfig {
            max_nodes: 200,
            ..GenConfig::default()
        },
    );
    let docs: Vec<XmlTree> = (0..64u64).map(|seed| gen.generate(seed)).collect();
    assert!(docs.len() >= 64);

    let sequential: Vec<String> = docs
        .iter()
        .map(|d| emb.apply(d).unwrap().tree.to_xml())
        .collect();
    let shared = &emb;
    for threads in [2, 3, 4] {
        let threaded: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = docs
                .chunks(docs.len().div_ceil(threads))
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|d| shared.apply(d).unwrap().tree.to_xml())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(threaded, sequential, "threads = {threads}");
    }
}

/// A discovered embedding is equally owned: share it across scoped threads
/// without cloning (the ROADMAP's "compile once, serve many" shape).
#[test]
fn discovered_embedding_is_shared_across_threads() {
    let src = corpus::fig1_class();
    let copy = noised_copy(&src, NoiseConfig::level(0.3), 5);
    let att = simgen::exact(&src, &copy);
    let emb = find_embedding(&src, &copy.target, &att, &DiscoveryConfig::default()).unwrap();
    let gen = InstanceGenerator::new(&src, GenConfig::default());
    let docs: Vec<XmlTree> = (0..8u64).map(|s| gen.generate(s)).collect();
    let expected: Vec<String> = docs
        .iter()
        .map(|d| emb.apply(d).unwrap().tree.to_xml())
        .collect();
    let shared = &emb;
    std::thread::scope(|scope| {
        let handles: Vec<_> = docs
            .iter()
            .zip(expected.iter())
            .map(|(doc, want)| {
                scope.spawn(move || {
                    assert_eq!(shared.apply(doc).unwrap().tree.to_xml(), *want);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}
