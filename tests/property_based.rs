//! Property-based suites (proptest) over randomized schemas, documents and
//! queries: the paper's theorems as invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use xse::core::preserve;
use xse::dtd::{GenConfig, InstanceGenerator};
use xse::prelude::*;
use xse::rxpath::Evaluator;
use xse::workloads::noise::{noised_copy, NoiseConfig};
use xse::workloads::querygen::{random_queries, QueryConfig};
use xse::workloads::{scale, simgen};
use xse::xslt::apply_stylesheet;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random schema → random instance → it validates.
    #[test]
    fn generated_instances_conform(n in 5usize..40, seed in 0u64..500) {
        let dtd = scale::random_schema(n, seed);
        let gen = InstanceGenerator::new(
            &dtd,
            GenConfig { max_nodes: 200, ..GenConfig::default() },
        );
        let t = gen.generate(seed);
        prop_assert!(dtd.validate(&t).is_ok());
    }

    /// XML serialization roundtrips through the parser.
    #[test]
    fn xml_roundtrip(n in 5usize..30, seed in 0u64..500) {
        let dtd = scale::random_schema(n, seed);
        let gen = InstanceGenerator::new(
            &dtd,
            GenConfig { max_nodes: 150, ..GenConfig::default() },
        );
        let t = gen.generate(seed ^ 7);
        let compact = parse_xml(&t.to_xml()).unwrap();
        prop_assert!(compact.equals(&t));
        let pretty = parse_xml(&t.to_xml_pretty()).unwrap();
        prop_assert!(pretty.equals(&t));
    }

    /// `parse_xml(serialize(t)) = t` (paper tree equality — isomorphism
    /// ignoring ids) over the named workload corpus schemas, not just
    /// random ones.
    #[test]
    fn corpus_xml_roundtrip(seed in 0u64..200) {
        for (name, dtd) in xse::workloads::corpus::corpus() {
            let gen = InstanceGenerator::new(
                &dtd,
                GenConfig { max_nodes: 120, ..GenConfig::default() },
            );
            let t = gen.generate(seed);
            let back = parse_xml(&t.to_xml()).unwrap();
            prop_assert!(back.equals(&t), "{}: {:?}", name, back.first_difference(&t));
            let pretty = parse_xml(&t.to_xml_pretty()).unwrap();
            prop_assert!(pretty.equals(&t), "{} (pretty)", name);
        }
    }

    /// Freezing (CSR-compacting) a tree is observationally invisible:
    /// equality, `dom(T)` (the id set), document order and serialization
    /// are all unchanged, and the tree stays mutable afterwards.
    #[test]
    fn freeze_preserves_tree_observations(n in 5usize..30, seed in 0u64..500) {
        let dtd = scale::random_schema(n, seed);
        let gen = InstanceGenerator::new(
            &dtd,
            GenConfig { max_nodes: 150, ..GenConfig::default() },
        );
        let t = gen.generate(seed ^ 0x51);
        let mut frozen = t.clone();
        frozen.freeze();
        prop_assert!(frozen.equals(&t));
        prop_assert_eq!(frozen.len(), t.len(), "dom(T) is stable");
        let before: Vec<NodeId> = t.preorder().collect();
        let after: Vec<NodeId> = frozen.preorder().collect();
        prop_assert_eq!(before, after, "document order and ids are stable");
        prop_assert_eq!(frozen.to_xml(), t.to_xml());
        // Mutation after freeze invalidates and re-compacts transparently.
        let extra = frozen.add_element(frozen.root(), "post_freeze");
        prop_assert_eq!(frozen.children(frozen.root()).last(), Some(&extra));
    }

    /// Theorems 4.1 + 4.3(a): discovered embeddings over noised copies are
    /// type safe, injective and invertible on random instances.
    #[test]
    fn discovered_embeddings_preserve_information(
        n in 6usize..24,
        schema_seed in 0u64..200,
        noise in 0.0f64..0.6,
        doc_seed in 0u64..100,
    ) {
        let src = scale::random_schema(n, schema_seed);
        let copy = noised_copy(&src, NoiseConfig::level(noise), schema_seed ^ 0xA5);
        let att = simgen::exact(&src, &copy);
        // Discovery is heuristic; treat "not found" as a skip, soundness of
        // found embeddings as the property.
        if let Some(emb) = find_embedding(&src, &copy.target, &att, &DiscoveryConfig::default()) {
            let gen = InstanceGenerator::new(
                &src,
                GenConfig { max_nodes: 150, ..GenConfig::default() },
            );
            let t1 = gen.generate(doc_seed);
            prop_assert!(preserve::check_type_safety(&emb, &t1).is_ok());
            prop_assert!(preserve::check_injectivity(&emb, &t1).is_ok());
            prop_assert!(preserve::check_roundtrip(&emb, &t1).is_ok());
        }
    }

    /// Theorem 4.3(b): query preservation and the |Tr(Q)| bound on random
    /// queries over a discovered embedding.
    #[test]
    fn query_preservation_on_random_queries(
        n in 6usize..20,
        schema_seed in 0u64..100,
        q_seed in 0u64..100,
    ) {
        let src = scale::random_schema(n, schema_seed);
        let copy = noised_copy(&src, NoiseConfig::level(0.3), schema_seed ^ 0x5A);
        let att = simgen::exact(&src, &copy);
        if let Some(emb) = find_embedding(&src, &copy.target, &att, &DiscoveryConfig::default()) {
            let gen = InstanceGenerator::new(
                &src,
                GenConfig { max_nodes: 120, ..GenConfig::default() },
            );
            let t1 = gen.generate(q_seed);
            for q in random_queries(&src, QueryConfig::default(), q_seed, 6) {
                prop_assert!(
                    preserve::check_query_preservation(&emb, &t1, &q).is_ok(),
                    "query {q}"
                );
                prop_assert!(preserve::check_translation_bound(&emb, &q).is_ok());
            }
        }
    }

    /// §4.3: generated stylesheets agree with the direct algorithms.
    #[test]
    fn xslt_agrees_with_direct_mapping(
        n in 6usize..18,
        schema_seed in 0u64..100,
        doc_seed in 0u64..50,
    ) {
        let src = scale::random_schema(n, schema_seed);
        let copy = noised_copy(&src, NoiseConfig::level(0.3), schema_seed ^ 0x33);
        let att = simgen::exact(&src, &copy);
        if let Some(emb) = find_embedding(&src, &copy.target, &att, &DiscoveryConfig::default()) {
            let fwd = generate_forward(&emb);
            let inv = generate_inverse(&emb);
            let gen = InstanceGenerator::new(
                &src,
                GenConfig { max_nodes: 120, ..GenConfig::default() },
            );
            let t1 = gen.generate(doc_seed);
            let direct = emb.apply(&t1).unwrap().tree;
            let via = apply_stylesheet(&fwd, &t1, None).unwrap();
            prop_assert!(direct.equals(&via), "{:?}", direct.first_difference(&via));
            let back = apply_stylesheet(&inv, &via, None).unwrap();
            prop_assert!(back.equals(&t1), "{:?}", back.first_difference(&t1));
        }
    }

    /// The ANFA representation evaluates exactly like the direct XR
    /// evaluator on random schema-derived queries.
    #[test]
    fn anfa_matches_direct_evaluation(
        n in 5usize..25,
        schema_seed in 0u64..200,
        q_seed in 0u64..200,
    ) {
        let dtd = scale::random_schema(n, schema_seed);
        let gen = InstanceGenerator::new(
            &dtd,
            GenConfig { max_nodes: 150, ..GenConfig::default() },
        );
        let t = gen.generate(q_seed ^ 3);
        let ev = Evaluator::new(&t);
        for q in random_queries(&dtd, QueryConfig::default(), q_seed, 6) {
            let direct = ev.eval(&q, t.root());
            let Ok(anfa) = xse::anfa::Anfa::from_query(&q) else { continue };
            prop_assert_eq!(&direct, &anfa.eval_root(&t), "query {}", q);
            // And through state elimination back to XR.
            if let Some(q2) = anfa.to_query() {
                prop_assert_eq!(&direct, &ev.eval(&q2, t.root()), "reprinted {}", q2);
            }
        }
    }
}

// §4.5 multi-source helpers: round-trip and validation-preservation
// properties over randomized schemas and instances.
proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `split_instance ∘ combine_instances = id` on random per-source
    /// documents, and the combined instance validates against the combined
    /// DTD built from prefixed sources.
    #[test]
    fn multi_combine_then_split_is_identity(
        n1 in 4usize..16,
        n2 in 4usize..16,
        seed in 0u64..200,
    ) {
        use xse::core::multi;
        let d1 = multi::prefix_types(&scale::random_schema(n1, seed), "p_");
        let d2 = multi::prefix_types(&scale::random_schema(n2, seed ^ 0x9E37), "q_");
        let combined_dtd = multi::combine_sources("sources", &[&d1, &d2]).unwrap();
        let t1 = multi::prefix_instance(
            &InstanceGenerator::new(
                &scale::random_schema(n1, seed),
                GenConfig { max_nodes: 120, ..GenConfig::default() },
            )
            .generate(seed),
            "p_",
        );
        let t2 = multi::prefix_instance(
            &InstanceGenerator::new(
                &scale::random_schema(n2, seed ^ 0x9E37),
                GenConfig { max_nodes: 120, ..GenConfig::default() },
            )
            .generate(seed ^ 1),
            "q_",
        );
        let both = multi::combine_instances("sources", &[&t1, &t2]);
        prop_assert!(combined_dtd.validate(&both).is_ok());
        let parts = multi::split_instance(&both);
        prop_assert_eq!(parts.len(), 2);
        prop_assert!(parts[0].equals(&t1));
        prop_assert!(parts[1].equals(&t2));
    }

    /// `prefix_instance` preserves validation: a valid instance of `S`
    /// stays valid against `prefix_types(S)` (and stays equal through a
    /// serialize/parse round-trip).
    #[test]
    fn multi_prefix_instance_preserves_validation(
        n in 4usize..24,
        seed in 0u64..300,
    ) {
        use xse::core::multi;
        let dtd = scale::random_schema(n, seed);
        let t = InstanceGenerator::new(
            &dtd,
            GenConfig { max_nodes: 150, ..GenConfig::default() },
        )
        .generate(seed);
        prop_assert!(dtd.validate(&t).is_ok());
        let pd = multi::prefix_types(&dtd, "px_");
        let pt = multi::prefix_instance(&t, "px_");
        prop_assert!(pd.validate(&pt).is_ok());
        let reparsed = parse_xml(&pt.to_xml()).unwrap();
        prop_assert!(reparsed.equals(&pt));
    }

    /// Name collisions are always rejected by `combine_sources`, and always
    /// fixed by prefixing — for arbitrary random schemas, not just the
    /// corpus fixtures.
    #[test]
    fn multi_collisions_rejected_then_fixed(n in 4usize..16, seed in 0u64..200) {
        use xse::core::multi;
        let dtd = scale::random_schema(n, seed);
        prop_assert!(multi::combine_sources("sources", &[&dtd, &dtd]).is_err());
        let a = multi::prefix_types(&dtd, "a_");
        let b = multi::prefix_types(&dtd, "b_");
        let combined = multi::combine_sources("sources", &[&a, &b]).unwrap();
        prop_assert!(combined.is_consistent());
        prop_assert_eq!(combined.type_count(), 1 + 2 * dtd.type_count());
    }
}

// XML text round trips beyond generated `word-N` values: markup-significant
// characters, non-ASCII text, character references, comments and PIs inside
// text, and hostile inputs that must be errors, never panics.

/// Text alphabet: markup-significant ASCII, whitespace of several kinds and
/// multi-byte UTF-8 (two, three and four bytes).
const TEXT_CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '<', '>', '&', '"', '\'', ';', '#', '\n', '\u{a0}', 'é', '✓', '中', '😀',
];
const TAGS: &[&str] = &["a", "b", "c-d", "e.f", "g:h", "i_9"];

/// A random string over [`TEXT_CHARS`] with at least one non-whitespace
/// character (whitespace-only text is dropped by the parser).
fn random_text(rng: &mut StdRng) -> String {
    let len = rng.random_range(1usize..12);
    let mut s: String = (0..len).map(|_| *TEXT_CHARS.choose(rng).unwrap()).collect();
    if s.chars().all(char::is_whitespace) {
        s.push('w');
    }
    s
}

/// A random tree with mixed content: elements from [`TAGS`] and text from
/// [`random_text`], never two text siblings in a row (the parser would
/// merge them).
fn random_mixed_tree(rng: &mut StdRng, max_nodes: usize) -> XmlTree {
    let mut t = XmlTree::new(*TAGS.choose(rng).unwrap());
    let mut open = vec![t.root()];
    let mut last_was_text = false;
    while t.len() < max_nodes && !open.is_empty() {
        let parent = *open.last().unwrap();
        match rng.random_range(0u32..4) {
            0 => {
                open.pop();
                last_was_text = false;
            }
            1 if !last_was_text => {
                let text = random_text(rng);
                t.add_text(parent, text);
                last_was_text = true;
            }
            _ => {
                let child = t.add_element(parent, *TAGS.choose(rng).unwrap());
                open.push(child);
                last_was_text = false;
            }
        }
    }
    t
}

/// `s` written as XML character data with every character spelled one of
/// the ways the parser accepts: literally (unless special), as a
/// predefined entity, or as a decimal or hex character reference.
fn spell_text(rng: &mut StdRng, s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        let named = match c {
            '<' => Some("&lt;"),
            '>' => Some("&gt;"),
            '&' => Some("&amp;"),
            '"' => Some("&quot;"),
            '\'' => Some("&apos;"),
            _ => None,
        };
        match rng.random_range(0u32..4) {
            0 => out.push_str(&format!("&#{};", c as u32)),
            1 => out.push_str(&format!("&#x{:X};", c as u32)),
            _ => match named {
                Some(entity) => out.push_str(entity),
                None => out.push(c),
            },
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Mixed-content trees whose text holds `<>&"'` and non-ASCII
    /// characters survive a compact round trip, and the compact text is a
    /// fixed point: `to_xml(parse_xml(s)) == s` byte for byte.
    #[test]
    fn special_text_roundtrips_byte_identically(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = random_mixed_tree(&mut rng, 60);
        let s = t.to_xml();
        let back = parse_xml(&s).unwrap();
        prop_assert!(back.equals(&t), "{:?}", back.first_difference(&t));
        prop_assert_eq!(back.to_xml(), s);
    }

    /// Entities and character references decode to the characters they
    /// spell, wherever they fall in a text run.
    #[test]
    fn character_references_decode(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = random_text(&mut rng);
        let src = format!("<r>{}</r>", spell_text(&mut rng, &value));
        let t = parse_xml(&src).unwrap();
        let text = t.children(t.root()).first().and_then(|&c| t.text_value(c));
        prop_assert_eq!(text, Some(value.as_str()), "{}", src);
    }

    /// Comments and PIs inside text neither split nor end the run: the
    /// segments around them form one text node.
    #[test]
    fn comments_and_pis_inside_text_are_skipped(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let segments: Vec<String> =
            (0..rng.random_range(2usize..6)).map(|_| random_text(&mut rng)).collect();
        let mut src = String::from("<r>");
        for (i, seg) in segments.iter().enumerate() {
            if i > 0 {
                src.push_str(if rng.random_bool(0.5) { "<!-- c<>& -->" } else { "<?pi a&b<?>" });
            }
            src.push_str(&spell_text(&mut rng, seg));
        }
        src.push_str("</r>");
        let t = parse_xml(&src).unwrap();
        prop_assert_eq!(t.child_count(t.root()), 1, "{}", src);
        let text = t.text_value(t.children(t.root())[0]);
        prop_assert_eq!(text, Some(segments.concat().as_str()), "{}", src);
    }

    /// Arbitrary strings over a markup-heavy alphabet parse or fail, never
    /// panic; whatever parses re-serializes to an equal tree.
    #[test]
    fn parse_never_panics_on_arbitrary_text(seed in 0u64..10_000) {
        const ALPHABET: &[char] = &[
            '<', '>', '/', '!', '?', '-', '&', '#', ';', 'x', '[', ']', '=', '"', ' ', 'a',
            'b', '1', 'é', '\u{a0}',
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.random_range(0usize..40);
        let mut s: String = (0..len).map(|_| *ALPHABET.choose(&mut rng).unwrap()).collect();
        if rng.random_bool(0.5) {
            s.insert_str(0, "<a>");
        }
        if let Ok(t) = parse_xml(&s) {
            let back = parse_xml(&t.to_xml()).unwrap();
            prop_assert!(back.equals(&t), "{:?}", s);
        }
    }

    /// Valid documents with a few bytes overwritten, deleted or inserted
    /// parse or fail, never panic; whatever parses round-trips.
    #[test]
    fn parse_never_panics_on_mutated_documents(seed in 0u64..10_000) {
        const BYTES: &[u8] = b"<>/!?-&#;x=\" a\xC3\xA9\xFF";
        let mut rng = StdRng::seed_from_u64(seed);
        let mut doc = random_mixed_tree(&mut rng, 30).to_xml().into_bytes();
        for _ in 0..rng.random_range(1usize..4) {
            let at = rng.random_range(0..doc.len());
            let b = *BYTES.choose(&mut rng).unwrap();
            match rng.random_range(0u32..3) {
                0 => doc[at] = b,
                1 => {
                    doc.remove(at);
                }
                _ => doc.insert(at, b),
            }
            if doc.is_empty() {
                break;
            }
        }
        let s = String::from_utf8_lossy(&doc);
        if let Ok(t) = parse_xml(&s) {
            let back = parse_xml(&t.to_xml()).unwrap();
            prop_assert!(back.equals(&t), "{:?}", s);
        }
    }
}
