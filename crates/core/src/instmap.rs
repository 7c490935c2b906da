//! Algorithm `InstMap` (Figure 5): the instance-level mapping `σd`.
//!
//! `σd(T1)` is built top-down: start from the target root (the image of the
//! source root), repeatedly take a hot node `h` — the image of some source
//! node `v` — and replace it with the production fragment of `v`, whose hot
//! leaves enqueue `v`'s children. Every source node enters the worklist
//! exactly once, so the construction is linear in `|T1| + |T2|`. The node id
//! mapping `idM` is recorded as fragments are materialized (line 6 of the
//! paper's listing), for both element images and copied text nodes.
//!
//! [`CompiledEmbedding::apply_batch`] fans a slice of documents out over
//! scoped threads: the engine is `Send + Sync`, each document is mapped
//! independently, and results come back in input order — bit-identical to
//! running [`CompiledEmbedding::apply`] sequentially.

use xse_dtd::Production;
use xse_xmltree::{NodeId, XmlTree};

use crate::pfrag::{intern_target_tags, materialize, Emitter, Fragment, HotLeaf, Leaves, Terminal};
use crate::{CompiledEmbedding, EmbeddingError, MappingOutput};

/// Per-thread chunking floor for [`CompiledEmbedding::apply_batch`]: with
/// fewer total source nodes than this per thread, spawn overhead dominates
/// and the batch falls back to fewer threads (or a plain sequential loop).
const MIN_NODES_PER_THREAD: usize = 8192;

impl CompiledEmbedding {
    /// Apply `σd` to a source document. The input is validated against the
    /// source DTD first; the output is guaranteed to conform to the target
    /// DTD (Theorem 4.1 — and `debug_assert`ed in tests via
    /// [`crate::preserve`]).
    pub fn apply(&self, t1: &XmlTree) -> Result<MappingOutput, EmbeddingError> {
        self.source
            .validate(t1)
            .map_err(EmbeddingError::SourceInvalid)?;

        // The output grows linearly with the source (fragments are
        // schema-bounded); reserve 2× nodes up front so the arena rarely
        // reallocates, and intern the whole target tag alphabet once so the
        // emit loop never hashes a string.
        let mut t2 = XmlTree::with_capacity(
            self.target.name(self.target.root()),
            t1.len() * 2,
            t1.text_bytes() + 16,
        );
        let tags = intern_target_tags(&self.target, &mut t2);
        let em = Emitter {
            target: &self.target,
            plans: &self.plans,
            tags: &tags,
            src: Some(t1),
        };
        let mut idmap = xse_xmltree::IdMap::with_capacity(t1.len() * 2, t1.len());
        idmap.insert(t2.root(), t1.root());

        // Worklist of hot nodes: (source node, its target image, source type).
        let mut work: Vec<HotLeaf> = vec![HotLeaf {
            target: t2.root(),
            src: t1.root(),
            src_type: self.source.root(),
        }];
        let mut leaves = Leaves::default();

        while let Some(h) = work.pop() {
            let fragment = self.fragment_of(t1, h.src, h.src_type);
            materialize(fragment, &em, &mut t2, h.target, &mut leaves);
            for leaf in leaves.hot.drain(..) {
                idmap.insert(leaf.target, leaf.src);
                work.push(leaf);
            }
            for tc in leaves.texts.drain(..) {
                idmap.insert(tc.target, tc.src);
            }
        }
        // Compact the sibling links into CSR spans now, so consumers start
        // with slice-backed children() immediately.
        t2.freeze();
        Ok(MappingOutput { tree: t2, idmap })
    }

    /// Apply `σd` to every document of a batch, fanning the work out over
    /// as many scoped threads as the machine offers. Results come back in
    /// input order and are identical to mapping each document with
    /// [`CompiledEmbedding::apply`] — the engine is immutable and shared by
    /// reference, so parallelism cannot change outputs.
    pub fn apply_batch(&self, docs: &[XmlTree]) -> Vec<Result<MappingOutput, EmbeddingError>> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.apply_batch_with(docs, threads)
    }

    /// [`CompiledEmbedding::apply_batch`] with an explicit thread count.
    ///
    /// The effective parallelism is clamped to `1..=docs.len()` *and* by the
    /// total work: tiny batches (fewer than `MIN_NODES_PER_THREAD` source
    /// nodes per thread) use fewer threads, down to a plain sequential loop,
    /// so the batch path is never slower than sequential on small inputs.
    /// Chunks are contiguous and balanced by node counts, not document
    /// counts, so one huge document does not serialize the batch.
    pub fn apply_batch_with(
        &self,
        docs: &[XmlTree],
        threads: usize,
    ) -> Vec<Result<MappingOutput, EmbeddingError>> {
        let sizes: Vec<usize> = docs.iter().map(|t1| t1.len()).collect();
        let total: usize = sizes.iter().sum();
        let threads = threads
            .clamp(1, docs.len().max(1))
            .min((total / MIN_NODES_PER_THREAD).max(1));
        if threads <= 1 {
            return docs.iter().map(|t1| self.apply(t1)).collect();
        }
        let ends = chunk_ends(&sizes, threads);
        let mut results: Vec<Option<Result<MappingOutput, EmbeddingError>>> =
            (0..docs.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut docs_rest = docs;
            let mut out_rest = &mut results[..];
            let mut prev = 0;
            for &end in &ends {
                let (in_chunk, dr) = docs_rest.split_at(end - prev);
                let (out_chunk, or) = out_rest.split_at_mut(end - prev);
                (docs_rest, out_rest, prev) = (dr, or, end);
                scope.spawn(move || {
                    for (t1, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                        *slot = Some(self.apply(t1));
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("chunking covers every input document"))
            .collect()
    }

    /// Assemble the (uncompleted) fragment of source node `v` of type `a`.
    fn fragment_of(&self, t1: &XmlTree, v: NodeId, a: xse_dtd::TypeId) -> Fragment {
        let mut frag = Fragment::new(self.lambda.get(a));
        let paths = self.paths_of(a);
        match self.source.production(a) {
            Production::Empty => {}
            Production::Str => {
                // The value is copied from the source at materialization
                // time — the fragment only references the text node.
                let text_node = t1.children(v)[0];
                frag.add_chain(&paths[0].steps, Terminal::Text { src: text_node });
            }
            Production::Concat(cs) => {
                for (slot, (&child, &cty)) in t1.children(v).iter().zip(cs.iter()).enumerate() {
                    frag.add_chain(
                        &paths[slot].steps,
                        Terminal::Hot {
                            src: child,
                            src_type: cty,
                        },
                    );
                }
            }
            Production::Disjunction { alts, .. } => {
                if let Some(&child) = t1.children(v).first() {
                    let tag = t1.tag(child).expect("validated: element child");
                    let slot = alts
                        .iter()
                        .position(|&alt| self.source.name(alt) == tag)
                        .expect("validated: child is an alternative");
                    frag.add_chain(
                        &paths[slot].steps,
                        Terminal::Hot {
                            src: child,
                            src_type: alts[slot],
                        },
                    );
                }
            }
            Production::Star(b) => {
                let terminals: Vec<Terminal> = t1
                    .children(v)
                    .iter()
                    .map(|&c| Terminal::Hot {
                        src: c,
                        src_type: *b,
                    })
                    .collect();
                frag.add_star_chains(&paths[0], terminals);
            }
        }
        frag
    }
}

/// Cut `sizes` into at most `parts` contiguous chunks of roughly equal
/// weight, returning the exclusive end index of each chunk. Every item is
/// covered; chunks are nonempty.
fn chunk_ends(sizes: &[usize], parts: usize) -> Vec<usize> {
    let total: usize = sizes.iter().sum();
    let target = total.div_ceil(parts.max(1)).max(1);
    let mut ends = Vec::with_capacity(parts);
    let mut acc = 0;
    for (i, &s) in sizes.iter().enumerate() {
        acc += s;
        if acc >= target {
            ends.push(i + 1);
            acc = 0;
        }
    }
    if ends.last() != Some(&sizes.len()) && !sizes.is_empty() {
        ends.push(sizes.len());
    }
    ends
}

#[cfg(test)]
mod chunk_tests {
    use super::chunk_ends;

    #[test]
    fn covers_all_items_without_empty_chunks() {
        for (sizes, parts) in [
            (vec![1usize; 10], 3),
            (vec![100, 1, 1, 1, 1, 1], 4),
            (vec![5], 8),
            (vec![0, 0, 7, 0], 2),
        ] {
            let ends = chunk_ends(&sizes, parts);
            assert!(ends.len() <= parts.max(1), "{sizes:?} → {ends:?}");
            assert_eq!(*ends.last().unwrap(), sizes.len());
            let mut prev = 0;
            for &e in &ends {
                assert!(e > prev, "empty chunk in {ends:?}");
                prev = e;
            }
        }
    }

    #[test]
    fn balances_by_weight_not_count() {
        // One huge document followed by many small ones: the huge one gets
        // its own chunk instead of dragging half the batch with it.
        let sizes = [1000, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10];
        let ends = chunk_ends(&sizes, 2);
        assert_eq!(ends[0], 1, "heavy head is isolated: {ends:?}");
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::embedding::tests::{wrap, wrap_compiled};
    use crate::{CompiledEmbedding, EmbeddingBuilder};
    use xse_dtd::Dtd;
    use xse_xmltree::parse_xml;

    #[test]
    fn wrap_mapping_builds_expected_tree() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let t1 = parse_xml("<r><a>hi</a><b><c>1</c><c>2</c></b></r>").unwrap();
        let out = e.apply(&t1).unwrap();
        s2.validate(&out.tree).unwrap();
        assert_eq!(
            out.tree.to_xml(),
            "<r><x><a>hi</a><pad>#s</pad></x><y><w><c2><c>1</c></c2><c2><c>2</c></c2></w></y></r>"
        );
        // idM covers every source node: r, a, b, two c's, three text nodes.
        assert_eq!(out.idmap.len(), t1.len());
    }

    #[test]
    fn wrap_mapping_with_empty_star() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let t1 = parse_xml("<r><a>z</a><b/></r>").unwrap();
        let out = e.apply(&t1).unwrap();
        s2.validate(&out.tree).unwrap();
        assert_eq!(
            out.tree.to_xml(),
            "<r><x><a>z</a><pad>#s</pad></x><y><w/></y></r>"
        );
    }

    #[test]
    fn rejects_nonconforming_input() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let bad = parse_xml("<r><b/><a>z</a></r>").unwrap();
        assert!(matches!(
            e.apply(&bad),
            Err(crate::EmbeddingError::SourceInvalid(_))
        ));
    }

    #[test]
    fn batch_equals_sequential_and_keeps_order() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let docs: Vec<_> = (0..9)
            .map(|i| {
                let body: String = (0..i).map(|j| format!("<c>{j}</c>")).collect();
                parse_xml(&format!("<r><a>d{i}</a><b>{body}</b></r>")).unwrap()
            })
            .collect();
        let sequential: Vec<_> = docs.iter().map(|d| e.apply(d).unwrap()).collect();
        for threads in [1, 2, 4, 32] {
            let batch = e.apply_batch_with(&docs, threads);
            assert_eq!(batch.len(), docs.len());
            for (got, want) in batch.into_iter().zip(sequential.iter()) {
                let got = got.unwrap();
                assert_eq!(got.tree.to_xml(), want.tree.to_xml());
                assert_eq!(got.idmap.len(), want.idmap.len());
            }
        }
    }

    #[test]
    fn batch_reports_per_document_errors_in_place() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let good = parse_xml("<r><a>x</a><b/></r>").unwrap();
        let bad = parse_xml("<r><b/><a>x</a></r>").unwrap();
        let docs = vec![good.clone(), bad, good];
        let out = e.apply_batch_with(&docs, 3);
        assert!(out[0].is_ok());
        assert!(matches!(
            out[1],
            Err(crate::EmbeddingError::SourceInvalid(_))
        ));
        assert!(out[2].is_ok());
    }

    /// Example 4.2 / 4.4: the class DTD S0 into the school DTD S.
    pub(crate) fn fig1() -> (Dtd, Dtd) {
        let s0 = Dtd::builder("db")
            .star("db", "class")
            .concat("class", &["cno", "title", "type"])
            .str_type("cno")
            .str_type("title")
            .disjunction("type", &["regular", "project"])
            .concat("regular", &["prereq"])
            .star("prereq", "class")
            .str_type("project")
            .build()
            .unwrap();
        let s = Dtd::builder("school")
            .concat("school", &["courses", "students"])
            .concat("courses", &["history", "current"])
            .star("history", "course")
            .star("current", "course")
            .concat("course", &["basic", "category"])
            .concat("basic", &["cno", "credit", "class"])
            .str_type("cno")
            .str_type("credit")
            .star("class", "semester")
            .concat("semester", &["title", "year", "term", "instructor"])
            .str_type("title")
            .str_type("year")
            .str_type("term")
            .str_type("instructor")
            .disjunction("category", &["mandatory", "advanced"])
            .disjunction("mandatory", &["regular", "lab"])
            .concat("advanced", &["project"])
            .str_type("project")
            .concat("regular", &["required"])
            .star("required", "prereq")
            .star("prereq", "course")
            .str_type("lab")
            .concat("students", &["student"])
            .concat("student", &["ssn"])
            .str_type("ssn")
            .build()
            .unwrap();
        (s0, s)
    }

    pub(crate) fn fig1_embedding(s0: &Dtd, s: &Dtd) -> CompiledEmbedding {
        EmbeddingBuilder::new(s0.clone(), s.clone())
            .map_type("db", "school")
            .map_type("class", "course")
            .map_type("type", "category")
            .edge("db", "class", "courses/current/course")
            .edge("class", "cno", "basic/cno")
            .edge(
                "class",
                "title",
                "basic/class/semester[position() = 1]/title",
            )
            .edge("class", "type", "category")
            .edge("type", "regular", "mandatory/regular")
            .edge("type", "project", "advanced/project")
            .edge("regular", "prereq", "required/prereq")
            .edge("prereq", "class", "course")
            .text_edge("cno", "text()")
            .text_edge("title", "text()")
            .text_edge("project", "text()")
            .build()
            .unwrap()
    }

    #[test]
    fn example_4_4_school_mapping() {
        let (s0, s) = fig1();
        let e = fig1_embedding(&s0, &s);
        let t1 = parse_xml(
            "<db>\
               <class><cno>CS331</cno><title>DB</title><type><regular><prereq>\
                  <class><cno>CS240</cno><title>Algo</title><type><project>p1</project></type></class>\
               </prereq></regular></type></class>\
             </db>",
        )
        .unwrap();
        let out = e.apply(&t1).unwrap();
        s.validate(&out.tree).unwrap();
        let xml = out.tree.to_xml();
        // Structure from Example 4.4: history gets its minimum default
        // (empty), current carries the course; basic has cno hot, credit
        // default, single semester with title hot and defaults for the rest.
        assert!(xml.starts_with("<school><courses><history/><current><course>"));
        assert!(xml.contains("<basic><cno>CS331</cno><credit>#s</credit><class><semester><title>DB</title><year>#s</year><term>#s</term><instructor>#s</instructor></semester></class></basic>"));
        assert!(xml.contains("<category><mandatory><regular><required><prereq><course>"));
        assert!(xml.contains("<cno>CS240</cno>"));
        assert!(xml.contains("<advanced><project>p1</project></advanced>"));
        // The unmapped students subtree is a minimum default instance.
        assert!(xml.ends_with("<students><student><ssn>#s</ssn></student></students></school>"));
    }

    #[test]
    fn star_with_zero_children_still_emits_prefix() {
        let (s0, s) = fig1();
        let e = fig1_embedding(&s0, &s);
        let t1 = parse_xml("<db/>").unwrap();
        let out = e.apply(&t1).unwrap();
        s.validate(&out.tree).unwrap();
        // courses/current must exist (prefix of the star path) but hold no
        // course children.
        assert!(out
            .tree
            .to_xml()
            .starts_with("<school><courses><history/><current/></courses>"));
    }

    #[test]
    fn star_children_keep_order() {
        let (s0, s) = fig1();
        let e = fig1_embedding(&s0, &s);
        let t1 = parse_xml(
            "<db>\
               <class><cno>A1</cno><title>t</title><type><project>x</project></type></class>\
               <class><cno>B2</cno><title>t</title><type><project>y</project></type></class>\
               <class><cno>C3</cno><title>t</title><type><project>z</project></type></class>\
             </db>",
        )
        .unwrap();
        let out = e.apply(&t1).unwrap();
        let xml = out.tree.to_xml();
        let a = xml.find("A1").unwrap();
        let b = xml.find("B2").unwrap();
        let c = xml.find("C3").unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn injectivity_of_idmap() {
        // idM is a bijection between mapped nodes; IdMap::insert enforces
        // this with panics — surviving apply() is the assertion.
        let (s0, s) = fig1();
        let e = fig1_embedding(&s0, &s);
        let t1 = parse_xml(
            "<db><class><cno>X</cno><title>t</title><type><project>p</project></type></class></db>",
        )
        .unwrap();
        let out = e.apply(&t1).unwrap();
        assert_eq!(out.idmap.len(), t1.len(), "every source node is mapped");
    }
}
