//! Algorithm `InstMap` (Figure 5): the instance-level mapping `σd`.
//!
//! The paper builds `σd(T1)` top-down: every source node `v` of type `A`
//! expands to its production fragment, whose hot leaves are the images of
//! `v`'s children. The fragment's shape depends only on the schema (§4.3),
//! so the engine compiles it once: each source type's fragment is a flat
//! program of open / close / default-text ops with chain endpoints marked
//! (`pfrag::compile`, run when the engine is built). `apply` replays those
//! programs for each source node in document order, on an explicit stack
//! rather than the call stack. At a chain's endpoint the emitter either
//! copies the node's text value or descends into the child's own program;
//! a star's repetition program runs once per child. Every source node is
//! visited once, so the construction is linear in `|T1| + |T2|`.
//!
//! One emitter writes into either of two sinks:
//! - [`CompiledEmbedding::apply`] builds the output tree and records the
//!   node id mapping `idM` as it goes (line 6 of the paper's listing), for
//!   both element images and copied text nodes;
//! - [`CompiledEmbedding::apply_to_xml`] writes compact XML text through
//!   [`XmlWriter`], the writer behind [`XmlTree::to_xml`], so its bytes are
//!   those of `apply(t1)?.tree.to_xml()` with no tree in between.

use xse_dtd::{Dtd, TypeId, DEFAULT_STRING};
use xse_xmltree::{IdMap, NodeId, TagId, XmlTree, XmlWriter};

use crate::pfrag::{intern_target_tags, Op, Program};
use crate::{CompiledEmbedding, EmbeddingError, MappingOutput};

/// Where the emitter writes `σd(T1)`. The sink starts inside the target
/// root element, which is the current element.
trait Sink {
    /// Append an element of target type `ty` to the current element; it
    /// becomes the current element.
    fn open(&mut self, ty: TypeId);
    /// Close the current element, of target type `ty`.
    fn close(&mut self, ty: TypeId);
    /// Append a text node to the current element.
    fn text(&mut self, value: &str);
    /// Append a copy of source text node `src`, whose value is `value`.
    fn copy_text(&mut self, src: NodeId, value: &str);
    /// The current element is the image of source node `src`.
    fn image(&mut self, src: NodeId);
}

/// The sink behind `apply`: the output tree and `idM`.
struct TreeSink {
    tree: XmlTree,
    idmap: IdMap,
    /// `tags[ty.index()]` is target type `ty`'s tag in `tree`.
    tags: Vec<TagId>,
    cur: NodeId,
}

impl Sink for TreeSink {
    fn open(&mut self, ty: TypeId) {
        self.cur = self.tree.add_element_tag(self.cur, self.tags[ty.index()]);
    }

    fn close(&mut self, _: TypeId) {
        self.cur = self.tree.parent(self.cur).expect("closes match opens");
    }

    fn text(&mut self, value: &str) {
        self.tree.add_text(self.cur, value);
    }

    fn copy_text(&mut self, src: NodeId, value: &str) {
        let copy = self.tree.add_text(self.cur, value);
        self.idmap.insert(copy, src);
    }

    fn image(&mut self, src: NodeId) {
        self.idmap.insert(self.cur, src);
    }
}

/// The sink behind `apply_to_xml`: compact XML text, and no `idM`.
struct TextSink<'a> {
    out: XmlWriter,
    target: &'a Dtd,
}

impl Sink for TextSink<'_> {
    fn open(&mut self, ty: TypeId) {
        self.out.start(self.target.name(ty));
    }

    fn close(&mut self, ty: TypeId) {
        self.out.end(self.target.name(ty));
    }

    fn text(&mut self, value: &str) {
        self.out.text(value);
    }

    fn copy_text(&mut self, _: NodeId, value: &str) {
        self.out.text(value);
    }

    fn image(&mut self, _: NodeId) {}
}

/// What the `End` ops of a running program bind to.
#[derive(Clone, Copy)]
enum Ends<'p> {
    /// Chain `i` ends at the image of child `i`, of source type `types[i]`.
    Children(&'p [TypeId]),
    /// The chain ends where the node's text value is copied.
    Text,
    /// The chain ends at the star parent, where `rep` runs once per child.
    StarParent { rep: &'p [Op], child: TypeId },
    /// Repetition `k` of a star: the chain ends at the image of child `k`.
    Repetition { k: usize, child: TypeId },
}

/// One program running for a source node whose children are `kids`.
struct Frame<'p> {
    ops: &'p [Op],
    pc: usize,
    kids: &'p [NodeId],
    ends: Ends<'p>,
}

impl CompiledEmbedding {
    /// Apply `σd` to a source document. The input is validated against the
    /// source DTD first; the output is guaranteed to conform to the target
    /// DTD (Theorem 4.1 — and `debug_assert`ed in tests via
    /// [`crate::preserve`]).
    pub fn apply(&self, t1: &XmlTree) -> Result<MappingOutput, EmbeddingError> {
        let src_tags = self.validated_tags(t1)?;
        // The output grows linearly with the source (fragments are
        // schema-bounded); reserve 2× nodes up front so the arena rarely
        // reallocates, and intern the whole target tag alphabet once so the
        // emit loop never hashes a string.
        let mut tree = XmlTree::with_capacity(
            self.target.name(self.target.root()),
            t1.len() * 2,
            t1.text_bytes() + 16,
        );
        let tags = intern_target_tags(&self.target, &mut tree);
        let mut idmap = IdMap::with_capacity(t1.len() * 2, t1.len());
        idmap.insert(tree.root(), t1.root());
        let mut sink = TreeSink {
            cur: tree.root(),
            tree,
            idmap,
            tags,
        };
        self.emit(t1, &src_tags, &mut sink);
        let TreeSink {
            mut tree, idmap, ..
        } = sink;
        // Build the CSR spans now, so consumers start with slice-backed
        // children() immediately.
        tree.freeze();
        Ok(MappingOutput { tree, idmap })
    }

    /// Apply `σd` to a source document and return the output as compact
    /// XML text: exactly `self.apply(t1)?.tree.to_xml()`, written straight
    /// from the compiled programs without building the output tree or
    /// `idM`. The input is validated against the source DTD first.
    pub fn apply_to_xml(&self, t1: &XmlTree) -> Result<String, EmbeddingError> {
        let src_tags = self.validated_tags(t1)?;
        let root = self.target.root();
        let mut sink = TextSink {
            // Presize generously: fragments add markup of their own, and
            // growing the buffer by doubling, with a copy each time,
            // measurably slowed the served Apply.
            out: XmlWriter::with_capacity(2 * t1.text_bytes() + 32 * t1.len()),
            target: &self.target,
        };
        sink.open(root);
        self.emit(t1, &src_tags, &mut sink);
        sink.close(root);
        Ok(sink.out.finish())
    }

    /// Validate `t1` against the source DTD, and return the source types'
    /// tags in `t1` ([`Dtd::tag_ids`]).
    fn validated_tags(&self, t1: &XmlTree) -> Result<Vec<Option<TagId>>, EmbeddingError> {
        self.source
            .validate(t1)
            .map_err(EmbeddingError::SourceInvalid)?;
        Ok(self.source.tag_ids(t1))
    }

    /// Run the compiled programs over the validated `t1` in document order,
    /// into `sink`, whose current element is the image of `t1`'s root.
    /// `src_tags[a.index()]` is source type `a`'s tag in `t1`.
    fn emit(&self, t1: &XmlTree, src_tags: &[Option<TagId>], sink: &mut impl Sink) {
        let mut stack = vec![self.enter(t1, src_tags, t1.root(), self.source.root())];
        while let Some(frame) = stack.last_mut() {
            let Some(&op) = frame.ops.get(frame.pc) else {
                // The program is done; a star runs its next repetition.
                match &mut frame.ends {
                    Ends::Repetition { k, .. } if *k + 1 < frame.kids.len() => {
                        *k += 1;
                        frame.pc = 0;
                    }
                    _ => {
                        stack.pop();
                    }
                }
                continue;
            };
            frame.pc += 1;
            let i = match op {
                Op::Open(ty) => {
                    sink.open(ty);
                    continue;
                }
                Op::Close(ty) => {
                    sink.close(ty);
                    continue;
                }
                Op::DefaultText => {
                    sink.text(DEFAULT_STRING);
                    continue;
                }
                Op::End(i) => i,
            };
            let kids = frame.kids;
            let (child, ty) = match frame.ends {
                Ends::Children(types) => (kids[i], types[i]),
                Ends::Repetition { k, child } => (kids[k], child),
                Ends::Text => {
                    // Validated: a str node holds exactly one text node.
                    let text = kids[0];
                    sink.copy_text(text, t1.text_value(text).unwrap_or_default());
                    continue;
                }
                Ends::StarParent { rep, child } => {
                    if !kids.is_empty() {
                        stack.push(Frame {
                            ops: rep,
                            pc: 0,
                            kids,
                            ends: Ends::Repetition { k: 0, child },
                        });
                    }
                    continue;
                }
            };
            sink.image(child);
            stack.push(self.enter(t1, src_tags, child, ty));
        }
    }

    /// The frame that runs source node `node`'s program (its type is `ty`);
    /// a disjunction's program is picked by its child's tag.
    fn enter<'p>(
        &'p self,
        t1: &'p XmlTree,
        src_tags: &[Option<TagId>],
        node: NodeId,
        ty: TypeId,
    ) -> Frame<'p> {
        let kids = t1.children(node);
        let (ops, ends): (&[Op], _) = match &self.programs[ty.index()] {
            Program::Concat { ops, children } => (ops, Ends::Children(children)),
            Program::Str(ops) => (ops, Ends::Text),
            Program::Choice { alts, none } => match kids.first() {
                None => (
                    none.as_deref().expect("validated: the empty alternative"),
                    Ends::Children(&[]),
                ),
                Some(&child) => {
                    let tag = t1.node_tag_id(child);
                    let (alt, ops) = alts
                        .iter()
                        .find(|(alt, _)| src_tags[alt.index()] == tag)
                        .expect("validated: the child is an alternative");
                    (ops, Ends::Children(std::slice::from_ref(alt)))
                }
            },
            Program::Star { child, prefix, rep } => {
                (prefix, Ends::StarParent { rep, child: *child })
            }
        };
        Frame {
            ops,
            pc: 0,
            kids,
            ends,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::embedding::tests::{wrap, wrap_compiled};
    use crate::pfrag::{Op, Program};
    use crate::{CompiledEmbedding, EmbeddingBuilder};
    use xse_dtd::Dtd;
    use xse_xmltree::{parse_xml, XmlTree};

    /// Map `t1` into both sinks: the text must be exactly the tree's
    /// `to_xml`, the tree must be valid against the target, and idM must
    /// map every source node. Returns the text.
    fn both_sinks(e: &CompiledEmbedding, t1: &XmlTree) -> String {
        let out = e.apply(t1).unwrap();
        e.target().validate(&out.tree).unwrap();
        assert_eq!(out.idmap.len(), t1.len(), "idM maps every source node");
        let text = e.apply_to_xml(t1).unwrap();
        assert_eq!(text, out.tree.to_xml());
        text
    }

    #[test]
    fn sinks_agree_on_an_empty_element_and_a_star_with_no_repetitions() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let t1 = parse_xml("<r><a>z</a><b/></r>").unwrap();
        assert_eq!(
            both_sinks(&e, &t1),
            "<r><x><a>z</a><pad>#s</pad></x><y><w/></y></r>"
        );
    }

    #[test]
    fn sinks_agree_on_an_empty_text_value() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let mut t1 = XmlTree::new("r");
        let a = t1.add_element(t1.root(), "a");
        t1.add_text(a, "");
        let b = t1.add_element(t1.root(), "b");
        let c = t1.add_element(b, "c");
        t1.add_text(c, "");
        assert_eq!(
            both_sinks(&e, &t1),
            "<r><x><a></a><pad>#s</pad></x><y><w><c2><c></c></c2></w></y></r>"
        );
    }

    #[test]
    fn sinks_agree_on_escaped_values_under_text_only_str_paths() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        // `a`'s path is `text()`: a chain with no steps, which ends at the
        // fragment root, so the program is that one endpoint.
        let a = s1.type_id("a").unwrap();
        assert!(matches!(&e.programs[a.index()], Program::Str(ops) if **ops == [Op::End(0)]));
        let t1 =
            parse_xml("<r><a>&amp;&lt;&gt;&quot;&apos;</a><b><c>'</c><c>&lt;</c></b></r>").unwrap();
        assert_eq!(
            both_sinks(&e, &t1),
            "<r><x><a>&amp;&lt;&gt;&quot;&apos;</a><pad>#s</pad></x>\
             <y><w><c2><c>&apos;</c></c2><c2><c>&lt;</c></c2></w></y></r>"
        );
    }

    #[test]
    fn sinks_agree_on_an_empty_alternative() {
        let s = Dtd::builder("r")
            .concat("r", &["t"])
            .disjunction_opt("t", &["u", "v"])
            .empty("u")
            .str_type("v")
            .build()
            .unwrap();
        let e = EmbeddingBuilder::new(s.clone(), s)
            .edge("r", "t", "t")
            .edge("t", "u", "u")
            .edge("t", "v", "v")
            .text_edge("v", "text()")
            .build()
            .unwrap();
        for xml in [
            "<r><t/></r>",
            "<r><t><u/></t></r>",
            "<r><t><v>x</v></t></r>",
        ] {
            assert_eq!(both_sinks(&e, &parse_xml(xml).unwrap()), xml);
        }
    }

    /// 100,000 levels under the recursive identity pair `a → a*`, on a
    /// 2 MiB thread (a server connection thread's stack): validation, the
    /// emitter and both sinks loop instead of recursing.
    #[test]
    fn deep_document_maps_on_a_2_mib_stack() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let d = Dtd::builder("a").star("a", "a").build().unwrap();
                let e = EmbeddingBuilder::new(d.clone(), d)
                    .edge("a", "a", "a")
                    .build()
                    .unwrap();
                let mut t1 = XmlTree::new("a");
                let mut cur = t1.root();
                for _ in 0..100_000 {
                    cur = t1.add_element(cur, "a");
                }
                let xml = t1.to_xml();
                let out = e.apply(&t1).unwrap();
                assert_eq!(out.idmap.len(), t1.len());
                assert!(
                    out.tree.to_xml() == xml,
                    "identity pair changed the document"
                );
                assert!(e.apply_to_xml(&t1).unwrap() == xml, "text path changed it");
            })
            .expect("spawn test thread")
            .join()
            .expect("mapped without overflowing the stack");
    }

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
