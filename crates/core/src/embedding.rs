//! The compiled embedding engine: [`EmbeddingBuilder`] assembles a mapping
//! `σ = (λ, path)`, [`CompiledEmbedding`] validates it once and serves every
//! derived operation (`σd`, `σd⁻¹`, `Tr`, stylesheet generation) from
//! precomputed state.

use std::sync::Arc;

use xse_dtd::{Dtd, EdgeTarget, MindefPlan, SchemaGraph, TypeId};
use xse_rxpath::XrPath;
use xse_xmltree::{IdMap, XmlTree};

use crate::resolve::{resolve_path, ResolvedPath};
use crate::{EmbeddingError, SimilarityMatrix};

/// The type mapping `λ : E1 → E2` (total; `λ(r1) = r2`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeMapping {
    /// `map[a.index()]` is `λ(a)`.
    pub map: Vec<TypeId>,
}

impl TypeMapping {
    /// Build from a function over source types.
    pub fn from_fn(source: &Dtd, f: impl Fn(TypeId) -> TypeId) -> Self {
        TypeMapping {
            map: source.types().map(f).collect(),
        }
    }

    /// Map every source type to the target type with the same tag.
    ///
    /// # Errors
    /// [`EmbeddingError::UnknownType`] naming the first source tag the
    /// target lacks.
    pub fn by_same_name(source: &Dtd, target: &Dtd) -> Result<Self, EmbeddingError> {
        TypeMapping::by_name_pairs(source, target, &[])
    }

    /// Build from `(source tag, target tag)` pairs; tags not listed map by
    /// identical name.
    ///
    /// # Errors
    /// [`EmbeddingError::UnknownType`] naming the first target tag that
    /// does not exist.
    pub fn by_name_pairs(
        source: &Dtd,
        target: &Dtd,
        pairs: &[(&str, &str)],
    ) -> Result<Self, EmbeddingError> {
        let mut map = Vec::with_capacity(source.type_count());
        for a in source.types() {
            let name = source.name(a);
            let tgt_name = pairs
                .iter()
                .find(|(s, _)| *s == name)
                .map(|(_, t)| *t)
                .unwrap_or(name);
            match target.type_id(tgt_name) {
                Some(b) => map.push(b),
                None => {
                    return Err(EmbeddingError::UnknownType {
                        which: "target",
                        name: tgt_name.to_string(),
                    })
                }
            }
        }
        Ok(TypeMapping { map })
    }

    /// `λ(a)`.
    pub fn get(&self, a: TypeId) -> TypeId {
        self.map[a.index()]
    }
}

/// The path function: one `XR` path per source schema-graph edge, indexed by
/// `(source type, edge slot)` in the order of
/// [`SchemaGraph::edges_from`].
///
/// This is the low-level representation used by discovery; applications
/// normally fill paths through [`EmbeddingBuilder::edge`], which resolves
/// `(parent, child)` names to slots and reports failures instead of
/// panicking.
#[derive(Clone, Debug, Default)]
pub struct PathMapping {
    /// `paths[a.index()][slot]`.
    pub paths: Vec<Vec<XrPath>>,
}

impl PathMapping {
    /// Start an empty mapping sized for `source` (every slot must be filled
    /// before compiling an embedding). The schema graph is built by the
    /// caller so it can be shared with other per-edge work.
    pub fn new_with_graph(source: &Dtd, graph: &SchemaGraph) -> Self {
        PathMapping {
            paths: source
                .types()
                .map(|t| vec![XrPath::new(Vec::new()); graph.edges_from(t).len()])
                .collect(),
        }
    }

    /// Start an empty mapping sized for `source`.
    pub fn new(source: &Dtd) -> Self {
        PathMapping::new_with_graph(source, &SchemaGraph::new(source))
    }

    /// Set the path of edge `slot` of type `a`.
    pub fn set(&mut self, a: TypeId, slot: usize, path: XrPath) {
        self.paths[a.index()][slot] = path;
    }

    /// The path at `(a, slot)`.
    pub fn get(&self, a: TypeId, slot: usize) -> &XrPath {
        &self.paths[a.index()][slot]
    }
}

/// The output of the instance mapping `σd`: the target document and the
/// node id mapping `idM` from target ids back to source ids.
#[derive(Clone, Debug)]
pub struct MappingOutput {
    /// `σd(T)` — conforms to the target DTD (Theorem 4.1).
    pub tree: XmlTree,
    /// `idM : dom(σd(T)) → dom(T)` (partial; injective).
    pub idmap: IdMap,
}

/// Fluent, fallible construction of a [`CompiledEmbedding`].
///
/// The builder owns both DTDs (behind [`Arc`], so sharing them is free),
/// builds the source schema graph **once**, and accumulates every problem —
/// unknown tags, missing children, unparsable paths — instead of panicking;
/// [`EmbeddingBuilder::build`] reports all of them at once.
///
/// ```
/// # use xse_core::{EmbeddingBuilder};
/// # use xse_dtd::Dtd;
/// # let s1 = Dtd::builder("r").concat("r", &["a"]).str_type("a").build().unwrap();
/// # let s2 = Dtd::builder("r").concat("r", &["x"]).concat("x", &["a"])
/// #     .str_type("a").build().unwrap();
/// let embedding = EmbeddingBuilder::new(s1, s2)
///     .edge("r", "a", "x/a")
///     .text_edge("a", "text()")
///     .build()
///     .unwrap();
/// assert_eq!(embedding.size(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct EmbeddingBuilder {
    source: Arc<Dtd>,
    target: Arc<Dtd>,
    /// Built once in [`EmbeddingBuilder::new`]; every `edge` call resolves
    /// its slot against this graph.
    src_graph: SchemaGraph,
    /// `map_type` overrides; unlisted types map by identical tag.
    pairs: Vec<(String, String)>,
    /// An explicit λ (overrides `pairs` when set).
    lambda: Option<TypeMapping>,
    paths: PathMapping,
    errors: Vec<EmbeddingError>,
}

impl EmbeddingBuilder {
    /// Start a builder for an embedding `source → target`.
    pub fn new(source: impl Into<Arc<Dtd>>, target: impl Into<Arc<Dtd>>) -> Self {
        let source = source.into();
        let src_graph = SchemaGraph::new(&source);
        let paths = PathMapping::new_with_graph(&source, &src_graph);
        EmbeddingBuilder {
            source,
            target: target.into(),
            src_graph,
            pairs: Vec::new(),
            lambda: None,
            paths,
            errors: Vec::new(),
        }
    }

    /// Declare `λ(source_tag) = target_tag`; types not listed map to the
    /// target type with the same tag. Re-mapping a tag replaces the earlier
    /// declaration (last wins).
    pub fn map_type(mut self, source_tag: &str, target_tag: &str) -> Self {
        if self.source.type_id(source_tag).is_none() {
            self.errors.push(EmbeddingError::UnknownType {
                which: "source",
                name: source_tag.to_string(),
            });
        }
        if self.target.type_id(target_tag).is_none() {
            self.errors.push(EmbeddingError::UnknownType {
                which: "target",
                name: target_tag.to_string(),
            });
        }
        match self
            .pairs
            .iter_mut()
            .find(|(s, _)| s.as_str() == source_tag)
        {
            Some((_, t)) => *t = target_tag.to_string(),
            None => self
                .pairs
                .push((source_tag.to_string(), target_tag.to_string())),
        }
        self
    }

    /// Provide the complete type mapping explicitly (used by discovery and
    /// tests; overrides any `map_type` calls).
    pub fn with_lambda(mut self, lambda: TypeMapping) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Provide a pre-filled path function (used by discovery; `edge` calls
    /// may still override individual slots afterwards).
    pub fn with_paths(mut self, paths: PathMapping) -> Self {
        self.paths = paths;
        self
    }

    /// Set the path of the edge from `parent` to its child named `child`
    /// (first matching slot; use [`EmbeddingBuilder::edge_at`] for repeated
    /// concatenation children). The path is parsed from `XR` syntax; every
    /// failure is recorded and reported by [`EmbeddingBuilder::build`].
    pub fn edge(mut self, parent: &str, child: &str, path: &str) -> Self {
        let Some(a) = self.source.type_id(parent) else {
            self.errors.push(EmbeddingError::UnknownType {
                which: "source",
                name: parent.to_string(),
            });
            return self;
        };
        let slot = self
            .src_graph
            .edges_from(a)
            .iter()
            .position(|e| match e.target {
                EdgeTarget::Type(t) => self.source.name(t) == child,
                EdgeTarget::Str => child == "str",
            });
        let Some(slot) = slot else {
            self.errors.push(EmbeddingError::UnknownChild {
                parent: parent.to_string(),
                child: child.to_string(),
            });
            return self;
        };
        self.set_parsed(a, slot, path);
        self
    }

    /// Set the path of edge `slot` of `parent` directly (repeated
    /// concatenation children have one slot per occurrence).
    pub fn edge_at(mut self, parent: &str, slot: usize, path: &str) -> Self {
        let Some(a) = self.source.type_id(parent) else {
            self.errors.push(EmbeddingError::UnknownType {
                which: "source",
                name: parent.to_string(),
            });
            return self;
        };
        if slot >= self.src_graph.edges_from(a).len() {
            self.errors.push(EmbeddingError::SlotOutOfRange {
                ty: parent.to_string(),
                slot,
                edges: self.src_graph.edges_from(a).len(),
            });
            return self;
        }
        self.set_parsed(a, slot, path);
        self
    }

    /// Set the `str` edge of a `A → str` type.
    pub fn text_edge(self, parent: &str, path: &str) -> Self {
        self.edge(parent, "str", path)
    }

    fn set_parsed(&mut self, a: TypeId, slot: usize, path: &str) {
        let p = match XrPath::parse(path) {
            Ok(p) => p,
            Err(e) => {
                self.errors.push(EmbeddingError::PathSyntax {
                    path: path.to_string(),
                    reason: e.to_string(),
                });
                return;
            }
        };
        // A `with_paths` mapping sized for a different schema must surface
        // as an error, not an index panic — the builder never panics.
        match self
            .paths
            .paths
            .get_mut(a.index())
            .and_then(|row| row.get_mut(slot))
        {
            Some(cell) => *cell = p,
            None => {
                let got = self.paths.paths.get(a.index()).map_or(0, |row| row.len());
                self.errors.push(EmbeddingError::ArityMismatch {
                    ty: self.source.name(a).to_string(),
                    expected: self.src_graph.edges_from(a).len(),
                    got,
                });
            }
        }
    }

    /// Compute λ, run the §4.1 validity checks, and compile.
    ///
    /// # Errors
    /// All accumulated builder errors at once (one directly, several inside
    /// [`EmbeddingError::Build`]), or the first violated validity condition.
    pub fn build(self) -> Result<CompiledEmbedding, EmbeddingError> {
        let EmbeddingBuilder {
            source,
            target,
            src_graph,
            pairs,
            lambda,
            paths,
            mut errors,
        } = self;
        let lambda = match lambda {
            Some(l) => Some(l),
            None => {
                // by_name_pairs semantics, but collecting *every* miss so a
                // schema full of unmapped tags is reported in one pass
                // (unknown `map_type` tags were already recorded; dedup).
                let mut map = Vec::with_capacity(source.type_count());
                let mut complete = true;
                for a in source.types() {
                    let name = source.name(a);
                    let tgt_name = pairs
                        .iter()
                        .find(|(s, _)| s.as_str() == name)
                        .map(|(_, t)| t.as_str())
                        .unwrap_or(name);
                    match target.type_id(tgt_name) {
                        Some(b) => map.push(b),
                        None => {
                            complete = false;
                            let e = EmbeddingError::UnknownType {
                                which: "target",
                                name: tgt_name.to_string(),
                            };
                            if !errors.contains(&e) {
                                errors.push(e);
                            }
                        }
                    }
                }
                complete.then_some(TypeMapping { map })
            }
        };
        match errors.len() {
            0 => {}
            1 => return Err(errors.pop().expect("len checked")),
            _ => return Err(EmbeddingError::Build(errors)),
        }
        CompiledEmbedding::with_graph(
            source,
            target,
            src_graph,
            lambda.expect("no errors implies λ computed"),
            paths,
        )
    }
}

/// A validated, owned schema embedding `σ : S1 → S2` — the engine every
/// derived operation runs on.
///
/// Construction ([`EmbeddingBuilder::build`] or [`CompiledEmbedding::new`])
/// checks the §4.1 validity conditions, canonicalizes positions
/// (DESIGN.md §3), and precomputes everything the per-document operations
/// need: the source schema graph, the resolved paths, the target's minimum
/// default plans, and the per-edge translation automata used by `Tr`.
/// The result has no lifetime parameter and is `Send + Sync`: store it,
/// share it behind an [`Arc`], and map documents from many threads — or let
/// [`CompiledEmbedding::apply_batch`](Self::apply_batch) fan a batch out
/// for you.
pub struct CompiledEmbedding {
    pub(crate) source: Arc<Dtd>,
    pub(crate) target: Arc<Dtd>,
    pub(crate) src_graph: SchemaGraph,
    pub(crate) lambda: TypeMapping,
    /// The syntactic path function the engine was validated from.
    pub(crate) paths: PathMapping,
    /// Resolved, normalized paths per `(source type, edge slot)`.
    pub(crate) resolved: Vec<Vec<ResolvedPath>>,
    /// The target's minimum-default plans (one `mindef_plans()` call ever).
    pub(crate) plans: Vec<MindefPlan>,
    /// Per `(source type, edge slot)`: the path compiled to a linear ANFA
    /// chain — the translation table `Tr` copies from instead of
    /// recompiling paths per query.
    pub(crate) chains: Vec<Vec<xse_anfa::Anfa>>,
    /// Bounded cache of compiled [`TranslatePlan`](crate::TranslatePlan)s,
    /// keyed by canonical query shape.
    pub(crate) plan_cache: crate::translate::PlanCache,
}

// The engine is shared across threads by `apply_batch` and by servers; keep
// that a compile-time fact rather than an accident of field types.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledEmbedding>();
};

impl std::fmt::Debug for CompiledEmbedding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompiledEmbedding({} -> {}, |σ| = {})",
            self.source.name(self.source.root()),
            self.target.name(self.target.root()),
            self.size()
        )
    }
}

impl CompiledEmbedding {
    /// Validate `(λ, path)` and compile the embedding. Both DTDs are taken
    /// by value (or by [`Arc`] — an `Arc<Dtd>` is accepted as-is, so clones
    /// of a shared schema are free).
    pub fn new(
        source: impl Into<Arc<Dtd>>,
        target: impl Into<Arc<Dtd>>,
        lambda: TypeMapping,
        paths: PathMapping,
    ) -> Result<Self, EmbeddingError> {
        let source = source.into();
        let src_graph = SchemaGraph::new(&source);
        CompiledEmbedding::with_graph(source, target.into(), src_graph, lambda, paths)
    }

    fn with_graph(
        source: Arc<Dtd>,
        target: Arc<Dtd>,
        src_graph: SchemaGraph,
        lambda: TypeMapping,
        paths: PathMapping,
    ) -> Result<Self, EmbeddingError> {
        if lambda.map.len() != source.type_count() {
            return Err(EmbeddingError::ArityMismatch {
                ty: "λ".into(),
                expected: source.type_count(),
                got: lambda.map.len(),
            });
        }
        if lambda.get(source.root()) != target.root() {
            return Err(EmbeddingError::RootNotMappedToRoot);
        }
        if !source.is_consistent() {
            return Err(EmbeddingError::InconsistentDtd { which: "source" });
        }
        if !target.is_consistent() {
            return Err(EmbeddingError::InconsistentDtd { which: "target" });
        }
        let tgt_graph = SchemaGraph::new(&target);
        let mut resolved: Vec<Vec<ResolvedPath>> = Vec::with_capacity(source.type_count());
        for a in source.types() {
            let edges = src_graph.edges_from(a);
            let given = paths.paths.get(a.index()).map(Vec::as_slice).unwrap_or(&[]);
            if given.len() != edges.len() {
                return Err(EmbeddingError::ArityMismatch {
                    ty: source.name(a).to_string(),
                    expected: edges.len(),
                    got: given.len(),
                });
            }
            let origin = lambda.get(a);
            let mut per_type = Vec::with_capacity(edges.len());
            for (edge, p) in edges.iter().zip(given.iter()) {
                let mut rp = resolve_path(&target, &tgt_graph, origin, p)?;
                crate::validity::normalize_and_check_edge(
                    &source, &target, &lambda, edge, p, &mut rp,
                )?;
                per_type.push(rp);
            }
            crate::validity::check_prefix_free(&source, &target, a, &per_type)?;
            resolved.push(per_type);
        }
        // Disjunction distinguishability (needs all paths resolved).
        let plans = target.mindef_plans();
        crate::validity::check_disjunction_distinguishability(&source, &target, &resolved, &plans)?;
        let chains = crate::translate::chain_tables(&target, &resolved);
        Ok(CompiledEmbedding {
            source,
            target,
            src_graph,
            lambda,
            paths,
            resolved,
            plans,
            chains,
            plan_cache: crate::translate::PlanCache::default(),
        })
    }

    /// Validate against a similarity matrix: `att(A, λ(A)) > 0` for all `A`
    /// (λ-validity, §4.1).
    pub fn check_similarity(&self, att: &SimilarityMatrix) -> Result<(), EmbeddingError> {
        for a in self.source.types() {
            if att.get(a, self.lambda.get(a)) <= 0.0 {
                return Err(EmbeddingError::SimilarityZero {
                    source: self.source.name(a).to_string(),
                    target: self.target.name(self.lambda.get(a)).to_string(),
                });
            }
        }
        Ok(())
    }

    /// The source DTD `S1`.
    pub fn source(&self) -> &Dtd {
        &self.source
    }

    /// The target DTD `S2`.
    pub fn target(&self) -> &Dtd {
        &self.target
    }

    /// A shareable handle to the source DTD.
    pub fn source_arc(&self) -> Arc<Dtd> {
        Arc::clone(&self.source)
    }

    /// A shareable handle to the target DTD.
    pub fn target_arc(&self) -> Arc<Dtd> {
        Arc::clone(&self.target)
    }

    /// The target's precomputed minimum-default plans (§4.2), one per
    /// target type.
    pub fn mindef_plans(&self) -> &[MindefPlan] {
        &self.plans
    }

    /// `λ(a)`.
    pub fn lambda(&self, a: TypeId) -> TypeId {
        self.lambda.get(a)
    }

    /// The whole type mapping `λ` the engine was validated from.
    pub fn type_mapping(&self) -> &TypeMapping {
        &self.lambda
    }

    /// The path function exactly as it was given, before resolution and
    /// normalization. Passed back to [`CompiledEmbedding::new`] with
    /// [`type_mapping`](Self::type_mapping) and the two DTDs, it rebuilds
    /// this engine without searching for it again.
    pub fn path_mapping(&self) -> &PathMapping {
        &self.paths
    }

    /// The resolved path of edge `slot` of source type `a`.
    pub fn path(&self, a: TypeId, slot: usize) -> &ResolvedPath {
        &self.resolved[a.index()][slot]
    }

    /// All resolved paths of source type `a`, in edge-slot order.
    pub fn paths_of(&self, a: TypeId) -> &[ResolvedPath] {
        &self.resolved[a.index()]
    }

    /// `|σ|`: total number of path steps across all edges — the measure in
    /// Theorem 4.3's bounds.
    pub fn size(&self) -> usize {
        self.resolved
            .iter()
            .flat_map(|v| v.iter())
            .map(ResolvedPath::len)
            .sum()
    }

    /// Pretty-print the embedding in the paper's `λ(..) / path(..)` notation.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for a in self.source.types() {
            let _ = writeln!(
                out,
                "λ({}) = {}",
                self.source.name(a),
                self.target.name(self.lambda.get(a))
            );
        }
        for a in self.source.types() {
            for (edge, rp) in self
                .src_graph
                .edges_from(a)
                .iter()
                .zip(self.resolved[a.index()].iter())
            {
                let child = match edge.target {
                    EdgeTarget::Type(t) => self.source.name(t).to_string(),
                    EdgeTarget::Str => "str".to_string(),
                };
                let _ = writeln!(
                    out,
                    "path({}, {}) = {}",
                    self.source.name(a),
                    child,
                    rp.display(&self.target)
                );
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use xse_dtd::Dtd;

    /// A compact valid embedding used across the crate's tests: the target
    /// wraps each source region one or two levels deeper and adds a padding
    /// leaf, so the fixture exercises chain prefixes, a star crossing with
    /// a suffix, mindef completion and text edges.
    ///
    /// S1: r → a, b;  a → str;  b → c*;  c → str
    /// S2: r → x, y;  x → a, pad;  a → str;  pad → str;
    ///     y → w;  w → c2*;  c2 → c;  c → str
    pub(crate) fn wrap() -> (Dtd, Dtd) {
        let s1 = Dtd::builder("r")
            .concat("r", &["a", "b"])
            .str_type("a")
            .star("b", "c")
            .str_type("c")
            .build()
            .unwrap();
        let s2 = Dtd::builder("r")
            .concat("r", &["x", "y"])
            .concat("x", &["a", "pad"])
            .str_type("a")
            .str_type("pad")
            .concat("y", &["w"])
            .star("w", "c2")
            .concat("c2", &["c"])
            .str_type("c")
            .build()
            .unwrap();
        (s1, s2)
    }

    /// The wrap embedding as a builder with λ overrides and all edges set
    /// (callers add `.build()` or swap λ/paths first).
    pub(crate) fn wrap_builder(s1: &Dtd, s2: &Dtd) -> EmbeddingBuilder {
        EmbeddingBuilder::new(s1.clone(), s2.clone())
            .map_type("b", "w")
            .edge("r", "a", "x/a")
            .edge("r", "b", "y/w")
            .edge("b", "c", "c2/c")
            .text_edge("a", "text()")
            .text_edge("c", "text()")
    }

    pub(crate) fn wrap_compiled(s1: &Dtd, s2: &Dtd) -> CompiledEmbedding {
        wrap_builder(s1, s2).build().unwrap()
    }

    #[test]
    fn wrap_embedding_is_valid() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        assert_eq!(e.size(), 2 + 2 + 2 + 1 + 1);
        let desc = e.describe();
        assert!(desc.contains("λ(b) = w"), "{desc}");
        assert!(
            desc.contains("path(r, a) = x[position() = 1]/a[position() = 1]"),
            "{desc}"
        );
        assert!(desc.contains("path(b, c) = c2/c[position() = 1]"), "{desc}");
    }

    #[test]
    fn kept_mappings_rebuild_the_same_engine() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let rebuilt = CompiledEmbedding::new(
            e.source_arc(),
            e.target_arc(),
            e.type_mapping().clone(),
            e.path_mapping().clone(),
        )
        .unwrap();
        assert_eq!(rebuilt.describe(), e.describe());
        assert_eq!(rebuilt.size(), e.size());
        // The kept paths are the given ones, not their normalized forms.
        let r = s1.type_id("r").unwrap();
        assert_eq!(e.path_mapping().get(r, 0).to_string(), "x/a");
        assert_eq!(
            e.path(r, 0).display(&s2),
            "x[position() = 1]/a[position() = 1]"
        );
    }

    #[test]
    fn compiled_embedding_is_send_sync_and_static() {
        fn assert_bounds<T: Send + Sync + 'static>(_: &T) {}
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        assert_bounds(&e);
    }

    #[test]
    fn root_must_map_to_root() {
        let (s1, s2) = wrap();
        let w2 = s2.type_id("w").unwrap();
        let lambda = TypeMapping::from_fn(&s1, |_| w2);
        let e = wrap_builder(&s1, &s2)
            .with_lambda(lambda)
            .build()
            .unwrap_err();
        assert_eq!(e, EmbeddingError::RootNotMappedToRoot);
    }

    #[test]
    fn missing_paths_are_an_arity_error() {
        let (s1, s2) = wrap();
        let lambda = TypeMapping::by_name_pairs(&s1, &s2, &[("b", "w")]).unwrap();
        let e = CompiledEmbedding::new(s1, s2, lambda, PathMapping::default()).unwrap_err();
        assert!(matches!(e, EmbeddingError::ArityMismatch { .. }));
    }

    #[test]
    fn builder_accumulates_errors_instead_of_panicking() {
        let (s1, s2) = wrap();
        let e = EmbeddingBuilder::new(s1.clone(), s2.clone())
            .map_type("b", "nosuch")
            .edge("ghost", "a", "x/a")
            .edge("r", "ghost", "x/a")
            .edge("r", "a", "x[/a")
            .build()
            .unwrap_err();
        let EmbeddingError::Build(errors) = e else {
            panic!("expected accumulated Build errors, got {e}");
        };
        assert_eq!(errors.len(), 4, "{errors:?}");
        assert!(errors.iter().any(|e| matches!(
            e,
            EmbeddingError::UnknownType {
                which: "target",
                ..
            }
        )));
        assert!(errors.iter().any(|e| matches!(
            e,
            EmbeddingError::UnknownType {
                which: "source",
                ..
            }
        )));
        assert!(errors
            .iter()
            .any(|e| matches!(e, EmbeddingError::UnknownChild { .. })));
        assert!(errors
            .iter()
            .any(|e| matches!(e, EmbeddingError::PathSyntax { .. })));
    }

    #[test]
    fn builder_with_undersized_paths_errors_instead_of_panicking() {
        let (s1, s2) = wrap();
        let e = EmbeddingBuilder::new(s1.clone(), s2.clone())
            .with_paths(PathMapping::default())
            .edge("r", "a", "x/a")
            .build()
            .unwrap_err();
        // Both the edge() call and build()'s arity check report the
        // mis-sized mapping; nothing indexes out of bounds.
        let first = match e {
            EmbeddingError::Build(errors) => errors[0].clone(),
            other => other,
        };
        assert!(
            matches!(first, EmbeddingError::ArityMismatch { .. }),
            "{first}"
        );
        let e = wrap_builder(&s1, &s2)
            .edge_at("r", 99, "x/a")
            .build()
            .unwrap_err();
        assert!(
            matches!(
                e,
                EmbeddingError::SlotOutOfRange {
                    slot: 99,
                    edges: 2,
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn map_type_last_declaration_wins() {
        let (s1, s2) = wrap();
        // First map b → x (wrong: x hosts no star), then override to w.
        let e = wrap_builder(&s1, &s2).map_type("b", "x").map_type("b", "w");
        let compiled = e.build().unwrap();
        assert_eq!(
            compiled.lambda(s1.type_id("b").unwrap()),
            s2.type_id("w").unwrap()
        );
    }

    #[test]
    fn builder_single_error_is_returned_directly() {
        let (s1, s2) = wrap();
        let e = wrap_builder(&s1, &s2)
            .edge("r", "nope", "x/a")
            .build()
            .unwrap_err();
        assert!(matches!(e, EmbeddingError::UnknownChild { .. }), "{e}");
    }

    #[test]
    fn similarity_validation() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let att = SimilarityMatrix::permissive(&s1, &s2);
        e.check_similarity(&att).unwrap();
        let mut att = SimilarityMatrix::permissive(&s1, &s2);
        att.set(s1.type_id("b").unwrap(), s2.type_id("w").unwrap(), 0.0);
        assert!(matches!(
            e.check_similarity(&att),
            Err(EmbeddingError::SimilarityZero { .. })
        ));
    }

    #[test]
    fn by_same_name_and_pairs() {
        let (s1, _) = wrap();
        let t = Dtd::builder("r")
            .concat("r", &["a", "b", "c", "X"])
            .empty("a")
            .empty("b")
            .empty("c")
            .empty("X")
            .build()
            .unwrap();
        let m = TypeMapping::by_same_name(&s1, &t).unwrap();
        assert_eq!(m.get(s1.type_id("b").unwrap()), t.type_id("b").unwrap());
        let m = TypeMapping::by_name_pairs(&s1, &t, &[("b", "X")]).unwrap();
        assert_eq!(m.get(s1.type_id("b").unwrap()), t.type_id("X").unwrap());
        assert_eq!(
            TypeMapping::by_name_pairs(&s1, &t, &[("b", "nope")]).unwrap_err(),
            EmbeddingError::UnknownType {
                which: "target",
                name: "nope".into()
            }
        );
    }

    #[test]
    fn paper_example_2_1_is_not_an_embedding() {
        // The Figure 2 mapping of §2/§3 (path(A,B)=A, path(A,C)=A/A) is a
        // handcrafted invertible mapping, *not* a §4.1 schema embedding: it
        // violates the prefix-free condition. Validation must reject it.
        let s1 = Dtd::builder("r")
            .concat("r", &["A"])
            .concat("A", &["B", "C"])
            .disjunction_opt("B", &["A"])
            .empty("C")
            .build()
            .unwrap();
        let s2 = Dtd::builder("r")
            .concat("r", &["A"])
            .disjunction_opt("A", &["A"])
            .build()
            .unwrap();
        let a2 = s2.type_id("A").unwrap();
        let lambda = TypeMapping::from_fn(&s1, |t| if t == s1.root() { s2.root() } else { a2 });
        let e = EmbeddingBuilder::new(s1, s2)
            .with_lambda(lambda)
            .edge("r", "A", "A")
            .edge("A", "B", "A")
            .edge("A", "C", "A/A")
            .edge("B", "A", "A/A")
            .build()
            .unwrap_err();
        // Rejected on the first violated condition: the AND edge (A, B)
        // maps onto an OR path (the target A-chain is all dashed edges);
        // had kinds matched, the prefix-free check would fire instead.
        assert!(
            matches!(
                e,
                EmbeddingError::PathKind { .. } | EmbeddingError::PrefixConflict { .. }
            ),
            "{e}"
        );
    }
}
