//! Reachability indexes over the target schema graph.
//!
//! The path search needs to answer, per candidate extension, "can this node
//! still reach the required endpoint through a path of the required kind?"
//! — four closures over the (node × flag) product graphs, each computed by
//! one BFS per node, `O(|E2|·(|E2|+edges))` overall — and "which extensions
//! are there?", the expansion table. Both are built once per discovery.

use std::sync::Arc;

use xse_dtd::{Dtd, EdgeKind, EdgeTarget, Production, SchemaGraph, TypeId};

/// Dense boolean matrix over target types.
pub struct ReachMatrix {
    n: usize,
    bits: Vec<u64>,
}

impl ReachMatrix {
    fn new(n: usize) -> Self {
        ReachMatrix {
            n,
            bits: vec![0; n * n.div_ceil(64)],
        }
    }

    fn row_words(&self) -> usize {
        self.n.div_ceil(64)
    }

    fn set(&mut self, from: usize, to: usize) {
        let w = self.row_words();
        self.bits[from * w + to / 64] |= 1 << (to % 64);
    }

    /// Is `to` reachable from `from` under this matrix's path kind?
    pub fn get(&self, from: TypeId, to: TypeId) -> bool {
        let w = self.row_words();
        self.bits[from.index() * w + to.index() / 64] & (1 << (to.index() % 64)) != 0
    }
}

/// One way the path search can extend a path at a target type: a step to
/// `child` over an edge of kind `kind`, at position `pos`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Expansion {
    /// The child type stepped to.
    pub(crate) child: TypeId,
    /// The kind of the edge crossed.
    pub(crate) kind: EdgeKind,
    /// `Some(k)` for the `k`-th of a concatenation's repeated children and
    /// `Some(1)` (the canonical pin) for a star edge; `None` otherwise.
    pub(crate) pos: Option<usize>,
}

/// Per target type, its [`Expansion`]s in production order, plus one shared
/// step label per type.
pub(crate) struct ExpansionTable {
    /// `edges[spans[t] .. spans[t + 1]]` are type `t`'s expansions.
    spans: Vec<usize>,
    edges: Vec<Expansion>,
    labels: Vec<Arc<str>>,
}

impl ExpansionTable {
    /// Build the table for `target`.
    pub(crate) fn new(target: &Dtd, graph: &SchemaGraph) -> Self {
        let mut spans = Vec::with_capacity(target.type_count() + 1);
        let mut edges = Vec::new();
        for t in target.types() {
            spans.push(edges.len());
            let out = graph.edges_from(t);
            for e in out {
                let EdgeTarget::Type(child) = e.target else {
                    continue;
                };
                let pos = match e.kind {
                    EdgeKind::And { occurrence } => {
                        let repeated = out.iter().any(|f| {
                            f.target == e.target && f.kind == EdgeKind::And { occurrence: 2 }
                        });
                        repeated.then_some(occurrence as usize)
                    }
                    EdgeKind::Or => None,
                    EdgeKind::Star => Some(1),
                };
                edges.push(Expansion {
                    child,
                    kind: e.kind,
                    pos,
                });
            }
        }
        spans.push(edges.len());
        let labels = target.types().map(|t| target.name(t).into()).collect();
        ExpansionTable {
            spans,
            edges,
            labels,
        }
    }

    /// `t`'s expansions, in production order.
    pub(crate) fn of(&self, t: TypeId) -> &[Expansion] {
        &self.edges[self.spans[t.index()]..self.spans[t.index() + 1]]
    }

    /// The step label of type `t`, shared by every path that steps to it.
    pub(crate) fn label(&self, t: TypeId) -> &Arc<str> {
        &self.labels[t.index()]
    }
}

/// The four per-kind closures, the `str`-reach vector and the expansion
/// table.
pub struct ReachIndex {
    /// Reachable via nonempty solid-only (AND/STAR) paths.
    pub solid: ReachMatrix,
    /// Reachable via nonempty solid-only paths containing ≥ 1 STAR edge.
    pub solid_star: ReachMatrix,
    /// Reachable via any nonempty path.
    pub any: ReachMatrix,
    /// Reachable via nonempty paths containing ≥ 1 OR (dashed) edge.
    pub with_or: ReachMatrix,
    /// Node can reach (or is) a type with a `str` production through a
    /// solid-only (possibly empty) path — feasibility of `path(A, str)`.
    pub str_solid: Vec<bool>,
    /// Each type's outgoing steps, for the path search's DFS.
    pub(crate) expansions: ExpansionTable,
}

impl ReachIndex {
    /// Build all indexes for `target`.
    pub fn new(target: &Dtd, graph: &SchemaGraph) -> Self {
        let n = target.type_count();
        let mut solid = ReachMatrix::new(n);
        let mut solid_star = ReachMatrix::new(n);
        let mut any = ReachMatrix::new(n);
        let mut with_or = ReachMatrix::new(n);

        // BFS over the (node, flag) product per start node. flag = "the
        // distinguished edge kind was seen".
        let mut seen = vec![false; 2 * n];
        let mut stack: Vec<(usize, bool)> = Vec::new();
        let mut run = |start: usize,
                       allow_or: bool,
                       flag_on: &dyn Fn(EdgeKind) -> bool,
                       plain: &mut ReachMatrix,
                       flagged: &mut ReachMatrix| {
            seen.iter_mut().for_each(|b| *b = false);
            stack.clear();
            stack.push((start, false));
            seen[start] = true;
            while let Some((x, flag)) = stack.pop() {
                for e in graph.edges_from(TypeId::from_index(x)) {
                    let EdgeTarget::Type(c) = e.target else {
                        continue;
                    };
                    if !allow_or && e.kind.is_or() {
                        continue;
                    }
                    let nf = flag || flag_on(e.kind);
                    let idx = c.index() + usize::from(nf) * n;
                    // Record reachability of c (with/without flag).
                    if nf {
                        flagged.set(start, c.index());
                    }
                    plain.set(start, c.index());
                    if !seen[idx] {
                        seen[idx] = true;
                        stack.push((c.index(), nf));
                    }
                }
            }
        };

        for s in 0..n {
            // Solid-only walk; flag = star edge seen.
            run(s, false, &|k| k.is_star(), &mut solid, &mut solid_star);
        }
        for s in 0..n {
            // Any-edge walk; flag = or edge seen.
            run(s, true, &|k| k.is_or(), &mut any, &mut with_or);
        }

        // str reach: solid closure to a Str-production node (or self).
        let mut str_solid = vec![false; n];
        for t in target.types() {
            let is_str = |x: TypeId| matches!(target.production(x), Production::Str);
            str_solid[t.index()] =
                is_str(t) || target.types().any(|u| is_str(u) && solid.get(t, u));
        }

        ReachIndex {
            solid,
            solid_star,
            any,
            with_or,
            str_solid,
            expansions: ExpansionTable::new(target, graph),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xse_dtd::Dtd;

    fn school() -> (Dtd, SchemaGraph) {
        let d = Dtd::builder("school")
            .concat("school", &["courses"])
            .concat("courses", &["current"])
            .star("current", "course")
            .concat("course", &["cno", "category"])
            .str_type("cno")
            .disjunction("category", &["regular", "project"])
            .empty("regular")
            .empty("project")
            .build()
            .unwrap();
        let g = SchemaGraph::new(&d);
        (d, g)
    }

    #[test]
    fn solid_reach_excludes_or_edges() {
        let (d, g) = school();
        let idx = ReachIndex::new(&d, &g);
        let root = d.root();
        let course = d.type_id("course").unwrap();
        let regular = d.type_id("regular").unwrap();
        assert!(idx.solid.get(root, course));
        assert!(!idx.solid.get(root, regular), "regular needs an OR edge");
        assert!(idx.any.get(root, regular));
        assert!(idx.with_or.get(root, regular));
    }

    #[test]
    fn star_reach_requires_a_star_edge() {
        let (d, g) = school();
        let idx = ReachIndex::new(&d, &g);
        let root = d.root();
        let courses = d.type_id("courses").unwrap();
        let course = d.type_id("course").unwrap();
        let cno = d.type_id("cno").unwrap();
        assert!(idx.solid_star.get(root, course));
        assert!(idx.solid_star.get(root, cno));
        assert!(!idx.solid_star.get(root, courses), "no star before courses");
        assert!(!idx.solid_star.get(course, cno), "course→cno is star-free");
    }

    #[test]
    fn with_or_needs_a_dashed_edge() {
        let (d, g) = school();
        let idx = ReachIndex::new(&d, &g);
        let root = d.root();
        let course = d.type_id("course").unwrap();
        assert!(!idx.with_or.get(root, course));
        let project = d.type_id("project").unwrap();
        assert!(idx.with_or.get(root, project));
    }

    #[test]
    fn str_reach_via_solid_paths() {
        let (d, g) = school();
        let idx = ReachIndex::new(&d, &g);
        let cno = d.type_id("cno").unwrap();
        let course = d.type_id("course").unwrap();
        let category = d.type_id("category").unwrap();
        assert!(idx.str_solid[cno.index()], "a str node reaches itself");
        assert!(idx.str_solid[course.index()]);
        assert!(
            !idx.str_solid[category.index()],
            "category's only str descendants sit behind or-edges"
        );
        assert!(idx.str_solid[d.root().index()]);
    }

    #[test]
    fn reach_is_nonreflexive_without_cycles() {
        let (d, g) = school();
        let idx = ReachIndex::new(&d, &g);
        assert!(!idx.solid.get(d.root(), d.root()));
        assert!(!idx.any.get(d.root(), d.root()));
    }

    #[test]
    fn cycles_make_self_reachable() {
        let d = Dtd::builder("a")
            .concat("a", &["b"])
            .disjunction_opt("b", &["a"])
            .build()
            .unwrap();
        let g = SchemaGraph::new(&d);
        let idx = ReachIndex::new(&d, &g);
        assert!(idx.any.get(d.root(), d.root()));
        assert!(idx.with_or.get(d.root(), d.root()));
        assert!(
            !idx.solid.get(d.root(), d.root()),
            "cycle crosses an OR edge"
        );
    }
}
