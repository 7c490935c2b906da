use std::collections::HashMap;

use crate::{Dtd, Production, TypeId};

/// What a schema-graph edge points at: a child element type, or the `str`
/// pseudo-node (the PCDATA child of a `A → str` production, drawn as the
/// omitted `str` children in Figure 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeTarget {
    /// An element type.
    Type(TypeId),
    /// The `str` (PCDATA) pseudo-target.
    Str,
}

/// The kind of a schema-graph edge (§2.1):
///
/// * **AND** edges (solid) come from concatenations; when a type occurs more
///   than once in the same concatenation, each edge is labeled with the
///   occurrence number of that type (1-based, counted per label);
/// * **OR** edges (dashed) come from disjunctions;
/// * **STAR** edges (solid, labeled `*`) come from Kleene stars.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeKind {
    /// Solid edge; `occurrence` is the paper's position label `k` ("the k-th
    /// occurrence of a type B in P(A)"), 1 when the child type is unique.
    And {
        /// 1-based occurrence index among same-type children.
        occurrence: u32,
    },
    /// Dashed edge (one and only one child).
    Or,
    /// Solid edge labeled `*` (zero or more children).
    Star,
}

impl EdgeKind {
    /// `true` for AND edges (including the implicit edge of `A → str`).
    pub fn is_and(self) -> bool {
        matches!(self, EdgeKind::And { .. })
    }

    /// `true` for OR (dashed) edges.
    pub fn is_or(self) -> bool {
        matches!(self, EdgeKind::Or)
    }

    /// `true` for STAR edges.
    pub fn is_star(self) -> bool {
        matches!(self, EdgeKind::Star)
    }
}

/// One edge of the schema graph. `slot` identifies the edge among its
/// parent's outgoing edges (the index into the production body), which is
/// how the paper's `path(A, B)` distinguishes repeated child types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edge {
    /// The parent type `A`.
    pub parent: TypeId,
    /// Index of this edge in `P(A)`'s body (0-based).
    pub slot: usize,
    /// The child end.
    pub target: EdgeTarget,
    /// AND / OR / STAR.
    pub kind: EdgeKind,
}

/// The graph `G_S` of a DTD: one node per element type (plus the implicit
/// `str` leaves), and typed edges derived from the productions.
#[derive(Clone, Debug)]
pub struct SchemaGraph {
    /// Outgoing edges per type, indexed by `TypeId`.
    out: Vec<Vec<Edge>>,
}

impl SchemaGraph {
    /// Build the schema graph of `dtd`.
    pub fn new(dtd: &Dtd) -> Self {
        let mut out = vec![Vec::new(); dtd.type_count()];
        for t in dtd.types() {
            let edges = &mut out[t.index()];
            match dtd.production(t) {
                Production::Empty => {}
                Production::Str => edges.push(Edge {
                    parent: t,
                    slot: 0,
                    target: EdgeTarget::Str,
                    kind: EdgeKind::And { occurrence: 1 },
                }),
                Production::Concat(cs) => {
                    let mut seen: HashMap<TypeId, u32> = HashMap::new();
                    for (slot, &c) in cs.iter().enumerate() {
                        let occ = seen.entry(c).or_insert(0);
                        *occ += 1;
                        edges.push(Edge {
                            parent: t,
                            slot,
                            target: EdgeTarget::Type(c),
                            kind: EdgeKind::And { occurrence: *occ },
                        });
                    }
                }
                Production::Disjunction { alts, .. } => {
                    for (slot, &c) in alts.iter().enumerate() {
                        edges.push(Edge {
                            parent: t,
                            slot,
                            target: EdgeTarget::Type(c),
                            kind: EdgeKind::Or,
                        });
                    }
                }
                Production::Star(c) => edges.push(Edge {
                    parent: t,
                    slot: 0,
                    target: EdgeTarget::Type(*c),
                    kind: EdgeKind::Star,
                }),
            }
        }
        SchemaGraph { out }
    }

    /// Outgoing edges of `t` in production order.
    pub fn edges_from(&self, t: TypeId) -> &[Edge] {
        &self.out[t.index()]
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dtd;

    /// The class DTD S0 of Figure 1(a), slightly abbreviated.
    fn fig1_s0() -> Dtd {
        Dtd::builder("db")
            .star("db", "class")
            .concat("class", &["cno", "title", "type"])
            .str_type("cno")
            .str_type("title")
            .disjunction("type", &["regular", "project"])
            .concat("regular", &["prereq"])
            .star("prereq", "class")
            .empty("project")
            .build()
            .unwrap()
    }

    #[test]
    fn edge_kinds_match_productions() {
        let d = fig1_s0();
        let g = SchemaGraph::new(&d);
        let db = d.root();
        let class = d.type_id("class").unwrap();
        let ty = d.type_id("type").unwrap();
        let cno = d.type_id("cno").unwrap();

        let db_edges = g.edges_from(db);
        assert_eq!(db_edges.len(), 1);
        assert_eq!(db_edges[0].kind, EdgeKind::Star);
        assert_eq!(db_edges[0].target, EdgeTarget::Type(class));

        let class_edges = g.edges_from(class);
        assert_eq!(class_edges.len(), 3);
        assert!(class_edges.iter().all(|e| e.kind.is_and()));

        let ty_edges = g.edges_from(ty);
        assert_eq!(ty_edges.len(), 2);
        assert!(ty_edges.iter().all(|e| e.kind.is_or()));

        let cno_edges = g.edges_from(cno);
        assert_eq!(cno_edges.len(), 1);
        assert_eq!(cno_edges[0].target, EdgeTarget::Str);
    }

    #[test]
    fn occurrence_labels_count_per_type() {
        let d = Dtd::builder("r")
            .concat("r", &["a", "b", "a", "a"])
            .empty("a")
            .empty("b")
            .build()
            .unwrap();
        let g = SchemaGraph::new(&d);
        let occs: Vec<u32> = g
            .edges_from(d.root())
            .iter()
            .map(|e| match e.kind {
                EdgeKind::And { occurrence } => occurrence,
                _ => panic!("expected AND"),
            })
            .collect();
        assert_eq!(occs, vec![1, 1, 2, 3]);
    }

    #[test]
    fn edge_count_sums_all_productions() {
        let d = fig1_s0();
        let g = SchemaGraph::new(&d);
        // db:1 class:3 cno:1 title:1 type:2 regular:1 prereq:1 project:0
        assert_eq!(g.edge_count(), 10);
    }
}
