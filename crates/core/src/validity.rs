//! The §4.1 validity conditions and position canonicalization.
//!
//! For each source type `A` with production `P1(A)`:
//!
//! * `P1(A) = B1,…,Bl` — every `path(A, Bi)` is an **AND path** ending at
//!   `λ(Bi)`, and no sibling path is a prefix of another;
//! * `P1(A) = B1+…+Bl` — every `path(A, Bi)` is an **OR path**, prefix-free
//!   (footnote 1: an `ε` alternative needs no path);
//! * `P1(A) = B*` — `path(A, B)` is a **STAR path** whose first STAR step is
//!   left unpinned (that is where the repetition materializes);
//! * `P1(A) = str` — `path(A, str)` is an AND path ending with `text()`.
//!
//! Canonicalization (DESIGN.md §3 item 2): STAR steps crossed by AND/OR/str
//! edges default to `position() = 1`; on a star edge the steps *after* the
//! multiplicity point default to 1 as well.

use xse_dtd::{Dtd, Edge, EdgeTarget, Production, TypeId};
use xse_rxpath::XrPath;

use crate::embedding::TypeMapping;
use crate::resolve::ResolvedPath;
use crate::EmbeddingError;

/// Normalize positions in `rp` and check the path-type condition for the
/// single source edge `edge` (with original syntax `p` for error messages).
pub(crate) fn normalize_and_check_edge(
    source: &Dtd,
    target: &Dtd,
    lambda: &TypeMapping,
    edge: &Edge,
    p: &XrPath,
    rp: &mut ResolvedPath,
) -> Result<(), EmbeddingError> {
    let from = source.name(edge.parent).to_string();
    if rp.is_empty() {
        return Err(EmbeddingError::PathUnresolvable {
            from,
            path: p.to_string(),
            reason: "an edge must map to a nonempty path (k ≥ 1)".into(),
        });
    }
    let is_star_edge = edge.kind.is_star();
    let is_str_edge = matches!(edge.target, EdgeTarget::Str);

    // Position canonicalization.
    if is_star_edge {
        let Some(mult) = rp.first_star_step() else {
            return Err(EmbeddingError::PathKind {
                from,
                path: p.to_string(),
                expected: "a STAR path",
                found: rp.classify().to_string_like(),
            });
        };
        if rp.steps[mult].pos.is_some() {
            return Err(EmbeddingError::StarPositionPinned {
                from,
                path: p.to_string(),
            });
        }
        for s in rp.steps.iter_mut().skip(mult + 1) {
            if s.kind.is_star() && s.pos.is_none() {
                s.pos = Some(1);
            }
        }
    } else {
        for s in rp.steps.iter_mut() {
            if s.kind.is_star() && s.pos.is_none() {
                s.pos = Some(1);
            }
        }
    }

    // Path type condition.
    let class = rp.classify();
    let expected: &'static str = match edge.kind {
        _ if is_str_edge => {
            if !rp.text_tail {
                return Err(EmbeddingError::PathKind {
                    from,
                    path: p.to_string(),
                    expected: "an AND path ending with text()",
                    found: "a path without a text() tail".into(),
                });
            }
            if !class.is_and() {
                return Err(EmbeddingError::PathKind {
                    from,
                    path: p.to_string(),
                    expected: "an AND path ending with text()",
                    found: class.to_string_like(),
                });
            }
            ""
        }
        xse_dtd::EdgeKind::And { .. } => {
            if rp.text_tail {
                return Err(EmbeddingError::PathKind {
                    from,
                    path: p.to_string(),
                    expected: "an AND path to an element type",
                    found: "a path with a text() tail".into(),
                });
            }
            if !class.is_and() {
                return Err(EmbeddingError::PathKind {
                    from,
                    path: p.to_string(),
                    expected: "an AND path",
                    found: class.to_string_like(),
                });
            }
            ""
        }
        xse_dtd::EdgeKind::Or => {
            if rp.text_tail {
                return Err(EmbeddingError::PathKind {
                    from,
                    path: p.to_string(),
                    expected: "an OR path to an element type",
                    found: "a path with a text() tail".into(),
                });
            }
            if !class.is_or() {
                return Err(EmbeddingError::PathKind {
                    from,
                    path: p.to_string(),
                    expected: "an OR path",
                    found: class.to_string_like(),
                });
            }
            ""
        }
        xse_dtd::EdgeKind::Star => {
            if rp.text_tail {
                return Err(EmbeddingError::PathKind {
                    from,
                    path: p.to_string(),
                    expected: "a STAR path to an element type",
                    found: "a path with a text() tail".into(),
                });
            }
            if !class.is_star() {
                return Err(EmbeddingError::PathKind {
                    from,
                    path: p.to_string(),
                    expected: "a STAR path",
                    found: class.to_string_like(),
                });
            }
            ""
        }
    };
    let _ = expected;

    // Endpoint condition: the path must end at λ(B) for element edges.
    if let EdgeTarget::Type(b) = edge.target {
        let expected_ty = lambda.get(b);
        if rp.endpoint() != expected_ty {
            return Err(EmbeddingError::PathWrongEndpoint {
                from,
                path: p.to_string(),
                expected: target.name(expected_ty).to_string(),
                found: target.name(rp.endpoint()).to_string(),
            });
        }
    }
    Ok(())
}

/// Pairwise prefix-free check over the sibling paths of one source type.
pub(crate) fn check_prefix_free(
    source: &Dtd,
    target: &Dtd,
    a: TypeId,
    paths: &[ResolvedPath],
) -> Result<(), EmbeddingError> {
    // The condition applies to concatenations and disjunctions — the only
    // productions with sibling edges — but conflicts are impossible
    // elsewhere (single edge), so checking unconditionally is free.
    let _ = source.production(a);
    for i in 0..paths.len() {
        for j in (i + 1)..paths.len() {
            if paths[i].conflicts_with(&paths[j]) {
                return Err(EmbeddingError::PrefixConflict {
                    ty: source.name(a).to_string(),
                    path_a: paths[i].display(target),
                    path_b: paths[j].display(target),
                });
            }
        }
    }
    Ok(())
}

impl crate::resolve::PathClass {
    pub(crate) fn to_string_like(self) -> String {
        self.to_string()
    }
}

/// The tree the static fragments of [`check_disjunction_distinguishability`]
/// are materialized into, with every target type's tag interned.
struct ScenarioTree {
    tree: xse_xmltree::XmlTree,
    /// `tags[ty.index()]` is target type `ty`'s tag in `tree`.
    tags: Vec<xse_xmltree::TagId>,
}

impl ScenarioTree {
    fn new(target: &Dtd) -> Self {
        // Navigation never reads the root's tag, so one root serves every
        // origin type.
        let mut tree = xse_xmltree::XmlTree::new(target.name(target.root()));
        let tags = target
            .types()
            .map(|ty| tree.intern_tag(target.name(ty)))
            .collect();
        ScenarioTree { tree, tags }
    }
}

/// Distinguishability of disjunction alternatives (DESIGN.md §3): for each
/// disjunction type and each alternative `j` (and the `ε` choice), build the
/// *static* fragment it produces — its chain plus minimum-default
/// completion, with the hot leaf opaque — and verify no *other*
/// alternative's path navigates inside it. Without this, default padding
/// could alias a choice and `σd⁻¹` / `Tr` would mis-resolve disjunctions
/// (the paper's conditions leave this corner open; rejecting such
/// embeddings is conservative). `resolved` holds every source type's paths.
pub(crate) fn check_disjunction_distinguishability(
    source: &Dtd,
    target: &Dtd,
    resolved: &[Vec<crate::resolve::ResolvedPath>],
    plans: &[xse_dtd::MindefPlan],
) -> Result<(), EmbeddingError> {
    use crate::pfrag::{materialize, Emitter, Fragment, Terminal};
    // Every scenario of every type materializes into one tree, built on
    // first use and reset to its root in between, so the target's tags are
    // interned once per compile.
    let mut scratch: Option<ScenarioTree> = None;
    for a in source.types() {
        let Production::Disjunction { alts, allows_empty } = source.production(a) else {
            continue;
        };
        let paths = &resolved[a.index()];
        if paths.is_empty() {
            continue;
        }
        let origin = paths[0].origin;
        let mut scenarios: Vec<Option<usize>> = (0..alts.len()).map(Some).collect();
        if *allows_empty {
            scenarios.push(None);
        }
        let ScenarioTree { tree, tags } = scratch.get_or_insert_with(|| ScenarioTree::new(target));
        let em = Emitter {
            target,
            plans,
            tags,
            // Static fragments carry no instance values.
            src: None,
        };
        for &scn in &scenarios {
            let mut frag = Fragment::new(origin);
            if let Some(j) = scn {
                frag.add_chain(&paths[j], Terminal::Opaque);
            }
            tree.reset_to_root();
            let root = tree.root();
            let (mut hot, mut texts) = (Vec::new(), Vec::new());
            materialize(frag, &em, tree, root, &mut hot, &mut texts);
            for (i, p) in paths.iter().enumerate() {
                if scn == Some(i) {
                    continue;
                }
                if crate::inverse::navigate(target, tree, root, &p.steps).is_some() {
                    return Err(EmbeddingError::AlternativeAliased {
                        ty: source.name(a).to_string(),
                        probe: p.display(target),
                        scenario: match scn {
                            Some(j) => source.name(alts[j]).to_string(),
                            None => "ε".into(),
                        },
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::embedding::{CompiledEmbedding, EmbeddingBuilder, TypeMapping};
    use crate::EmbeddingError;
    use xse_dtd::Dtd;

    fn builder(
        s1: &Dtd,
        s2: &Dtd,
        lambda: TypeMapping,
        edges: &[(&str, &str, &str)],
    ) -> EmbeddingBuilder {
        let mut b = EmbeddingBuilder::new(s1.clone(), s2.clone()).with_lambda(lambda);
        for (a, c, p) in edges {
            b = b.edge(a, c, p);
        }
        b
    }

    /// Figure 3 of the paper: five mini scenarios for the validity
    /// conditions. Types in the source map to same-named primed types —
    /// here we just reuse identical names.
    fn try_embed(
        s1: &Dtd,
        s2: &Dtd,
        lambda: TypeMapping,
        edges: &[(&str, &str, &str)],
    ) -> Result<usize, EmbeddingError> {
        builder(s1, s2, lambda, edges).build().map(|e| e.size())
    }

    fn compile(
        s1: &Dtd,
        s2: &Dtd,
        lambda: TypeMapping,
        edges: &[(&str, &str, &str)],
    ) -> Result<CompiledEmbedding, EmbeddingError> {
        builder(s1, s2, lambda, edges).build()
    }

    #[test]
    fn fig3a_and_edges_cannot_map_to_or_paths() {
        // Source: A → B, C. Target: A' → B' + C'.
        let s1 = Dtd::builder("A")
            .concat("A", &["B", "C"])
            .empty("B")
            .empty("C")
            .build()
            .unwrap();
        let s2 = Dtd::builder("A")
            .disjunction("A", &["B", "C"])
            .empty("B")
            .empty("C")
            .build()
            .unwrap();
        let lambda = TypeMapping::by_same_name(&s1, &s2).unwrap();
        let e = try_embed(&s1, &s2, lambda, &[("A", "B", "B"), ("A", "C", "C")]).unwrap_err();
        assert!(
            matches!(
                e,
                EmbeddingError::PathKind {
                    expected: "an AND path",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn fig3b_star_edge_needs_star_path() {
        // Source: A → B*. Target: A' → B'.
        let s1 = Dtd::builder("A").star("A", "B").empty("B").build().unwrap();
        let s2 = Dtd::builder("A")
            .concat("A", &["B"])
            .empty("B")
            .build()
            .unwrap();
        let lambda = TypeMapping::by_same_name(&s1, &s2).unwrap();
        let e = try_embed(&s1, &s2, lambda, &[("A", "B", "B")]).unwrap_err();
        assert!(
            matches!(
                e,
                EmbeddingError::PathKind {
                    expected: "a STAR path",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn fig3c_positions_disambiguate_repeated_children() {
        // Source: A → B, C (both mapped to B'). Target: A' → B', B'.
        let s1 = Dtd::builder("A")
            .concat("A", &["B", "C"])
            .empty("B")
            .empty("C")
            .build()
            .unwrap();
        let s2 = Dtd::builder("A")
            .concat("A", &["B", "B"])
            .empty("B")
            .build()
            .unwrap();
        let b2 = s2.type_id("B").unwrap();
        let lambda = TypeMapping::from_fn(&s1, |t| if t == s1.root() { s2.root() } else { b2 });
        let n = try_embed(
            &s1,
            &s2,
            lambda,
            &[
                ("A", "B", "B[position() = 1]"),
                ("A", "C", "B[position() = 2]"),
            ],
        )
        .unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn fig3d_prefix_violation_rejected() {
        // Source: A → B, C. Target: A' → B', B' → C'. path(A,B)=B,
        // path(A,C)=B/C violates prefix-freeness.
        let s1 = Dtd::builder("A")
            .concat("A", &["B", "C"])
            .empty("B")
            .empty("C")
            .build()
            .unwrap();
        let s2 = Dtd::builder("A")
            .concat("A", &["B"])
            .concat("B", &["C"])
            .empty("C")
            .build()
            .unwrap();
        let lambda = TypeMapping::by_same_name(&s1, &s2).unwrap();
        let e = try_embed(&s1, &s2, lambda, &[("A", "B", "B"), ("A", "C", "B/C")]).unwrap_err();
        assert!(matches!(e, EmbeddingError::PrefixConflict { .. }), "{e}");
    }

    #[test]
    fn fig3e_cycle_unfolding_is_valid() {
        // Source: A → B, C. Target: A' → B', B' → A' + C'.
        // path(A,B) = B'/A' (unfolding the cycle once), path(A,C) = B'/C'.
        // Note both paths cross OR edges... in Figure 3(e) the target's
        // B' → (A'|C') is a disjunction, so the source's AND edges cannot
        // map through it; the paper's scenario (e) uses concatenation-typed
        // cycles. Model it that way:
        let s1 = Dtd::builder("A")
            .concat("A", &["B", "C"])
            .empty("B")
            .empty("C")
            .build()
            .unwrap();
        let s2 = Dtd::builder("A")
            .concat("A", &["B"])
            .concat("B", &["A2", "C"])
            .concat("A2", &["B2"])
            .empty("B2")
            .empty("C")
            .build()
            .unwrap();
        let lambda =
            TypeMapping::by_name_pairs(&s1, &s2, &[("A", "A"), ("B", "A2"), ("C", "C")]).unwrap();
        let n = try_embed(&s1, &s2, lambda, &[("A", "B", "B/A2"), ("A", "C", "B/C")]).unwrap();
        assert_eq!(n, 4);
    }

    #[test]
    fn or_edge_requires_or_path() {
        // Source: A → B + C. Target has only AND structure.
        let s1 = Dtd::builder("A")
            .disjunction("A", &["B", "C"])
            .empty("B")
            .empty("C")
            .build()
            .unwrap();
        let s2 = Dtd::builder("A")
            .concat("A", &["B", "C"])
            .empty("B")
            .empty("C")
            .build()
            .unwrap();
        let lambda = TypeMapping::by_same_name(&s1, &s2).unwrap();
        let e = try_embed(&s1, &s2, lambda, &[("A", "B", "B"), ("A", "C", "C")]).unwrap_err();
        assert!(
            matches!(
                e,
                EmbeddingError::PathKind {
                    expected: "an OR path",
                    ..
                }
            ),
            "{e}"
        );
    }

    #[test]
    fn str_edge_requires_text_tail() {
        let s1 = Dtd::builder("A").str_type("A").build().unwrap();
        let s2 = Dtd::builder("A")
            .concat("A", &["B"])
            .str_type("B")
            .build()
            .unwrap();
        let lambda = TypeMapping::from_fn(&s1, |_| s2.root());
        let e = try_embed(&s1, &s2, lambda.clone(), &[("A", "str", "B")]).unwrap_err();
        assert!(matches!(e, EmbeddingError::PathKind { .. }), "{e}");
        let n = try_embed(&s1, &s2, lambda, &[("A", "str", "B/text()")]).unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn star_multiplicity_step_must_stay_unpinned() {
        let s1 = Dtd::builder("A").star("A", "B").empty("B").build().unwrap();
        let s2 = Dtd::builder("A").star("A", "B").empty("B").build().unwrap();
        let lambda = TypeMapping::by_same_name(&s1, &s2).unwrap();
        let e = try_embed(&s1, &s2, lambda, &[("A", "B", "B[position() = 1]")]).unwrap_err();
        assert!(
            matches!(e, EmbeddingError::StarPositionPinned { .. }),
            "{e}"
        );
    }

    #[test]
    fn star_crossing_and_edge_canonicalizes_to_position_one() {
        // Source AND edge routed through a target star: gets [position()=1].
        let s1 = Dtd::builder("A")
            .concat("A", &["B"])
            .empty("B")
            .build()
            .unwrap();
        let s2 = Dtd::builder("A")
            .star("A", "W")
            .concat("W", &["B"])
            .empty("B")
            .build()
            .unwrap();
        let lambda = TypeMapping::by_same_name(&s1, &s2).unwrap();
        let e = compile(&s1, &s2, lambda, &[("A", "B", "W/B")]).unwrap();
        let rp = e.path(s1.root(), 0);
        assert_eq!(rp.steps[0].pos, Some(1), "star step canonicalized");
        assert!(e.describe().contains("W[position() = 1]/B[position() = 1]"));
    }

    #[test]
    fn star_source_later_star_steps_canonicalize() {
        // Source: A → B*. Target: A → M*, M → N*, N → B... path A/B = M/N/B:
        // first star step M is the multiplicity point (stays unpinned),
        // second star step N defaults to position 1.
        let s1 = Dtd::builder("A").star("A", "B").empty("B").build().unwrap();
        let s2 = Dtd::builder("A")
            .star("A", "M")
            .star("M", "N")
            .concat("N", &["B"])
            .empty("B")
            .build()
            .unwrap();
        let lambda = TypeMapping::by_same_name(&s1, &s2).unwrap();
        let e = compile(&s1, &s2, lambda, &[("A", "B", "M/N/B")]).unwrap();
        let rp = e.path(s1.root(), 0);
        assert_eq!(rp.steps[0].pos, None);
        assert_eq!(rp.steps[1].pos, Some(1));
    }

    #[test]
    fn epsilon_scenario_mindef_aliasing_an_alternative_is_rejected() {
        // Source: A → (B + C + ε). Target: A' → X, X → (B' + C'). Both
        // alternatives route through X, so an A element whose choice is ε
        // still gets X — completed with its minimum default, the first
        // alternative B' — and that static fragment contains path(A, B).
        let s1 = Dtd::builder("A")
            .disjunction_opt("A", &["B", "C"])
            .empty("B")
            .empty("C")
            .build()
            .unwrap();
        let s2 = Dtd::builder("A")
            .concat("A", &["X"])
            .disjunction("X", &["B", "C"])
            .empty("B")
            .empty("C")
            .build()
            .unwrap();
        let lambda = TypeMapping::by_same_name(&s1, &s2).unwrap();
        let e = try_embed(&s1, &s2, lambda, &[("A", "B", "X/B"), ("A", "C", "X/C")]).unwrap_err();
        match e {
            EmbeddingError::AlternativeAliased {
                ty,
                probe,
                scenario,
            } => {
                assert_eq!(ty, "A");
                assert_eq!(probe, "X[position() = 1]/B[position() = 1]");
                assert_eq!(scenario, "ε");
            }
            other => panic!("expected AlternativeAliased, got {other}"),
        }
    }

    /// Target for the scenario-isolation cases: two disjunctions under
    /// the root, `P → (B + C)` and `Q → (E + F)`.
    fn two_disjunction_target() -> Dtd {
        Dtd::builder("R")
            .concat("R", &["P", "Q"])
            .disjunction("P", &["B", "C"])
            .disjunction("Q", &["E", "F"])
            .empty("B")
            .empty("C")
            .empty("E")
            .empty("F")
            .build()
            .unwrap()
    }

    /// Compile `R → D1, …, Dn` into [`two_disjunction_target`]: each
    /// `(D, image, [X, Y])` is a source disjunction `D → (X + Y)` mapped to
    /// `image`, its alternatives to the same-named target types.
    fn verdict(types: &[(&str, &str, [&str; 2])]) -> Result<usize, EmbeddingError> {
        let s2 = two_disjunction_target();
        let names: Vec<&str> = types.iter().map(|t| t.0).collect();
        let mut b = Dtd::builder("R").concat("R", &names);
        for (d, _, alts) in types {
            b = b.disjunction(d, alts);
        }
        for (_, _, alts) in types {
            for leaf in alts {
                b = b.empty(leaf);
            }
        }
        let s1 = b.build().unwrap();
        let mut pairs = vec![("R", "R")];
        let mut edges = Vec::new();
        for (d, image, alts) in types {
            pairs.push((d, image));
            edges.push(("R", *d, *image));
            for leaf in alts {
                pairs.push((leaf, leaf));
                edges.push((*d, *leaf, *leaf));
            }
        }
        let lambda = TypeMapping::by_name_pairs(&s1, &s2, &pairs).unwrap();
        try_embed(&s1, &s2, lambda, &edges)
    }

    #[test]
    fn disjunction_scenarios_are_checked_in_isolation() {
        // Each disjunction type is distinguishable alone; checking both in
        // one compile (one scenario tree, reset between scenarios) must
        // reach the same verdict: nothing from one scenario may linger
        // into the next.
        let d1 = ("D1", "P", ["B", "C"]);
        let d2 = ("D2", "Q", ["E", "F"]);
        let alone_1 = verdict(&[d1]);
        let alone_2 = verdict(&[d2]);
        let both = verdict(&[d1, d2]);
        assert_eq!(alone_1.as_ref().ok(), Some(&3), "{alone_1:?}");
        assert_eq!(alone_2.as_ref().ok(), Some(&3), "{alone_2:?}");
        assert_eq!(both.as_ref().ok(), Some(&6), "{both:?}");
    }

    #[test]
    fn endpoint_must_be_lambda_image() {
        let s1 = Dtd::builder("A")
            .concat("A", &["B"])
            .empty("B")
            .build()
            .unwrap();
        let s2 = Dtd::builder("A")
            .concat("A", &["X", "B"])
            .empty("X")
            .empty("B")
            .build()
            .unwrap();
        let lambda = TypeMapping::by_same_name(&s1, &s2).unwrap();
        let e = try_embed(&s1, &s2, lambda, &[("A", "B", "X")]).unwrap_err();
        assert!(matches!(e, EmbeddingError::PathWrongEndpoint { .. }), "{e}");
    }
}
