//! Generating the `σd` stylesheet (§4.3, cases (1)–(4); Example 4.6).
//!
//! Each source production becomes one or more template rules whose output
//! is the production fragment shape with apply-templates at the hot leaves:
//!
//! 1. concatenations — one rule, constant fragment, one apply per child;
//! 2. disjunctions — one rule per alternative, matched by `A[Bi]`, plus a
//!    completion-only fallback for an `ε` alternative;
//! 3. stars — a prefix rule emitting the constant part up to the
//!    multiplicity node and a suffix rule in a dedicated mode (`fwd*-A`)
//!    emitting one repetition per source child;
//! 4. str — the fragment chain ending in the copied text value.
//!
//! The fragments are core's production fragments, the ones `apply`
//! materializes: every rule's output is a
//! [`CompiledEmbedding::static_fragment`] with an apply-templates at each
//! chain's endpoint, so the stylesheet maps a document exactly as
//! [`CompiledEmbedding::apply`] does.
//!
//! A mode per source type (`fwd-A`) keeps rules apart when `λ` maps two
//! source types to one target tag (see the crate docs).

use std::collections::{HashMap, HashSet};

use xse_core::{CompiledEmbedding, ResolvedStep};
use xse_dtd::{Dtd, Production, TypeId};
use xse_rxpath::{Qualifier, XrQuery};
use xse_xmltree::{NodeId, NodeKind, XmlTree};

use crate::{OutputNode, Pattern, Stylesheet, TemplateRule};

/// Generate the forward (`σd`) stylesheet. Apply it with
/// [`apply_stylesheet`](crate::apply_stylesheet)`(…, None)`; an unmoded
/// bootstrap rule dispatches the source root into its `fwd-…` mode.
pub fn generate_forward(e: &CompiledEmbedding) -> Stylesheet {
    let mut sheet = Stylesheet::new();
    let src = e.source();

    // Bootstrap: route the root into its mode.
    sheet.add(TemplateRule {
        pattern: Pattern::element(src.name(src.root())),
        mode: None,
        output: vec![OutputNode::Apply {
            select: XrQuery::Empty,
            mode: Some(fwd_mode(src, src.root())),
        }],
    });

    for a in src.types() {
        let la = e.lambda(a);
        let rule = |pattern: Pattern, output: OutputNode| TemplateRule {
            pattern,
            mode: Some(fwd_mode(src, a)),
            output: vec![output],
        };
        let plain = Pattern::element(src.name(a));
        match src.production(a) {
            Production::Empty => sheet.add(rule(plain, fragment(e, la, vec![]))),
            Production::Str => {
                // The built-in text rule copies the value into the chain's
                // endpoint.
                let copy = Attach::Inside(OutputNode::Apply {
                    select: XrQuery::Text,
                    mode: None,
                });
                let chains = vec![(e.path(a, 0).steps.as_slice(), copy)];
                sheet.add(rule(plain, fragment(e, la, chains)));
            }
            Production::Concat(cs) => {
                // Occurrence-aware selects for repeated child types.
                let mut occ: HashMap<TypeId, usize> = HashMap::new();
                let repeated: HashSet<TypeId> = {
                    let mut seen = HashSet::new();
                    cs.iter().filter(|c| !seen.insert(**c)).copied().collect()
                };
                let chains = cs
                    .iter()
                    .enumerate()
                    .map(|(slot, &c)| {
                        let k = occ.entry(c).or_insert(0);
                        *k += 1;
                        let mut select = XrQuery::label(src.name(c));
                        if repeated.contains(&c) {
                            select = select.with(Qualifier::Position(*k));
                        }
                        (e.path(a, slot).steps.as_slice(), child(src, select, c))
                    })
                    .collect();
                sheet.add(rule(plain, fragment(e, la, chains)));
            }
            Production::Disjunction { alts, allows_empty } => {
                for (slot, &c) in alts.iter().enumerate() {
                    let select = XrQuery::label(src.name(c));
                    let chains = vec![(e.path(a, slot).steps.as_slice(), child(src, select, c))];
                    let pattern = Pattern::element_with(src.name(a), XrQuery::label(src.name(c)));
                    sheet.add(rule(pattern, fragment(e, la, chains)));
                }
                if *allows_empty {
                    sheet.add(rule(plain, fragment(e, la, vec![])));
                }
            }
            Production::Star(b) => {
                let rp = e.path(a, 0);
                let mult = rp.first_star_step().expect("validated star path");
                let star_mode = format!("fwd*-{}", src.name(a));
                // Prefix rule: the constant part, with the repetitions
                // applied inside the star parent.
                let repetitions = Attach::Inside(OutputNode::Apply {
                    select: XrQuery::label(src.name(*b)),
                    mode: Some(star_mode.clone()),
                });
                let chains = vec![(&rp.steps[..mult], repetitions)];
                sheet.add(rule(plain, fragment(e, la, chains)));
                // Suffix rule: one repetition, the multiplicity element and
                // the suffix chain, whose endpoint the child's own rule
                // replaces with λ(B).
                let chains = vec![(&rp.steps[mult + 1..], child(src, XrQuery::Empty, *b))];
                sheet.add(TemplateRule {
                    pattern: Pattern::element(src.name(*b)),
                    mode: Some(star_mode),
                    output: vec![fragment(e, rp.steps[mult].ty, chains)],
                });
            }
        }
    }
    sheet
}

fn fwd_mode(src: &Dtd, a: TypeId) -> String {
    format!("fwd-{}", src.name(a))
}

/// How a chain's output attaches at the chain's endpoint.
enum Attach {
    /// Replaces the endpoint element: a hot leaf, whose source child's own
    /// rule emits that element.
    Replace(OutputNode),
    /// Goes inside the endpoint: a `text()` copy, or a star parent's
    /// repetitions.
    Inside(OutputNode),
}

/// A hot leaf: apply the `fwd` rule of source type `c` to `select`.
fn child(src: &Dtd, select: XrQuery, c: TypeId) -> Attach {
    Attach::Replace(OutputNode::Apply {
        select,
        mode: Some(fwd_mode(src, c)),
    })
}

/// The rule output for the static fragment of target type `root_ty` over
/// `chains`, each chain's output attached at its endpoint.
fn fragment(
    e: &CompiledEmbedding,
    root_ty: TypeId,
    chains: Vec<(&[ResolvedStep], Attach)>,
) -> OutputNode {
    let steps: Vec<&[ResolvedStep]> = chains.iter().map(|&(steps, _)| steps).collect();
    let (tree, ends) = e.static_fragment(root_ty, &steps);
    let mut at: HashMap<NodeId, Attach> = ends
        .into_iter()
        .zip(chains.into_iter().map(|(_, attach)| attach))
        .collect();
    to_output(&tree, tree.root(), &mut at)
}

/// The fragment tree below `n` as rule output, with the endpoints' outputs
/// in `at` attached.
fn to_output(tree: &XmlTree, n: NodeId, at: &mut HashMap<NodeId, Attach>) -> OutputNode {
    let (tag, inside) = match (tree.kind(n), at.remove(&n)) {
        (_, Some(Attach::Replace(output))) => return output,
        (NodeKind::Text(v), _) => return OutputNode::Text(v.to_string()),
        (NodeKind::Element(tag), Some(Attach::Inside(output))) => (tag, Some(output)),
        (NodeKind::Element(tag), None) => (tag, None),
    };
    let mut children: Vec<OutputNode> = tree
        .children(n)
        .iter()
        .map(|&c| to_output(tree, c, at))
        .collect();
    children.extend(inside);
    OutputNode::Element {
        tag: tag.to_string(),
        children,
    }
}

#[cfg(test)]
mod tests {
    use xse_core::EmbeddingBuilder;
    use xse_xmltree::parse_xml;

    use super::*;
    use crate::apply_stylesheet;

    /// A `str` edge whose path ends in `name/text()` copies the value into
    /// `name`: the stylesheet keeps the chain's last element, as `apply`
    /// does, so the result is valid against the target.
    #[test]
    fn text_edge_keeps_the_chain_end_element() {
        let s1 = Dtd::builder("r")
            .concat("r", &["a"])
            .str_type("a")
            .build()
            .unwrap();
        let s2 = Dtd::builder("r")
            .concat("r", &["a"])
            .concat("a", &["name", "extra"])
            .str_type("name")
            .str_type("extra")
            .build()
            .unwrap();
        let e = EmbeddingBuilder::new(s1, s2.clone())
            .edge("r", "a", "a")
            .text_edge("a", "name/text()")
            .build()
            .unwrap();
        let doc = parse_xml("<r><a>hello</a></r>").unwrap();
        let direct = e.apply(&doc).unwrap().tree;
        assert_eq!(
            direct.to_xml(),
            "<r><a><name>hello</name><extra>#s</extra></a></r>"
        );
        let via = apply_stylesheet(&generate_forward(&e), &doc, None).unwrap();
        assert_eq!(via.to_xml(), direct.to_xml());
        s2.validate(&via).unwrap();
    }
}
