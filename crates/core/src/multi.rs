//! Embedding multiple sources into one target (§4.5, Example 4.9).
//!
//! Given sources `S1, …, Sn` with disjoint type names, define the combined
//! DTD `S′` whose fresh root concatenates the source roots; an embedding
//! `S′ → S` then decomposes into simultaneous embeddings `σi : Si → S`, and
//! a combined instance maps to a single target document that *integrates*
//! all sources (the paper's school document holding both the class and the
//! student data). Helpers here build `S′`, combine and split instances, and
//! rename-prefix a DTD when names collide.

use std::collections::HashSet;

use xse_dtd::{Dtd, DtdError, Production};
use xse_xmltree::{NodeId, XmlTree};

/// Build the combined source `S′ = (E1 ∪ … ∪ En ∪ {r′}, r′ → r1, …, rn)`.
///
/// # Errors
/// The sources must have pairwise disjoint type names, none equal to
/// `combined_root` (rename with [`prefix_types`] first).
pub fn combine_sources(combined_root: &str, sources: &[&Dtd]) -> Result<Dtd, DtdError> {
    let mut seen: HashSet<&str> = HashSet::new();
    seen.insert(combined_root);
    for s in sources {
        for t in s.types() {
            if !seen.insert(s.name(t)) {
                return Err(DtdError::DuplicateType(s.name(t).to_string()));
            }
        }
    }
    let mut b = Dtd::builder(combined_root);
    let root_children: Vec<String> = sources
        .iter()
        .map(|s| s.name(s.root()).to_string())
        .collect();
    let refs: Vec<&str> = root_children.iter().map(String::as_str).collect();
    b = b.concat(combined_root, &refs);
    for s in sources {
        for t in s.types() {
            let name = s.name(t);
            b = match s.production(t) {
                Production::Str => b.str_type(name),
                Production::Empty => b.empty(name),
                Production::Concat(cs) => {
                    let children: Vec<&str> = cs.iter().map(|c| s.name(*c)).collect();
                    b.concat(name, &children)
                }
                Production::Disjunction { alts, allows_empty } => {
                    let children: Vec<&str> = alts.iter().map(|c| s.name(*c)).collect();
                    if *allows_empty {
                        b.disjunction_opt(name, &children)
                    } else {
                        b.disjunction(name, &children)
                    }
                }
                Production::Star(c) => b.star(name, s.name(*c)),
            };
        }
    }
    b.build()
}

/// Rename every type of `dtd` with a prefix, producing a structurally
/// identical DTD with disjoint names (`prefix_types(s, "s1_")` turns `db`
/// into `s1_db`).
pub fn prefix_types(dtd: &Dtd, prefix: &str) -> Dtd {
    let mut b = Dtd::builder(format!("{prefix}{}", dtd.name(dtd.root())));
    for t in dtd.types() {
        let name = format!("{prefix}{}", dtd.name(t));
        b = match dtd.production(t) {
            Production::Str => b.str_type(&name),
            Production::Empty => b.empty(&name),
            Production::Concat(cs) => {
                let children: Vec<String> = cs
                    .iter()
                    .map(|c| format!("{prefix}{}", dtd.name(*c)))
                    .collect();
                let refs: Vec<&str> = children.iter().map(String::as_str).collect();
                b.concat(&name, &refs)
            }
            Production::Disjunction { alts, allows_empty } => {
                let children: Vec<String> = alts
                    .iter()
                    .map(|c| format!("{prefix}{}", dtd.name(*c)))
                    .collect();
                let refs: Vec<&str> = children.iter().map(String::as_str).collect();
                if *allows_empty {
                    b.disjunction_opt(&name, &refs)
                } else {
                    b.disjunction(&name, &refs)
                }
            }
            Production::Star(c) => b.star(&name, &format!("{prefix}{}", dtd.name(*c))),
        };
    }
    b.build().expect("renaming preserves well-formedness")
}

/// Relabel every element of `tree` with a prefix (companion to
/// [`prefix_types`]).
pub fn prefix_instance(tree: &XmlTree, prefix: &str) -> XmlTree {
    let mut out = XmlTree::new(format!(
        "{prefix}{}",
        tree.tag(tree.root()).unwrap_or("root")
    ));
    let root = out.root();
    copy_children(tree, tree.root(), &mut out, root, Some(prefix));
    out
}

/// Combine one instance per source into an instance of the combined DTD.
pub fn combine_instances(combined_root: &str, instances: &[&XmlTree]) -> XmlTree {
    let mut out = XmlTree::new(combined_root);
    let root = out.root();
    for t in instances {
        let sub = out.add_element(root, t.tag(t.root()).unwrap_or("root"));
        copy_children(t, t.root(), &mut out, sub, None);
    }
    out
}

/// Split a combined instance back into per-source documents (inverse of
/// [`combine_instances`]).
pub fn split_instance(combined: &XmlTree) -> Vec<XmlTree> {
    combined
        .children(combined.root())
        .iter()
        .map(|&c| {
            let mut out = XmlTree::new(combined.tag(c).unwrap_or("root"));
            let root = out.root();
            copy_children(combined, c, &mut out, root, None);
            out
        })
        .collect()
}

/// Append copies of `from`'s children (and their subtrees) under `to`, each
/// tag prefixed with `prefix` if given. One loop over an explicit stack, so
/// document depth is bounded by memory, not by the call stack.
fn copy_children(src: &XmlTree, from: NodeId, dst: &mut XmlTree, to: NodeId, prefix: Option<&str>) {
    // Pairs (source node, copy's parent), pushed in reverse so pops follow
    // document order and every parent receives its children in order.
    let mut stack: Vec<(NodeId, NodeId)> =
        src.children(from).iter().rev().map(|&c| (c, to)).collect();
    while let Some((c, parent)) = stack.pop() {
        match src.tag(c) {
            Some(tag) => {
                let n = match prefix {
                    Some(p) => dst.add_element(parent, format!("{p}{tag}")),
                    None => dst.add_element(parent, tag),
                };
                stack.extend(src.children(c).iter().rev().map(|&g| (g, n)));
            }
            None => {
                dst.add_text(parent, src.text_value(c).unwrap_or_default());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xse_xmltree::parse_xml;

    fn classes() -> Dtd {
        Dtd::builder("classdb")
            .star("classdb", "class")
            .str_type("class")
            .build()
            .unwrap()
    }

    fn students() -> Dtd {
        Dtd::builder("studentdb")
            .star("studentdb", "student")
            .str_type("student")
            .build()
            .unwrap()
    }

    #[test]
    fn combine_disjoint_sources() {
        let (a, b) = (classes(), students());
        let c = combine_sources("sources", &[&a, &b]).unwrap();
        assert_eq!(c.type_count(), 1 + 2 + 2);
        assert_eq!(c.name(c.root()), "sources");
        assert!(c.is_consistent());
        let root_prod = c.production(c.root());
        assert_eq!(root_prod.children().len(), 2);
    }

    #[test]
    fn name_collisions_are_rejected_then_fixed_by_prefixing() {
        let a = classes();
        let e = combine_sources("sources", &[&a, &a]).unwrap_err();
        assert!(matches!(e, DtdError::DuplicateType(_)));
        let a1 = prefix_types(&a, "s1_");
        let a2 = prefix_types(&a, "s2_");
        let c = combine_sources("sources", &[&a1, &a2]).unwrap();
        assert!(c.type_id("s1_class").is_some());
        assert!(c.type_id("s2_class").is_some());
    }

    #[test]
    fn combine_and_split_instances_roundtrip() {
        let t1 = parse_xml("<classdb><class>x</class></classdb>").unwrap();
        let t2 =
            parse_xml("<studentdb><student>y</student><student>z</student></studentdb>").unwrap();
        let c = combine_instances("sources", &[&t1, &t2]);
        let (a, b) = (classes(), students());
        let combined_dtd = combine_sources("sources", &[&a, &b]).unwrap();
        combined_dtd.validate(&c).unwrap();
        let parts = split_instance(&c);
        assert_eq!(parts.len(), 2);
        assert!(parts[0].equals(&t1));
        assert!(parts[1].equals(&t2));
    }

    #[test]
    fn prefix_instance_matches_prefix_types() {
        let d = classes();
        let pd = prefix_types(&d, "p_");
        let t = parse_xml("<classdb><class>x</class></classdb>").unwrap();
        let pt = prefix_instance(&t, "p_");
        pd.validate(&pt).unwrap();
        assert_eq!(pt.to_xml(), "<p_classdb><p_class>x</p_class></p_classdb>");
    }

    #[test]
    fn deep_documents_combine_and_split_on_a_2_mib_stack() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut t = XmlTree::new("d");
                let mut cur = t.root();
                for _ in 0..100_000 {
                    cur = t.add_element(cur, "d");
                }
                t.add_text(cur, "leaf");
                let p = prefix_instance(&t, "p_");
                assert_eq!(p.len(), t.len());
                assert_eq!(p.tag(p.root()), Some("p_d"));
                let combined = combine_instances("sources", &[&t, &p]);
                assert_eq!(combined.len(), 1 + 2 * t.len());
                let parts = split_instance(&combined);
                assert_eq!(parts.len(), 2);
                assert!(parts[0].equals(&t), "split(combine(t)) differs from t");
                assert!(parts[1].equals(&p), "split(combine(p)) differs from p");
            })
            .expect("spawn test thread")
            .join()
            .expect("copied without overflowing the stack");
    }
}
