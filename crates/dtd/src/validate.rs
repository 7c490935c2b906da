//! Conformance validation: does a tree belong to `I(S)`? (§2.1)

use std::fmt;

use xse_xmltree::{NodeId, TagId, XmlTree};

use crate::{Dtd, Production, TypeId};

/// A conformance violation, reported with the offending node's label path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationError {
    /// `/`-joined label path from the root to the offending node.
    pub path: String,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at /{}: {}", self.path, self.msg)
    }
}

impl std::error::Error for ValidationError {}

impl Dtd {
    /// This DTD's type names as interned in `tree`'s symbol table:
    /// `tags[t.index()]` is type `t`'s tag, or `None` when `tree` never
    /// interned the name, so no node of `tree` carries it.
    pub fn tag_ids(&self, tree: &XmlTree) -> Vec<Option<TagId>> {
        self.types().map(|t| tree.tag_id(self.name(t))).collect()
    }

    /// Check that `tree` conforms to this DTD: the root is labeled with the
    /// root type and every element's children match its production.
    pub fn validate(&self, tree: &XmlTree) -> Result<(), ValidationError> {
        let root_name = tree.tag(tree.root()).unwrap_or("#text");
        if root_name != self.name(self.root) {
            return Err(ValidationError {
                path: root_name.to_string(),
                msg: format!(
                    "root is <{root_name}> but the DTD's root type is <{}>",
                    self.name(self.root)
                ),
            });
        }
        self.validate_subtree(tree, tree.root(), self.root)
    }

    /// Check that the subtree rooted at `node` is a valid instance of
    /// element type `expect`.
    ///
    /// Each type's name is looked up in `tree`'s symbol table once; every
    /// label check after that compares [`TagId`]s, and the messages are
    /// formatted only on failure.
    pub fn validate_subtree(
        &self,
        tree: &XmlTree,
        node: NodeId,
        expect: TypeId,
    ) -> Result<(), ValidationError> {
        let tags = self.tag_ids(tree);
        // Explicit worklist; documents can be deep.
        let mut work: Vec<(NodeId, TypeId)> = vec![(node, expect)];
        while let Some((n, t)) = work.pop() {
            self.validate_one(tree, &tags, n, t, &mut work)?;
        }
        Ok(())
    }

    fn validate_one(
        &self,
        tree: &XmlTree,
        tags: &[Option<TagId>],
        node: NodeId,
        t: TypeId,
        work: &mut Vec<(NodeId, TypeId)>,
    ) -> Result<(), ValidationError> {
        let err = |msg: String| {
            Err(ValidationError {
                path: tree.label_path(node).join("/"),
                msg,
            })
        };
        // `child`'s type if it is an element labeled like one of `types`.
        let typed = |child: NodeId, types: &[TypeId]| {
            let tag = tree.node_tag_id(child)?;
            types
                .iter()
                .copied()
                .find(|ct| tags[ct.index()] == Some(tag))
        };
        // What `child` is, for a message: `<tag>` or `text`.
        let found = |child: NodeId| match tree.node_tag_id(child) {
            Some(tag) => format!("<{}>", tree.tag_name(tag)),
            None => "text".to_string(),
        };
        let tag = self.name(t);
        if typed(node, &[t]).is_none() {
            return match tree.node_tag_id(node) {
                None => err(format!("expected element <{tag}>, found text")),
                Some(_) => err(format!("expected <{tag}>, found {}", found(node))),
            };
        }
        let children = tree.children(node);
        match self.production(t) {
            Production::Str => {
                if children.len() != 1 || !tree.is_text(children[0]) {
                    return err(format!(
                        "<{tag}> must contain exactly one text node (has {} children)",
                        children.len()
                    ));
                }
            }
            Production::Empty => {
                if !children.is_empty() {
                    return err(format!(
                        "<{tag}> must be empty, has {} children",
                        children.len()
                    ));
                }
            }
            Production::Concat(cs) => {
                if children.len() != cs.len() {
                    return err(format!(
                        "<{tag}> must have exactly {} children ({}), has {}",
                        cs.len(),
                        cs.iter()
                            .map(|c| self.name(*c))
                            .collect::<Vec<_>>()
                            .join(", "),
                        children.len()
                    ));
                }
                for (&child, &ct) in children.iter().zip(cs.iter()) {
                    if typed(child, &[ct]).is_none() {
                        return err(format!(
                            "child of <{tag}>: expected <{}>, found {}",
                            self.name(ct),
                            found(child)
                        ));
                    }
                    work.push((child, ct));
                }
            }
            Production::Disjunction { alts, allows_empty } => {
                if children.is_empty() {
                    if *allows_empty {
                        return Ok(());
                    }
                    return err(format!("<{tag}> must have exactly one child, has none"));
                }
                if children.len() != 1 {
                    return err(format!(
                        "<{tag}> must have exactly one child, has {}",
                        children.len()
                    ));
                }
                let child = children[0];
                if tree.is_text(child) {
                    return err(format!("child of <{tag}> must be an element, found text"));
                }
                match typed(child, alts) {
                    Some(a) => work.push((child, a)),
                    None => {
                        return err(format!(
                            "child of <{tag}>: {} is not among the alternatives ({})",
                            found(child),
                            alts.iter()
                                .map(|a| self.name(*a))
                                .collect::<Vec<_>>()
                                .join(" | ")
                        ))
                    }
                }
            }
            Production::Star(b) => {
                for &child in children {
                    if typed(child, &[*b]).is_none() {
                        return err(format!(
                            "child of <{tag}>: expected <{}>, found {}",
                            self.name(*b),
                            found(child)
                        ));
                    }
                    work.push((child, *b));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xse_xmltree::parse_xml;

    fn dtd() -> Dtd {
        Dtd::builder("db")
            .star("db", "class")
            .concat("class", &["cno", "type"])
            .str_type("cno")
            .disjunction_opt("type", &["regular", "project"])
            .empty("regular")
            .empty("project")
            .build()
            .unwrap()
    }

    fn check(xml: &str) -> Result<(), ValidationError> {
        dtd().validate(&parse_xml(xml).unwrap())
    }

    #[test]
    fn accepts_conforming_documents() {
        check("<db/>").unwrap();
        check("<db><class><cno>CS331</cno><type><regular/></type></class></db>").unwrap();
        check("<db><class><cno>x</cno><type/></class><class><cno>y</cno><type><project/></type></class></db>")
            .unwrap();
    }

    #[test]
    fn rejects_wrong_root() {
        let e = check("<notdb/>").unwrap_err();
        assert!(e.msg.contains("root"));
    }

    #[test]
    fn rejects_concat_arity_mismatch() {
        let e = check("<db><class><cno>x</cno></class></db>").unwrap_err();
        assert!(e.msg.contains("exactly 2 children"), "{e}");
        assert_eq!(e.path, "db/class");
    }

    #[test]
    fn rejects_concat_wrong_order() {
        let e = check("<db><class><type/><cno>x</cno></class></db>").unwrap_err();
        assert!(e.msg.contains("expected <cno>"), "{e}");
    }

    #[test]
    fn rejects_multiple_disjunction_children() {
        let e = check("<db><class><cno>x</cno><type><regular/><project/></type></class></db>")
            .unwrap_err();
        assert!(e.msg.contains("exactly one child"), "{e}");
    }

    #[test]
    fn rejects_unknown_alternative() {
        let e = check("<db><class><cno>x</cno><type><weird/></type></class></db>").unwrap_err();
        assert!(e.msg.contains("not among the alternatives"), "{e}");
    }

    #[test]
    fn rejects_missing_text() {
        let e = check("<db><class><cno/><type/></class></db>").unwrap_err();
        assert!(e.msg.contains("text node"), "{e}");
    }

    #[test]
    fn rejects_nonempty_empty_type() {
        let e =
            check("<db><class><cno>x</cno><type><regular><oops/></regular></type></class></db>")
                .unwrap_err();
        assert!(e.msg.contains("must be empty"), "{e}");
    }

    #[test]
    fn rejects_foreign_star_children() {
        let e = check("<db><notclass/></db>").unwrap_err();
        assert!(e.msg.contains("expected <class>"), "{e}");
    }

    #[test]
    fn disjunction_without_empty_flag_requires_a_child() {
        let d = Dtd::builder("r")
            .disjunction("r", &["a"])
            .empty("a")
            .build()
            .unwrap();
        let t = parse_xml("<r/>").unwrap();
        assert!(d.validate(&t).is_err());
        let t = parse_xml("<r><a/></r>").unwrap();
        d.validate(&t).unwrap();
    }

    #[test]
    fn a_type_the_document_never_names_matches_no_node() {
        // `class`, `cno`, `type`, `regular` and `project` are declared but
        // absent from each document's symbol table.
        let empty = parse_xml("<db/>").unwrap();
        assert_eq!(empty.tag_id("class"), None);
        let class = dtd().type_id("class").unwrap();
        assert_eq!(dtd().tag_ids(&empty)[class.index()], None);
        dtd().validate(&empty).unwrap();
        let foreign = parse_xml("<db><klass/></db>").unwrap();
        assert_eq!(foreign.tag_id("class"), None);
        let e = dtd().validate(&foreign).unwrap_err();
        assert_eq!(e.msg, "child of <db>: expected <class>, found <klass>");
        assert_eq!(e.path, "db");
    }

    #[test]
    fn validates_deep_documents_iteratively() {
        let d = Dtd::builder("a")
            .disjunction_opt("a", &["a"])
            .build()
            .unwrap();
        let mut t = xse_xmltree::XmlTree::new("a");
        let mut cur = t.root();
        for _ in 0..200_000 {
            cur = t.add_element(cur, "a");
        }
        d.validate(&t).unwrap();
    }
}
