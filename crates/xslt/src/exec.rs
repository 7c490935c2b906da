//! The XSLT processing model (§4.3, after Wadler 2000).
//!
//! Processing revolves around context nodes: instantiate the chosen rule's
//! output for the context node; every apply-templates leaf evaluates its
//! select expression at the context node and processes the selected nodes
//! in document order, splicing the resulting forests in place. Unmatched
//! nodes fall back to XSLT's built-in rules.
//!
//! The walk keeps its pending work on a heap stack, not the call stack, and
//! appends the result straight into the output tree in document order. So
//! a document nested [`MAX_APPLY_DEPTH`] levels deep is transformed on any
//! thread, and one level more is refused with [`XsltError::DepthExceeded`].

use std::fmt;

use xse_rxpath::Evaluator;
use xse_xmltree::{NodeId, XmlTree};

use crate::{OutputNode, Pattern, Stylesheet, TemplateRule};

/// Errors from stylesheet application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XsltError {
    /// The transformation result is not a single-rooted document.
    NotSingleRooted(usize),
    /// Templates were applied more than [`MAX_APPLY_DEPTH`] levels deep: a
    /// document nested that deep, or a select that never stops descending.
    DepthExceeded,
}

impl fmt::Display for XsltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XsltError::NotSingleRooted(n) => {
                write!(f, "stylesheet produced {n} root nodes, expected exactly 1")
            }
            XsltError::DepthExceeded => write!(f, "apply-templates recursion too deep"),
        }
    }
}

/// The deepest nesting of template applications: the source root is
/// applied at depth 1, and each apply-templates (or built-in rule) descends
/// one level. The bound guards against selects that never stop (a select
/// that revisits the context node in the same mode); the call stack does
/// not limit it.
pub const MAX_APPLY_DEPTH: usize = 100_000;

/// Apply `sheet` to `source`, starting (like an XSLT processor) by applying
/// templates to the document root in `start_mode`.
pub fn apply_stylesheet(
    sheet: &Stylesheet,
    source: &XmlTree,
    start_mode: Option<&str>,
) -> Result<XmlTree, XsltError> {
    let engine = Engine {
        sheet,
        source,
        ev: Evaluator::new(source),
    };
    engine.run(start_mode)
}

/// Where an output node goes.
#[derive(Clone, Copy)]
enum Parent {
    /// The top level of the result, whose first node becomes the root.
    Top,
    /// Under this node of the result tree.
    Node(NodeId),
    /// Nowhere: below a second top-level node, so the result is refused
    /// anyway and only the top-level count matters.
    Dropped,
}

/// One piece of pending work. Work is popped from a stack and pushed in
/// reverse, so the result is appended in document order.
enum Task<'a> {
    /// Apply templates to source `node` in `mode`.
    Apply {
        node: NodeId,
        mode: Option<&'a str>,
        depth: usize,
        parent: Parent,
    },
    /// Instantiate a rule's `output` for context node `ctx`.
    Instantiate {
        output: &'a OutputNode,
        ctx: NodeId,
        depth: usize,
        parent: Parent,
    },
}

/// The result under construction: the tree is created by the first
/// top-level element, and every top-level node is counted.
struct Output {
    tree: Option<XmlTree>,
    roots: usize,
}

impl Output {
    fn element(&mut self, parent: Parent, tag: &str) -> Parent {
        match parent {
            Parent::Node(at) => {
                let tree = self.tree.as_mut().expect("a result node has a tree");
                Parent::Node(tree.add_element(at, tag))
            }
            Parent::Top => {
                self.roots += 1;
                if self.roots > 1 {
                    return Parent::Dropped;
                }
                Parent::Node(self.tree.insert(XmlTree::new(tag)).root())
            }
            Parent::Dropped => Parent::Dropped,
        }
    }

    fn text(&mut self, parent: Parent, value: &str) {
        match parent {
            Parent::Node(at) => {
                let tree = self.tree.as_mut().expect("a result node has a tree");
                tree.add_text(at, value);
            }
            Parent::Top => self.roots += 1,
            Parent::Dropped => {}
        }
    }
}

struct Engine<'a> {
    sheet: &'a Stylesheet,
    source: &'a XmlTree,
    ev: Evaluator<'a>,
}

impl<'a> Engine<'a> {
    fn run(&self, start_mode: Option<&'a str>) -> Result<XmlTree, XsltError> {
        let mut out = Output {
            tree: None,
            roots: 0,
        };
        let mut stack = vec![Task::Apply {
            node: self.source.root(),
            mode: start_mode,
            depth: 1,
            parent: Parent::Top,
        }];
        while let Some(task) = stack.pop() {
            match task {
                Task::Apply {
                    node,
                    mode,
                    depth,
                    parent,
                } => {
                    if depth > MAX_APPLY_DEPTH {
                        return Err(XsltError::DepthExceeded);
                    }
                    if let Some(rule) = self.select_rule(node, mode) {
                        stack.extend(rule.output.iter().rev().map(|output| Task::Instantiate {
                            output,
                            ctx: node,
                            depth,
                            parent,
                        }));
                    } else if let Some(v) = self.source.text_value(node) {
                        // Built-in rules: text nodes copy their value;
                        // elements recurse into children in the same mode.
                        out.text(parent, v);
                    } else {
                        let children = self.source.children(node).iter().rev();
                        stack.extend(children.map(|&node| Task::Apply {
                            node,
                            mode,
                            depth: depth + 1,
                            parent,
                        }));
                    }
                }
                Task::Instantiate {
                    output,
                    ctx,
                    depth,
                    parent,
                } => match output {
                    OutputNode::Element { tag, children } => {
                        let parent = out.element(parent, tag);
                        stack.extend(children.iter().rev().map(|output| Task::Instantiate {
                            output,
                            ctx,
                            depth,
                            parent,
                        }));
                    }
                    OutputNode::Text(s) => out.text(parent, s),
                    OutputNode::Apply { select, mode } => {
                        let selected = self.ev.eval(select, ctx).into_iter().rev();
                        stack.extend(selected.map(|node| Task::Apply {
                            node,
                            mode: mode.as_deref(),
                            depth: depth + 1,
                            parent,
                        }));
                    }
                },
            }
        }
        match (out.tree, out.roots) {
            (Some(tree), 1) => Ok(tree),
            (_, roots) => Err(XsltError::NotSingleRooted(roots)),
        }
    }

    /// Highest-specificity matching rule; ties broken by definition order.
    fn select_rule(&self, node: NodeId, mode: Option<&str>) -> Option<&'a TemplateRule> {
        let mut best: Option<(u8, &'a TemplateRule)> = None;
        for r in &self.sheet.rules {
            if r.mode.as_deref() != mode {
                continue;
            }
            let Pattern::Element { name, filter } = &r.pattern;
            let matches = self.source.tag(node) == Some(name.as_str())
                && filter
                    .as_ref()
                    .is_none_or(|q| !self.ev.eval(q, node).is_empty());
            if matches {
                let spec = r.pattern.specificity();
                if best.is_none_or(|(s, _)| spec > s) {
                    best = Some((spec, r));
                }
            }
        }
        best.map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TemplateRule;
    use xse_rxpath::parse_query;
    use xse_xmltree::parse_xml;

    fn rule(pattern: Pattern, mode: Option<&str>, output: Vec<OutputNode>) -> TemplateRule {
        TemplateRule {
            pattern,
            mode: mode.map(String::from),
            output,
        }
    }

    #[test]
    fn identity_via_builtins() {
        // No rules at all: builtins walk elements and copy text — the
        // result is the concatenated text, which is not single-rooted for
        // elements; wrap with one rule for the root.
        let mut s = Stylesheet::new();
        s.add(rule(
            Pattern::element("r"),
            None,
            vec![OutputNode::Element {
                tag: "r".into(),
                children: vec![OutputNode::Apply {
                    select: parse_query("a/text()").unwrap(),
                    mode: None,
                }],
            }],
        ));
        let src = parse_xml("<r><a>hi</a></r>").unwrap();
        let out = apply_stylesheet(&s, &src, None).unwrap();
        assert_eq!(out.to_xml(), "<r>hi</r>");
    }

    #[test]
    fn modes_partition_rules() {
        let mut s = Stylesheet::new();
        s.add(rule(
            Pattern::element("r"),
            None,
            vec![OutputNode::Element {
                tag: "out".into(),
                children: vec![
                    OutputNode::Apply {
                        select: parse_query("x").unwrap(),
                        mode: Some("one".into()),
                    },
                    OutputNode::Apply {
                        select: parse_query("x").unwrap(),
                        mode: Some("two".into()),
                    },
                ],
            }],
        ));
        s.add(rule(
            Pattern::element("x"),
            Some("one"),
            vec![OutputNode::Element {
                tag: "first".into(),
                children: vec![],
            }],
        ));
        s.add(rule(
            Pattern::element("x"),
            Some("two"),
            vec![OutputNode::Element {
                tag: "second".into(),
                children: vec![],
            }],
        ));
        let src = parse_xml("<r><x/></r>").unwrap();
        let out = apply_stylesheet(&s, &src, None).unwrap();
        assert_eq!(out.to_xml(), "<out><first/><second/></out>");
    }

    #[test]
    fn filtered_patterns_beat_plain_ones() {
        let mut s = Stylesheet::new();
        s.add(rule(
            Pattern::element("r"),
            None,
            vec![OutputNode::Element {
                tag: "d".into(),
                children: vec![OutputNode::Apply {
                    select: parse_query("v").unwrap(),
                    mode: None,
                }],
            }],
        ));
        // Plain rule listed first; filtered rule must still win.
        s.add(rule(
            Pattern::element("v"),
            None,
            vec![OutputNode::Text("plain".into())],
        ));
        s.add(rule(
            Pattern::element_with("v", parse_query("flag").unwrap()),
            None,
            vec![OutputNode::Text("flagged".into())],
        ));
        let out = apply_stylesheet(&s, &parse_xml("<r><v><flag/></v></r>").unwrap(), None).unwrap();
        assert_eq!(out.to_xml(), "<d>flagged</d>");
        let out = apply_stylesheet(&s, &parse_xml("<r><v/></r>").unwrap(), None).unwrap();
        assert_eq!(out.to_xml(), "<d>plain</d>");
    }

    #[test]
    fn apply_splices_in_document_order() {
        let mut s = Stylesheet::new();
        s.add(rule(
            Pattern::element("r"),
            None,
            vec![OutputNode::Element {
                tag: "list".into(),
                children: vec![OutputNode::Apply {
                    select: parse_query("item/text()").unwrap(),
                    mode: None,
                }],
            }],
        ));
        let src = parse_xml("<r><item>1</item><item>2</item><item>3</item></r>").unwrap();
        let out = apply_stylesheet(&s, &src, None).unwrap();
        assert_eq!(out.to_xml(), "<list>123</list>");
    }

    #[test]
    fn non_single_rooted_results_error() {
        let mut s = Stylesheet::new();
        s.add(rule(
            Pattern::element("r"),
            None,
            vec![
                OutputNode::Element {
                    tag: "a".into(),
                    children: vec![],
                },
                OutputNode::Element {
                    tag: "b".into(),
                    children: vec![],
                },
            ],
        ));
        let err = apply_stylesheet(&s, &parse_xml("<r/>").unwrap(), None).unwrap_err();
        assert_eq!(err, XsltError::NotSingleRooted(2));
    }

    #[test]
    fn start_mode_selects_rules() {
        let mut s = Stylesheet::new();
        s.add(rule(
            Pattern::element("r"),
            Some("alt"),
            vec![OutputNode::Element {
                tag: "alt".into(),
                children: vec![],
            }],
        ));
        let out = apply_stylesheet(&s, &parse_xml("<r/>").unwrap(), Some("alt")).unwrap();
        assert_eq!(out.to_xml(), "<alt/>");
    }

    #[test]
    fn a_select_that_revisits_its_node_trips_the_depth_guard() {
        let mut s = Stylesheet::new();
        s.add(rule(
            Pattern::element("r"),
            None,
            vec![OutputNode::Apply {
                select: xse_rxpath::XrQuery::Empty,
                mode: None,
            }],
        ));
        let err = apply_stylesheet(&s, &parse_xml("<r/>").unwrap(), None).unwrap_err();
        assert_eq!(err, XsltError::DepthExceeded);
    }
}
