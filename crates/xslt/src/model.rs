//! Stylesheet data model: the 3-tuples `(match(ri), mode(ri), output(ri))`.

use std::fmt;

use xse_rxpath::XrQuery;

/// A match pattern — "essentially a subset of XPath expressions containing
/// only child, descendant, and attribute axes". Our generated stylesheets
/// need element tags with an optional relative filter (`category[mandatory/
/// regular]`), so that is what the model provides.
#[derive(Clone, Debug)]
pub enum Pattern {
    /// Matches an element with this tag; when `filter` is present the query
    /// evaluated at the node must be nonempty.
    Element {
        /// Required tag.
        name: String,
        /// Optional existence filter, e.g. the `[Bi]` of the disjunction
        /// rules.
        filter: Option<XrQuery>,
    },
}

impl Pattern {
    /// An element pattern without a filter.
    pub fn element(name: &str) -> Pattern {
        Pattern::Element {
            name: name.to_string(),
            filter: None,
        }
    }

    /// An element pattern with a filter query.
    pub fn element_with(name: &str, filter: XrQuery) -> Pattern {
        Pattern::Element {
            name: name.to_string(),
            filter: Some(filter),
        }
    }

    /// Specificity used for rule selection (higher wins): filtered element >
    /// plain element.
    pub fn specificity(&self) -> u8 {
        match self {
            Pattern::Element {
                filter: Some(_), ..
            } => 3,
            Pattern::Element { filter: None, .. } => 2,
        }
    }
}

/// A node of a rule's output tree.
#[derive(Clone, Debug)]
pub enum OutputNode {
    /// A literal element.
    Element {
        /// Tag to emit.
        tag: String,
        /// Children in order.
        children: Vec<OutputNode>,
    },
    /// A literal text node (the `#s` defaults in fragment completions).
    Text(String),
    /// An apply-templates instruction: evaluate `select` at the current
    /// source node, recursively process each result in document order with
    /// `mode`, splice the outputs here.
    Apply {
        /// Select expression (relative `XR` query).
        select: XrQuery,
        /// Mode of the recursive application (`None` = unmoded).
        mode: Option<String>,
    },
}

/// One template rule.
#[derive(Clone, Debug)]
pub struct TemplateRule {
    /// `match(ri)`.
    pub pattern: Pattern,
    /// `mode(ri)`.
    pub mode: Option<String>,
    /// `output(ri)` — possibly several roots (a forest).
    pub output: Vec<OutputNode>,
}

/// An XSLT stylesheet: an ordered set of template rules. When several rules
/// match a node in the same mode, higher pattern specificity wins, ties
/// broken by definition order (earlier wins) — generators list specific
/// rules before fallbacks.
#[derive(Clone, Debug, Default)]
pub struct Stylesheet {
    /// The rules, in definition order.
    pub rules: Vec<TemplateRule>,
}

impl Stylesheet {
    /// Create an empty stylesheet.
    pub fn new() -> Self {
        Stylesheet::default()
    }

    /// Append a rule.
    pub fn add(&mut self, rule: TemplateRule) {
        self.rules.push(rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` when there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

impl fmt::Display for Stylesheet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "<xsl:stylesheet version=\"1.0\">")?;
        for r in &self.rules {
            let m = match &r.pattern {
                Pattern::Element { name, filter: None } => name.clone(),
                Pattern::Element {
                    name,
                    filter: Some(q),
                } => format!("{name}[{q}]"),
            };
            write!(f, "  <xsl:template match=\"{m}\"")?;
            if let Some(mode) = &r.mode {
                write!(f, " mode=\"{mode}\"")?;
            }
            writeln!(f, ">")?;
            for o in &r.output {
                write_output(f, o, 2)?;
            }
            writeln!(f, "  </xsl:template>")?;
        }
        writeln!(f, "</xsl:stylesheet>")
    }
}

fn write_output(f: &mut fmt::Formatter<'_>, o: &OutputNode, depth: usize) -> fmt::Result {
    let pad = "  ".repeat(depth);
    match o {
        OutputNode::Element { tag, children } => {
            if children.is_empty() {
                writeln!(f, "{pad}<{tag}/>")
            } else {
                writeln!(f, "{pad}<{tag}>")?;
                for c in children {
                    write_output(f, c, depth + 1)?;
                }
                writeln!(f, "{pad}</{tag}>")
            }
        }
        OutputNode::Text(s) => writeln!(f, "{pad}{s}"),
        OutputNode::Apply { select, mode } => {
            write!(f, "{pad}<xsl:apply-templates select=\"{select}\"")?;
            if let Some(m) = mode {
                write!(f, " mode=\"{m}\"")?;
            }
            writeln!(f, "/>")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xse_rxpath::parse_query;

    #[test]
    fn display_renders_template_markup() {
        let mut s = Stylesheet::new();
        s.add(TemplateRule {
            pattern: Pattern::element_with("category", parse_query("mandatory/regular").unwrap()),
            mode: None,
            output: vec![OutputNode::Element {
                tag: "type".into(),
                children: vec![OutputNode::Apply {
                    select: parse_query("mandatory/regular").unwrap(),
                    mode: Some("inv-regular".into()),
                }],
            }],
        });
        let text = s.to_string();
        assert!(text.contains("<xsl:template match=\"category[mandatory/regular]\">"));
        assert!(text
            .contains("<xsl:apply-templates select=\"mandatory/regular\" mode=\"inv-regular\"/>"));
        assert!(!s.is_empty());
        assert_eq!(s.len(), 1);
    }
}
