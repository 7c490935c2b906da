use crate::{NodeKind, XmlTree};

/// Escape a string for use as XML character data (also safe inside
/// double-quoted attribute values).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `s` to `out` with the five XML special characters escaped,
/// copying each run between them as one slice.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\'' => "&apos;",
            _ => continue,
        };
        // The special characters are ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

impl XmlTree {
    /// Serialize to compact XML text (no insignificant whitespace), the
    /// format accepted back by [`crate::parse_xml`].
    pub fn to_xml(&self) -> String {
        self.write_xml(None)
    }

    /// Serialize to indented XML text for human consumption.
    ///
    /// Indentation inserts whitespace-only text, so `parse_xml(pretty)`
    /// equals the original tree only because the parser drops
    /// whitespace-only text between elements.
    pub fn to_xml_pretty(&self) -> String {
        let mut out = self.write_xml(Some("  "));
        out.push('\n');
        out
    }

    /// One iterative preorder walk over the first-child / next-sibling
    /// links, so depth is bounded by memory, not the call stack, and the
    /// CSR child spans are never built. The output is presized from the
    /// tag and text bytes.
    fn write_xml(&self, indent: Option<&str>) -> String {
        let mut out = String::with_capacity(self.compact_len_hint());
        let pad = |out: &mut String, depth: usize| {
            if let Some(unit) = indent {
                if !out.is_empty() {
                    out.push('\n');
                }
                for _ in 0..depth {
                    out.push_str(unit);
                }
            }
        };
        let root = self.root();
        let mut cur = root;
        let mut depth = 0;
        loop {
            pad(&mut out, depth);
            match self.kind(cur) {
                NodeKind::Text(v) => escape_into(&mut out, v),
                NodeKind::Element(tag) => match self.first_child(cur) {
                    None => {
                        out.push('<');
                        out.push_str(tag);
                        out.push_str("/>");
                    }
                    Some(first) => {
                        out.push('<');
                        out.push_str(tag);
                        out.push('>');
                        // A single text child is kept inline so values do
                        // not accrete surrounding whitespace in pretty mode.
                        if self.child_count(cur) == 1 && self.is_text(first) {
                            escape_into(&mut out, self.text_value(first).unwrap_or_default());
                            close_tag(&mut out, tag);
                        } else {
                            cur = first;
                            depth += 1;
                            continue;
                        }
                    }
                },
            }
            // `cur` is written: move to its next sibling, closing every
            // ancestor whose last child this was.
            loop {
                if cur == root {
                    return out;
                }
                if let Some(next) = self.next_sibling(cur) {
                    cur = next;
                    break;
                }
                cur = self.parent(cur).expect("a non-root node has a parent");
                depth -= 1;
                pad(&mut out, depth);
                close_tag(&mut out, self.tag(cur).unwrap_or_default());
            }
        }
    }
}

fn close_tag(out: &mut String, tag: &str) {
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

#[cfg(test)]
mod tests {
    use crate::XmlTree;

    #[test]
    fn escapes_special_characters() {
        assert_eq!(
            super::escape_text("a<b>&\"'c"),
            "a&lt;b&gt;&amp;&quot;&apos;c"
        );
        assert_eq!(super::escape_text("plain"), "plain");
    }

    #[test]
    fn compact_serialization() {
        let mut t = XmlTree::new("db");
        let class = t.add_element(t.root(), "class");
        let cno = t.add_element(class, "cno");
        t.add_text(cno, "CS<331>");
        t.add_element(class, "type");
        assert_eq!(
            t.to_xml(),
            "<db><class><cno>CS&lt;331&gt;</cno><type/></class></db>"
        );
    }

    #[test]
    fn pretty_serialization_is_indented() {
        let mut t = XmlTree::new("db");
        let class = t.add_element(t.root(), "class");
        let cno = t.add_element(class, "cno");
        t.add_text(cno, "CS331");
        let pretty = t.to_xml_pretty();
        assert_eq!(
            pretty,
            "<db>\n  <class>\n    <cno>CS331</cno>\n  </class>\n</db>\n"
        );
    }

    #[test]
    fn empty_element_uses_self_closing_form() {
        let t = XmlTree::new("r");
        assert_eq!(t.to_xml(), "<r/>");
    }
}
