use crate::{NodeId, NodeKind, XmlTree};

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

/// Compact XML text, written one event at a time: the one writer behind
/// [`XmlTree::to_xml`] and every other producer of compact text, such as
/// an instance mapping that emits its output without building a tree.
///
/// The writer holds the two rules that fix the bytes: character data is
/// escaped, and an element with no children at all is written `<t/>`. A
/// start tag is left open until the element's first child or its end
/// arrives, so a caller never needs to know ahead whether an element is
/// empty. An element whose only child is an empty text value is written
/// `<t></t>`.
#[derive(Debug, Default)]
pub struct XmlWriter {
    out: String,
    /// A start tag awaits its `>` (or, if the element ends now, `/>`).
    start_open: bool,
}

impl XmlWriter {
    /// A writer with `bytes` of output reserved.
    pub fn with_capacity(bytes: usize) -> Self {
        XmlWriter {
            out: String::with_capacity(bytes),
            start_open: false,
        }
    }

    /// Start an element labeled `tag`, as the next child of the open one.
    pub fn start(&mut self, tag: &str) {
        self.seal();
        self.out.push('<');
        self.out.push_str(tag);
        self.start_open = true;
    }

    /// Write a text node with string `value`, escaped.
    pub fn text(&mut self, value: &str) {
        self.seal();
        escape_into(&mut self.out, value);
    }

    /// End the open element, labeled `tag`.
    pub fn end(&mut self, tag: &str) {
        if self.start_open {
            self.out.push_str("/>");
            self.start_open = false;
        } else {
            self.out.push_str("</");
            self.out.push_str(tag);
            self.out.push('>');
        }
    }

    /// Start a new line indented `depth` times by `unit`, for indented
    /// output (no newline before the first node).
    fn indent(&mut self, unit: &str, depth: usize) {
        self.seal();
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        for _ in 0..depth {
            self.out.push_str(unit);
        }
    }

    /// The text written so far. Every started element must have ended.
    pub fn finish(self) -> String {
        debug_assert!(!self.start_open, "an element was left open");
        self.out
    }

    fn seal(&mut self) {
        if self.start_open {
            self.out.push('>');
            self.start_open = false;
        }
    }
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

    /// One preorder walk over the CSR child spans into an [`XmlWriter`],
    /// on an explicit stack of open elements, each with its children not
    /// yet written, so depth is bounded by memory, not the call stack. The
    /// output is presized from the tag and text bytes.
    fn write_xml(&self, indent: Option<&str>) -> String {
        let mut w = XmlWriter::with_capacity(self.compact_len_hint());
        let pad = |w: &mut XmlWriter, depth: usize| {
            if let Some(unit) = indent {
                w.indent(unit, depth);
            }
        };
        let mut open: Vec<(&str, std::slice::Iter<'_, NodeId>)> = Vec::new();
        let mut next = Some(self.root());
        loop {
            if let Some(cur) = next {
                pad(&mut w, open.len());
                match self.kind(cur) {
                    NodeKind::Text(v) => w.text(v),
                    NodeKind::Element(tag) => {
                        w.start(tag);
                        match self.children(cur) {
                            [] => w.end(tag),
                            // A single text child is kept inline so values
                            // do not accrete surrounding whitespace in
                            // pretty mode.
                            &[only] if self.is_text(only) => {
                                w.text(self.text_value(only).unwrap_or_default());
                                w.end(tag);
                            }
                            children => open.push((tag, children.iter())),
                        }
                    }
                }
            }
            // Write the innermost open element's next child, or close it.
            let Some((tag, children)) = open.last_mut() else {
                return w.finish();
            };
            next = children.next().copied();
            if next.is_none() {
                let tag = *tag;
                open.pop();
                pad(&mut w, open.len());
                w.end(tag);
            }
        }
    }
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
    fn writer_matches_to_xml_on_empty_elements_and_values() {
        let mut w = super::XmlWriter::default();
        w.start("r");
        w.start("e");
        w.end("e");
        w.start("v");
        w.text("");
        w.end("v");
        w.start("s");
        w.text("&<>\"'");
        w.end("s");
        w.end("r");
        let mut t = XmlTree::new("r");
        t.add_element(t.root(), "e");
        let v = t.add_element(t.root(), "v");
        t.add_text(v, "");
        let s = t.add_element(t.root(), "s");
        t.add_text(s, "&<>\"'");
        let text = w.finish();
        assert_eq!(text, "<r><e/><v></v><s>&amp;&lt;&gt;&quot;&apos;</s></r>");
        assert_eq!(text, t.to_xml());
    }

    #[test]
    fn empty_element_uses_self_closing_form() {
        let t = XmlTree::new("r");
        assert_eq!(t.to_xml(), "<r/>");
    }
}
