use std::fmt;

use crate::{NodeId, TagId, XmlTree};

/// Error raised by [`parse_xml`], with a byte offset into the input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the problem was detected.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parse a small XML subset into an [`XmlTree`]: elements, character data,
/// the five predefined entities, comments, processing instructions and a
/// leading XML declaration / DOCTYPE (the latter three are skipped).
/// Attributes are rejected — the paper's document model has none.
/// Whitespace-only text between elements is dropped; text adjacent to
/// elements is kept verbatim.
///
/// Time is linear in the input length. The parser is one loop over an
/// explicit stack of open elements, so nesting depth is bounded by memory,
/// not by the call stack: a document nested 100,000 levels deep parses on
/// a 2 MiB thread. Each run of character data is copied as one slice
/// straight into the tree's shared text buffer.
pub fn parse_xml(input: &str) -> Result<XmlTree, ParseError> {
    Parser { input, pos: 0 }.parse_document()
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            msg: msg.into(),
        })
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ParseError> {
        match self.bytes()[self.pos..]
            .windows(end.len())
            .position(|w| w == end.as_bytes())
        {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => self.err(format!("unterminated construct, expected {end:?}")),
        }
    }

    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                // DOCTYPE may contain a bracketed internal subset.
                let mut depth = 0usize;
                loop {
                    match self.peek() {
                        Some(b'[') => depth += 1,
                        Some(b']') => depth = depth.saturating_sub(1),
                        Some(b'>') if depth == 0 => {
                            self.pos += 1;
                            break;
                        }
                        Some(_) => {}
                        None => return self.err("unterminated DOCTYPE"),
                    }
                    self.pos += 1;
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_document(mut self) -> Result<XmlTree, ParseError> {
        self.skip_misc()?;
        if self.peek() != Some(b'<') {
            return self.err("expected root element");
        }
        // Presize both arenas from one count of '<'. Every element brings
        // a '<' (its start tag) and an element with content brings a
        // second (its end tag), which covers one text child; so the count
        // bounds the node count unless content is mixed. Each '<' opens at
        // least three bytes of markup, which bounds the text. Both are
        // hints: mixed content, or '<' inside comments, grows an arena.
        let lt_count = count_lt(self.bytes());
        let text_bound = self.input.len().saturating_sub(lt_count.saturating_mul(3));
        let (name, selfclosing) = self.parse_open_tag()?;
        let mut tree = XmlTree::with_capacity(name, lt_count, text_bound);
        if !selfclosing {
            self.parse_content(&mut tree, name)?;
        }
        self.skip_misc()?;
        if self.pos != self.input.len() {
            return self.err("trailing content after root element");
        }
        Ok(tree)
    }

    /// Parse `<name>` / `<name/>`, returning the name and whether it was
    /// self-closing. `self.pos` must be at `<`.
    fn parse_open_tag(&mut self) -> Result<(&'a str, bool), ParseError> {
        self.pos += 1; // consume '<'
        let name = self.parse_name()?;
        self.skip_ws();
        match self.peek() {
            Some(b'/') => {
                self.pos += 1;
                if self.peek() != Some(b'>') {
                    return self.err("expected '>' after '/'");
                }
                self.pos += 1;
                Ok((name, true))
            }
            Some(b'>') => {
                self.pos += 1;
                Ok((name, false))
            }
            Some(b'=') | Some(b'"') => self.err("attributes are not supported"),
            Some(c) if c.is_ascii_alphabetic() => self.err("attributes are not supported"),
            _ => self.err("malformed start tag"),
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        let rest = &self.bytes()[start..];
        self.pos += rest
            .iter()
            .position(|&c| !(c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':')))
            .unwrap_or(rest.len());
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(&self.input[start..self.pos])
    }

    /// The content of the root element `root` (whose start tag has been
    /// read) through its end tag: one loop over an explicit stack of open
    /// elements, each paired with its name for the end-tag check.
    fn parse_content(&mut self, tree: &mut XmlTree, root: &'a str) -> Result<(), ParseError> {
        let mut open: Vec<(NodeId, &'a str)> = vec![(tree.root(), root)];
        let mut tags = TagCache::default();
        // Start of the pending text run in the tree's text buffer. Comments
        // and PIs do not end a run, so `a<!--c-->b` is one text node.
        let mut text_start = tree.text_bytes();
        loop {
            let rest = &self.bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'<' || b == b'&')
                .unwrap_or(rest.len());
            // '<' and '&' are ASCII, so the run ends on a char boundary.
            tree.text_buffer_mut()
                .push_str(&self.input[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return self.err("unexpected end of input inside element"),
                Some(b'&') => {
                    let c = self.parse_entity()?;
                    tree.text_buffer_mut().push(c);
                }
                Some(_) => {
                    // At '<': the byte after it picks the construct.
                    let next = self.bytes().get(self.pos + 1).copied();
                    if next == Some(b'!') && self.starts_with("<!--") {
                        self.skip_until("-->")?;
                        continue;
                    }
                    if next == Some(b'?') {
                        self.skip_until("?>")?;
                        continue;
                    }
                    let (parent, parent_name) = *open.last().expect("an element is open");
                    flush_text(tree, parent, text_start);
                    if next == Some(b'/') {
                        self.pos += 2;
                        let name = self.parse_name()?;
                        self.skip_ws();
                        if self.peek() != Some(b'>') {
                            return self.err("malformed end tag");
                        }
                        self.pos += 1;
                        if name != parent_name {
                            return self.err(format!(
                                "mismatched end tag </{name}>, expected </{parent_name}>"
                            ));
                        }
                        open.pop();
                        if open.is_empty() {
                            return Ok(());
                        }
                    } else {
                        let (name, selfclosing) = self.parse_open_tag()?;
                        let tag = tags.intern(tree, name);
                        let child = tree.add_element_tag(parent, tag);
                        if !selfclosing {
                            open.push((child, name));
                        }
                    }
                    text_start = tree.text_bytes();
                }
            }
        }
    }

    fn parse_entity(&mut self) -> Result<char, ParseError> {
        for (ent, ch) in [
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&amp;", '&'),
            ("&quot;", '"'),
            ("&apos;", '\''),
        ] {
            if self.starts_with(ent) {
                self.pos += ent.len();
                return Ok(ch);
            }
        }
        if self.starts_with("&#") {
            let semi = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == b';')
                .ok_or(ParseError {
                    at: self.pos,
                    msg: "unterminated character reference".into(),
                })?;
            let body = &self.input[self.pos + 2..self.pos + semi];
            let code = match body.strip_prefix('x') {
                Some(hex) => u32::from_str_radix(hex, 16),
                None => body.parse(),
            };
            let ch = code
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| ParseError {
                    at: self.pos,
                    msg: "invalid character reference".into(),
                })?;
            self.pos += semi + 1;
            return Ok(ch);
        }
        self.err("unknown entity")
    }
}

/// The number of `<` bytes in `bytes`, counted in 64-byte blocks so the
/// compiler vectorizes the compare.
fn count_lt(bytes: &[u8]) -> usize {
    let mut blocks = bytes.chunks_exact(64);
    let mut n = 0;
    for block in &mut blocks {
        // At most 64 matches per block, so the sum fits in a u8.
        n += usize::from(block.iter().map(|&b| u8::from(b == b'<')).sum::<u8>());
    }
    n + blocks.remainder().iter().filter(|&&b| b == b'<').count()
}

/// End the pending text run at `start`: keep it as a text child of
/// `parent` unless it is whitespace only (`char::is_whitespace`), in which
/// case it is truncated back off the buffer.
fn flush_text(tree: &mut XmlTree, parent: NodeId, start: usize) {
    let buf = tree.text_buffer_mut();
    if buf.len() == start {
        return;
    }
    if buf[start..].chars().all(char::is_whitespace) {
        buf.truncate(start);
    } else {
        tree.add_text_from(parent, start);
    }
}

/// Slots in [`TagCache`]: a document has one tag per element type of its
/// schema, usually far fewer than this.
const TAG_CACHE_SLOTS: usize = 64;

/// A direct-mapped cache from tag names to [`TagId`]s in front of
/// [`XmlTree::intern_tag`]. A hit costs an FNV-1a hash and one compare of
/// the name; a miss interns and overwrites the slot, so work per element
/// stays bounded however many distinct tags a document uses.
struct TagCache<'a> {
    slots: [Option<(&'a str, TagId)>; TAG_CACHE_SLOTS],
}

impl Default for TagCache<'_> {
    fn default() -> Self {
        TagCache {
            slots: [None; TAG_CACHE_SLOTS],
        }
    }
}

impl<'a> TagCache<'a> {
    fn intern(&mut self, tree: &mut XmlTree, name: &'a str) -> TagId {
        let hash = name.bytes().fold(0x811c_9dc5u32, |h, b| {
            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
        });
        let slot = &mut self.slots[hash as usize % TAG_CACHE_SLOTS];
        match *slot {
            Some((cached, id)) if cached == name => id,
            _ => {
                let id = tree.intern_tag(name);
                *slot = Some((name, id));
                id
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let t = parse_xml("<db><class><cno>CS331</cno><type/></class></db>").unwrap();
        assert_eq!(t.tag(t.root()), Some("db"));
        let class = t.children(t.root())[0];
        assert_eq!(t.tag(class), Some("class"));
        let cno = t.children(class)[0];
        let txt = t.children(cno)[0];
        assert_eq!(t.text_value(txt), Some("CS331"));
        assert_eq!(t.children(t.children(class)[1]).len(), 0);
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let src = "<a><b>x &amp; y</b><c><d/></c></a>";
        let t = parse_xml(src).unwrap();
        assert_eq!(t.to_xml(), src);
        let t2 = parse_xml(&t.to_xml_pretty()).unwrap();
        assert!(t.equals(&t2), "{:?}", t.first_difference(&t2));
    }

    #[test]
    fn drops_whitespace_only_text() {
        let t = parse_xml("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(t.children(t.root()).len(), 2);
    }

    #[test]
    fn keeps_meaningful_whitespace_inside_text() {
        let t = parse_xml("<a>hello  world</a>").unwrap();
        let txt = t.children(t.root())[0];
        assert_eq!(t.text_value(txt), Some("hello  world"));
    }

    #[test]
    fn decodes_entities_and_char_refs() {
        let t = parse_xml("<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</a>").unwrap();
        let txt = t.children(t.root())[0];
        assert_eq!(t.text_value(txt), Some("<>&\"'AB"));
    }

    #[test]
    fn skips_prolog_comments_and_pis() {
        let t = parse_xml(
            "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a (b)>]><!-- hi --><a><!-- in --><b/><?pi data?></a>",
        )
        .unwrap();
        assert_eq!(t.tag(t.root()), Some("a"));
        assert_eq!(t.children(t.root()).len(), 1);
    }

    #[test]
    fn rejects_mismatched_tags() {
        let e = parse_xml("<a><b></a></b>").unwrap_err();
        assert!(e.msg.contains("mismatched"), "{e}");
    }

    #[test]
    fn rejects_attributes() {
        let e = parse_xml("<a x=\"1\"/>").unwrap_err();
        assert!(e.msg.contains("attributes"), "{e}");
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse_xml("<a/><b/>").is_err());
        assert!(parse_xml("<a><b>").is_err());
        assert!(parse_xml("").is_err());
    }

    #[test]
    fn many_distinct_tags_collide_in_the_tag_cache_and_stay_correct() {
        // Far more tags than cache slots, each used twice, so slots are
        // overwritten and re-read.
        let names: Vec<String> = (0..500).map(|i| format!("t{i}")).collect();
        let mut src = String::from("<r>");
        for name in names.iter().chain(names.iter().rev()) {
            src.push_str(&format!("<{name}/>"));
        }
        src.push_str("</r>");
        let t = parse_xml(&src).unwrap();
        let tags: Vec<&str> = t
            .children(t.root())
            .iter()
            .map(|&c| t.tag(c).unwrap())
            .collect();
        let want: Vec<&str> = names
            .iter()
            .chain(names.iter().rev())
            .map(String::as_str)
            .collect();
        assert_eq!(tags, want);
        assert_eq!(t.to_xml(), src);
    }

    #[test]
    fn parses_unicode_text() {
        let t = parse_xml("<a>héllo wörld ✓</a>").unwrap();
        let txt = t.children(t.root())[0];
        assert_eq!(t.text_value(txt), Some("héllo wörld ✓"));
    }
}
