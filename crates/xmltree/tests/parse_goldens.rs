//! Golden outputs of `parse_xml`: the `(at, msg)` of one malformed input
//! per error branch, and the parsed shape of edge cases (comments and PIs
//! inside text, entity and character-reference decoding, multi-byte UTF-8,
//! whitespace-only runs under `char::is_whitespace`). They pin what a
//! caller observes of the parser, so a rewrite of its internals must
//! reproduce every one of them.

use xse_xmltree::{parse_xml, NodeKind, XmlTree};

/// `(input, byte offset, message)` for every rejected input.
const ERRORS: &[(&str, usize, &str)] = &[
    ("", 0, "expected root element"),
    ("   ", 3, "expected root element"),
    ("hello", 0, "expected root element"),
    ("<a/><b/>", 4, "trailing content after root element"),
    ("<a/>x", 4, "trailing content after root element"),
    (
        "<a></a>\n<!-- c --> z",
        19,
        "trailing content after root element",
    ),
    (
        "<!-- never closed",
        0,
        "unterminated construct, expected \"-->\"",
    ),
    (
        "<?xml version=\"1.0\"",
        0,
        "unterminated construct, expected \"?>\"",
    ),
    ("<!DOCTYPE a [<!ELEMENT a (b)>", 29, "unterminated DOCTYPE"),
    (
        "<a><!-- never closed</a>",
        3,
        "unterminated construct, expected \"-->\"",
    ),
    (
        "<a><?pi never closed</a>",
        3,
        "unterminated construct, expected \"?>\"",
    ),
    ("<a x=\"1\"/>", 3, "attributes are not supported"),
    ("<a =\"1\"/>", 3, "attributes are not supported"),
    ("<a \"1\"/>", 3, "attributes are not supported"),
    ("<a !>", 3, "malformed start tag"),
    ("<a", 2, "malformed start tag"),
    ("<a/ >", 3, "expected '>' after '/'"),
    ("<a/", 3, "expected '>' after '/'"),
    ("<a></a x>", 7, "malformed end tag"),
    ("<a></a", 6, "malformed end tag"),
    (
        "<a><b></a></b>",
        10,
        "mismatched end tag </a>, expected </b>",
    ),
    (
        "<a><b></b></c>",
        14,
        "mismatched end tag </c>, expected </a>",
    ),
    ("<>", 1, "expected a name"),
    ("< a/>", 1, "expected a name"),
    ("<a></>", 5, "expected a name"),
    ("<a><!DOCTYPE b></a>", 4, "expected a name"),
    ("<a><![CDATA[x]]></a>", 4, "expected a name"),
    ("<a>é</é>", 7, "expected a name"),
    ("<a>&foo;</a>", 3, "unknown entity"),
    ("<a>& b</a>", 3, "unknown entity"),
    ("<a>&amp</a>", 3, "unknown entity"),
    ("<a>&#65</a>", 3, "unterminated character reference"),
    ("<a>&#x</a>", 3, "unterminated character reference"),
    ("<a>&#xD800;</a>", 3, "invalid character reference"),
    ("<a>&#zz;</a>", 3, "invalid character reference"),
    ("<a>&#;</a>", 3, "invalid character reference"),
    ("<a>&#x;</a>", 3, "invalid character reference"),
    ("<a>&#1114112;</a>", 3, "invalid character reference"),
    ("<a>&#65</a><b>;", 3, "invalid character reference"),
    ("<a>", 3, "unexpected end of input inside element"),
    ("<a><b>", 6, "unexpected end of input inside element"),
    ("<a>text", 7, "unexpected end of input inside element"),
    ("<a><b/>téxt", 12, "unexpected end of input inside element"),
    ("<a><b></b>", 10, "unexpected end of input inside element"),
];

/// `(input, shape)` for accepted inputs; see [`shape`].
const TREES: &[(&str, &str)] = &[
    ("<a>a<!--c-->b</a>", "0<a>#1 1\"ab\""),
    ("<a>a<?pi x?>b</a>", "0<a>#1 1\"ab\""),
    ("<a>x<!---->y<?p?>z</a>", "0<a>#1 1\"xyz\""),
    ("<a><!-->x</a>", "0<a>#1 1\"x\""),
    ("<a><?>x</a>", "0<a>#1 1\"x\""),
    ("<a>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;&#x1F600;&#+67;</a>", "0<a>#1 1\"<>&\\\"'AB😀C\""),
    ("<a>héllo ✓ 😀 中文</a>", "0<a>#1 1\"héllo ✓ 😀 中文\""),
    ("<a>\u{b}</a>", "0<a>#0"),
    ("<a>\u{c}</a>", "0<a>#0"),
    ("<a>\u{a0}</a>", "0<a>#0"),
    ("<a>\u{b}\u{c}\u{a0} \u{2028}<b/>\u{a0}</a>", "0<a>#1 1<b>#0"),
    ("<a> x </a>", "0<a>#1 1\" x \""),
    ("<a>&#32;</a>", "0<a>#0"),
    ("<a>&#160;<b/></a>", "0<a>#1 1<b>#0"),
    ("<a>\n  <b/>\n  <c>v</c>\n</a>", "0<a>#2 1<b>#0 1<c>#1 2\"v\""),
    ("<?xml version=\"1.0\"?>\n<!DOCTYPE a [<!ELEMENT a (b)>]>\n<!-- hi -->\n<a >t<b\n/></a >\n<?pi?>", "0<a>#2 1\"t\" 1<b>#0"),
    ("<a>x<b/>y<c>z</c>w</a>", "0<a>#5 1\"x\" 1<b>#0 1\"y\" 1<c>#1 2\"z\" 1\"w\""),
    ("<x:a-b.c_d><e1/></x:a-b.c_d>", "0<x:a-b.c_d>#1 1<e1>#0"),
    ("<a>]]&gt;</a>", "0<a>#1 1\"]]>\""),
];

/// Preorder rendering: `depth<tag>#arity` for elements, `depth"text"` (Rust
/// debug escaping) for text nodes.
fn shape(t: &XmlTree) -> String {
    let mut out = Vec::new();
    for id in t.preorder() {
        let d = t.depth(id);
        out.push(match t.kind(id) {
            NodeKind::Element(tag) => format!("{d}<{tag}>#{}", t.child_count(id)),
            NodeKind::Text(v) => format!("{d}{v:?}"),
        });
    }
    out.join(" ")
}

#[test]
fn error_offsets_and_messages_are_unchanged() {
    for &(input, at, msg) in ERRORS {
        let e = parse_xml(input).expect_err(input);
        assert_eq!((e.at, e.msg.as_str()), (at, msg), "input {input:?}");
    }
}

#[test]
fn parsed_edge_case_trees_are_unchanged() {
    for &(input, want) in TREES {
        let t = parse_xml(input).unwrap_or_else(|e| panic!("{input:?}: {e}"));
        assert_eq!(shape(&t), want, "input {input:?}");
    }
}
