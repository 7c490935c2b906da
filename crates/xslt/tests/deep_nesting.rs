//! Deep documents through `apply_stylesheet`, on a thread with a 2 MiB
//! stack (the default for spawned threads): a document nested exactly
//! `MAX_APPLY_DEPTH` levels deep is transformed, and one level more is
//! refused with a typed error, never a stack overflow.

use xse_rxpath::parse_query;
use xse_xmltree::parse_xml;
use xse_xslt::{
    apply_stylesheet, OutputNode, Pattern, Stylesheet, TemplateRule, XsltError, MAX_APPLY_DEPTH,
};

const STACK: usize = 2 << 20;

/// `depth` nested `<a>` elements, the innermost empty.
fn nested(depth: usize) -> String {
    let mut s = String::with_capacity(7 * depth);
    for _ in 1..depth {
        s.push_str("<a>");
    }
    s.push_str("<a/>");
    for _ in 1..depth {
        s.push_str("</a>");
    }
    s
}

fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(f)
        .expect("spawn test thread")
        .join()
        .expect("test thread panicked")
}

/// Apply `sheet` to `<a>` nested `depth` and `depth + 1` levels deep.
fn at_and_over_the_bound(
    sheet: Stylesheet,
    depth: usize,
) -> (Result<String, XsltError>, Result<String, XsltError>) {
    on_small_stack(move || {
        let run = |depth| {
            let doc = parse_xml(&nested(depth)).expect("deep document parses");
            apply_stylesheet(&sheet, &doc, None).map(|out| out.to_xml())
        };
        (run(depth), run(depth + 1))
    })
}

#[test]
fn a_copy_at_the_depth_bound_is_built_and_one_level_more_is_refused() {
    // `a` → `<a><xsl:apply-templates select="a"/></a>`: one application
    // and one output level per source level.
    let mut sheet = Stylesheet::new();
    sheet.add(TemplateRule {
        pattern: Pattern::element("a"),
        mode: None,
        output: vec![OutputNode::Element {
            tag: "a".into(),
            children: vec![OutputNode::Apply {
                select: parse_query("a").unwrap(),
                mode: None,
            }],
        }],
    });
    let (at, over) = at_and_over_the_bound(sheet, MAX_APPLY_DEPTH);
    assert_eq!(at, Ok(nested(MAX_APPLY_DEPTH)));
    assert_eq!(over, Err(XsltError::DepthExceeded));
}

#[test]
fn built_in_rules_walk_to_the_depth_bound_and_refuse_one_level_more() {
    // No rules: the built-in element rule descends, and no element is
    // output, so a walk that finishes yields no root.
    let (at, over) = at_and_over_the_bound(Stylesheet::new(), MAX_APPLY_DEPTH);
    assert_eq!(at, Err(XsltError::NotSingleRooted(0)));
    assert_eq!(over, Err(XsltError::DepthExceeded));
}
