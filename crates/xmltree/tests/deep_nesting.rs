//! Hostile nesting: parsing and serializing documents far deeper than any
//! call stack could recurse, on a thread with a 2 MiB stack (the default
//! for spawned threads, and so for server connection threads).

use xse_xmltree::{parse_xml, XmlTree};

const STACK: usize = 2 << 20;

/// `depth` nested `<a>` elements around the text `x`.
fn nested(depth: usize) -> String {
    let mut s = String::with_capacity(8 * depth + 1);
    for _ in 0..depth {
        s.push_str("<a>");
    }
    s.push('x');
    for _ in 0..depth {
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

#[test]
fn parse_and_to_xml_survive_100k_levels() {
    on_small_stack(|| {
        let depth = 100_000;
        let src = nested(depth);
        let t = parse_xml(&src).expect("deep document parses");
        assert_eq!(t.len(), depth + 1);
        let leaf = t.preorder().last().expect("non-empty");
        assert_eq!(t.text_value(leaf), Some("x"));
        assert_eq!(t.depth(leaf), depth);
        assert_eq!(t.to_xml(), src, "compact output is byte-identical");
    });
}

#[test]
fn deep_truncated_and_mismatched_documents_are_errors() {
    on_small_stack(|| {
        let depth = 100_000;
        let src = nested(depth);
        let truncated = &src[..src.len() - 4];
        let e = parse_xml(truncated).unwrap_err();
        assert_eq!(e.msg, "unexpected end of input inside element");
        let mismatched = format!("{}</b>", &src[..src.len() - 4]);
        let e = parse_xml(&mismatched).unwrap_err();
        assert_eq!(e.msg, "mismatched end tag </b>, expected </a>");
    });
}

/// Pretty output indents each level by two spaces, so its size grows with
/// the square of the depth (~20 GB at 100,000 levels). 5,000 levels keeps
/// it near 50 MB and is past the depth at which a recursive writer
/// overflows a 2 MiB stack in a debug build (under 4,000).
#[test]
fn to_xml_pretty_survives_deep_trees() {
    on_small_stack(|| {
        let depth = 5_000;
        let mut t = XmlTree::new("a");
        let mut cur = t.root();
        for _ in 1..depth {
            cur = t.add_element(cur, "a");
        }
        t.add_text(cur, "x");
        let pretty = t.to_xml_pretty();
        assert_eq!(pretty.lines().count(), 2 * depth - 1);
        let back = parse_xml(&pretty).expect("pretty output parses");
        assert!(back.equals(&t), "{:?}", back.first_difference(&t));
    });
}
