//! Hostile documents through the request dispatcher: a document nested far
//! deeper than any call stack could recurse must come back as an answer or
//! a typed error, never take the process down. Each case runs on a thread
//! with a 2 MiB stack, the default for a server worker.

use xse_service::{
    handle_request, EmbeddingRegistry, ErrorCode, RegistryConfig, Request, Response,
};

const STACK: usize = 2 << 20;
const DEPTH: usize = 100_000;

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

/// Apply and Invert `xml` under the identity pair of `dtd`, each on its
/// own 2 MiB thread.
fn apply_and_invert(dtd: &'static str, xml: String) -> [Response; 2] {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(move || {
            let registry = EmbeddingRegistry::new(RegistryConfig::default());
            let (source_dtd, target_dtd) = (dtd.to_string(), dtd.to_string());
            let applied = handle_request(
                &registry,
                &Request::Apply {
                    source_dtd: source_dtd.clone(),
                    target_dtd: target_dtd.clone(),
                    xml: xml.clone(),
                },
            );
            let inverted = handle_request(
                &registry,
                &Request::Invert {
                    source_dtd,
                    target_dtd,
                    xml,
                },
            );
            [applied, inverted]
        })
        .expect("spawn test thread")
        .join()
        .expect("dispatcher thread panicked")
}

#[test]
fn deep_document_under_a_non_recursive_pair_is_a_bad_document() {
    let dtd = "<!ELEMENT a (b*)>\n<!ELEMENT b (#PCDATA)>";
    for resp in apply_and_invert(dtd, nested(DEPTH)) {
        match resp {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadDocument),
            other => panic!("expected BadDocument, got {other:?}"),
        }
    }
}

#[test]
fn deep_document_under_a_recursive_identity_pair_maps_through() {
    let dtd = "<!ELEMENT a (a*)>";
    let doc = nested(DEPTH);
    for resp in apply_and_invert(dtd, doc.clone()) {
        match resp {
            Response::Document { xml } => assert!(xml == doc, "identity pair changed the document"),
            Response::Error { code, message } => panic!("{code:?}: {message}"),
            other => panic!("expected a Document, got {other:?}"),
        }
    }
}
