//! Hostile input through the request dispatcher: a document, DTD content
//! model or query nested far deeper than any call stack could recurse, or a
//! number too large for any counter, must come back as an answer or a typed
//! error, never take the process down. Each case runs on a thread with a
//! 2 MiB stack, the default for a server connection thread.

use xse_dtd::{MAX_GROUP_DEPTH, MAX_TYPES};
use xse_rxpath::MAX_QUERY_DEPTH;
use xse_service::{
    handle_request, Client, EmbeddingRegistry, ErrorCode, RegistryConfig, Request, Response,
    Server, ServerConfig,
};

const STACK: usize = 2 << 20;
const DEPTH: usize = 100_000;

/// Answer `reqs` in order against a fresh registry, on one 2 MiB thread.
fn dispatch(reqs: Vec<Request>) -> Vec<Response> {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(move || {
            let registry = EmbeddingRegistry::new(RegistryConfig::default());
            reqs.iter()
                .map(|req| handle_request(&registry, req))
                .collect()
        })
        .expect("spawn test thread")
        .join()
        .expect("dispatcher thread panicked")
}

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

/// Apply and Invert `xml` under the identity pair of `dtd`.
fn apply_and_invert(dtd: &str, xml: String) -> Vec<Response> {
    dispatch(vec![
        Request::Apply {
            source_dtd: dtd.into(),
            target_dtd: dtd.into(),
            xml: xml.clone(),
        },
        Request::Invert {
            source_dtd: dtd.into(),
            target_dtd: dtd.into(),
            xml,
        },
    ])
}

/// A one-type DTD whose content model is `groups` nested starred groups,
/// `(((b*)*)*…)`.
fn nested_dtd(groups: usize) -> String {
    format!(
        "<!ELEMENT b {}b*{}>",
        "(".repeat(groups),
        ")*".repeat(groups)
    )
}

/// Compile the identity pair of `dtd`.
fn compile(dtd: String) -> Request {
    Request::Compile {
        source_dtd: dtd.clone(),
        target_dtd: dtd,
    }
}

/// Translate `query` under the identity pair of the recursive `b → b*`.
fn translate(query: String) -> Request {
    let dtd = "<!ELEMENT b (b*)>";
    Request::Translate {
        source_dtd: dtd.into(),
        target_dtd: dtd.into(),
        query,
    }
}

/// Queries exactly `depth` levels deep (see [`MAX_QUERY_DEPTH`]), one per
/// way of nesting: a `/` chain, a `|` chain, stars, parentheses, nested
/// predicates and a run of `not`s.
fn queries_of_depth(depth: usize) -> Vec<String> {
    let chain = |sep: &str| vec!["b"; depth].join(sep);
    // Each predicate level adds two, the predicate and its path, over an
    // innermost `b` (1) or `(b)` (2).
    let (inner, inner_depth) = if depth.is_multiple_of(2) {
        ("(b)", 2)
    } else {
        ("b", 1)
    };
    let predicates = (depth - inner_depth) / 2;
    vec![
        chain("/"),
        chain("|"),
        format!("b{}", "*".repeat(depth - 1)),
        format!("{}b{}", "(".repeat(depth - 1), ")".repeat(depth - 1)),
        format!(
            "{}{inner}{}",
            "b[".repeat(predicates),
            "]".repeat(predicates)
        ),
        // b[¬…¬b]: the step, its path, the nots, the predicate.
        format!("b[{}b]", "not ".repeat(depth - 3)),
    ]
}

fn assert_code(resp: &Response, want: ErrorCode) {
    match resp {
        Response::Error { code, .. } => assert_eq!(*code, want, "{resp:?}"),
        other => panic!("expected {want:?}, got {other:?}"),
    }
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

#[test]
fn dtd_nested_10_000_groups_deep_is_a_bad_dtd() {
    let resp = dispatch(vec![compile(nested_dtd(10_000))]);
    assert_code(&resp[0], ErrorCode::BadDtd);
}

#[test]
fn query_nested_100_000_predicates_deep_is_a_bad_query() {
    let query = format!("{}b{}", "b[".repeat(DEPTH), "]".repeat(DEPTH));
    let resp = dispatch(vec![translate(query)]);
    assert_code(&resp[0], ErrorCode::BadQuery);
}

/// A position past `usize::MAX`: the query lexer refuses the number instead
/// of overflowing, and over TCP the same connection serves the next request.
#[test]
fn query_with_an_overflowing_number_is_a_bad_query() {
    let query = "b[position() = 99999999999999999999999]";
    let resp = dispatch(vec![translate(query.into())]);
    assert_code(&resp[0], ErrorCode::BadQuery);

    let registry = EmbeddingRegistry::new(RegistryConfig::default());
    let mut server = Server::bind(("127.0.0.1", 0), registry.into(), ServerConfig::default())
        .expect("bind ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client.call(&translate(query.into())).expect("answered");
    assert_code(&resp, ErrorCode::BadQuery);
    let dtd = "<!ELEMENT b (b*)>";
    client
        .translate(dtd, dtd, "b[position() = 2]")
        .expect("served");
    drop(client);
    server.shutdown();
}

/// Input at exactly the parsers' bounds is served through every pass
/// (parse, display, hashing, discovery, shape keys, automaton
/// construction, drop), and one level more is refused.
#[test]
fn input_at_the_nesting_bounds_is_served_and_one_more_level_is_refused() {
    let resp = dispatch(vec![
        compile(nested_dtd(MAX_GROUP_DEPTH)),
        compile(nested_dtd(MAX_GROUP_DEPTH + 1)),
    ]);
    assert!(
        matches!(resp[0], Response::Compiled { .. }),
        "{:?}",
        resp[0]
    );
    assert_code(&resp[1], ErrorCode::BadDtd);

    let at = queries_of_depth(MAX_QUERY_DEPTH);
    let over = queries_of_depth(MAX_QUERY_DEPTH + 1);
    let resp = dispatch(at.iter().chain(&over).cloned().map(translate).collect());
    let (served, refused) = resp.split_at(at.len());
    for (query, resp) in at.iter().zip(served) {
        assert!(
            matches!(resp, Response::Translated { .. }),
            "{}…: {resp:?}",
            &query[..40]
        );
    }
    for resp in refused {
        assert_code(resp, ErrorCode::BadQuery);
    }
}

/// A chain of `types` types, `t0 → t1 → … → t{types-1}`, the last empty.
fn chain_dtd(types: usize) -> String {
    let mut s = String::with_capacity(32 * types);
    for i in 1..types {
        s.push_str(&format!("<!ELEMENT t{} (t{i})>\n", i - 1));
    }
    s.push_str(&format!("<!ELEMENT t{} EMPTY>", types - 1));
    s
}

/// A DTD with exactly `MAX_TYPES` types compiles; one type more is refused
/// as `BadDtd` before any compile work, and the dispatcher serves the next
/// request.
#[test]
fn a_dtd_at_the_type_bound_compiles_and_one_more_type_is_refused() {
    let small = "<!ELEMENT b (b*)>";
    let resp = dispatch(vec![
        compile(chain_dtd(MAX_TYPES)),
        compile(chain_dtd(MAX_TYPES + 1)),
        compile(small.into()),
    ]);
    assert!(
        matches!(resp[0], Response::Compiled { .. }),
        "{:?}",
        resp[0]
    );
    assert_code(&resp[1], ErrorCode::BadDtd);
    assert!(
        matches!(resp[2], Response::Compiled { .. }),
        "{:?}",
        resp[2]
    );
}
