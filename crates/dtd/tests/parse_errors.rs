//! Error-path coverage for `Dtd::parse`: malformed `<!ELEMENT>`
//! declarations, duplicate type definitions, and undefined references.

use xse_dtd::{Dtd, DtdError, DtdParseError};

fn syntax_err(input: &str) -> (usize, String) {
    match Dtd::parse(input).unwrap_err() {
        DtdParseError::Syntax { at, msg } => (at, msg),
        e @ DtdParseError::Semantic(_) => {
            panic!("expected a syntax error for {input:?}, got {e}")
        }
    }
}

fn semantic_err(input: &str) -> DtdError {
    match Dtd::parse(input).unwrap_err() {
        DtdParseError::Semantic(e) => e,
        e @ DtdParseError::Syntax { .. } => {
            panic!("expected a semantic error for {input:?}, got {e}")
        }
    }
}

#[test]
fn malformed_declarations_are_syntax_errors() {
    // Keyword typos and truncations.
    syntax_err("<!ELEMNT r (a)>");
    syntax_err("<!element r (a)>");
    syntax_err("<!ELEMENT");
    syntax_err("<!ELEMENT >");
    // Missing, unbalanced or empty groups.
    syntax_err("<!ELEMENT r >");
    syntax_err("<!ELEMENT r a>");
    syntax_err("<!ELEMENT r (>");
    syntax_err("<!ELEMENT r ()>");
    syntax_err("<!ELEMENT r (a>");
    syntax_err("<!ELEMENT r (a))>");
    syntax_err("<!ELEMENT r ((a)>");
    // Dangling and doubled separators.
    syntax_err("<!ELEMENT r (a,)>");
    syntax_err("<!ELEMENT r (a||b)>");
    syntax_err("<!ELEMENT r (,a)>");
    // #PCDATA cannot be mixed with names in this normal form.
    syntax_err("<!ELEMENT r (#PCDATA|a)>");
    // Trailing garbage after a complete declaration.
    syntax_err("<!ELEMENT r (a)> junk <!ELEMENT a EMPTY>");
    // Mixed separators in one group must be grouped explicitly.
    syntax_err("<!ELEMENT r (a,b|c)>");
}

#[test]
fn syntax_errors_carry_a_sensible_offset() {
    let (at, msg) = syntax_err("<!ELEMENT r (a,)>");
    assert!(at <= "<!ELEMENT r (a,)>".len(), "offset {at} out of range");
    assert!(at >= "<!ELEMENT r (".len(), "offset {at} before the group");
    assert!(!msg.is_empty());

    let (at, _) = syntax_err("");
    assert_eq!(at, 0);
    let display = Dtd::parse("").unwrap_err().to_string();
    assert!(display.contains("byte 0"), "unhelpful message: {display}");
}

#[test]
fn duplicate_type_definitions_are_rejected() {
    let e = semantic_err("<!ELEMENT r (a)><!ELEMENT a EMPTY><!ELEMENT a (#PCDATA)>");
    assert_eq!(e, DtdError::DuplicateType("a".into()));
    // Even when the duplicate bodies are identical.
    let e = semantic_err("<!ELEMENT r EMPTY><!ELEMENT r EMPTY>");
    assert_eq!(e, DtdError::DuplicateType("r".into()));
}

#[test]
fn undefined_references_are_rejected() {
    match semantic_err("<!ELEMENT r (a, ghost)><!ELEMENT a EMPTY>") {
        DtdError::UndefinedType { referenced, by } => {
            assert_eq!(referenced, "ghost");
            assert_eq!(by, "r");
        }
        e => panic!("expected UndefinedType, got {e}"),
    }
    // Undefined reference hiding inside a normalized sub-expression.
    match semantic_err("<!ELEMENT r (a, (b|ghost)+)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>") {
        DtdError::UndefinedType { referenced, .. } => assert_eq!(referenced, "ghost"),
        e => panic!("expected UndefinedType, got {e}"),
    }
}

#[test]
fn undefined_root_is_rejected() {
    let e = Dtd::parse_with_root("nope", "<!ELEMENT a EMPTY>").unwrap_err();
    assert!(
        matches!(e, DtdParseError::Semantic(DtdError::UndefinedRoot(ref r)) if r == "nope"),
        "got {e}"
    );
}

#[test]
fn duplicate_disjunction_alternatives_are_deduplicated() {
    // The parser normalizes `(a|a)` to `(a)` — distinctness holds w.l.o.g.
    // in the paper, so duplicates are collapsed rather than rejected (the
    // strict builder API is where `DuplicateAlternative` is raised).
    let d = Dtd::parse("<!ELEMENT r (a|a|b)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>").unwrap();
    match d.production(d.root()) {
        xse_dtd::Production::Disjunction { alts, allows_empty } => {
            assert_eq!(alts.len(), 2, "duplicate alternative not collapsed");
            assert!(!allows_empty);
        }
        p => panic!("expected a disjunction, got {p:?}"),
    }
}

#[test]
fn errors_do_not_mask_valid_parses() {
    // The error cases above must not reject these near-miss valid inputs.
    Dtd::parse("<!ELEMENT r (a)?><!ELEMENT a EMPTY>").unwrap();
    Dtd::parse("<!ELEMENT r (a|EMPTY)><!ELEMENT a EMPTY>").unwrap();
    Dtd::parse("<!ELEMENT r ((a,b)|c)><!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>")
        .unwrap();
}

#[test]
fn a_comment_closes_only_after_its_opener() {
    // `<!-->` is an opener followed by `>`, not an empty comment.
    assert_eq!(
        syntax_err("<!--><!ELEMENT a EMPTY>"),
        (0, "expected \"<!ELEMENT\"".into())
    );
    assert_eq!(
        syntax_err("<!ELEMENT a EMPTY> <!--->"),
        (19, "expected \"<!ELEMENT\"".into())
    );
    for input in [
        "<!----><!ELEMENT a EMPTY>",
        "<!-- x --><!ELEMENT a EMPTY>",
        "<!ELEMENT a EMPTY><!---->",
    ] {
        Dtd::parse(input).unwrap_or_else(|e| panic!("{input:?}: {e}"));
    }
}
