//! Recursive-descent parser for the `XR` concrete syntax.
//!
//! Accepted spellings (paper / ASCII):
//!
//! * empty path: `ε` or `.`
//! * union: `∪` or `|`
//! * qualifier connectives: `¬ ∧ ∨` or `not/! and/&& or/||`
//! * `text()`, `position() = k`, string literals in `'…'` or `"…"`
//! * Kleene star as a postfix `*` on a step or parenthesized group
//! * `//` — the descendant-or-self axis of the fragment `X`.
//!
//! A query nests at most [`MAX_QUERY_DEPTH`] levels deep.

use std::collections::HashMap;
use std::fmt;

use crate::{Qualifier, XrQuery};

/// Deepest query [`parse_query`] accepts, in levels of its syntax tree. A
/// leaf step is level 1; each `/` or `|` of a chain, each `*`, `[…]`,
/// `not`, `and`, `or` and each pair of parentheses adds one level over
/// what it wraps (`//` adds two). So a chain `a/b/…` of `n` steps is `n`
/// levels deep, and `b[b[…]]` adds two levels per bracket. Display, shape
/// keys, automaton construction, evaluation and drop all recurse over the
/// tree, so the parser refuses deeper input with a parse error instead of
/// letting a later pass run out of stack. The workloads' query generator
/// reaches 12 levels at `max_depth: 8`.
pub const MAX_QUERY_DEPTH: usize = 256;

/// Parse error with byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// Description of the problem.
    pub msg: String,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for QueryParseError {}

/// Parse an `XR` (or fragment-`X`) query.
pub fn parse_query(input: &str) -> Result<XrQuery, QueryParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        open: 0,
        too_deep: false,
        not_paths: HashMap::new(),
    };
    let (q, _) = p.union()?;
    if p.pos != p.tokens.len() {
        return Err(QueryParseError {
            at: p.offset(),
            msg: format!("unexpected trailing {:?}", p.tokens[p.pos].1),
        });
    }
    Ok(q)
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Name(String),
    Str(String),
    Num(usize),
    Slash,
    DSlash,
    Pipe,
    Star,
    LBrack,
    RBrack,
    LParen,
    RParen,
    Eq,
    Dot,
    NotOp,
    AndOp,
    OrOp,
}

fn lex(input: &str) -> Result<Vec<(usize, Tok)>, QueryParseError> {
    let mut out = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some(&(at, c)) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                if chars.peek().is_some_and(|&(_, c)| c == '/') {
                    chars.next();
                    out.push((at, Tok::DSlash));
                } else {
                    out.push((at, Tok::Slash));
                }
            }
            '|' => {
                chars.next();
                if chars.peek().is_some_and(|&(_, c)| c == '|') {
                    chars.next();
                    out.push((at, Tok::OrOp));
                } else {
                    out.push((at, Tok::Pipe));
                }
            }
            '&' => {
                chars.next();
                if chars.peek().is_some_and(|&(_, c)| c == '&') {
                    chars.next();
                    out.push((at, Tok::AndOp));
                } else {
                    return Err(QueryParseError {
                        at,
                        msg: "single '&' (use '&&' or 'and')".into(),
                    });
                }
            }
            '∪' => {
                chars.next();
                out.push((at, Tok::Pipe));
            }
            '¬' | '!' => {
                chars.next();
                out.push((at, Tok::NotOp));
            }
            '∧' => {
                chars.next();
                out.push((at, Tok::AndOp));
            }
            '∨' => {
                chars.next();
                out.push((at, Tok::OrOp));
            }
            'ε' | '.' => {
                chars.next();
                out.push((at, Tok::Dot));
            }
            '*' => {
                chars.next();
                out.push((at, Tok::Star));
            }
            '[' => {
                chars.next();
                out.push((at, Tok::LBrack));
            }
            ']' => {
                chars.next();
                out.push((at, Tok::RBrack));
            }
            '(' => {
                chars.next();
                out.push((at, Tok::LParen));
            }
            ')' => {
                chars.next();
                out.push((at, Tok::RParen));
            }
            '=' => {
                chars.next();
                out.push((at, Tok::Eq));
            }
            '\'' | '"' => {
                let quote = c;
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some((_, c)) if c == quote => break,
                        Some((_, c)) => s.push(c),
                        None => {
                            return Err(QueryParseError {
                                at,
                                msg: "unterminated string literal".into(),
                            })
                        }
                    }
                }
                out.push((at, Tok::Str(s)));
            }
            c if c.is_ascii_digit() => {
                let mut n = 0usize;
                while let Some(&(_, c)) = chars.peek() {
                    if let Some(d) = c.to_digit(10) {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(d as usize))
                            .ok_or_else(|| QueryParseError {
                                at,
                                msg: "number too large".into(),
                            })?;
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((at, Tok::Num(n)));
            }
            c if c.is_alphanumeric() || c == '_' || c == '#' => {
                let mut s = String::new();
                while let Some(&(_, c)) = chars.peek() {
                    if c.is_alphanumeric() || matches!(c, '_' | '-' | ':' | '#') {
                        s.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((at, Tok::Name(s)));
            }
            other => {
                return Err(QueryParseError {
                    at,
                    msg: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<(usize, Tok)>,
    pos: usize,
    /// `union` and `qualifier` calls open at `pos`. Every cycle of the
    /// grammar passes through one of them, so bounding this bounds the
    /// parser's own recursion before any tree is built.
    open: usize,
    /// Set once the input nests past [`MAX_QUERY_DEPTH`]: the error is
    /// final, and no alternative parse is tried.
    too_deep: bool,
    /// Positions where a qualifier's path failed to parse, with the error.
    /// The parenthesized-qualifier fallback re-reads those tokens; without
    /// the memo, nested fallbacks each re-parse the whole inner text, which
    /// takes time exponential in the nesting.
    not_paths: HashMap<usize, QueryParseError>,
}

/// A parsed subtree and its depth in levels (see [`MAX_QUERY_DEPTH`]).
type Parsed<T> = Result<(T, usize), QueryParseError>;

impl Parser {
    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(0, |t| t.0)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, QueryParseError> {
        Err(QueryParseError {
            at: self.offset(),
            msg: msg.into(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.1)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|t| &t.1)
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), QueryParseError> {
        if self.eat(&t) {
            Ok(())
        } else {
            self.err(format!("expected {t:?}, found {:?}", self.peek()))
        }
    }

    fn name_is(&self, s: &str) -> bool {
        matches!(self.peek(), Some(Tok::Name(n)) if n == s)
    }

    /// The depth of a node over subtrees at most `depth` deep, refused
    /// past [`MAX_QUERY_DEPTH`].
    fn over(&mut self, depth: usize) -> Result<usize, QueryParseError> {
        if depth >= MAX_QUERY_DEPTH {
            self.too_deep()
        } else {
            Ok(depth + 1)
        }
    }

    fn too_deep<T>(&mut self) -> Result<T, QueryParseError> {
        self.too_deep = true;
        self.err(format!("query nests deeper than {MAX_QUERY_DEPTH} levels"))
    }

    /// Run `f` one `union` / `qualifier` level down, refused past
    /// [`MAX_QUERY_DEPTH`] open levels.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Parsed<T>) -> Parsed<T> {
        if self.open == MAX_QUERY_DEPTH {
            return self.too_deep();
        }
        self.open += 1;
        let parsed = f(self);
        self.open -= 1;
        parsed
    }

    /// union := seq ('|' seq)*
    fn union(&mut self) -> Parsed<XrQuery> {
        self.nested(|p| {
            let (mut q, mut depth) = p.seq()?;
            while p.eat(&Tok::Pipe) {
                let (next, d) = p.seq()?;
                depth = p.over(depth.max(d))?;
                q = q.or(next);
            }
            Ok((q, depth))
        })
    }

    /// seq := postfix (('/' | '//') postfix)*
    fn seq(&mut self) -> Parsed<XrQuery> {
        let (mut q, mut depth) = self.postfix()?;
        loop {
            if self.eat(&Tok::Slash) {
                let (next, d) = self.postfix()?;
                depth = self.over(depth.max(d))?;
                q = q.then(next);
            } else if self.eat(&Tok::DSlash) {
                let (next, d) = self.postfix()?;
                let with_axis = self.over(depth)?;
                depth = self.over(with_axis.max(d))?;
                q = q.then(XrQuery::DescOrSelf).then(next);
            } else {
                return Ok((q, depth));
            }
        }
    }

    /// postfix := atom ('*' | '[' qual ']')*
    fn postfix(&mut self) -> Parsed<XrQuery> {
        let (mut q, mut depth) = self.atom()?;
        loop {
            if self.eat(&Tok::Star) {
                depth = self.over(depth)?;
                q = q.star();
            } else if self.eat(&Tok::LBrack) {
                let (qual, d) = self.qualifier()?;
                self.expect(Tok::RBrack)?;
                depth = self.over(depth.max(d))?;
                q = q.with(qual);
            } else {
                return Ok((q, depth));
            }
        }
    }

    /// atom := '.' | name | 'text()' | '(' union ')'
    fn atom(&mut self) -> Parsed<XrQuery> {
        if self.eat(&Tok::Dot) {
            return Ok((XrQuery::Empty, 1));
        }
        if self.eat(&Tok::LParen) {
            let (q, depth) = self.union()?;
            self.expect(Tok::RParen)?;
            return Ok((q, self.over(depth)?));
        }
        match self.peek().cloned() {
            Some(Tok::Name(n)) => {
                // `text()` / `desc-or-self()` step?
                if self.peek2() == Some(&Tok::LParen) {
                    if n == "text" {
                        self.pos += 2;
                        self.expect(Tok::RParen)?;
                        return Ok((XrQuery::Text, 1));
                    }
                    if n == "desc-or-self" {
                        self.pos += 2;
                        self.expect(Tok::RParen)?;
                        return Ok((XrQuery::DescOrSelf, 1));
                    }
                }
                self.pos += 1;
                Ok((XrQuery::label(&n), 1))
            }
            other => self.err(format!("expected a path step, found {other:?}")),
        }
    }

    /// qual := andq (('or') andq)*
    fn qualifier(&mut self) -> Parsed<Qualifier> {
        self.nested(|p| {
            let (mut q, mut depth) = p.and_q()?;
            while p.eat(&Tok::OrOp) || p.eat_word("or") {
                let (next, d) = p.and_q()?;
                depth = p.over(depth.max(d))?;
                q = Qualifier::Or(Box::new(q), Box::new(next));
            }
            Ok((q, depth))
        })
    }

    fn eat_word(&mut self, w: &str) -> bool {
        if self.name_is(w) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn and_q(&mut self) -> Parsed<Qualifier> {
        let (mut q, mut depth) = self.not_q()?;
        while self.eat(&Tok::AndOp) || self.eat_word("and") {
            let (next, d) = self.not_q()?;
            depth = self.over(depth.max(d))?;
            q = Qualifier::And(Box::new(q), Box::new(next));
        }
        Ok((q, depth))
    }

    /// notq := ('not')* primq, read in a loop so a run of `not`s costs no
    /// stack.
    fn not_q(&mut self) -> Parsed<Qualifier> {
        let mut nots = 0usize;
        while self.eat(&Tok::NotOp) || self.eat_word("not") {
            nots += 1;
        }
        let (mut q, mut depth) = self.prim_q()?;
        for _ in 0..nots {
            depth = self.over(depth)?;
            q = Qualifier::Not(Box::new(q));
        }
        Ok((q, depth))
    }

    fn prim_q(&mut self) -> Parsed<Qualifier> {
        // `true` standing alone.
        if self.name_is("true") {
            let next_continues_path = matches!(
                self.peek2(),
                Some(Tok::Slash | Tok::DSlash | Tok::LBrack | Tok::Star | Tok::Eq | Tok::Pipe)
            );
            if !next_continues_path {
                self.pos += 1;
                return Ok((Qualifier::True, 1));
            }
        }
        // `position() = k`.
        if self.name_is("position") && self.peek2() == Some(&Tok::LParen) {
            self.pos += 2;
            self.expect(Tok::RParen)?;
            self.expect(Tok::Eq)?;
            match self.peek().cloned() {
                Some(Tok::Num(k)) => {
                    self.pos += 1;
                    if k == 0 {
                        return self.err("position() is 1-based");
                    }
                    return Ok((Qualifier::Position(k), 1));
                }
                other => return self.err(format!("expected a number, found {other:?}")),
            }
        }
        // Try a path (possibly ending `= 'c'`); backtrack to a parenthesized
        // qualifier if that fails.
        let save = self.pos;
        let path = match self.not_paths.get(&save) {
            Some(e) => Err(e.clone()),
            None => self.union(),
        };
        match path {
            Ok((p, depth)) => {
                let depth = self.over(depth)?;
                if self.eat(&Tok::Eq) {
                    match self.peek().cloned() {
                        Some(Tok::Str(c)) => {
                            self.pos += 1;
                            return Ok((Qualifier::TextEq(Box::new(p), c), depth));
                        }
                        other => {
                            return self.err(format!("expected a string literal, found {other:?}"))
                        }
                    }
                }
                Ok((Qualifier::Path(Box::new(p)), depth))
            }
            Err(path_err) if self.too_deep => Err(path_err),
            Err(path_err) => {
                self.not_paths.insert(save, path_err.clone());
                self.pos = save;
                if self.eat(&Tok::LParen) {
                    let (q, depth) = self.qualifier()?;
                    self.expect(Tok::RParen)?;
                    return Ok((q, self.over(depth)?));
                }
                Err(path_err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_paths() {
        assert_eq!(parse_query("a").unwrap(), XrQuery::label("a"));
        assert_eq!(
            parse_query("a/b").unwrap(),
            XrQuery::label("a").then(XrQuery::label("b"))
        );
        assert_eq!(parse_query(".").unwrap(), XrQuery::Empty);
        assert_eq!(parse_query("ε").unwrap(), XrQuery::Empty);
        assert_eq!(
            parse_query("a/text()").unwrap(),
            XrQuery::label("a").then(XrQuery::Text)
        );
    }

    #[test]
    fn union_and_precedence() {
        // a | b/c == a | (b/c)
        let q = parse_query("a | b/c").unwrap();
        assert_eq!(
            q,
            XrQuery::label("a").or(XrQuery::label("b").then(XrQuery::label("c")))
        );
        assert_eq!(parse_query("a ∪ b").unwrap(), parse_query("a | b").unwrap());
    }

    #[test]
    fn star_binds_to_atom_or_group() {
        let q = parse_query("a*").unwrap();
        assert_eq!(q, XrQuery::label("a").star());
        let q = parse_query("(a/b)*").unwrap();
        assert_eq!(q, XrQuery::label("a").then(XrQuery::label("b")).star());
        // a/b* = a/(b*)
        let q = parse_query("a/b*").unwrap();
        assert_eq!(q, XrQuery::label("a").then(XrQuery::label("b").star()));
    }

    #[test]
    fn qualifiers() {
        let q = parse_query("a[b]").unwrap();
        assert_eq!(
            q,
            XrQuery::label("a").with(Qualifier::Path(Box::new(XrQuery::label("b"))))
        );
        let q = parse_query("a[position() = 3]").unwrap();
        assert_eq!(q, XrQuery::label("a").with(Qualifier::Position(3)));
        let q = parse_query("a[text() = 'CS331']").unwrap();
        assert_eq!(
            q,
            XrQuery::label("a").with(Qualifier::TextEq(Box::new(XrQuery::Text), "CS331".into()))
        );
        let q = parse_query("a[true]").unwrap();
        assert_eq!(q, XrQuery::label("a").with(Qualifier::True));
    }

    #[test]
    fn boolean_connectives_and_unicode() {
        let q1 = parse_query("a[not b and c or d]").unwrap();
        let q2 = parse_query("a[((¬b) ∧ c) ∨ d]").unwrap();
        assert_eq!(q1, q2);
        // Precedence: or < and < not.
        let XrQuery::Qualified(_, q) = q1 else {
            panic!()
        };
        assert!(matches!(q, Qualifier::Or(_, _)));
    }

    #[test]
    fn parenthesized_qualifier_backtracks() {
        let q = parse_query("a[(b or c)]").unwrap();
        let XrQuery::Qualified(_, q) = q else {
            panic!()
        };
        assert!(matches!(q, Qualifier::Or(_, _)));
        // While (b | c) stays a path union.
        let q = parse_query("a[(b | c)]").unwrap();
        let XrQuery::Qualified(_, q) = q else {
            panic!()
        };
        assert!(matches!(q, Qualifier::Path(_)));
    }

    #[test]
    fn example_4_7_query_parses() {
        let q = parse_query(
            "courses/current/course[basic/cno/text() = 'CS331']/(category/mandatory/regular/required/prereq/course)*",
        )
        .unwrap();
        assert!(q.uses_star());
        assert!(q.size() > 10);
    }

    #[test]
    fn descendant_or_self() {
        let q = parse_query("a//b").unwrap();
        assert_eq!(
            q,
            XrQuery::label("a")
                .then(XrQuery::DescOrSelf)
                .then(XrQuery::label("b"))
        );
        assert!(!q.uses_star(), "// is not a Kleene star");
        let q = parse_query("//b").err();
        assert!(
            q.is_some(),
            "leading // unsupported (queries are root-relative)"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_query("").is_err());
        assert!(parse_query("a/").is_err());
        assert!(parse_query("a[").is_err());
        assert!(parse_query("a]").is_err());
        assert!(parse_query("a[position() = 0]").is_err());
        assert!(parse_query("a[text() = unquoted]").is_err());
        assert!(parse_query("a & b").is_err());
        assert!(parse_query("a b").is_err());
    }

    #[test]
    fn an_overflowing_number_is_an_error_at_its_offset() {
        let max = usize::MAX;
        let q = parse_query(&format!("a[position() = {max}]")).unwrap();
        assert_eq!(q, XrQuery::label("a").with(Qualifier::Position(max)));
        for digits in [format!("{max}0"), "99999999999999999999999".into()] {
            let err = parse_query(&format!("a[position() = {digits}]")).unwrap_err();
            assert_eq!(err.at, 15, "{err}");
            assert_eq!(err.msg, "number too large");
        }
    }

    #[test]
    fn nesting_is_bounded_at_max_query_depth() {
        let depth = MAX_QUERY_DEPTH;
        let chain = |n: usize| vec!["b"; n].join("/");
        let parens = |n: usize| format!("{}b{}", "(".repeat(n - 1), ")".repeat(n - 1));
        for at_bound in [chain(depth), parens(depth)] {
            assert!(parse_query(&at_bound).is_ok());
        }
        for over in [chain(depth + 1), parens(depth + 1)] {
            let err = parse_query(&over).unwrap_err();
            assert!(err.msg.contains("nests deeper"), "{err}");
        }
        // Far past the bound, every way of nesting is refused before the
        // parser's own recursion or the tree gets deep.
        let n = 100_000;
        for hostile in [
            chain(n),
            parens(n),
            format!("{}b{}", "b[".repeat(n), "]".repeat(n)),
            format!("b[{}b]", "not ".repeat(n)),
            format!("b{}", "*".repeat(n)),
        ] {
            let err = parse_query(&hostile).unwrap_err();
            assert!(err.msg.contains("nests deeper"), "{err}");
        }
    }

    #[test]
    fn nested_qualifier_fallbacks_parse_in_polynomial_time() {
        // Each level is first tried as a path, which fails at its `or`,
        // then re-read as a parenthesized qualifier. Without the memo of
        // failed paths this takes ~2^60 steps.
        let n = 60;
        let q = format!("b[{}c{}]", "(b[".repeat(n), "] or c)".repeat(n));
        assert!(parse_query(&q).is_ok());
    }

    #[test]
    fn text_and_position_can_be_labels_elsewhere() {
        // "text" and "position" without parentheses are ordinary labels.
        assert_eq!(parse_query("text").unwrap(), XrQuery::label("text"));
        assert_eq!(parse_query("position").unwrap(), XrQuery::label("position"));
        // A label literally named "true" still works as a step.
        assert_eq!(
            parse_query("true/b").unwrap(),
            XrQuery::label("true").then(XrQuery::label("b"))
        );
    }
}
