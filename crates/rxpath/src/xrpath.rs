//! `XR` paths — the subclass of `XR` queries that schema embeddings map
//! edges to (§4.1): `ρ = η1/…/ηk` where each `ηi` is `A[q]` with `q` either
//! `true` or a `position()` qualifier, optionally ending with `text()` (for
//! `path(A, str)`).

use std::fmt;
use std::sync::Arc;

use crate::{Qualifier, XrQuery};

/// One step `A[q]` of an `XR` path.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PathStep {
    /// The label `A`.
    pub label: Arc<str>,
    /// `Some(k)` for `A[position() = k]`, `None` for plain `A` (≡ `A[true]`).
    pub pos: Option<usize>,
}

impl PathStep {
    /// A plain step.
    pub fn plain(label: &str) -> Self {
        PathStep {
            label: Arc::from(label),
            pos: None,
        }
    }

    /// A positioned step `A[position() = k]`.
    pub fn at(label: &str, k: usize) -> Self {
        PathStep {
            label: Arc::from(label),
            pos: Some(k),
        }
    }
}

/// An `XR` path `η1/…/ηk` with an optional `text()` tail.
///
/// `steps` may be empty only when `text_tail` holds (`path(A, str) = text()`
/// in Example 4.2 maps the `str` edge of a type whose image already is the
/// path's origin).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct XrPath {
    /// The element steps.
    pub steps: Vec<PathStep>,
    /// Whether the path ends with `/text()`.
    pub text_tail: bool,
}

impl XrPath {
    /// Build from steps without a text tail.
    pub fn new(steps: Vec<PathStep>) -> Self {
        XrPath {
            steps,
            text_tail: false,
        }
    }

    /// Build from steps with a `text()` tail.
    pub fn with_text(steps: Vec<PathStep>) -> Self {
        XrPath {
            steps,
            text_tail: true,
        }
    }

    /// Convenience: parse a `/`-separated path such as
    /// `basic/class/semester[position() = 1]/title` or `text()`.
    pub fn parse(input: &str) -> Result<Self, String> {
        let q = crate::parse_query(input).map_err(|e| e.to_string())?;
        Self::from_query(&q).ok_or_else(|| format!("{input:?} is not an XR path"))
    }

    /// Recognize an `XR` path inside a general query; `None` when the query
    /// is not of the `η1/…/ηk` shape.
    pub fn from_query(q: &XrQuery) -> Option<Self> {
        let mut steps = Vec::new();
        let mut text_tail = false;
        if !collect(q, &mut steps, &mut text_tail) {
            return None;
        }
        if steps.is_empty() && !text_tail {
            return None; // k ≥ 1 (or a lone text())
        }
        return Some(XrPath { steps, text_tail });

        fn collect(q: &XrQuery, steps: &mut Vec<PathStep>, text: &mut bool) -> bool {
            match q {
                // Steps guard against anything following a text() tail.
                XrQuery::Seq(a, b) => collect(a, steps, text) && collect(b, steps, text),
                XrQuery::Label(l) => {
                    if *text {
                        return false;
                    }
                    steps.push(PathStep {
                        label: l.clone(),
                        pos: None,
                    });
                    true
                }
                XrQuery::Qualified(p, q) => {
                    let XrQuery::Label(l) = &**p else {
                        return false;
                    };
                    if *text {
                        return false;
                    }
                    let pos = match q {
                        Qualifier::True => None,
                        Qualifier::Position(k) => Some(*k),
                        _ => return false,
                    };
                    steps.push(PathStep {
                        label: l.clone(),
                        pos,
                    });
                    true
                }
                XrQuery::Text => {
                    if *text {
                        return false;
                    }
                    *text = true;
                    true
                }
                _ => false,
            }
        }
    }

    /// Back to a general query.
    pub fn to_query(&self) -> XrQuery {
        let mut q = XrQuery::Empty;
        for s in &self.steps {
            let step = match s.pos {
                None => XrQuery::Label(s.label.clone()),
                Some(k) => XrQuery::Label(s.label.clone()).with(Qualifier::Position(k)),
            };
            q = q.then(step);
        }
        if self.text_tail {
            q = q.then(XrQuery::Text);
        }
        q
    }

    /// Number of steps `|ρ|` (the text tail counts as one, matching the
    /// paper's `path(A, str)` length accounting).
    pub fn len(&self) -> usize {
        self.steps.len() + usize::from(self.text_tail)
    }

    /// `true` when the path has no steps and no text tail.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty() && !self.text_tail
    }

    /// Concatenate two paths (`self/other`).
    ///
    /// # Panics
    /// Panics if `self` already ends in `text()`.
    pub fn join(&self, other: &XrPath) -> XrPath {
        assert!(!self.text_tail, "cannot extend past a text() tail");
        let mut steps = self.steps.clone();
        steps.extend(other.steps.iter().cloned());
        XrPath {
            steps,
            text_tail: other.text_tail,
        }
    }
}

impl fmt::Display for XrPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for s in &self.steps {
            if !first {
                write!(f, "/")?;
            }
            first = false;
            match s.pos {
                None => write!(f, "{}", s.label)?,
                Some(k) => write!(f, "{}[position() = {k}]", s.label)?,
            }
        }
        if self.text_tail {
            if !first {
                write!(f, "/")?;
            }
            write!(f, "text()")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    #[test]
    fn parses_plain_and_positioned_steps() {
        let p = XrPath::parse("basic/class/semester[position() = 1]/title").unwrap();
        assert_eq!(p.steps.len(), 4);
        assert_eq!(p.steps[2], PathStep::at("semester", 1));
        assert_eq!(p.steps[3], PathStep::plain("title"));
        assert!(!p.text_tail);
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn parses_text_tail_and_bare_text() {
        let p = XrPath::parse("a/text()").unwrap();
        assert_eq!(p.steps.len(), 1);
        assert!(p.text_tail);
        assert_eq!(p.len(), 2);

        let p = XrPath::parse("text()").unwrap();
        assert!(p.steps.is_empty());
        assert!(p.text_tail);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn rejects_non_path_queries() {
        for s in ["a | b", "(a/b)*", "a[b]", "a//b", ".", "a/text()/b"] {
            let q = parse_query(s).unwrap();
            assert!(XrPath::from_query(&q).is_none(), "{s} must not be a path");
        }
    }

    #[test]
    fn accepts_true_qualifier_steps() {
        let q = parse_query("a[true]/b").unwrap();
        let p = XrPath::from_query(&q).unwrap();
        assert_eq!(p.steps[0], PathStep::plain("a"));
    }

    #[test]
    fn roundtrips_through_query_form() {
        for s in ["a", "a/b[position() = 2]/c", "a/text()", "text()"] {
            let p = XrPath::parse(s).unwrap();
            let q = p.to_query();
            let p2 = XrPath::from_query(&q).unwrap();
            assert_eq!(p, p2, "{s}");
        }
    }

    #[test]
    fn display_matches_parse() {
        let p = XrPath::parse("a/b[position() = 2]/text()").unwrap();
        assert_eq!(p.to_string(), "a/b[position() = 2]/text()");
        assert_eq!(XrPath::parse(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn join_concatenates() {
        let a = XrPath::parse("x/y").unwrap();
        let b = XrPath::parse("z/text()").unwrap();
        let j = a.join(&b);
        assert_eq!(j.to_string(), "x/y/z/text()");
    }

    #[test]
    #[should_panic(expected = "text()")]
    fn join_past_text_panics() {
        let a = XrPath::parse("x/text()").unwrap();
        let b = XrPath::parse("y").unwrap();
        let _ = a.join(&b);
    }
}
