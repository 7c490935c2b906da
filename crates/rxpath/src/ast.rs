use std::sync::Arc;

/// A regular XPath (`XR`) expression (§2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XrQuery {
    /// `ε` — the empty path (self).
    Empty,
    /// A label step `A` (child axis).
    Label(Arc<str>),
    /// `text()` — select text-node children.
    Text,
    /// `p1/p2` — path composition.
    Seq(Box<XrQuery>, Box<XrQuery>),
    /// `p1 ∪ p2` — union.
    Union(Box<XrQuery>, Box<XrQuery>),
    /// `p*` — Kleene closure (zero or more iterations of `p`).
    Star(Box<XrQuery>),
    /// `p[q]` — qualified path.
    Qualified(Box<XrQuery>, Qualifier),
    /// `//` — the descendant-or-self axis of the XPath fragment `X`
    /// (`p1//p2` parses to `p1 / DescOrSelf / p2`). Not part of `XR` proper:
    /// in `XR` it is expressible only when the label alphabet is known
    /// (as `(A1 ∪ … ∪ An)*`); keeping it first-class lets the crate evaluate
    /// `X` queries without fixing an alphabet, exactly as §3 needs when it
    /// separates `X` from `XR`.
    DescOrSelf,
}

/// A qualifier `q` (§2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Qualifier {
    /// `true` — always holds (definable in `XR` as `[ε]`; kept first-class
    /// because the paper's `XR` paths use it as the default annotation).
    True,
    /// `p` — the path has a nonempty result at the context node.
    Path(Box<XrQuery>),
    /// `p/text() = 'c'` — some text node reached via `p/text()` carries `c`.
    /// The stored query includes the `text()` tail.
    TextEq(Box<XrQuery>, String),
    /// `position() = k` (1-based).
    Position(usize),
    /// `¬q`.
    Not(Box<Qualifier>),
    /// `q1 ∧ q2`.
    And(Box<Qualifier>, Box<Qualifier>),
    /// `q1 ∨ q2`.
    Or(Box<Qualifier>, Box<Qualifier>),
}

impl XrQuery {
    /// A label step.
    pub fn label(name: &str) -> XrQuery {
        XrQuery::Label(Arc::from(name))
    }

    /// `self / next`, flattening trivial `ε` on either side.
    pub fn then(self, next: XrQuery) -> XrQuery {
        match (self, next) {
            (XrQuery::Empty, q) => q,
            (p, XrQuery::Empty) => p,
            (p, q) => XrQuery::Seq(Box::new(p), Box::new(q)),
        }
    }

    /// `self ∪ other`.
    pub fn or(self, other: XrQuery) -> XrQuery {
        XrQuery::Union(Box::new(self), Box::new(other))
    }

    /// `self*`.
    pub fn star(self) -> XrQuery {
        XrQuery::Star(Box::new(self))
    }

    /// `self[q]`.
    pub fn with(self, q: Qualifier) -> XrQuery {
        XrQuery::Qualified(Box::new(self), q)
    }

    /// Sequence a whole list of steps: `steps[0]/steps[1]/…`.
    pub fn seq_all(steps: impl IntoIterator<Item = XrQuery>) -> XrQuery {
        steps.into_iter().fold(XrQuery::Empty, |acc, s| acc.then(s))
    }

    /// The paper's size `|Q|`: number of AST operators and steps, counting
    /// qualifiers.
    pub fn size(&self) -> usize {
        match self {
            XrQuery::Empty | XrQuery::Label(_) | XrQuery::Text | XrQuery::DescOrSelf => 1,
            XrQuery::Seq(a, b) | XrQuery::Union(a, b) => 1 + a.size() + b.size(),
            XrQuery::Star(p) => 1 + p.size(),
            XrQuery::Qualified(p, q) => 1 + p.size() + q.size(),
        }
    }

    /// `true` if the query contains a `p*` (making it `XR`-proper rather
    /// than plain XPath).
    pub fn uses_star(&self) -> bool {
        match self {
            XrQuery::Empty | XrQuery::Label(_) | XrQuery::Text | XrQuery::DescOrSelf => false,
            XrQuery::Seq(a, b) | XrQuery::Union(a, b) => a.uses_star() || b.uses_star(),
            XrQuery::Star(_) => true,
            XrQuery::Qualified(p, q) => p.uses_star() || q.uses_star(),
        }
    }

    /// `true` if the query contains a `position()` qualifier.
    pub fn uses_position(&self) -> bool {
        match self {
            XrQuery::Empty | XrQuery::Label(_) | XrQuery::Text | XrQuery::DescOrSelf => false,
            XrQuery::Seq(a, b) | XrQuery::Union(a, b) => a.uses_position() || b.uses_position(),
            XrQuery::Star(p) => p.uses_position(),
            XrQuery::Qualified(p, q) => p.uses_position() || q.uses_position(),
        }
    }
}

impl Qualifier {
    /// Size contribution of the qualifier.
    pub fn size(&self) -> usize {
        match self {
            Qualifier::True | Qualifier::Position(_) => 1,
            Qualifier::Path(p) => 1 + p.size(),
            Qualifier::TextEq(p, _) => 1 + p.size(),
            Qualifier::Not(q) => 1 + q.size(),
            Qualifier::And(a, b) | Qualifier::Or(a, b) => 1 + a.size() + b.size(),
        }
    }

    fn uses_star(&self) -> bool {
        match self {
            Qualifier::True | Qualifier::Position(_) => false,
            Qualifier::Path(p) | Qualifier::TextEq(p, _) => p.uses_star(),
            Qualifier::Not(q) => q.uses_star(),
            Qualifier::And(a, b) | Qualifier::Or(a, b) => a.uses_star() || b.uses_star(),
        }
    }

    fn uses_position(&self) -> bool {
        match self {
            Qualifier::True => false,
            Qualifier::Position(_) => true,
            Qualifier::Path(p) | Qualifier::TextEq(p, _) => p.uses_position(),
            Qualifier::Not(q) => q.uses_position(),
            Qualifier::And(a, b) | Qualifier::Or(a, b) => a.uses_position() || b.uses_position(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn then_flattens_empty() {
        let a = XrQuery::label("a");
        assert_eq!(XrQuery::Empty.then(a.clone()), a);
        assert_eq!(a.clone().then(XrQuery::Empty), a);
        let ab = XrQuery::label("a").then(XrQuery::label("b"));
        assert!(matches!(ab, XrQuery::Seq(_, _)));
    }

    #[test]
    fn seq_all_builds_left_nested_chain() {
        let q = XrQuery::seq_all(vec![
            XrQuery::label("a"),
            XrQuery::label("b"),
            XrQuery::label("c"),
        ]);
        assert_eq!(q.size(), 5);
        assert_eq!(q.to_string(), "a/b/c");
    }

    #[test]
    fn size_counts_qualifiers() {
        let q = XrQuery::label("a").with(Qualifier::Position(2));
        assert_eq!(q.size(), 3);
        let q2 = XrQuery::label("a").with(Qualifier::TextEq(Box::new(XrQuery::Text), "x".into()));
        assert_eq!(q2.size(), 4);
    }

    #[test]
    fn star_and_position_detection() {
        let q = XrQuery::label("a").star().then(XrQuery::label("b"));
        assert!(q.uses_star());
        assert!(!q.uses_position());
        let q2 = XrQuery::label("a").with(Qualifier::Not(Box::new(Qualifier::Position(1))));
        assert!(q2.uses_position());
        assert!(!q2.uses_star());
    }
}
