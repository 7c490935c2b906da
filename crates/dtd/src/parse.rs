//! Parsing `<!ELEMENT …>` declaration lists into [`Dtd`]s.
//!
//! The accepted grammar is classic DTD element declarations:
//!
//! ```text
//! dtd   := decl+
//! decl  := '<!ELEMENT' name spec '>'
//! spec  := 'EMPTY' | '(' '#PCDATA' ')' | cm
//! cm    := group ('*' | '+' | '?')?
//! group := '(' item ((',' item)* | ('|' item)*) ')'
//! item  := (name | 'EMPTY' | group) ('*' | '+' | '?')?
//! ```
//!
//! `EMPTY` as a disjunction alternative is a non-standard extension writing
//! the paper's `A → B + ε` directly (equivalently use `(B)?`). The root type
//! is the first declared element unless [`Dtd::parse_with_root`] is used.
//! General expressions are normalized to the paper's form via
//! [`Dtd::from_content_models`]; already-normal declarations introduce no
//! synthetic types. Groups nest at most [`MAX_GROUP_DEPTH`] deep, and a DTD
//! has at most [`MAX_TYPES`] types after normalization.

use std::fmt;

use crate::{ContentModel, Dtd, DtdError};

/// Deepest nesting of parenthesized groups a content model may have; the
/// outermost group is level 1. Normalization, display and hashing recurse
/// over the content model, so the parser refuses deeper input with a
/// syntax error instead of letting a later pass run out of stack. The
/// workloads corpus nests 1 group deep.
pub const MAX_GROUP_DEPTH: usize = 256;

/// Most types a parsed DTD may have, counted after normalization, so the
/// synthetic `owner#k` helper types count too. Compiling a pair allocates
/// tables quadratic in the type count (the dense target-by-source name
/// matrix is 32 MiB at this bound), so the parser refuses larger text with
/// [`DtdError::TooManyTypes`]. The largest workload schema has 256 types.
pub const MAX_TYPES: usize = 2_048;

/// Error from [`Dtd::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DtdParseError {
    /// Lexical/syntactic problem at a byte offset.
    Syntax { at: usize, msg: String },
    /// The declarations parsed but the DTD is ill-formed.
    Semantic(DtdError),
}

impl fmt::Display for DtdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DtdParseError::Syntax { at, msg } => {
                write!(f, "DTD syntax error at byte {at}: {msg}")
            }
            DtdParseError::Semantic(e) => write!(f, "DTD error: {e}"),
        }
    }
}

impl std::error::Error for DtdParseError {}

impl From<DtdError> for DtdParseError {
    fn from(e: DtdError) -> Self {
        DtdParseError::Semantic(e)
    }
}

impl Dtd {
    /// Parse `<!ELEMENT …>` declarations; the first declared element is the
    /// root type.
    pub fn parse(input: &str) -> Result<Dtd, DtdParseError> {
        let decls = parse_decls(input)?;
        let root = decls
            .first()
            .map(|(n, _)| n.clone())
            .ok_or(DtdParseError::Syntax {
                at: 0,
                msg: "no element declarations".into(),
            })?;
        within_max_types(Dtd::from_content_models(&root, &decls)?)
    }

    /// Parse with an explicit root element name.
    pub fn parse_with_root(root: &str, input: &str) -> Result<Dtd, DtdParseError> {
        let decls = parse_decls(input)?;
        within_max_types(Dtd::from_content_models(root, &decls)?)
    }
}

fn within_max_types(dtd: Dtd) -> Result<Dtd, DtdParseError> {
    if dtd.type_count() > MAX_TYPES {
        return Err(DtdError::TooManyTypes(dtd.type_count()).into());
    }
    Ok(dtd)
}

fn parse_decls(input: &str) -> Result<Vec<(String, ContentModel)>, DtdParseError> {
    let mut p = P {
        s: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let mut decls = Vec::new();
    loop {
        p.ws();
        if p.pos == p.s.len() {
            break;
        }
        p.expect("<!ELEMENT")?;
        p.ws();
        let name = p.name()?;
        p.ws();
        let model = p.spec()?;
        p.ws();
        p.expect(">")?;
        decls.push((name, model));
    }
    Ok(decls)
}

struct P<'a> {
    s: &'a [u8],
    pos: usize,
    /// Groups open at `pos`.
    depth: usize,
}

impl<'a> P<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, DtdParseError> {
        Err(DtdParseError::Syntax {
            at: self.pos,
            msg: msg.into(),
        })
    }

    /// Skip whitespace and comments, in a loop: a run of comments must
    /// not cost a stack frame each.
    fn ws(&mut self) {
        loop {
            while self
                .s
                .get(self.pos)
                .is_some_and(|c| c.is_ascii_whitespace())
            {
                self.pos += 1;
            }
            if !self.s[self.pos..].starts_with(b"<!--") {
                return;
            }
            // Search past the opener, so `<!-->` does not close itself.
            match self.s[self.pos + 4..].windows(3).position(|w| w == b"-->") {
                Some(i) => self.pos += 4 + i + 3,
                None => return,
            }
        }
    }

    fn expect(&mut self, tok: &str) -> Result<(), DtdParseError> {
        if self.s[self.pos..].starts_with(tok.as_bytes()) {
            self.pos += tok.len();
            Ok(())
        } else {
            self.err(format!("expected {tok:?}"))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn name(&mut self) -> Result<String, DtdParseError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| {
            c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':' | b'#')
        }) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn spec(&mut self) -> Result<ContentModel, DtdParseError> {
        self.ws();
        if self.s[self.pos..].starts_with(b"EMPTY") {
            self.pos += 5;
            return Ok(ContentModel::Empty);
        }
        if self.peek() != Some(b'(') {
            return self.err("expected '(' or EMPTY");
        }
        let m = self.group()?;
        Ok(self.postfix(m))
    }

    fn postfix(&mut self, m: ContentModel) -> ContentModel {
        match self.peek() {
            Some(b'*') => {
                self.pos += 1;
                ContentModel::Star(Box::new(m))
            }
            Some(b'+') => {
                self.pos += 1;
                ContentModel::Plus(Box::new(m))
            }
            Some(b'?') => {
                self.pos += 1;
                ContentModel::Opt(Box::new(m))
            }
            _ => m,
        }
    }

    /// Parse a parenthesized group, refusing one nested deeper than
    /// [`MAX_GROUP_DEPTH`]; `self.pos` is at `(`.
    fn group(&mut self) -> Result<ContentModel, DtdParseError> {
        if self.depth == MAX_GROUP_DEPTH {
            return self.err(format!(
                "content model nests deeper than {MAX_GROUP_DEPTH} groups"
            ));
        }
        self.depth += 1;
        let m = self.group_body();
        self.depth -= 1;
        m
    }

    fn group_body(&mut self) -> Result<ContentModel, DtdParseError> {
        self.expect("(")?;
        self.ws();
        if self.s[self.pos..].starts_with(b"#PCDATA") {
            self.pos += 7;
            self.ws();
            self.expect(")")?;
            return Ok(ContentModel::Str);
        }
        let first = self.item()?;
        self.ws();
        match self.peek() {
            Some(b')') => {
                self.pos += 1;
                Ok(first)
            }
            Some(sep @ (b',' | b'|')) => {
                let mut items = vec![first];
                let mut saw_empty = false;
                while self.peek() == Some(sep) {
                    self.pos += 1;
                    self.ws();
                    if self.s[self.pos..].starts_with(b"EMPTY") && sep == b'|' {
                        self.pos += 5;
                        saw_empty = true;
                    } else {
                        items.push(self.item()?);
                    }
                    self.ws();
                }
                self.expect(")")?;
                let m = if sep == b',' {
                    ContentModel::Seq(items)
                } else {
                    ContentModel::Alt(items)
                };
                Ok(if saw_empty {
                    ContentModel::Opt(Box::new(m))
                } else {
                    m
                })
            }
            _ => self.err("expected ',', '|' or ')'"),
        }
    }

    fn item(&mut self) -> Result<ContentModel, DtdParseError> {
        self.ws();
        let base = if self.peek() == Some(b'(') {
            self.group()?
        } else {
            ContentModel::Name(self.name()?)
        };
        Ok(self.postfix(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Production;

    #[test]
    fn parses_the_paper_fig2_schemas() {
        let s1 = Dtd::parse(
            "<!ELEMENT r (A)><!ELEMENT A (B,C)><!ELEMENT B (A|EMPTY)><!ELEMENT C EMPTY>",
        )
        .unwrap();
        assert_eq!(s1.type_count(), 4);
        let b = s1.type_id("B").unwrap();
        let a = s1.type_id("A").unwrap();
        assert_eq!(
            s1.production(b),
            &Production::Disjunction {
                alts: vec![a],
                allows_empty: true
            }
        );
        assert!(s1.is_recursive());

        let s2 = Dtd::parse("<!ELEMENT r (A)><!ELEMENT A (A|EMPTY)>").unwrap();
        assert_eq!(s2.type_count(), 2);
    }

    #[test]
    fn parses_pcdata_and_star() {
        let d = Dtd::parse("<!ELEMENT db (class)*><!ELEMENT class (#PCDATA)>").unwrap();
        let class = d.type_id("class").unwrap();
        assert_eq!(d.production(d.root()), &Production::Star(class));
        assert_eq!(d.production(class), &Production::Str);
    }

    #[test]
    fn parses_with_whitespace_and_comments() {
        let d = Dtd::parse(
            "<!-- the db -->\n<!ELEMENT db ( class )*>\n<!-- a class -->\n<!ELEMENT class ( cno , title )>\n<!ELEMENT cno (#PCDATA)>\n<!ELEMENT title (#PCDATA)>",
        )
        .unwrap();
        assert_eq!(d.type_count(), 4);
    }

    #[test]
    fn general_expressions_are_normalized() {
        let d = Dtd::parse(
            "<!ELEMENT r (a, (b|c)+, d?)><!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>",
        )
        .unwrap();
        // r gets synthetic helpers for (b|c)+ and d?.
        assert!(d.type_count() > 5);
        assert!(d.is_consistent());
        // r's body is a plain concat after normalization.
        assert!(matches!(d.production(d.root()), Production::Concat(_)));
    }

    #[test]
    fn explicit_root_override() {
        let d = Dtd::parse_with_root("b", "<!ELEMENT a EMPTY><!ELEMENT b (a)>").unwrap();
        assert_eq!(d.name(d.root()), "b");
    }

    #[test]
    fn error_on_garbage() {
        assert!(Dtd::parse("<!ELEMENT r (a>").is_err());
        assert!(Dtd::parse("<!ELEMNT r (a)>").is_err());
        assert!(Dtd::parse("").is_err());
        assert!(Dtd::parse("<!ELEMENT r (a,)>").is_err());
    }

    #[test]
    fn error_on_undefined_reference() {
        let e = Dtd::parse("<!ELEMENT r (ghost)>").unwrap_err();
        assert!(matches!(
            e,
            DtdParseError::Semantic(DtdError::UndefinedType { .. })
        ));
    }

    #[test]
    fn mixed_separators_rejected() {
        assert!(Dtd::parse(
            "<!ELEMENT r (a,b|c)><!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>"
        )
        .is_err());
    }

    #[test]
    fn group_nesting_is_bounded_at_max_group_depth() {
        let nested = |n: usize| format!("<!ELEMENT b {}b*{}>", "(".repeat(n), ")*".repeat(n));
        assert!(Dtd::parse(&nested(MAX_GROUP_DEPTH)).is_ok());
        for n in [MAX_GROUP_DEPTH + 1, 100_000] {
            match Dtd::parse(&nested(n)) {
                Err(DtdParseError::Syntax { msg, .. }) => assert!(msg.contains("nests deeper")),
                other => panic!("{n} groups: {other:?}"),
            }
        }
    }

    #[test]
    fn type_count_is_bounded_at_max_types_after_normalization() {
        // `r` plus `n - 1` empty types, all declared.
        let flat = |n: usize| {
            let mut s = String::from("<!ELEMENT r EMPTY>");
            for i in 1..n {
                s.push_str(&format!("<!ELEMENT t{i} EMPTY>"));
            }
            s
        };
        let d = Dtd::parse(&flat(MAX_TYPES)).unwrap();
        assert_eq!(d.type_count(), MAX_TYPES);
        let over = Dtd::parse(&flat(MAX_TYPES + 1)).unwrap_err();
        assert_eq!(
            over,
            DtdParseError::Semantic(DtdError::TooManyTypes(MAX_TYPES + 1))
        );
        assert!(Dtd::parse_with_root("t1", &flat(MAX_TYPES + 1)).is_err());
        // `MAX_TYPES` declarations, but `t2?` adds a synthetic type.
        let with_synthetic = flat(MAX_TYPES).replacen("r EMPTY", "r (t1, t2?)", 1);
        assert_eq!(
            Dtd::parse(&with_synthetic).unwrap_err(),
            DtdParseError::Semantic(DtdError::TooManyTypes(MAX_TYPES + 1))
        );
    }

    #[test]
    fn a_long_run_of_comments_parses() {
        let text = format!("{}<!ELEMENT a EMPTY>", "<!-- -->".repeat(100_000));
        assert!(Dtd::parse(&text).is_ok());
    }

    #[test]
    fn roundtrip_through_display() {
        let src = "<!ELEMENT db (class)*><!ELEMENT class (cno,title,type)><!ELEMENT cno (#PCDATA)><!ELEMENT title (#PCDATA)><!ELEMENT type (regular|project)><!ELEMENT regular EMPTY><!ELEMENT project EMPTY>";
        let d = Dtd::parse(src).unwrap();
        let printed = d.to_string();
        let d2 = Dtd::parse(&printed).unwrap();
        assert_eq!(d.type_count(), d2.type_count());
        for t in d.types() {
            let t2 = d2.type_id(d.name(t)).unwrap();
            assert_eq!(d.production(t), d2.production(t2), "type {}", d.name(t));
        }
    }
}
