//! Regular XPath — the class `XR` of Marx (2004) used throughout
//! Fan & Bohannon §2.2 — and the XPath fragment `X`.
//!
//! ```text
//! p ::= ε | A | p/text() | p/p | p ∪ p | p* | p[q]
//! q ::= p | p/text() = 'c' | position() = k | ¬q | q ∧ q | q ∨ q
//! ```
//!
//! `X` replaces `p*` by `p//p` (descendant-or-self). This crate provides the
//! AST ([`XrQuery`], [`Qualifier`]), a parser ([`parse_query`]) accepting
//! both ASCII (`|`, `not`, `and`, `or`, `.`) and paper (`∪`, `¬`, `∧`, `∨`,
//! `ε`) spellings, an evaluator over [`XmlTree`]s with document-order,
//! set-based semantics ([`XrQuery::eval`]), and the `XR`-*path* subclass
//! `η1/…/ηk` ([`XrPath`]) that schema embeddings map edges to.
//!
//! Query results are sets of node ids (`v[[p]]` in the paper); queries whose
//! last step is `text()` yield text-node ids, whose string values are the
//! paper's PCDATA results ([`XrQuery::eval_strings`]).
//!
//! [`XmlTree`]: xse_xmltree::XmlTree

mod ast;
mod display;
mod eval;
mod parser;
mod shape;
mod xrpath;

pub use ast::{Qualifier, XrQuery};
pub use eval::{eval_at, eval_at_root, Evaluator};
pub use parser::{parse_query, QueryParseError, MAX_QUERY_DEPTH};
pub use shape::{normalize_query, shape_key};
pub use xrpath::{PathStep, XrPath};
