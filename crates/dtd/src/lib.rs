//! DTD schemas in the normal form of Fan & Bohannon §2.1.
//!
//! A DTD is a triple `(E, P, r)`: a finite set of element types, a root type,
//! and for each type `A` a production `P(A)` of one of the normal forms
//!
//! ```text
//! α ::= str | ε | B1, …, Bn | B1 + … + Bn | B*
//! ```
//!
//! (PCDATA, empty, concatenation, disjunction, Kleene star). The paper notes
//! that this form loses no generality: any DTD converts to it in linear time
//! by introducing fresh element types. This crate provides:
//!
//! * the normal-form model ([`Dtd`], [`Production`], [`TypeId`]) plus general
//!   regular-expression content models ([`ContentModel`]) and the
//!   normalizing conversion ([`Dtd::from_content_models`]);
//! * a parser for `<!ELEMENT …>` declarations ([`Dtd::parse`]);
//! * **schema graphs** with AND / OR / STAR edges ([`SchemaGraph`],
//!   [`EdgeKind`]) — the graphs of Figure 1;
//! * **consistency**: detection and removal of useless element types in
//!   `O(|S|²)` ([`Dtd::useless_types`], [`Dtd::reduce`]);
//! * **conformance validation** of [`XmlTree`]s ([`Dtd::validate`]);
//! * **minimum default instances** `mindef(A)` (§4.2), the constant
//!   fragments the instance mapping uses to pad required target structure;
//! * seeded **random instance generation** for tests and benchmarks;
//! * **canonical content hashing** ([`Dtd::content_hash`], [`DtdHash`]):
//!   a process-stable digest of the reduced DTD's normalized serialization,
//!   used by serving layers as a registry key.
//!
//! [`XmlTree`]: xse_xmltree::XmlTree

mod consistency;
mod display;
mod graph;
mod hash;
mod instance_gen;
mod mindef;
mod parse;
mod regex;
mod types;
mod validate;

pub use graph::{Edge, EdgeKind, EdgeTarget, SchemaGraph};
pub use hash::DtdHash;
pub use instance_gen::{GenConfig, InstanceGenerator};
pub use mindef::MindefPlan;
pub use parse::{DtdParseError, MAX_GROUP_DEPTH, MAX_TYPES};
pub use regex::ContentModel;
pub use types::{Dtd, DtdBuilder, DtdError, Production, TypeId};
pub use validate::ValidationError;

/// The fixed default string value used by minimum default instances (§4.2).
pub const DEFAULT_STRING: &str = "#s";
