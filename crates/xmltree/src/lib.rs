//! Ordered, node-labeled XML document trees, stored as a flat CSR arena.
//!
//! This crate implements the XML instance model of Section 2.1 of
//! Fan & Bohannon, *Information Preserving XML Schema Embedding* (VLDB 2005 /
//! TODS 2008):
//!
//! * an XML instance is an **ordered tree** whose nodes are either *elements*
//!   (labeled with an element-type tag) or *text nodes* (carrying a `PCDATA`
//!   string value and always leaves);
//! * every node carries a **stable node id** drawn from the countably
//!   infinite id universe `U`; the set of ids of a tree `T` is `dom(T)`;
//! * two trees are **equal** (`T1 = T2`) when they are isomorphic by an
//!   isomorphism that is the identity on string values — i.e. same shape,
//!   same tags, same text, ids ignored;
//! * instance mappings `σd : I(S1) → I(S2)` come with a partial **id
//!   mapping** `idM()` from `dom(σd(T))` back to `dom(T)` ([`IdMap`]).
//!
//! # Representation
//!
//! [`XmlTree`] is a struct-of-arrays arena tuned for the paper's workloads —
//! instance mapping (`σd`), validation and query evaluation are pure tree
//! traversals, so the layout optimizes traversal over mutation:
//!
//! * **Flat node records.** Each node is a fixed 20-byte record in one
//!   `Vec`: a parent index, a child count, an interned tag, and a text
//!   span. [`NodeId`] is the record's index — dense, stable, never reused,
//!   a faithful stand-in for the paper's abstract ids.
//! * **Interned tags.** Element labels are [`TagId`]s into a per-tree
//!   [`SymbolTable`]; a document has one distinct tag per element type of
//!   its schema, so the table is tiny and label comparison on hot paths
//!   (validation, navigation, query steps) is an integer compare. Builders
//!   that know their tags up front can intern once and append with
//!   [`XmlTree::add_element_tag`], skipping all string hashing.
//! * **Shared text buffer.** Text nodes store `(start, len)` byte ranges
//!   into one buffer per tree — no per-node `String`.
//! * **CSR child spans, built from the parent indexes.** An append pushes
//!   one record and bumps its parent's child count (O(1),
//!   allocation-free). Every node is appended as its parent's last child,
//!   so the parent indexes fix every child list, whatever order the tree
//!   was built in. The first traversal after a batch of mutations — or an
//!   explicit [`XmlTree::freeze`] — builds the compressed-sparse-row form
//!   by a counting sort on the parent index: all child lists laid out
//!   contiguously in one edge array, each in ascending id, which is
//!   document order. [`XmlTree::children`] then returns a `&[NodeId]`
//!   slice with two array lookups. Mutating again invalidates the spans;
//!   the next read rebuilds them. Building never renumbers: `dom(T)`,
//!   document order and equality are invariant.
//!
//! Parsing ([`parse_xml`]) builds straight into the arena with capacity
//! pre-reserved from the input, copying each run of character data as one
//! slice into the shared text buffer; serialization ([`XmlTree::to_xml`] /
//! [`XmlTree::to_xml_pretty`]) walks the child spans into an
//! [`XmlWriter`], which holds the escaping and the empty-element rule, and
//! round-trips through it. Parsing and compact serialization
//! take time linear in the document, and all three loop instead of
//! recursing, so nesting depth is bounded by memory, not by the call stack.

mod idmap;
mod node;
mod parse;
mod serialize;
mod symbol;

pub use idmap::IdMap;
pub use node::{NodeId, NodeKind, Preorder, XmlTree};
pub use parse::{parse_xml, ParseError};
pub use serialize::{escape_text, XmlWriter};
pub use symbol::{SymbolTable, TagId};
