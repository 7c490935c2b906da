//! XML schema embeddings — the core contribution of Fan & Bohannon,
//! *Information Preserving XML Schema Embedding* (§4).
//!
//! A **schema embedding** `σ = (λ, path)` from a source DTD `S1` to a target
//! DTD `S2` maps every element type `A` of `S1` to a type `λ(A)` of `S2`
//! (with `λ(r1) = r2`) and every *edge* `(A, B)` of `S1`'s schema graph to an
//! `XR` *path* `path(A, B)` from `λ(A)` to `λ(B)` in `S2`, such that for
//! every type `A`:
//!
//! * **path type condition** — concatenation edges map to AND paths,
//!   disjunction edges to OR paths, star edges to STAR paths, and `str`
//!   edges to AND paths ending in `text()`;
//! * **prefix-free condition** — no sibling edge's path is a prefix of
//!   another's.
//!
//! The crate is built around a *compile once, run many times* shape:
//!
//! * [`EmbeddingBuilder`] assembles `(λ, path)` fluently, accumulating
//!   errors instead of panicking;
//! * [`CompiledEmbedding`] is the validated engine — **owned** (no lifetime
//!   parameter, both DTDs held via `Arc`), **`Send + Sync`**, with the
//!   schema graphs, canonicalized paths, minimum-default plans and `Tr`
//!   translation tables all precomputed at build time;
//! * every failure anywhere in the pipeline is one
//!   [`EmbeddingError`] (`#[non_exhaustive]`).
//!
//! From a compiled embedding this crate derives, per the paper's theorems:
//!
//! * [`CompiledEmbedding::apply`] — the instance mapping `σd` (algorithm
//!   `InstMap`, Fig. 5), **type safe** and **injective** (Theorem 4.1),
//!   linear time — and [`CompiledEmbedding::apply_batch`], which fans a
//!   slice of documents out over scoped threads;
//! * [`CompiledEmbedding::invert`] — `σd⁻¹` recovering the source document
//!   (Theorem 4.3a);
//! * [`CompiledEmbedding::translate`] — the schema-directed query
//!   translation `Tr` into ANFA form with `Q(T) = idM(Tr(Q)(σd(T)))`
//!   (Theorem 4.3b), of size `O(|Q|·|σ|·|S1|)`;
//! * [`preserve`] — executable checkers for all of the above, used by the
//!   test suites and the experiment harness;
//! * [`multi`] — embedding *multiple* sources into one target (§4.5).

mod embedding;
mod error;
mod evict;
mod instmap;
mod inverse;
pub mod multi;
mod pfrag;
pub mod preserve;
mod quality;
mod resolve;
mod sim;
mod translate;
mod validity;

pub use embedding::{CompiledEmbedding, EmbeddingBuilder, MappingOutput, PathMapping, TypeMapping};
pub use error::EmbeddingError;
pub use evict::trim_to_capacity;
pub use resolve::{PathClass, ResolvedPath, ResolvedStep};
pub use sim::SimilarityMatrix;
pub use translate::{Lab, PlanCacheStats, TranslatePlan};
