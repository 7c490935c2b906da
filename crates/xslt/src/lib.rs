//! The simplified XSLT model of §4.3 and stylesheet generation for `σd` and
//! `σd⁻¹`.
//!
//! A stylesheet is a set of template rules `(match, mode, output)`; output
//! trees contain *apply-templates* leaves `(select, mode)`. Processing
//! instantiates the highest-priority matching rule for a context node and
//! recursively applies templates to the nodes its selects return — the
//! worklist semantics spelled out in the paper (after Wadler's formal
//! semantics). Built-in rules mirror XSLT's: an unmatched element applies
//! templates to its children in the same mode; an unmatched text node copies
//! its value. Templates nest at most [`MAX_APPLY_DEPTH`] levels deep; the
//! processor keeps its pending work on the heap, so that bound holds on any
//! thread's stack.
//!
//! [`generate_forward`] emits one rule per source production implementing
//! the instance mapping (cases (1)–(4) of §4.3: constant fragment trees with
//! apply-templates at hot leaves, per-alternative rules for disjunctions,
//! prefix/suffix rule pairs with a dedicated mode for stars). Its fragment
//! trees are core's production fragments, read through
//! [`CompiledEmbedding::static_fragment`], so the stylesheet maps every
//! document exactly as [`CompiledEmbedding::apply`] does. And
//! [`generate_inverse`] emits the `invt` templates recovering the source
//! document. One deliberate deviation: rules carry a *mode per source type*
//! (`fwd-A` / `inv-A`) where the paper uses a single mode — with a
//! non-injective `λ`, two source types can share a target tag and modes are
//! what keeps their rules apart.
//!
//! The `Display` impl renders a stylesheet as `<xsl:template>` markup
//! matching the paper's listings (Examples 4.5, 4.6).
//!
//! [`CompiledEmbedding::static_fragment`]: xse_core::CompiledEmbedding::static_fragment
//! [`CompiledEmbedding::apply`]: xse_core::CompiledEmbedding::apply

mod exec;
mod gen_forward;
mod gen_inverse;
mod model;

pub use exec::{apply_stylesheet, XsltError, MAX_APPLY_DEPTH};
pub use gen_forward::generate_forward;
pub use gen_inverse::generate_inverse;
pub use model::{OutputNode, Pattern, Stylesheet, TemplateRule};
