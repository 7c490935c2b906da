use std::fmt;

use xse_dtd::ValidationError;

/// Everything that can go wrong constructing, validating, applying or
/// translating through a schema embedding — one enum for the whole engine.
///
/// The variants fall into three groups:
///
/// * **builder errors** ([`EmbeddingError::UnknownType`],
///   [`EmbeddingError::UnknownChild`], [`EmbeddingError::PathSyntax`],
///   [`EmbeddingError::Build`]) — produced by [`EmbeddingBuilder`] and the
///   [`TypeMapping`] constructors while *assembling* `(λ, path)`;
/// * **validity errors** (the §4.1 conditions) — produced when *compiling*
///   the assembled mapping into a [`CompiledEmbedding`];
/// * **runtime errors** — produced by `apply` / `invert` / `translate` on a
///   compiled embedding (nonconforming inputs, non-image documents,
///   unsupported `position()` placements).
///
/// The enum is `#[non_exhaustive]`: match with a wildcard arm so future
/// PRs can refine diagnostics without a breaking change.
///
/// [`EmbeddingBuilder`]: crate::EmbeddingBuilder
/// [`TypeMapping`]: crate::TypeMapping
/// [`CompiledEmbedding`]: crate::CompiledEmbedding
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmbeddingError {
    /// A named element type does not exist in the schema it was looked up
    /// in (`which` is "source" or "target").
    UnknownType { which: &'static str, name: String },
    /// `parent` has no production edge to a child named `child`.
    UnknownChild { parent: String, child: String },
    /// An edge slot index is out of range for the type's production (also
    /// reported when a `with_paths` mapping is sized for a different
    /// schema).
    SlotOutOfRange {
        ty: String,
        slot: usize,
        edges: usize,
    },
    /// An `XR` path literal failed to parse.
    PathSyntax { path: String, reason: String },
    /// Several builder calls failed; every individual failure is listed.
    Build(Vec<EmbeddingError>),
    /// `λ` must map the source root to the target root.
    RootNotMappedToRoot,
    /// `λ` or the path function is missing/extra entries for a type.
    ArityMismatch {
        ty: String,
        expected: usize,
        got: usize,
    },
    /// The type mapping violates the similarity matrix (`att(A, λ(A)) = 0`).
    SimilarityZero { source: String, target: String },
    /// `path(A, B)` does not denote a label path of the target schema
    /// starting at `λ(A)`.
    PathUnresolvable {
        from: String,
        path: String,
        reason: String,
    },
    /// `path(A, B)` does not end at `λ(B)`.
    PathWrongEndpoint {
        from: String,
        path: String,
        expected: String,
        found: String,
    },
    /// The path type condition is violated (e.g. an AND edge mapped to an
    /// OR path).
    PathKind {
        from: String,
        path: String,
        expected: &'static str,
        found: String,
    },
    /// Two sibling edges' paths violate the prefix-free condition.
    PrefixConflict {
        ty: String,
        path_a: String,
        path_b: String,
    },
    /// A star edge's path pins the multiplicity step to a fixed position,
    /// leaving nowhere for repeated children to go.
    StarPositionPinned { from: String, path: String },
    /// A document fed to `σd` does not conform to the source DTD.
    SourceInvalid(ValidationError),
    /// A document fed to `σd⁻¹` does not conform to the target DTD.
    TargetInvalid(ValidationError),
    /// `σd⁻¹` met a target document it cannot have produced.
    InverseMismatch { at: String, reason: String },
    /// A disjunction alternative's path is navigable inside the static
    /// fragment produced by a *different* alternative (minimum-default
    /// padding would alias the choice and break invertibility) — a
    /// conservative strengthening of the paper's conditions, see DESIGN.md.
    AlternativeAliased {
        ty: String,
        probe: String,
        scenario: String,
    },
    /// The paper assumes consistent DTDs (§2.1); reduce() first.
    InconsistentDtd { which: &'static str },
    /// A `position()` qualifier sits on a non-step path or inside a Boolean
    /// context where occurrence selection is not expressible (`Tr`'s
    /// supported fragment covers every construction the paper relies on).
    UnsupportedPosition(String),
}

impl fmt::Display for EmbeddingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use EmbeddingError::*;
        match self {
            UnknownType { which, name } => {
                write!(f, "the {which} schema has no element type {name:?}")
            }
            UnknownChild { parent, child } => {
                write!(f, "type {parent:?} has no child {child:?}")
            }
            SlotOutOfRange { ty, slot, edges } => {
                write!(f, "type {ty:?}: edge slot {slot} out of range ({edges} edge(s))")
            }
            PathSyntax { path, reason } => {
                write!(f, "path {path:?} does not parse: {reason}")
            }
            Build(errors) => {
                write!(f, "{} builder error(s):", errors.len())?;
                for e in errors {
                    write!(f, "\n  - {e}")?;
                }
                Ok(())
            }
            RootNotMappedToRoot => write!(f, "λ must map the source root to the target root"),
            ArityMismatch { ty, expected, got } => write!(
                f,
                "type {ty:?}: expected {expected} edge paths, got {got}"
            ),
            SimilarityZero { source, target } => write!(
                f,
                "att({source:?}, {target:?}) = 0: type mapping invalid w.r.t. the similarity matrix"
            ),
            PathUnresolvable { from, path, reason } => write!(
                f,
                "path {path:?} from {from:?} does not resolve in the target schema: {reason}"
            ),
            PathWrongEndpoint { from, path, expected, found } => write!(
                f,
                "path {path:?} from {from:?} ends at {found:?}, expected λ-image {expected:?}"
            ),
            PathKind { from, path, expected, found } => write!(
                f,
                "path {path:?} from {from:?} must be {expected}, but is {found}"
            ),
            PrefixConflict { ty, path_a, path_b } => write!(
                f,
                "prefix-free violation at {ty:?}: {path_a:?} overlaps {path_b:?}"
            ),
            StarPositionPinned { from, path } => write!(
                f,
                "star edge of {from:?}: path {path:?} fixes a position at its multiplicity step"
            ),
            SourceInvalid(e) => write!(f, "input does not conform to the source DTD: {e}"),
            TargetInvalid(e) => write!(f, "input does not conform to the target DTD: {e}"),
            InverseMismatch { at, reason } => {
                write!(f, "inverse mapping failed at {at}: {reason}")
            }
            AlternativeAliased { ty, probe, scenario } => write!(
                f,
                "disjunction {ty:?}: path {probe:?} is navigable in the fragment of alternative {scenario:?} (default padding would alias the choice)"
            ),
            InconsistentDtd { which } => write!(
                f,
                "the {which} DTD has useless element types; reduce() it first (§2.1 assumes consistent DTDs)"
            ),
            UnsupportedPosition(q) => {
                write!(f, "unsupported position() placement in {q:?}")
            }
        }
    }
}

impl std::error::Error for EmbeddingError {}

impl From<ValidationError> for EmbeddingError {
    fn from(e: ValidationError) -> Self {
        EmbeddingError::SourceInvalid(e)
    }
}
