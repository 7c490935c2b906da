//! Computing schema embeddings (§5).
//!
//! The `Schema-Embedding` problem — given `S1`, `S2` and a similarity matrix
//! `att`, find a valid embedding — is NP-complete (Theorem 5.1; the 3SAT
//! reduction is implemented in [`sat`] and exercised by the test suite), and
//! its two natural subproblems `Local-Embedding` and `Assemble-Embedding`
//! are NP-complete on their own (Theorems 5.2, 5.3). Practical algorithms
//! are therefore heuristic:
//!
//! * [`index`] — per-kind reachability indexes over the target graph
//!   (which nodes can reach which through AND-only / OR-bearing /
//!   STAR-bearing paths), the pruning oracle for the path search;
//! * [`pfp`] — the **prefix-free path problem**: given an origin and one
//!   endpoint-with-kind requirement per edge, find pairwise prefix-free
//!   target paths (a DFS that does not mark reached targets done, plus a
//!   position-bump refinement for siblings sharing a STAR prefix);
//! * [`solver`] — assembling local embeddings into a global one with the
//!   three strategies the paper evaluates: **Random** (randomly ordered
//!   target matches, restarts), **Quality-Ordered** (best `att` first), and
//!   **Independent-Set** (candidate local mappings as weighted vertices of
//!   a conflict graph, whose maximum-weight independent set seeds each
//!   restart). The paper calls the quadratic-over-a-sphere solver of
//!   Busygin et al. for that set; here the graph's only conflict is two
//!   images for one source type, so it is a disjoint union of per-type
//!   cliques, and the exact maximum (each type's heaviest plausible
//!   candidate) is computed directly;
//! * every assembled candidate is re-validated by
//!   [`CompiledEmbedding::new`](xse_core::CompiledEmbedding::new), so a
//!   returned embedding is always sound — heuristics can only cause false
//!   negatives. [`find_embedding`] hands back the owned, `Send + Sync`
//!   compiled engine, ready to be shared across threads;
//! * [`refute()`] — checking apart from searching: a polynomial-time
//!   condition every embedding the search can return meets. A failed
//!   search proves nothing, but a refutation is a proof: the search returns
//!   `None` on a refuted pair under every strategy, seed and budget, so a
//!   caller can skip it.
//!
//! Restart attempts run sequentially by default; [`DiscoveryConfig::threads`]
//! opts into a scoped-thread engine. Every attempt seeds its RNG from
//! `(seed, attempt_index)` alone and the lowest successful attempt index
//! wins, so the discovered embedding is byte-identical for every thread
//! count.

pub mod index;
pub mod pfp;
pub mod refute;
pub mod sat;
pub mod solver;

pub use refute::refute;
pub use solver::{
    find_embedding, find_embedding_with_stats, DiscoveryConfig, DiscoveryStats, Strategy,
};
