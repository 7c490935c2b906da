//! Assembling local embeddings into a global schema embedding (§5.1–5.2).
//!
//! The solver walks the source types in BFS order from the root. A type's
//! λ-image is already fixed when it is reached (the root by definition,
//! every other type by the parent that first mapped it); the *local
//! embedding* step then chooses λ-images for the yet-unmapped children —
//! candidate targets come from the similarity matrix, ordered per strategy —
//! and solves the prefix-free path problem for the production's edges.
//! Combinations are tried up to a budget; a full failure restarts the
//! whole assembly with a fresh random order (the paper's restart loop).
//!
//! Every assembled candidate passes through [`CompiledEmbedding::new`], so
//! discovery never returns an invalid embedding.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use xse_core::{CompiledEmbedding, EmbeddingError, PathMapping, SimilarityMatrix, TypeMapping};
use xse_dtd::{Dtd, Production, SchemaGraph, TypeId};

use crate::index::ReachIndex;
use crate::pfp::{self, PathReq, PfpConfig, ReqKind};

/// Pool size per source type for the Independent-Set seed.
const POOL_PER_TYPE: usize = 6;

/// The three assembly heuristics evaluated in the paper's experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Visit candidate targets in random (similarity-biased) order, with
    /// restarts — the paper's best performer.
    Random,
    /// Candidates in decreasing `att` order ("start with better mappings").
    QualityOrdered,
    /// Seed each restart with a maximum-weight independent set of the
    /// candidate local mappings, then repair by search. The only conflict
    /// is two images for one source type, so the set is each type's
    /// heaviest plausible candidate, picked directly.
    IndependentSet,
}

/// Knobs for [`find_embedding`].
#[derive(Clone, Debug)]
pub struct DiscoveryConfig {
    /// Assembly strategy.
    pub strategy: Strategy,
    /// RNG seed (results are deterministic per seed).
    pub seed: u64,
    /// Number of restart attempts.
    pub restarts: usize,
    /// λ-candidate combinations tried per source type before giving up on
    /// an attempt.
    pub max_combos: usize,
    /// Prefix-free path search limits.
    pub pfp: PfpConfig,
    /// Worker threads for the restart engine: `1` (the default) runs fully
    /// sequentially on the caller's thread, `0` spawns one worker per
    /// available core. Extra workers lose on pairs won in the first few
    /// attempts and win only on pairs where many restarts fail; no served
    /// workload has been measured to need them (EXPERIMENTS.md, EXP-T).
    /// Restart attempts are embarrassingly parallel —
    /// every attempt index derives its RNG from `(seed, index)` alone, and
    /// the engine returns the success with the **lowest attempt index** —
    /// so the discovered embedding is byte-identical for every thread
    /// count. Only the [`DiscoveryStats`] counters may differ: parallel
    /// workers can start (and then abandon) attempts beyond the winner.
    pub threads: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            strategy: Strategy::Random,
            seed: 0xE5CA_B05E,
            restarts: 24,
            max_combos: 64,
            pfp: PfpConfig::default(),
            threads: 1,
        }
    }
}

/// Counters reported by [`find_embedding_with_stats`]. Workers accumulate
/// counters independently; [`DiscoveryStats::merge`] folds them together.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiscoveryStats {
    /// Restart attempts started (summed across workers).
    pub attempts: usize,
    /// Local-embedding (pfp) solves.
    pub local_solves: usize,
    /// Independent-Set λ-seed derivations (one per attempt under that
    /// strategy, zero under the others).
    pub wis_seeds: usize,
    /// Candidate embeddings rejected by final validation — the sum of the
    /// three `rejects_*` kinds below.
    pub validation_rejects: usize,
    /// Rejected for prefix-freeness violations (a path covering a prefix
    /// of another, or aliased disjunction alternatives).
    pub rejects_prefix: usize,
    /// Rejected because `att(A, λ(A)) = 0` for some source type `A`.
    pub rejects_similarity: usize,
    /// Rejected by any other validation failure.
    pub rejects_other: usize,
}

impl DiscoveryStats {
    /// Fold another worker's counters into `self`.
    pub fn merge(&mut self, other: &DiscoveryStats) {
        self.attempts += other.attempts;
        self.local_solves += other.local_solves;
        self.wis_seeds += other.wis_seeds;
        self.validation_rejects += other.validation_rejects;
        self.rejects_prefix += other.rejects_prefix;
        self.rejects_similarity += other.rejects_similarity;
        self.rejects_other += other.rejects_other;
    }
}

/// The RNG for one restart attempt, derived from `(seed, attempt)` alone —
/// never from which worker runs the attempt or from what ran before it —
/// so sequential and parallel engines explore identical per-attempt search
/// trees.
fn attempt_rng(seed: u64, attempt: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Source types in BFS order from the root: parents before children on
/// first contact, children in production order. Consistent DTDs have every
/// type reachable.
pub(crate) fn bfs_order(source: &Dtd) -> Vec<TypeId> {
    let mut order = Vec::with_capacity(source.type_count());
    let mut seen = vec![false; source.type_count()];
    seen[source.root().index()] = true;
    order.push(source.root());
    let mut i = 0;
    while let Some(&t) = order.get(i) {
        for &c in source.production(t).children() {
            if !seen[c.index()] {
                seen[c.index()] = true;
                order.push(c);
            }
        }
        i += 1;
    }
    order
}

/// Resolve [`DiscoveryConfig::threads`] (`0` = available parallelism).
fn effective_threads(cfg: &DiscoveryConfig) -> usize {
    if cfg.threads == 0 {
        thread::available_parallelism().map_or(1, NonZeroUsize::get)
    } else {
        cfg.threads
    }
}

/// Find a valid schema embedding `S1 → S2` w.r.t. `att`, or `None` if the
/// heuristics fail (the problem is NP-complete, Theorem 5.1 — failure does
/// not prove non-existence; a [`refute`](crate::refute()) that returns
/// `true` does, and this search then returns `None`). The result is an owned
/// [`CompiledEmbedding`] — it does not borrow the input DTDs (they are
/// cloned once into shared `Arc`s), so it can be stored, sent across
/// threads, and reused long after discovery.
///
/// # Parallelism and determinism
///
/// Restart attempts run on [`DiscoveryConfig::threads`] scoped workers.
/// Each attempt index `i` seeds its own RNG from `(cfg.seed, i)`, and the
/// engine's **winner-selection rule** is: among all attempts that produce
/// a validated embedding, the one with the *lowest attempt index* wins —
/// exactly the attempt a sequential run would have stopped at. Workers
/// publish the best winning index through an atomic bound and abandon
/// attempts that can no longer win. Consequently `find_embedding` returns
/// a byte-identical embedding for every `threads` value given the same
/// `DiscoveryConfig`.
pub fn find_embedding(
    source: &Dtd,
    target: &Dtd,
    att: &SimilarityMatrix,
    cfg: &DiscoveryConfig,
) -> Option<CompiledEmbedding> {
    find_embedding_with_stats(source, target, att, cfg).0
}

/// [`find_embedding`] plus search counters (for the experiment harness).
pub fn find_embedding_with_stats(
    source: &Dtd,
    target: &Dtd,
    att: &SimilarityMatrix,
    cfg: &DiscoveryConfig,
) -> (Option<CompiledEmbedding>, DiscoveryStats) {
    if att.dims() != (source.type_count(), target.type_count()) {
        return (None, DiscoveryStats::default());
    }
    // One owned copy of each schema; every validated candidate shares them.
    let source_arc = Arc::new(source.clone());
    let target_arc = Arc::new(target.clone());
    let src_graph = SchemaGraph::new(source);
    let tgt_graph = SchemaGraph::new(target);
    let idx = ReachIndex::new(target, &tgt_graph);
    let order = bfs_order(source);
    // Lowest attempt index that has produced a validated embedding so far;
    // attempts above it can no longer win and are cancelled.
    let bound = AtomicUsize::new(usize::MAX);
    let env = Env {
        source,
        target,
        source_arc: &source_arc,
        target_arc: &target_arc,
        src_graph: &src_graph,
        tgt_graph: &tgt_graph,
        idx: &idx,
        order: &order,
        att,
        cfg,
        bound: &bound,
    };
    let total = cfg.restarts.max(1);
    let workers = effective_threads(cfg).min(total);

    if workers <= 1 {
        // Sequential path: attempts in index order, first success wins —
        // by construction the same winner the parallel engine selects.
        let mut stats = DiscoveryStats::default();
        for attempt in 0..total {
            stats.attempts += 1;
            if let Some(e) = env.run_attempt(attempt, &mut stats) {
                return (Some(e), stats);
            }
        }
        return (None, stats);
    }

    // Parallel engine: workers claim attempt indices from a shared counter
    // and record successes; the lowest successful index wins. Indices are
    // claimed in order and an index is only skipped when it lies above an
    // already-known success, so every attempt below the winner runs to
    // completion and fails deterministically — the winner is exactly the
    // attempt the sequential loop would have returned.
    let next = AtomicUsize::new(0);
    let found: Mutex<Vec<(usize, CompiledEmbedding)>> = Mutex::new(Vec::new());
    let merged = Mutex::new(DiscoveryStats::default());
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut local = DiscoveryStats::default();
                loop {
                    let attempt = next.fetch_add(1, Ordering::Relaxed);
                    if attempt >= total || attempt > bound.load(Ordering::Acquire) {
                        break;
                    }
                    local.attempts += 1;
                    if let Some(e) = env.run_attempt(attempt, &mut local) {
                        bound.fetch_min(attempt, Ordering::AcqRel);
                        found.lock().unwrap().push((attempt, e));
                    }
                }
                merged.lock().unwrap().merge(&local);
            });
        }
    });
    let stats = merged.into_inner().unwrap();
    let winner = found
        .into_inner()
        .unwrap()
        .into_iter()
        .min_by_key(|&(attempt, _)| attempt)
        .map(|(_, e)| e);
    (winner, stats)
}

/// One unmapped child's candidate targets in strategy order, sorted only as
/// far as the combination loop reads it. The loop usually tries entry 0
/// alone, while a row of the registry's similarity matrix holds every
/// target type.
struct CandidateOrder {
    /// `(key, rank, target)`: `rank` is the candidate's index in
    /// [`SimilarityMatrix::candidates`] order. `keyed[..sorted]` is final;
    /// the rest is in no particular order.
    keyed: Vec<(f64, u32, TypeId)>,
    sorted: usize,
}

/// Descending key, ties by rank: a total order, so an unstable sort gives
/// exactly the order a stable sort by key alone gives. `total_cmp`: a NaN
/// weight (possible only through a buggy upstream matrix) must never panic
/// the search.
fn by_key_then_rank(x: &(f64, u32, TypeId), y: &(f64, u32, TypeId)) -> std::cmp::Ordering {
    y.0.total_cmp(&x.0).then(x.1.cmp(&y.1))
}

impl CandidateOrder {
    /// `cands` in [`SimilarityMatrix::candidates`] order. With
    /// `shuffle = Some((rng, bias))`, each candidate is keyed
    /// `random() · bias + att` — one draw per candidate, in `cands` order —
    /// and the order is by descending key; without, it is `cands`' order.
    fn new(cands: Vec<(TypeId, f64)>, shuffle: Option<(&mut StdRng, f64)>) -> Self {
        let ranked = cands.into_iter().enumerate();
        match shuffle {
            Some((rng, bias)) => CandidateOrder {
                keyed: ranked
                    .map(|(r, (t, w))| (rng.random::<f64>() * bias + w, r as u32, t))
                    .collect(),
                sorted: 0,
            },
            None => {
                let keyed: Vec<_> = ranked.map(|(r, (t, w))| (w, r as u32, t)).collect();
                CandidateOrder {
                    sorted: keyed.len(),
                    keyed,
                }
            }
        }
    }

    fn len(&self) -> usize {
        self.keyed.len()
    }

    /// Move `want` (if it is a candidate) to the front, keeping the order
    /// of the others.
    fn promote(&mut self, want: TypeId) {
        if let Some(p) = self.keyed.iter().position(|&(_, _, t)| t == want) {
            self.keyed[..=p].rotate_right(1);
            if p >= self.sorted {
                // `want` was not in the final prefix, which therefore holds
                // the first entries of the others' order: keep it, after
                // `want`.
                self.sorted += 1;
            }
        }
    }

    /// The `i`-th candidate.
    fn get(&mut self, i: usize) -> TypeId {
        if i >= self.sorted {
            // Grow the final prefix at least geometrically, so reading the
            // whole list costs O(n log n), like one full sort.
            let rest = &mut self.keyed[self.sorted..];
            let take = (i + 1 - self.sorted).max(self.sorted).min(rest.len());
            if take < rest.len() {
                rest.select_nth_unstable_by(take - 1, by_key_then_rank);
            }
            rest[..take].sort_unstable_by(by_key_then_rank);
            self.sorted += take;
        }
        self.keyed[i].2
    }
}

struct Env<'e> {
    source: &'e Dtd,
    target: &'e Dtd,
    source_arc: &'e Arc<Dtd>,
    target_arc: &'e Arc<Dtd>,
    src_graph: &'e SchemaGraph,
    tgt_graph: &'e SchemaGraph,
    idx: &'e ReachIndex,
    /// Source types in [`bfs_order`], the order every attempt assigns them.
    order: &'e [TypeId],
    att: &'e SimilarityMatrix,
    cfg: &'e DiscoveryConfig,
    bound: &'e AtomicUsize,
}

impl<'e> Env<'e> {
    /// Run attempt `attempt` end to end on the calling thread: derive its
    /// RNG from `(seed, attempt)`, assemble a candidate, validate it.
    /// `&self`-pure — safe to call from any worker concurrently.
    fn run_attempt(&self, attempt: usize, stats: &mut DiscoveryStats) -> Option<CompiledEmbedding> {
        let mut rng = attempt_rng(self.cfg.seed, attempt);
        // Independent-Set derives a freshly shuffled λ-seed for *every*
        // restart: seeding only attempt 0 would silently degrade every
        // later restart to the Random strategy.
        let wis_seed = (self.cfg.strategy == Strategy::IndependentSet).then(|| {
            stats.wis_seeds += 1;
            self.wis_lambda_seed(&mut rng)
        });
        let (lambda, paths) = self.attempt(&mut rng, attempt, wis_seed.as_deref(), stats)?;
        match CompiledEmbedding::new(
            Arc::clone(self.source_arc),
            Arc::clone(self.target_arc),
            lambda,
            &paths,
        ) {
            Ok(e) => {
                if e.check_similarity(self.att).is_ok() {
                    return Some(e);
                }
                stats.validation_rejects += 1;
                stats.rejects_similarity += 1;
            }
            Err(err) => {
                stats.validation_rejects += 1;
                match err {
                    EmbeddingError::PrefixConflict { .. }
                    | EmbeddingError::AlternativeAliased { .. } => stats.rejects_prefix += 1,
                    EmbeddingError::SimilarityZero { .. } => stats.rejects_similarity += 1,
                    _ => stats.rejects_other += 1,
                }
            }
        }
        None
    }

    /// One assembly attempt: assign λ and paths type by type. `seed_lambda`
    /// (from the Independent-Set pool) is *advisory*: a seeded image is
    /// tried first for its type, but the search falls back to the other
    /// candidates — greedy assembly has no cross-type backtracking, so a
    /// hard-pinned seed could never be repaired when it is infeasible.
    fn attempt(
        &self,
        rng: &mut StdRng,
        attempt: usize,
        seed_lambda: Option<&[Option<TypeId>]>,
        stats: &mut DiscoveryStats,
    ) -> Option<(TypeMapping, PathMapping)> {
        let n = self.source.type_count();
        let mut lambda: Vec<Option<TypeId>> = vec![None; n];
        lambda[self.source.root().index()] = Some(self.target.root());
        let mut paths = PathMapping::new_with_graph(self.source, self.src_graph);

        for &a in self.order {
            // Early-cancel: a sibling worker has already validated a
            // success at a lower index, so this attempt cannot win.
            if attempt > self.bound.load(Ordering::Relaxed) {
                return None;
            }
            let la = lambda[a.index()].expect("BFS order guarantees assignment");
            if !self.solve_type(
                rng,
                attempt,
                a,
                la,
                seed_lambda,
                &mut lambda,
                &mut paths,
                stats,
            ) {
                return None;
            }
        }
        let map: Vec<TypeId> = lambda.into_iter().map(Option::unwrap).collect();
        Some((TypeMapping { map }, paths))
    }

    /// Choose λ for `a`'s unmapped children and prefix-free paths for its
    /// edges.
    #[allow(clippy::too_many_arguments)]
    fn solve_type(
        &self,
        rng: &mut StdRng,
        attempt: usize,
        a: TypeId,
        la: TypeId,
        seed_lambda: Option<&[Option<TypeId>]>,
        lambda: &mut [Option<TypeId>],
        paths: &mut PathMapping,
        stats: &mut DiscoveryStats,
    ) -> bool {
        let children: Vec<TypeId> = match self.source.production(a) {
            Production::Str => {
                // Single text requirement, no λ choice involved.
                stats.local_solves += 1;
                let reqs = [PathReq {
                    endpoint: la, // ignored
                    kind: ReqKind::Text,
                }];
                let solved = pfp::solve(
                    self.target,
                    self.tgt_graph,
                    self.idx,
                    la,
                    &reqs,
                    &self.cfg.pfp,
                    Some(rng),
                );
                return match solved {
                    Some(mut ps) => {
                        paths.set(a, 0, ps.pop().unwrap());
                        true
                    }
                    None => false,
                };
            }
            Production::Empty => return true,
            p => p.children().to_vec(),
        };

        // Distinct children needing a λ choice.
        let mut unmapped: Vec<TypeId> = Vec::new();
        for &c in &children {
            if lambda[c.index()].is_none() && !unmapped.contains(&c) {
                unmapped.push(c);
            }
        }
        // Candidate lists per unmapped child, strategy-ordered.
        let mut cand_lists: Vec<CandidateOrder> = Vec::with_capacity(unmapped.len());
        for &c in &unmapped {
            let cands: Vec<(TypeId, f64)> = self.att.candidates(c);
            if cands.is_empty() {
                return false;
            }
            // Greedy assembly has no cross-type backtracking; restarts must
            // therefore explore *different* orders. The first attempt of the
            // deterministic strategies is pure; later restarts perturb the
            // order with a quality-biased shuffle (the paper: "new random
            // orderings can be used in an attempt to find additional local
            // mappings").
            let pure = matches!(
                self.cfg.strategy,
                Strategy::QualityOrdered | Strategy::IndependentSet
            ) && attempt == 0;
            let bias = match self.cfg.strategy {
                Strategy::Random => 0.25,
                _ => 1.0, // stay strongly quality-biased on restarts
            };
            let mut list = CandidateOrder::new(cands, (!pure).then_some((&mut *rng, bias)));
            // Promote the Independent-Set suggestion (when present) to the
            // front of the candidate list: tried first, repaired by search.
            if let Some(want) = seed_lambda.and_then(|s| s[c.index()]) {
                list.promote(want);
            }
            cand_lists.push(list);
        }

        // Iterate combinations in mixed-radix order up to the budget.
        let mut combo = vec![0usize; unmapped.len()];
        for _ in 0..self.cfg.max_combos.max(1) {
            // Tentatively assign.
            for (i, &c) in unmapped.iter().enumerate() {
                lambda[c.index()] = Some(cand_lists[i].get(combo[i]));
            }
            stats.local_solves += 1;
            if let Some(solved) = self.try_paths(rng, a, la, lambda) {
                for (slot, p) in solved.into_iter().enumerate() {
                    paths.set(a, slot, p);
                }
                return true;
            }
            // Next combination (or give up when exhausted).
            let mut i = 0;
            loop {
                if i == combo.len() {
                    // Exhausted all combinations.
                    for &c in &unmapped {
                        lambda[c.index()] = None;
                    }
                    return false;
                }
                combo[i] += 1;
                if combo[i] < cand_lists[i].len() {
                    break;
                }
                combo[i] = 0;
                i += 1;
            }
        }
        for &c in &unmapped {
            lambda[c.index()] = None;
        }
        false
    }

    /// Prefix-free path search for all edges of `a` under the current λ.
    fn try_paths(
        &self,
        rng: &mut StdRng,
        a: TypeId,
        la: TypeId,
        lambda: &[Option<TypeId>],
    ) -> Option<Vec<xse_rxpath::XrPath>> {
        let mut reqs: Vec<PathReq> = Vec::new();
        match self.source.production(a) {
            Production::Concat(cs) => {
                for &c in cs {
                    reqs.push(PathReq {
                        endpoint: lambda[c.index()]?,
                        kind: ReqKind::And,
                    });
                }
            }
            Production::Disjunction { alts, .. } => {
                for &c in alts {
                    reqs.push(PathReq {
                        endpoint: lambda[c.index()]?,
                        kind: ReqKind::Or,
                    });
                }
            }
            Production::Star(b) => {
                reqs.push(PathReq {
                    endpoint: lambda[b.index()]?,
                    kind: ReqKind::Star,
                });
            }
            Production::Str | Production::Empty => unreachable!("handled by solve_type"),
        }
        pfp::solve(
            self.target,
            self.tgt_graph,
            self.idx,
            la,
            &reqs,
            &self.cfg.pfp,
            Some(rng),
        )
    }

    /// Independent-Set seeding. The paper reduces assembly to a
    /// maximum-weight independent set over candidate local mappings
    /// weighted by `att`, where two mappings conflict when they give one
    /// source type different images. Those conflicts make the graph a
    /// disjoint union of per-type cliques, whose maximum-weight independent
    /// set is each type's heaviest vertex. So each type's pool is its first
    /// [`POOL_PER_TYPE`] candidates, shuffled so that restarts break ties
    /// differently, less the implausible ones; the heaviest member seeds
    /// the type, the first in pool order on a tie. The root is pinned to
    /// the target root.
    fn wis_lambda_seed(&self, rng: &mut StdRng) -> Vec<Option<TypeId>> {
        let mut lambda: Vec<Option<TypeId>> = self
            .source
            .types()
            .map(|a| {
                let mut pool = self.att.candidates(a);
                pool.truncate(POOL_PER_TYPE);
                pool.shuffle(rng);
                pool.into_iter()
                    .filter(|&(b, _)| self.plausible(a, b))
                    .reduce(|best, c| if c.1 > best.1 { c } else { best })
                    .map(|(b, _)| b)
            })
            .collect();
        lambda[self.source.root().index()] = Some(self.target.root());
        lambda
    }

    /// Quick structural plausibility of mapping `a` onto `b`: the image
    /// must offer the right kind of outgoing structure.
    fn plausible(&self, a: TypeId, b: TypeId) -> bool {
        match self.source.production(a) {
            Production::Str => self.idx.str_solid[b.index()],
            Production::Empty => true,
            Production::Star(_) => self.target.types().any(|t| self.idx.solid_star.get(b, t)),
            Production::Concat(_) => self.target.types().any(|t| self.idx.solid.get(b, t)),
            Production::Disjunction { .. } => {
                self.target.types().any(|t| self.idx.with_or.get(b, t))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xse_core::preserve;
    use xse_dtd::{GenConfig, InstanceGenerator};

    fn wrap_pair() -> (Dtd, Dtd) {
        let s1 = Dtd::builder("r")
            .concat("r", &["a", "b"])
            .str_type("a")
            .star("b", "c")
            .str_type("c")
            .build()
            .unwrap();
        let s2 = Dtd::builder("r")
            .concat("r", &["x", "y"])
            .concat("x", &["a", "pad"])
            .str_type("a")
            .str_type("pad")
            .concat("y", &["w"])
            .star("w", "c2")
            .concat("c2", &["c"])
            .str_type("c")
            .build()
            .unwrap();
        (s1, s2)
    }

    #[test]
    fn candidate_order_matches_a_full_stable_sort() {
        // Weights with ties, as a name matcher's row has them.
        let cands: Vec<(TypeId, f64)> = (0..40)
            .map(|i| (TypeId::from_index(i), [1.0, 0.25, 0.25, 0.5][i % 4]))
            .collect();
        for (bias, promote) in [(0.25, None), (1.0, Some(17)), (0.0, Some(3))] {
            // The reference: one draw per candidate, then a stable sort by
            // key, then the promoted target moved to the front.
            let mut rng = StdRng::seed_from_u64(9);
            let mut keyed: Vec<(f64, TypeId)> = cands
                .iter()
                .map(|&(t, w)| (rng.random::<f64>() * bias + w, t))
                .collect();
            keyed.sort_by(|x, y| y.0.total_cmp(&x.0));
            let mut want: Vec<TypeId> = keyed.into_iter().map(|(_, t)| t).collect();
            if let Some(p) = promote.and_then(|i| want.iter().position(|t| t.index() == i)) {
                let t = want.remove(p);
                want.insert(0, t);
            }
            let mut rng = StdRng::seed_from_u64(9);
            let mut order = CandidateOrder::new(cands.clone(), Some((&mut rng, bias)));
            if let Some(i) = promote {
                order.promote(TypeId::from_index(i));
            }
            let got: Vec<TypeId> = (0..order.len()).map(|i| order.get(i)).collect();
            assert_eq!(got, want, "bias {bias}, promote {promote:?}");
        }
    }

    #[test]
    fn finds_wrap_embedding_with_every_strategy() {
        let (s1, s2) = wrap_pair();
        let att = SimilarityMatrix::permissive(&s1, &s2);
        for strategy in [
            Strategy::Random,
            Strategy::QualityOrdered,
            Strategy::IndependentSet,
        ] {
            let cfg = DiscoveryConfig {
                strategy,
                ..DiscoveryConfig::default()
            };
            let e = find_embedding(&s1, &s2, &att, &cfg)
                .unwrap_or_else(|| panic!("{strategy:?} failed"));
            // Discovered embeddings must preserve information end to end.
            let gen = InstanceGenerator::new(&s1, GenConfig::default());
            for seed in 0..5 {
                let t1 = gen.generate(seed);
                preserve::check_roundtrip(&e, &t1)
                    .unwrap_or_else(|err| panic!("{strategy:?}: {err}"));
            }
        }
    }

    #[test]
    fn identity_embedding_of_a_schema_into_itself() {
        let (s1, _) = wrap_pair();
        let att = SimilarityMatrix::by_name(&s1, &s1, 0.0);
        let e = find_embedding(&s1, &s1, &att, &DiscoveryConfig::default()).unwrap();
        for a in s1.types() {
            assert_eq!(e.lambda(a), a, "identity λ expected under exact-name att");
        }
    }

    #[test]
    fn figure_1_school_embedding_is_discovered() {
        let s0 = Dtd::builder("db")
            .star("db", "class")
            .concat("class", &["cno", "title", "type"])
            .str_type("cno")
            .str_type("title")
            .disjunction("type", &["regular", "project"])
            .concat("regular", &["prereq"])
            .star("prereq", "class")
            .str_type("project")
            .build()
            .unwrap();
        let s = Dtd::builder("school")
            .concat("school", &["courses"])
            .concat("courses", &["history", "current"])
            .star("history", "course")
            .star("current", "course")
            .concat("course", &["basic", "category"])
            .concat("basic", &["cno", "credit", "class2"])
            .str_type("cno")
            .str_type("credit")
            .star("class2", "semester")
            .concat("semester", &["title", "year"])
            .str_type("title")
            .str_type("year")
            .disjunction("category", &["mandatory", "advanced"])
            .disjunction("mandatory", &["regular", "lab"])
            .concat("advanced", &["project"])
            .str_type("project")
            .concat("regular", &["required"])
            .star("required", "prereq")
            .star("prereq", "course")
            .str_type("lab")
            .build()
            .unwrap();
        // Name-based matrix with the paper's cross-name pairs allowed.
        let mut att = SimilarityMatrix::by_name(&s0, &s, 0.0);
        att.set(s0.type_id("db").unwrap(), s.root(), 1.0);
        att.set(
            s0.type_id("class").unwrap(),
            s.type_id("course").unwrap(),
            1.0,
        );
        att.set(
            s0.type_id("type").unwrap(),
            s.type_id("category").unwrap(),
            1.0,
        );
        let cfg = DiscoveryConfig {
            restarts: 60,
            ..DiscoveryConfig::default()
        };
        let (found, stats) = find_embedding_with_stats(&s0, &s, &att, &cfg);
        let e = found.expect("the paper's Example 4.2 embedding exists");
        assert!(stats.attempts >= 1);
        // Verify it is information preserving on a sample.
        let gen = InstanceGenerator::new(
            &s0,
            GenConfig {
                max_nodes: 300,
                ..GenConfig::default()
            },
        );
        for seed in 0..3 {
            let t1 = gen.generate(seed);
            preserve::check_roundtrip(&e, &t1).unwrap();
        }
    }

    #[test]
    fn unembeddable_pairs_return_none() {
        // Source needs two prefix-free AND paths; target offers a single
        // unary chain of disjunctions.
        let s1 = Dtd::builder("r")
            .concat("r", &["a", "b"])
            .empty("a")
            .empty("b")
            .build()
            .unwrap();
        let s2 = Dtd::builder("r")
            .disjunction_opt("r", &["x"])
            .disjunction_opt("x", &["r2"])
            .empty("r2")
            .build()
            .unwrap();
        let att = SimilarityMatrix::permissive(&s1, &s2);
        assert!(find_embedding(&s1, &s2, &att, &DiscoveryConfig::default()).is_none());
    }

    #[test]
    fn zero_similarity_blocks_discovery() {
        let (s1, s2) = wrap_pair();
        let mut att = SimilarityMatrix::permissive(&s1, &s2);
        for b in s2.types() {
            att.set(s1.type_id("c").unwrap(), b, 0.0);
        }
        assert!(find_embedding(&s1, &s2, &att, &DiscoveryConfig::default()).is_none());
    }

    #[test]
    fn deterministic_per_seed() {
        let (s1, s2) = wrap_pair();
        let att = SimilarityMatrix::permissive(&s1, &s2);
        let cfg = DiscoveryConfig::default();
        let a = find_embedding(&s1, &s2, &att, &cfg).unwrap().describe();
        let b = find_embedding(&s1, &s2, &att, &cfg).unwrap().describe();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_count_does_not_change_the_winner() {
        let (s1, s2) = wrap_pair();
        let att = SimilarityMatrix::permissive(&s1, &s2);
        for strategy in [
            Strategy::Random,
            Strategy::QualityOrdered,
            Strategy::IndependentSet,
        ] {
            let sequential = DiscoveryConfig {
                strategy,
                threads: 1,
                ..DiscoveryConfig::default()
            };
            let parallel = DiscoveryConfig {
                threads: 8,
                ..sequential.clone()
            };
            let a = find_embedding(&s1, &s2, &att, &sequential)
                .unwrap_or_else(|| panic!("{strategy:?} sequential failed"))
                .describe();
            let b = find_embedding(&s1, &s2, &att, &parallel)
                .unwrap_or_else(|| panic!("{strategy:?} parallel failed"))
                .describe();
            assert_eq!(a, b, "{strategy:?}: threads=1 vs threads=8 diverged");
        }
    }

    #[test]
    fn nan_similarity_entry_is_ignored_not_fatal() {
        let (s1, s2) = wrap_pair();
        let mut att = SimilarityMatrix::permissive(&s1, &s2);
        let c = s1.type_id("c").unwrap();
        let c_tgt = s2.type_id("c").unwrap();
        att.set(c, c_tgt, f64::NAN);
        // The NaN entry is stored as 0 — the pair is disabled, nothing
        // panics, and discovery routes `c` to another str-typed image.
        assert_eq!(att.get(c, c_tgt), 0.0);
        for strategy in [
            Strategy::Random,
            Strategy::QualityOrdered,
            Strategy::IndependentSet,
        ] {
            let cfg = DiscoveryConfig {
                strategy,
                ..DiscoveryConfig::default()
            };
            if let Some(e) = find_embedding(&s1, &s2, &att, &cfg) {
                assert!(att.get(c, e.lambda(c)) > 0.0, "{strategy:?} used NaN pair");
            }
        }
    }

    #[test]
    fn wis_seed_is_each_types_heaviest_plausible_candidate() {
        // Source `a`, `b`, `c`, `d` are text types; of the target's types,
        // `x`, `y`, `z` are plausible images for them and the empty `e` is
        // not.
        let s1 = Dtd::builder("r")
            .concat("r", &["a", "b", "c", "d"])
            .str_type("a")
            .str_type("b")
            .str_type("c")
            .str_type("d")
            .build()
            .unwrap();
        let s2 = Dtd::builder("q")
            .concat("q", &["x", "y", "z", "e"])
            .str_type("x")
            .str_type("y")
            .str_type("z")
            .empty("e")
            .build()
            .unwrap();
        let src = |n: &str| s1.type_id(n).unwrap();
        let tgt = |n: &str| s2.type_id(n).unwrap();
        // The root's row stays zero: the root is pinned all the same.
        let mut att = SimilarityMatrix::zero(s1.type_count(), s2.type_count());
        for (a, b, w) in [
            ("a", "x", 0.5),
            ("a", "y", 0.9),
            ("a", "z", 0.3),
            ("b", "x", 0.7),
            ("b", "y", 0.7),
            ("b", "z", 0.2),
            ("c", "e", 1.0),
            ("c", "z", 0.4),
            ("d", "e", 0.8),
        ] {
            att.set(src(a), tgt(b), w);
        }
        let (source_arc, target_arc) = (Arc::new(s1.clone()), Arc::new(s2.clone()));
        let (src_graph, tgt_graph) = (SchemaGraph::new(&s1), SchemaGraph::new(&s2));
        let idx = ReachIndex::new(&s2, &tgt_graph);
        let order = bfs_order(&s1);
        let cfg = DiscoveryConfig::default();
        let bound = AtomicUsize::new(usize::MAX);
        let env = Env {
            source: &s1,
            target: &s2,
            source_arc: &source_arc,
            target_arc: &target_arc,
            src_graph: &src_graph,
            tgt_graph: &tgt_graph,
            idx: &idx,
            order: &order,
            att: &att,
            cfg: &cfg,
            bound: &bound,
        };
        let mut tie_winners = Vec::new();
        for seed in 0..16 {
            let seeded = env.wis_lambda_seed(&mut StdRng::seed_from_u64(seed));
            assert_eq!(seeded[s1.root().index()], Some(s2.root()));
            assert_eq!(seeded[src("a").index()], Some(tgt("y")));
            // Replay the pool shuffles: `b`'s tie goes to whichever of `x`
            // and `y` its shuffled pool lists first.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut first_of_tie = None;
            for t in s1.types() {
                let mut pool = att.candidates(t);
                pool.truncate(POOL_PER_TYPE);
                pool.shuffle(&mut rng);
                if t == src("b") {
                    first_of_tie = pool.iter().find(|&&(_, w)| w == 0.7).map(|&(b, _)| b);
                }
            }
            assert_eq!(seeded[src("b").index()], first_of_tie);
            tie_winners.push(first_of_tie.unwrap());
            assert_eq!(seeded[src("c").index()], Some(tgt("z")));
            assert_eq!(seeded[src("d").index()], None);
        }
        // The shuffle really decides the tie.
        assert!(tie_winners.contains(&tgt("x")) && tie_winners.contains(&tgt("y")));
    }

    #[test]
    fn wis_seed_is_rederived_every_restart() {
        // An unembeddable pair exhausts every restart; under the
        // Independent-Set strategy each attempt must derive its own
        // freshly shuffled WIS seed (seeding only attempt 0 silently
        // degrades every later restart to Random).
        let s1 = Dtd::builder("r")
            .concat("r", &["a", "b"])
            .empty("a")
            .empty("b")
            .build()
            .unwrap();
        let s2 = Dtd::builder("r")
            .disjunction_opt("r", &["x"])
            .disjunction_opt("x", &["r2"])
            .empty("r2")
            .build()
            .unwrap();
        let att = SimilarityMatrix::permissive(&s1, &s2);
        let cfg = DiscoveryConfig {
            strategy: Strategy::IndependentSet,
            threads: 1,
            ..DiscoveryConfig::default()
        };
        let (found, stats) = find_embedding_with_stats(&s1, &s2, &att, &cfg);
        assert!(found.is_none());
        assert_eq!(stats.attempts, cfg.restarts);
        assert_eq!(stats.wis_seeds, cfg.restarts, "one WIS seed per attempt");
    }

    #[test]
    fn parallel_exhaustion_counts_every_attempt() {
        let s1 = Dtd::builder("r")
            .concat("r", &["a", "b"])
            .empty("a")
            .empty("b")
            .build()
            .unwrap();
        let s2 = Dtd::builder("r")
            .disjunction_opt("r", &["x"])
            .disjunction_opt("x", &["r2"])
            .empty("r2")
            .build()
            .unwrap();
        let att = SimilarityMatrix::permissive(&s1, &s2);
        let cfg = DiscoveryConfig {
            threads: 8,
            ..DiscoveryConfig::default()
        };
        let (found, stats) = find_embedding_with_stats(&s1, &s2, &att, &cfg);
        assert!(found.is_none());
        assert_eq!(stats.attempts, cfg.restarts, "no attempt skipped or lost");
        assert_eq!(
            stats.validation_rejects,
            stats.rejects_prefix + stats.rejects_similarity + stats.rejects_other,
            "reject kinds must sum to the total"
        );
    }
}
