//! Refuting a pair before searching it.
//!
//! [`find_embedding`](crate::find_embedding) is a heuristic for an
//! NP-complete problem (Theorem 5.1), so its failure proves nothing.
//! [`refute`] checks, in polynomial time, a condition that every embedding
//! the search can return meets. When the condition fails, no strategy,
//! seed or budget can succeed, so `true` is a proof that the search would
//! return `None`.
//!
//! # The relation
//!
//! An attempt pins the root to the target root and gives every source type
//! `A` an image `λ(A)` with `att(A, λ(A)) > 0`: candidates and the final
//! similarity check both reject `att = 0`. Every edge `A → B` then gets a
//! path from `λ(A)` to `λ(B)` of the kind the path search emits
//! ([`pfp`](crate::pfp)): a nonempty solid path (AND and STAR edges) for a
//! concatenation, a nonempty path with an OR edge for a disjunction, and a
//! nonempty solid path with a STAR edge for a star. `A → str` needs a solid
//! path to a `str` type, possibly empty. So the pairs `(A, λ(A))` all lie in
//! the largest relation `F ⊆ S1 × S2` such that
//!
//! * `(a, b) ∈ F` only if `att(a, b) > 0`, and [`ReachIndex::str_solid`]
//!   holds for `b` when `a` is `#PCDATA`;
//! * for each child `c` of `a`, some `(c, b') ∈ F` has `b'` reachable from
//!   `b` in the [`ReachIndex`] matrix of the edge's kind: `solid` for a
//!   concatenation, `with_or` for a disjunction, `solid_star` for a star.
//!
//! The pair is refuted when `(root₁, root₂) ∉ F`.
//!
//! # Cost
//!
//! A witness comes first: the λ that maps the root to the target root and
//! every other type to the target type of the same name when `att` allows
//! it, else to its best `att` candidate. (Under the registry's name-based
//! matrix the type of the same name is the best candidate.) If every
//! source edge lands on a direct target edge of its kind, and every
//! `#PCDATA` type on a `#PCDATA` type, that λ lies in `F` and nothing is
//! refuted. The witness builds nothing and reads a row of `att` only for a
//! type whose name the target lacks; it holds on identity-like pairs,
//! which are most of the embeddable pairs a registry sees.
//!
//! Otherwise `F` is computed on bitset rows, one per source type, from the
//! leaves up, re-checking a type whenever a child's row shrinks. On a
//! recursive source that can take as many rounds as the target has types,
//! so the fixed point gives up, and refutes nothing, once it has compared
//! as many words as building the target's [`ReachIndex`] visits. Giving up
//! only leaves the verdict to the search.

use std::collections::VecDeque;

use xse_core::SimilarityMatrix;
use xse_dtd::{Dtd, Production, SchemaGraph, TypeId};

use crate::index::{ReachIndex, ReachMatrix};
use crate::solver::bfs_order;

/// Fewest words the fixed point may compare before it gives up, so small
/// pairs always finish.
const MIN_WORD_BUDGET: usize = 1 << 16;

/// Is there provably no embedding `S1 → S2` w.r.t. `att`? `true` means
/// [`find_embedding`](crate::find_embedding) returns `None` for this pair
/// under every [`DiscoveryConfig`](crate::DiscoveryConfig); `false` proves
/// nothing either way. An `att` of the wrong shape admits no embedding and
/// is refuted. See the [module docs](self) for the condition checked and
/// what it costs.
pub fn refute(source: &Dtd, target: &Dtd, att: &SimilarityMatrix) -> bool {
    if att.dims() != (source.type_count(), target.type_count()) {
        return true;
    }
    if att.get(source.root(), target.root()) <= 0.0 {
        return true;
    }
    if witness_holds(source, target, att) {
        return false;
    }
    let graph = SchemaGraph::new(target);
    let idx = ReachIndex::new(target, &graph);
    let budget =
        (target.type_count() * (target.type_count() + graph.edge_count())).max(MIN_WORD_BUDGET);
    root_pair_survives(source, target, att, &idx, budget) == Some(false)
}

/// The best `att` candidate of `a`: the first target type, in declaration
/// order, of the highest positive weight. One pass over the row, where
/// [`SimilarityMatrix::candidates`] would sort all of it.
fn best_candidate(att: &SimilarityMatrix, a: TypeId, target: &Dtd) -> Option<TypeId> {
    let mut best = None;
    let mut weight = 0.0;
    for b in target.types() {
        let w = att.get(a, b);
        if w > weight {
            (best, weight) = (Some(b), w);
        }
    }
    best
}

/// Does the witness λ (root to root, every other type to its namesake or
/// else its best candidate) put every source edge on a direct target edge
/// of its kind? If so, it lies in `F`.
fn witness_holds(source: &Dtd, target: &Dtd, att: &SimilarityMatrix) -> bool {
    let lambda: Option<Vec<TypeId>> = source
        .types()
        .map(|a| {
            if a == source.root() {
                return Some(target.root());
            }
            target
                .type_id(source.name(a))
                .filter(|&b| att.get(a, b) > 0.0)
                .or_else(|| best_candidate(att, a, target))
        })
        .collect();
    let Some(lambda) = lambda else {
        return false;
    };
    let image = |c: &TypeId| lambda[c.index()];
    source.types().all(
        |a| match (source.production(a), target.production(image(&a))) {
            (Production::Empty, _) | (Production::Str, Production::Str) => true,
            (Production::Concat(cs), Production::Concat(ts)) => {
                cs.iter().all(|c| ts.contains(&image(c)))
            }
            (Production::Concat(cs), Production::Star(t)) => cs.iter().all(|c| image(c) == *t),
            (Production::Disjunction { alts, .. }, Production::Disjunction { alts: ts, .. }) => {
                alts.iter().all(|c| ts.contains(&image(c)))
            }
            (Production::Star(c), Production::Star(t)) => image(c) == *t,
            _ => false,
        },
    )
}

/// Compute `F` and report whether `(root₁, root₂)` is in it, or `None`
/// when more than `budget` words would have to be compared.
fn root_pair_survives(
    source: &Dtd,
    target: &Dtd,
    att: &SimilarityMatrix,
    idx: &ReachIndex,
    mut budget: usize,
) -> Option<bool> {
    let n1 = source.type_count();
    let w = target.type_count().div_ceil(64);
    // `rows[a * w..(a + 1) * w]` holds the `b` with `(a, b)` still in F.
    let mut rows = vec![0u64; n1 * w];
    for a in source.types() {
        let text = matches!(source.production(a), Production::Str);
        for b in target.types() {
            if att.get(a, b) > 0.0 && (!text || idx.str_solid[b.index()]) {
                rows[a.index() * w + b.index() / 64] |= 1 << (b.index() % 64);
            }
        }
    }

    // Each type's distinct children with the matrix their edges need, each
    // type's parents, and the types in BFS order from the root.
    let mut needs: Vec<Option<(&ReachMatrix, Vec<TypeId>)>> = Vec::with_capacity(n1);
    let mut parents: Vec<Vec<TypeId>> = vec![Vec::new(); n1];
    for a in source.types() {
        let p = source.production(a);
        let matrix = match p {
            Production::Concat(_) => &idx.solid,
            Production::Disjunction { .. } => &idx.with_or,
            Production::Star(_) => &idx.solid_star,
            Production::Str | Production::Empty => {
                needs.push(None);
                continue;
            }
        };
        let mut children: Vec<TypeId> = Vec::new();
        for &c in p.children() {
            if !children.contains(&c) {
                children.push(c);
                parents[c.index()].push(a);
            }
        }
        needs.push(Some((matrix, children)));
    }
    let order = bfs_order(source);
    let mut queued = vec![false; n1];
    for a in &order {
        queued[a.index()] = true;
    }

    // Leaves first; a type goes back on the queue when a child's row shrinks.
    let mut queue: VecDeque<TypeId> = order.into_iter().rev().collect();
    let (root1, root2) = (source.root().index(), target.root().index());
    let root_pair_kept = |rows: &[u64]| rows[root1 * w + root2 / 64] & (1 << (root2 % 64)) != 0;
    while let Some(a) = queue.pop_front() {
        queued[a.index()] = false;
        let Some((matrix, children)) = &needs[a.index()] else {
            continue;
        };
        let mut changed = false;
        for word in 0..w {
            let mut bits = rows[a.index() * w + word];
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let reach = matrix.row(TypeId::from_index(word * 64 + bit));
                budget = budget.checked_sub(children.len() * w)?;
                let kept = children.iter().all(|c| {
                    let row = &rows[c.index() * w..(c.index() + 1) * w];
                    reach.iter().zip(row).any(|(x, y)| x & y != 0)
                });
                if !kept {
                    rows[a.index() * w + word] &= !(1 << bit);
                    changed = true;
                }
            }
        }
        if changed {
            if !root_pair_kept(&rows) {
                return Some(false);
            }
            for &p in &parents[a.index()] {
                if !queued[p.index()] {
                    queued[p.index()] = true;
                    queue.push_back(p);
                }
            }
        }
    }
    Some(root_pair_kept(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_embedding, DiscoveryConfig, Strategy};

    /// `refute` must never contradict the search: a refuted pair finds no
    /// embedding under any strategy.
    fn assert_search_fails(s1: &Dtd, s2: &Dtd, att: &SimilarityMatrix) {
        for strategy in [
            Strategy::Random,
            Strategy::QualityOrdered,
            Strategy::IndependentSet,
        ] {
            let cfg = DiscoveryConfig {
                strategy,
                ..DiscoveryConfig::default()
            };
            assert!(find_embedding(s1, s2, att, &cfg).is_none(), "{strategy:?}");
        }
    }

    #[test]
    fn a_concatenation_cannot_reach_through_or_edges() {
        let s1 = Dtd::builder("r")
            .concat("r", &["a"])
            .empty("a")
            .build()
            .unwrap();
        // Every path out of the target root starts with an OR edge.
        let s2 = Dtd::builder("r")
            .disjunction("r", &["x", "y"])
            .concat("x", &["a"])
            .empty("a")
            .empty("y")
            .build()
            .unwrap();
        let att = SimilarityMatrix::permissive(&s1, &s2);
        assert!(refute(&s1, &s2, &att));
        assert_search_fails(&s1, &s2, &att);
        // The same root with a solid edge to spare is not refuted.
        let s3 = Dtd::builder("r")
            .concat("r", &["x"])
            .empty("x")
            .build()
            .unwrap();
        assert!(!refute(&s1, &s3, &SimilarityMatrix::permissive(&s1, &s3)));
    }

    #[test]
    fn a_star_needs_a_star_in_the_target() {
        let s1 = Dtd::builder("r")
            .star("r", "a")
            .str_type("a")
            .build()
            .unwrap();
        let s2 = Dtd::builder("r")
            .concat("r", &["x", "y"])
            .concat("x", &["a"])
            .str_type("a")
            .disjunction("y", &["a", "z"])
            .empty("z")
            .build()
            .unwrap();
        let att = SimilarityMatrix::permissive(&s1, &s2);
        assert!(refute(&s1, &s2, &att));
        assert_search_fails(&s1, &s2, &att);
    }

    #[test]
    fn a_zero_similarity_on_the_roots_refutes() {
        let s1 = Dtd::builder("r").empty("r").build().unwrap();
        let mut att = SimilarityMatrix::permissive(&s1, &s1);
        assert!(!refute(&s1, &s1, &att));
        att.set(s1.root(), s1.root(), 0.0);
        assert!(refute(&s1, &s1, &att));
        assert_search_fails(&s1, &s1, &att);
    }

    /// `r → a*`, `a → b`, `b → (r | ε)`: a cycle through the root.
    fn recursive(names: [&str; 3]) -> Dtd {
        let [r, a, b] = names;
        Dtd::builder(r)
            .star(r, a)
            .concat(a, &[b])
            .disjunction_opt(b, &[r])
            .build()
            .unwrap()
    }

    #[test]
    fn a_recursive_source_terminates_either_way() {
        let s1 = recursive(["r", "a", "b"]);
        // Renamed, so the witness fails and the fixed point decides.
        let s2 = recursive(["q", "x", "y"]);
        let att = SimilarityMatrix::by_name(&s1, &s2, 0.25);
        assert!(!witness_holds(&s1, &s2, &att));
        assert!(!refute(&s1, &s2, &att));
        assert!(find_embedding(&s1, &s2, &att, &DiscoveryConfig::default()).is_some());
        // An acyclic target cannot host the cycle: every edge of it needs
        // a nonempty path, so going round it never ends.
        let s3 = Dtd::builder("q")
            .star("q", "x")
            .concat("x", &["y"])
            .disjunction_opt("y", &["z"])
            .empty("z")
            .build()
            .unwrap();
        let att = SimilarityMatrix::permissive(&s1, &s3);
        assert!(refute(&s1, &s3, &att));
        assert_search_fails(&s1, &s3, &att);
    }

    #[test]
    fn the_witness_settles_an_identity_pair() {
        let s = Dtd::builder("r")
            .concat("r", &["a", "b"])
            .str_type("a")
            .star("b", "c")
            .disjunction_opt("c", &["r", "d"])
            .empty("d")
            .build()
            .unwrap();
        let att = SimilarityMatrix::by_name(&s, &s, 0.25);
        assert!(witness_holds(&s, &s, &att));
        assert!(!refute(&s, &s, &att));
        // Renamed, the best candidates collapse onto the first target type,
        // and the witness fails; the fixed point then finds the identity.
        let renamed = Dtd::builder("q")
            .concat("q", &["x", "y"])
            .str_type("x")
            .star("y", "z")
            .disjunction_opt("z", &["q", "w"])
            .empty("w")
            .build()
            .unwrap();
        let att = SimilarityMatrix::by_name(&s, &renamed, 0.25);
        assert!(!witness_holds(&s, &renamed, &att));
        assert!(!refute(&s, &renamed, &att));
    }

    #[test]
    fn an_exhausted_budget_refutes_nothing() {
        let s1 = recursive(["r", "a", "b"]);
        let s2 = Dtd::builder("q")
            .star("q", "x")
            .concat("x", &["y"])
            .disjunction_opt("y", &["z"])
            .empty("z")
            .build()
            .unwrap();
        let att = SimilarityMatrix::permissive(&s1, &s2);
        let idx = ReachIndex::new(&s2, &SchemaGraph::new(&s2));
        assert_eq!(
            root_pair_survives(&s1, &s2, &att, &idx, 1 << 10),
            Some(false)
        );
        assert_eq!(root_pair_survives(&s1, &s2, &att, &idx, 3), None);
    }
}
