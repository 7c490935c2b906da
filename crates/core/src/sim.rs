//! Similarity matrices (§4.1).
//!
//! An `|E1| × |E2|` matrix `att` of numbers in `[0, 1]`: `att(A, B)`
//! measures the suitability of mapping source type `A` to target type `B`,
//! produced by domain experts or a schema-matching tool (LSD, Cupid, …). A
//! type mapping `λ` is *valid* w.r.t. `att` when `att(A, λ(A)) > 0` for all
//! `A`; the embedding's quality is `Σ_A att(A, λ(A))`.

use xse_dtd::{Dtd, TypeId};

/// A dense source-type × target-type similarity matrix.
#[derive(Clone, Debug)]
pub struct SimilarityMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl SimilarityMatrix {
    /// All-zero matrix of the given dimensions.
    pub fn zero(source_types: usize, target_types: usize) -> Self {
        SimilarityMatrix {
            rows: source_types,
            cols: target_types,
            data: vec![0.0; source_types * target_types],
        }
    }

    /// The "no semantic restriction" matrix of Example 4.2:
    /// `att(A, B) = 1` everywhere — embeddings are decided purely on
    /// structure.
    pub fn permissive(source: &Dtd, target: &Dtd) -> Self {
        SimilarityMatrix {
            rows: source.type_count(),
            cols: target.type_count(),
            data: vec![1.0; source.type_count() * target.type_count()],
        }
    }

    /// Name-based matrix: `att(A, B) = 1` when the tags are equal, plus a
    /// small `fallback` everywhere else (0 forbids all non-identical pairs).
    pub fn by_name(source: &Dtd, target: &Dtd, fallback: f64) -> Self {
        let mut m = SimilarityMatrix::zero(source.type_count(), target.type_count());
        for a in source.types() {
            for b in target.types() {
                let v = if source.name(a) == target.name(b) {
                    1.0
                } else {
                    fallback
                };
                m.set(a, b, v);
            }
        }
        m
    }

    /// Matrix dimensions `(source types, target types)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `att(A, B)`.
    pub fn get(&self, a: TypeId, b: TypeId) -> f64 {
        self.data[a.index() * self.cols + b.index()]
    }

    /// Set `att(A, B)` (clamped into `[0, 1]`). A `NaN` similarity — which
    /// `clamp` would propagate — is treated as "no information" and stored
    /// as `0`, so a single bad entry from an upstream matcher disables that
    /// pair instead of poisoning every downstream float comparison.
    pub fn set(&mut self, a: TypeId, b: TypeId, v: f64) {
        let v = if v.is_nan() { 0.0 } else { v.clamp(0.0, 1.0) };
        self.data[a.index() * self.cols + b.index()] = v;
    }

    /// Target candidates for source type `a` with `att > 0`, best first.
    /// Ties keep target-declaration order (deterministic).
    pub fn candidates(&self, a: TypeId) -> Vec<(TypeId, f64)> {
        let mut out: Vec<(TypeId, f64)> = (0..self.cols)
            .map(TypeId::from_index)
            .map(|b| (b, self.get(a, b)))
            .filter(|&(_, v)| v > 0.0)
            .collect();
        // The row is scanned in declaration order, so a stable sort by
        // weight alone keeps ties in that order. Stable on purpose: a name
        // matcher's row is one or two runs of equal weights, which a stable
        // sort merges in linear time.
        out.sort_by(|x, y| y.1.total_cmp(&x.1));
        out
    }

    /// Number of positive entries in row `a` — the row's *ambiguity*.
    pub fn ambiguity(&self, a: TypeId) -> usize {
        (0..self.cols)
            .map(TypeId::from_index)
            .filter(|&b| self.get(a, b) > 0.0)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xse_dtd::Dtd;

    fn pair() -> (Dtd, Dtd) {
        let s = Dtd::builder("r")
            .concat("r", &["a", "b"])
            .empty("a")
            .empty("b")
            .build()
            .unwrap();
        let t = Dtd::builder("r")
            .concat("r", &["a", "x"])
            .empty("a")
            .empty("x")
            .build()
            .unwrap();
        (s, t)
    }

    #[test]
    fn permissive_is_all_ones() {
        let (s, t) = pair();
        let m = SimilarityMatrix::permissive(&s, &t);
        for a in s.types() {
            for b in t.types() {
                assert_eq!(m.get(a, b), 1.0);
            }
            assert_eq!(m.ambiguity(a), 3);
        }
        assert_eq!(m.dims(), (3, 3));
    }

    #[test]
    fn by_name_matches_tags() {
        let (s, t) = pair();
        let m = SimilarityMatrix::by_name(&s, &t, 0.0);
        let a_s = s.type_id("a").unwrap();
        let a_t = t.type_id("a").unwrap();
        let b_s = s.type_id("b").unwrap();
        assert_eq!(m.get(a_s, a_t), 1.0);
        assert_eq!(m.ambiguity(a_s), 1);
        assert_eq!(m.ambiguity(b_s), 0, "b has no name match");
        let m = SimilarityMatrix::by_name(&s, &t, 0.1);
        assert_eq!(m.ambiguity(b_s), 3);
    }

    #[test]
    fn candidates_sorted_best_first_deterministic() {
        let (s, t) = pair();
        let mut m = SimilarityMatrix::zero(s.type_count(), t.type_count());
        let a = s.type_id("a").unwrap();
        m.set(a, t.type_id("x").unwrap(), 0.5);
        m.set(a, t.type_id("a").unwrap(), 0.9);
        m.set(a, t.root(), 0.9);
        let c = m.candidates(a);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].0, t.root(), "tie broken by declaration order");
        assert_eq!(c[1].0, t.type_id("a").unwrap());
        assert_eq!(c[2].0, t.type_id("x").unwrap());
    }

    #[test]
    fn set_clamps() {
        let (s, t) = pair();
        let mut m = SimilarityMatrix::zero(s.type_count(), t.type_count());
        m.set(s.root(), t.root(), 7.0);
        assert_eq!(m.get(s.root(), t.root()), 1.0);
        m.set(s.root(), t.root(), -1.0);
        assert_eq!(m.get(s.root(), t.root()), 0.0);
    }
}
