//! Structural noise: derive a target schema from a source so that the
//! source embeds in it by construction, with the *ground-truth* λ known.
//!
//! Three transforms, composable and seeded:
//!
//! * **wrap** — an edge `(A, B)` gains a fresh wrapper type (`A → W`,
//!   `W → B`), turning the edge into a 2-step path (the essence of schema
//!   embedding vs. plain graph similarity);
//! * **rename** — a type's tag is replaced by a synthetic one (semantic
//!   noise: name matching no longer identifies the pair);
//! * **extend** — a concatenation gains an extra required child subtree
//!   (the target is "more general", filled by minimum defaults).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use xse_dtd::{Dtd, Production};

/// A noised copy: the derived target plus ground truth.
pub struct NoisedCopy {
    /// The noised target schema.
    pub target: Dtd,
    /// Ground-truth λ: source type name → target type name.
    pub truth: HashMap<String, String>,
    /// How many wrap / rename / extend operations were applied.
    pub ops: (usize, usize, usize),
}

/// Noise intensity knobs (each a fraction of applicable sites, 0.0–1.0).
#[derive(Clone, Copy, Debug)]
pub struct NoiseConfig {
    /// Fraction of edges wrapped into 2-step paths.
    pub wrap: f64,
    /// Fraction of types renamed.
    pub rename: f64,
    /// Fraction of concatenations gaining an extra child.
    pub extend: f64,
}

impl NoiseConfig {
    /// A single "level" knob: level 0 = identical copy, 1.0 = heavy noise.
    pub fn level(l: f64) -> Self {
        NoiseConfig {
            wrap: l,
            rename: l * 0.6,
            extend: l * 0.5,
        }
    }
}

/// Working representation during rewriting.
struct Work {
    names: Vec<String>,
    prods: Vec<WProd>,
    root: usize,
}

enum WProd {
    Str,
    Empty,
    Concat(Vec<usize>),
    Disj(Vec<usize>, bool),
    Star(usize),
}

/// Produce a noised copy of `source`.
pub fn noised_copy(source: &Dtd, cfg: NoiseConfig, seed: u64) -> NoisedCopy {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = Work {
        names: source.types().map(|t| source.name(t).to_string()).collect(),
        prods: source
            .types()
            .map(|t| match source.production(t) {
                Production::Str => WProd::Str,
                Production::Empty => WProd::Empty,
                Production::Concat(cs) => WProd::Concat(cs.iter().map(|c| c.index()).collect()),
                Production::Disjunction { alts, allows_empty } => {
                    WProd::Disj(alts.iter().map(|c| c.index()).collect(), *allows_empty)
                }
                Production::Star(b) => WProd::Star(b.index()),
            })
            .collect(),
        root: source.root().index(),
    };
    let n_original = w.names.len();
    let mut wraps = 0;

    // 1. Wrap edges. Iterate the original types; each child slot may gain a
    //    wrapper type appended at the end.
    for t in 0..n_original {
        let arity = match &w.prods[t] {
            WProd::Concat(cs) => cs.len(),
            WProd::Disj(alts, _) => alts.len(),
            WProd::Star(_) => 1,
            _ => 0,
        };
        for slot in 0..arity {
            if !rng.random_bool(cfg.wrap) {
                continue;
            }
            let child = match &w.prods[t] {
                WProd::Concat(cs) => cs[slot],
                WProd::Disj(alts, _) => alts[slot],
                WProd::Star(b) => *b,
                _ => unreachable!(),
            };
            let wrapper = w.names.len();
            w.names
                .push(format!("wrap{wraps}_{}", w.names[child].clone()));
            w.prods.push(WProd::Concat(vec![child]));
            match &mut w.prods[t] {
                WProd::Concat(cs) => cs[slot] = wrapper,
                WProd::Disj(alts, _) => alts[slot] = wrapper,
                WProd::Star(b) => *b = wrapper,
                _ => unreachable!(),
            }
            wraps += 1;
        }
    }

    // 2. Rename original types (never the root, keeping examples readable).
    let mut renames = 0;
    for t in 0..n_original {
        if t != w.root && rng.random_bool(cfg.rename) {
            w.names[t] = format!("n{renames}_{}", w.names[t]);
            renames += 1;
        }
    }

    // 3. Extend concatenations with an extra required str child.
    let mut extends = 0;
    for t in 0..n_original {
        if matches!(w.prods[t], WProd::Concat(_)) && rng.random_bool(cfg.extend) {
            let extra = w.names.len();
            w.names.push(format!("extra{extends}"));
            w.prods.push(WProd::Str);
            if let WProd::Concat(cs) = &mut w.prods[t] {
                cs.push(extra);
            }
            extends += 1;
        }
    }

    // Build the Dtd.
    let mut b = Dtd::builder(w.names[w.root].clone());
    for (i, name) in w.names.iter().enumerate() {
        let refs: Vec<String>;
        b = match &w.prods[i] {
            WProd::Str => b.str_type(name),
            WProd::Empty => b.empty(name),
            WProd::Concat(cs) => {
                refs = cs.iter().map(|&c| w.names[c].clone()).collect();
                let r: Vec<&str> = refs.iter().map(String::as_str).collect();
                b.concat(name, &r)
            }
            WProd::Disj(alts, allows_empty) => {
                refs = alts.iter().map(|&c| w.names[c].clone()).collect();
                let r: Vec<&str> = refs.iter().map(String::as_str).collect();
                if *allows_empty {
                    b.disjunction_opt(name, &r)
                } else {
                    b.disjunction(name, &r)
                }
            }
            WProd::Star(c) => b.star(name, &w.names[*c]),
        };
    }
    let target = b.build().expect("noise preserves well-formedness");

    let truth: HashMap<String, String> = source
        .types()
        .map(|t| (source.name(t).to_string(), w.names[t.index()].clone()))
        .collect();
    NoisedCopy {
        target,
        truth,
        ops: (wraps, renames, extends),
    }
}

/// Convenience for tests/benches: does the discovered λ agree with ground
/// truth on every *source* type? (Paths may differ; the experiments score
/// λ-accuracy like the paper's "correct solutions".)
pub fn lambda_matches_truth(
    source: &Dtd,
    emb: &xse_core::CompiledEmbedding,
    copy: &NoisedCopy,
) -> bool {
    source.types().all(|t| {
        copy.truth.get(source.name(t)).map(String::as_str) == Some(copy.target.name(emb.lambda(t)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use xse_discovery::{find_embedding, DiscoveryConfig};

    #[test]
    fn zero_noise_is_an_identical_copy() {
        let src = corpus::fig1_class();
        let copy = noised_copy(&src, NoiseConfig::level(0.0), 1);
        assert_eq!(copy.ops, (0, 0, 0));
        assert_eq!(copy.target.type_count(), src.type_count());
        for t in src.types() {
            assert_eq!(copy.truth[src.name(t)], src.name(t));
        }
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let src = corpus::dblp_like();
        let a = noised_copy(&src, NoiseConfig::level(0.5), 42);
        let b = noised_copy(&src, NoiseConfig::level(0.5), 42);
        assert_eq!(a.target.to_string(), b.target.to_string());
        let c = noised_copy(&src, NoiseConfig::level(0.5), 43);
        assert!(a.ops != c.ops || a.target.to_string() != c.target.to_string());
    }

    #[test]
    fn noised_copies_stay_consistent() {
        for (name, src) in corpus::corpus() {
            for level in [0.2, 0.5, 0.9] {
                let copy = noised_copy(&src, NoiseConfig::level(level), 7);
                assert!(copy.target.is_consistent(), "{name} level {level}");
            }
        }
    }

    #[test]
    fn source_embeds_into_noised_copy_by_construction() {
        // With the exact ground-truth att, discovery must succeed: wrapping
        // turns edges into 2-step paths, extends only add default-filled
        // structure.
        let src = corpus::news_like();
        let copy = noised_copy(&src, NoiseConfig::level(0.6), 11);
        let att = crate::simgen::exact(&src, &copy);
        let emb = find_embedding(&src, &copy.target, &att, &DiscoveryConfig::default())
            .expect("ground-truth embedding must be found");
        assert!(lambda_matches_truth(&src, &emb, &copy));
    }
}
