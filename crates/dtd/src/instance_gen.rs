//! Seeded random generation of conforming instances, the document workload
//! generator behind the tests and benchmarks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xse_xmltree::{NodeId, XmlTree};

use crate::{Dtd, Production, TypeId};

/// Tuning knobs for [`InstanceGenerator`].
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Expected number of repetitions of a star child (geometric-ish).
    pub star_mean: f64,
    /// Hard cap on star repetitions.
    pub star_max: usize,
    /// Soft node budget: once exceeded, the generator steers toward the
    /// cheapest alternatives and zero star repetitions.
    pub max_nodes: usize,
    /// Alphabet for generated text values.
    pub text_words: &'static [&'static str],
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            star_mean: 2.0,
            star_max: 12,
            max_nodes: 10_000,
            text_words: &[
                "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india",
                "juliet", "kilo", "lima",
            ],
        }
    }
}

/// Generates random members of `I(S)` for a consistent DTD `S`.
pub struct InstanceGenerator<'a> {
    dtd: &'a Dtd,
    config: GenConfig,
    /// Minimal subtree size per type, used to steer away from explosion and
    /// to guarantee termination on recursive schemas.
    min_size: Vec<usize>,
}

impl<'a> InstanceGenerator<'a> {
    /// Create a generator for `dtd`.
    ///
    /// # Panics
    /// Panics if `dtd` has unproductive types reachable from the root
    /// (reduce first) — generation could not terminate.
    pub fn new(dtd: &'a Dtd, config: GenConfig) -> Self {
        let plans = dtd.mindef_plans();
        let mut memo = vec![0usize; dtd.type_count()];
        let mut min_size = vec![usize::MAX; dtd.type_count()];
        for t in dtd.types() {
            if !matches!(plans[t.index()], crate::mindef::MindefPlan::None) {
                min_size[t.index()] = dtd.mindef_size_for_gen(&plans, t, &mut memo);
            }
        }
        assert_ne!(
            min_size[dtd.root().index()],
            usize::MAX,
            "root type is unproductive"
        );
        InstanceGenerator {
            dtd,
            config,
            min_size,
        }
    }

    /// Generate one instance from the given seed. The same seed always
    /// yields the same document.
    pub fn generate(&self, seed: u64) -> XmlTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = XmlTree::with_capacity(
            self.dtd.name(self.dtd.root()),
            self.config.max_nodes,
            self.config.max_nodes * 4,
        );
        let tags: Vec<xse_xmltree::TagId> = self
            .dtd
            .types()
            .map(|t| tree.intern_tag(self.dtd.name(t)))
            .collect();
        let root = tree.root();
        let mut budget = self.config.max_nodes as isize;
        self.fill(
            &mut rng,
            &mut tree,
            &tags,
            root,
            self.dtd.root(),
            &mut budget,
        );
        tree
    }

    fn fill(
        &self,
        rng: &mut StdRng,
        tree: &mut XmlTree,
        tags: &[xse_xmltree::TagId],
        node: NodeId,
        t: TypeId,
        budget: &mut isize,
    ) {
        *budget -= 1;
        match self.dtd.production(t) {
            Production::Empty => {}
            Production::Str => {
                let w = self.config.text_words[rng.random_range(0..self.config.text_words.len())];
                let n: u32 = rng.random_range(0..1000);
                tree.add_text(node, format!("{w}-{n}"));
                *budget -= 1;
            }
            Production::Concat(cs) => {
                for &c in cs.clone().iter() {
                    let child = tree.add_element_tag(node, tags[c.index()]);
                    self.fill(rng, tree, tags, child, c, budget);
                }
            }
            Production::Disjunction { alts, allows_empty } => {
                let exhausted = *budget <= 0;
                let viable: Vec<TypeId> = alts
                    .iter()
                    .copied()
                    .filter(|c| self.min_size[c.index()] != usize::MAX)
                    .collect();
                if viable.is_empty() || (exhausted && *allows_empty) {
                    // ε if allowed; otherwise fall through to cheapest.
                    if *allows_empty {
                        return;
                    }
                }
                let pick = if exhausted {
                    // Cheapest alternative to wind down.
                    *viable
                        .iter()
                        .min_by_key(|c| self.min_size[c.index()])
                        .expect("disjunction with no productive alternative")
                } else if *allows_empty && rng.random_bool(0.25) {
                    return;
                } else {
                    viable[rng.random_range(0..viable.len())]
                };
                let child = tree.add_element_tag(node, tags[pick.index()]);
                self.fill(rng, tree, tags, child, pick, budget);
            }
            Production::Star(b) => {
                if self.min_size[b.index()] == usize::MAX {
                    return; // unproductive child: only the empty repetition
                }
                let n = if *budget <= 0 {
                    0
                } else {
                    // Geometric with mean `star_mean`, capped.
                    let p = 1.0 / (1.0 + self.config.star_mean);
                    let mut n = 0;
                    while n < self.config.star_max && !rng.random_bool(p) {
                        n += 1;
                    }
                    n
                };
                for _ in 0..n {
                    let child = tree.add_element_tag(node, tags[b.index()]);
                    self.fill(rng, tree, tags, child, *b, budget);
                }
            }
        }
    }
}

impl Dtd {
    /// mindef-size helper shared with the generator (usize::MAX-free part).
    pub(crate) fn mindef_size_for_gen(
        &self,
        plans: &[crate::mindef::MindefPlan],
        t: TypeId,
        memo: &mut [usize],
    ) -> usize {
        use crate::mindef::MindefPlan;
        if memo[t.index()] != 0 {
            return memo[t.index()];
        }
        let s = match &plans[t.index()] {
            MindefPlan::Text => 2,
            MindefPlan::Leaf => 1,
            MindefPlan::AllChildren(cs) => {
                1 + cs
                    .iter()
                    .map(|&c| self.mindef_size_for_gen(plans, c, memo))
                    .sum::<usize>()
            }
            MindefPlan::OneChild(c) => 1 + self.mindef_size_for_gen(plans, *c, memo),
            MindefPlan::None => return usize::MAX,
        };
        memo[t.index()] = s;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn school_dtd() -> Dtd {
        Dtd::builder("db")
            .star("db", "class")
            .concat("class", &["cno", "title", "type"])
            .str_type("cno")
            .str_type("title")
            .disjunction("type", &["regular", "project"])
            .concat("regular", &["prereq"])
            .star("prereq", "class")
            .empty("project")
            .build()
            .unwrap()
    }

    #[test]
    fn generated_instances_conform() {
        let d = school_dtd();
        let g = InstanceGenerator::new(&d, GenConfig::default());
        for seed in 0..50 {
            let t = g.generate(seed);
            d.validate(&t)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", t.to_xml_pretty()));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let d = school_dtd();
        let g = InstanceGenerator::new(&d, GenConfig::default());
        let a = g.generate(42);
        let b = g.generate(42);
        assert!(a.equals(&b));
        let c = g.generate(43);
        // Overwhelmingly likely to differ.
        assert!(!a.equals(&c) || a.len() == c.len());
    }

    #[test]
    fn budget_bounds_recursive_blowup() {
        let d = school_dtd();
        let cfg = GenConfig {
            star_mean: 5.0,
            star_max: 8,
            max_nodes: 500,
            ..GenConfig::default()
        };
        let g = InstanceGenerator::new(&d, cfg);
        for seed in 0..20 {
            let t = g.generate(seed);
            // The budget is soft: once exhausted, stars stop and cheap
            // disjuncts are taken, so sizes stay within a small multiple.
            assert!(t.len() < 5_000, "seed {seed} exploded: {} nodes", t.len());
            d.validate(&t).unwrap();
        }
    }

    #[test]
    fn sizes_scale_with_config() {
        let d = school_dtd();
        let small = InstanceGenerator::new(
            &d,
            GenConfig {
                star_mean: 0.5,
                ..GenConfig::default()
            },
        );
        let large = InstanceGenerator::new(
            &d,
            GenConfig {
                star_mean: 6.0,
                ..GenConfig::default()
            },
        );
        let s: usize = (0..10).map(|i| small.generate(i).len()).sum();
        let l: usize = (0..10).map(|i| large.generate(i).len()).sum();
        assert!(l > s, "star_mean must increase sizes ({l} vs {s})");
    }

    #[test]
    #[should_panic(expected = "unproductive")]
    fn unproductive_root_panics() {
        let d = Dtd::builder("r").concat("r", &["r"]).build().unwrap();
        let _ = InstanceGenerator::new(&d, GenConfig::default());
    }
}
