//! Minimum default instances `mindef(A)` (§4.2).
//!
//! The instance-level mapping pads required-but-unmapped target structure
//! with a fixed default instance per type. The paper computes `mindef(A)`
//! with a rank-based fixpoint: `str` types get a single `#s` text child,
//! star types get no children, a concatenation waits for all children, and a
//! disjunction picks the *smallest* already-finished alternative w.r.t. the
//! fixed order on types (here: declaration order, i.e. `TypeId` order).

use xse_xmltree::{NodeId, TagId, XmlTree};

use crate::{Dtd, Production, TypeId, DEFAULT_STRING};

/// Plan of how each type's minimum default instance is built. Computed once
/// per DTD and reused for every materialization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MindefPlan {
    /// `A → str`: one `#s` text child.
    Text,
    /// `A → ε`, `A → B*`, or a disjunction taking its ε alternative: no
    /// children.
    Leaf,
    /// `A → B1,…,Bn`: all children's mindefs in order.
    AllChildren(Vec<TypeId>),
    /// Disjunction: the chosen alternative.
    OneChild(TypeId),
    /// Unproductive type — no instance, hence no mindef.
    None,
}

impl Dtd {
    /// Compute the mindef construction plan for every type (paper's
    /// rank-based loop). Unproductive types get [`MindefPlan::None`].
    pub fn mindef_plans(&self) -> Vec<MindefPlan> {
        let n = self.type_count();
        let mut plan = vec![MindefPlan::None; n];
        let mut done = vec![false; n];
        // Base cases: rank drops to 0 immediately.
        for t in self.types() {
            match self.production(t) {
                Production::Str => {
                    plan[t.index()] = MindefPlan::Text;
                    done[t.index()] = true;
                }
                Production::Empty | Production::Star(_) => {
                    plan[t.index()] = MindefPlan::Leaf;
                    done[t.index()] = true;
                }
                Production::Disjunction { allows_empty, .. } if *allows_empty => {
                    // ε is always the cheapest choice and, being "no type",
                    // precedes every element alternative in the fixed order.
                    plan[t.index()] = MindefPlan::Leaf;
                    done[t.index()] = true;
                }
                _ => {}
            }
        }
        // Fixpoint for concatenations and disjunctions.
        loop {
            let mut changed = false;
            for t in self.types() {
                if done[t.index()] {
                    continue;
                }
                match self.production(t) {
                    Production::Concat(cs) => {
                        if cs.iter().all(|c| done[c.index()]) {
                            plan[t.index()] = MindefPlan::AllChildren(cs.clone());
                            done[t.index()] = true;
                            changed = true;
                        }
                    }
                    Production::Disjunction { alts, .. } => {
                        // Smallest finished alternative w.r.t. TypeId order.
                        if let Some(&b) = alts
                            .iter()
                            .filter(|c| done[c.index()])
                            .min_by_key(|c| c.index())
                        {
                            plan[t.index()] = MindefPlan::OneChild(b);
                            done[t.index()] = true;
                            changed = true;
                        }
                    }
                    _ => unreachable!("base cases handled above"),
                }
            }
            if !changed {
                return plan;
            }
        }
    }

    /// Materialize `mindef(A)` as a standalone tree rooted at an `A` node.
    ///
    /// # Panics
    /// Panics when `A` is unproductive (inconsistent DTD) — call
    /// [`Dtd::reduce`] first.
    pub fn mindef(&self, a: TypeId) -> XmlTree {
        let plans = self.mindef_plans();
        let mut tree = XmlTree::new(self.name(a));
        let tags: Vec<TagId> = self
            .types()
            .map(|ty| tree.intern_tag(self.name(ty)))
            .collect();
        let root = tree.root();
        self.mindef_children_tagged(&plans, &tags, a, &mut tree, root);
        tree
    }

    /// Append `mindef(A)` as a new child of `parent` inside an existing
    /// tree, returning the new node. `tags[ty.index()]` must be `ty`'s name
    /// interned in `tree`'s symbol table. This is the instance-mapping hot
    /// path — default padding is emitted without any string hashing.
    pub fn mindef_into_tagged(
        &self,
        plans: &[MindefPlan],
        tags: &[TagId],
        a: TypeId,
        tree: &mut XmlTree,
        parent: NodeId,
    ) -> NodeId {
        let node = tree.add_element_tag(parent, tags[a.index()]);
        self.mindef_children_tagged(plans, tags, a, tree, node);
        node
    }

    /// Append the children of `mindef(A)` under `node`, an `A` node.
    fn mindef_children_tagged(
        &self,
        plans: &[MindefPlan],
        tags: &[TagId],
        a: TypeId,
        tree: &mut XmlTree,
        node: NodeId,
    ) {
        match &plans[a.index()] {
            MindefPlan::Text => {
                tree.add_text(node, DEFAULT_STRING);
            }
            MindefPlan::Leaf => {}
            MindefPlan::AllChildren(cs) => {
                for &c in cs {
                    self.mindef_into_tagged(plans, tags, c, tree, node);
                }
            }
            MindefPlan::OneChild(c) => {
                self.mindef_into_tagged(plans, tags, *c, tree, node);
            }
            MindefPlan::None => {
                panic!(
                    "mindef({}) requested for an unproductive type — reduce() the DTD first",
                    self.name(a)
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The target school DTD fragment used by Example 4.3.
    fn example_4_3_dtd() -> Dtd {
        Dtd::builder("school")
            .concat("school", &["student", "category"])
            .concat("student", &["ssn", "name", "gpa", "taking"])
            .str_type("ssn")
            .str_type("name")
            .str_type("gpa")
            .star("taking", "cno")
            .str_type("cno")
            .disjunction("category", &["mandatory", "advanced"])
            .disjunction("mandatory", &["regular", "lab"])
            .concat("advanced", &["project"])
            .str_type("project")
            .concat("regular", &["required"])
            .star("required", "prereq")
            .star("prereq", "course")
            .empty("course")
            .str_type("lab")
            .build()
            .unwrap()
    }

    #[test]
    fn mindef_of_str_is_hash_s() {
        let d = example_4_3_dtd();
        let t = d.mindef(d.type_id("ssn").unwrap());
        assert_eq!(t.to_xml(), "<ssn>#s</ssn>");
    }

    #[test]
    fn mindef_of_star_has_no_children() {
        let d = example_4_3_dtd();
        let t = d.mindef(d.type_id("taking").unwrap());
        assert_eq!(t.to_xml(), "<taking/>");
    }

    #[test]
    fn mindef_of_student_matches_example_4_3() {
        let d = example_4_3_dtd();
        let t = d.mindef(d.type_id("student").unwrap());
        assert_eq!(
            t.to_xml(),
            "<student><ssn>#s</ssn><name>#s</name><gpa>#s</gpa><taking/></student>"
        );
    }

    #[test]
    fn mindef_of_disjunction_picks_smallest_ranked_alternative() {
        // category → mandatory + advanced; mandatory → regular + lab.
        // "lab" (str) finishes at rank 0 immediately, so in the first pass
        // "mandatory" resolves to its lab branch; in the second pass
        // "category" picks the smaller finished alternative — mandatory
        // (declared before advanced). Example 4.3 shows the other branch
        // because its fixed type order differs; the choice is an arbitrary
        // constant of the schema, which is what matters.
        let d = example_4_3_dtd();
        let t = d.mindef(d.type_id("category").unwrap());
        let s = t.to_xml();
        assert_eq!(
            s,
            "<category><mandatory><lab>#s</lab></mandatory></category>"
        );
        // Determinism: same plan every time.
        assert_eq!(s, d.mindef(d.type_id("category").unwrap()).to_xml());
    }

    #[test]
    fn mindef_respects_declaration_order_tie_break() {
        let d = Dtd::builder("r")
            .disjunction("r", &["b", "a"])
            .empty("a")
            .empty("b")
            .build()
            .unwrap();
        // Both alternatives are rank-0 immediately; "a" was declared after
        // "b"? No: declaration order is a(1)? Order: r=0, b? — builder adds
        // in call order: r, a, b. So a < b and mindef picks a.
        let t = d.mindef(d.root());
        assert_eq!(t.to_xml(), "<r><a/></r>");
    }

    #[test]
    fn optional_disjunction_prefers_epsilon() {
        let d = Dtd::builder("r")
            .disjunction_opt("r", &["a"])
            .str_type("a")
            .build()
            .unwrap();
        assert_eq!(d.mindef(d.root()).to_xml(), "<r/>");
    }

    #[test]
    fn recursive_dtd_mindef_terminates() {
        // class → cno, type; type → regular + project; regular → prereq;
        // prereq → class* — recursion broken by the star.
        let d = Dtd::builder("class")
            .concat("class", &["cno", "type"])
            .str_type("cno")
            .disjunction("type", &["regular", "project"])
            .concat("regular", &["prereq"])
            .star("prereq", "class")
            .empty("project")
            .build()
            .unwrap();
        let t = d.mindef(d.root());
        // type picks the smaller finished alternative; regular (declared
        // before project) finishes in round 2, project in round 0, so the
        // first time "type" is computable only "project" is finished.
        assert_eq!(
            t.to_xml(),
            "<class><cno>#s</cno><type><project/></type></class>"
        );
    }

    #[test]
    #[should_panic(expected = "unproductive")]
    fn mindef_of_unproductive_type_panics() {
        let d = Dtd::builder("r")
            .disjunction_opt("r", &["a"])
            .concat("a", &["a"])
            .build()
            .unwrap();
        let a = d.type_id("a").unwrap();
        let _ = d.mindef(a);
    }

    #[test]
    fn mindef_conforms_to_the_dtd() {
        let d = example_4_3_dtd();
        for t in d.types() {
            let m = d.mindef(t);
            d.validate_subtree(&m, m.root(), t)
                .unwrap_or_else(|e| panic!("mindef({}) invalid: {e}", d.name(t)));
        }
    }
}
