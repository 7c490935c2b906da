//! Production fragments (§4.2).
//!
//! The production fragment `pfrag_A(v)` is the target-side subtree a single
//! source node `v` of type `A` expands to: the chains of its edge paths,
//! merged on their longest common prefixes, completed with minimum default
//! instances for required-but-unmapped target structure, and ordered by the
//! canonical positions. Its "hot" leaves are where `v`'s children continue
//! the expansion (Figure 4 shows the fragment of a `class` node).
//!
//! The same machinery builds *static* fragments — the fragment shape a
//! set of chains produces regardless of the instance, with each chain's
//! endpoint marked instead of filled. This module has three users:
//!
//! - `apply` (Figure 5), which materializes instance fragments;
//! - the distinguishability validity check (DESIGN.md §3): a disjunction
//!   alternative must not be navigable inside the static fragment some
//!   *other* alternative (or the empty alternative) produces, otherwise
//!   minimum default padding could alias a choice and break invertibility;
//! - the `σd` stylesheet (§4.3), whose template rules are static fragments
//!   read through [`CompiledEmbedding::static_fragment`] with
//!   apply-templates placed at the endpoints.

use xse_dtd::{Dtd, MindefPlan, Production, TypeId};
use xse_xmltree::{NodeId, TagId, XmlTree};

use crate::resolve::ResolvedStep;
use crate::CompiledEmbedding;

/// What sits at the end of a chain.
#[derive(Clone, Debug)]
pub(crate) enum Terminal {
    /// A hot leaf: the image of source node `src` (of source type
    /// `src_type`), to be expanded by the next `InstMap` round.
    Hot { src: NodeId, src_type: TypeId },
    /// The end of a `str` edge chain: a reference to the source text node
    /// whose value is copied at materialization time (never constructed for
    /// static fragments, which carry no instance values).
    Text { src: NodeId },
    /// The endpoint of chain number `chain` of a static fragment: left
    /// empty, and reported to the caller, who decides what goes there.
    End { chain: usize },
}

/// One node of a fragment under construction.
#[derive(Debug)]
pub(crate) struct FragNode {
    pub(crate) ty: TypeId,
    /// Edge slot in the parent's target production.
    pub(crate) slot: usize,
    /// Canonical position among same-label siblings.
    pub(crate) pos: usize,
    pub(crate) children: Vec<FragNode>,
    pub(crate) terminal: Option<Terminal>,
}

/// The fragment of one source node: a root (the already-materialized target
/// image of the source node) plus merged chains.
#[derive(Debug)]
pub(crate) struct Fragment {
    pub(crate) root_ty: TypeId,
    pub(crate) children: Vec<FragNode>,
    /// Terminal of a chain with no steps: a `text()`-only `str` path (the
    /// value lives directly under the fragment root), or a static chain
    /// that ends at the root.
    pub(crate) root_terminal: Option<Terminal>,
}

impl Fragment {
    pub(crate) fn new(root_ty: TypeId) -> Self {
        Fragment {
            root_ty,
            children: Vec::new(),
            root_terminal: None,
        }
    }

    /// Add a single chain (concat / disjunction / str edges), merging on the
    /// longest existing prefix.
    pub(crate) fn add_chain(&mut self, steps: &[ResolvedStep], terminal: Terminal) {
        if steps.is_empty() {
            debug_assert!(self.root_terminal.is_none());
            self.root_terminal = Some(terminal);
            return;
        }
        add_chain_at(&mut self.children, steps, terminal);
    }

    /// Add a star edge's chains: the shared prefix up to the multiplicity
    /// step, then one chain per repetition (positions `1..=n`).
    pub(crate) fn add_star_chains(&mut self, path: &crate::ResolvedPath, terminals: Vec<Terminal>) {
        let mult = path
            .first_star_step()
            .expect("validated star path has a star step");
        // Merge the shared prefix (also when there are zero repetitions —
        // the §4.3 prefix template emits it unconditionally).
        let mut level = &mut self.children;
        for step in &path.steps[..mult] {
            level = step_into(level, step);
        }
        let mult_step = &path.steps[mult];
        let suffix = &path.steps[mult + 1..];
        for (i, term) in terminals.into_iter().enumerate() {
            let mut node = FragNode {
                ty: mult_step.ty,
                slot: mult_step.slot,
                pos: i + 1,
                children: Vec::new(),
                terminal: None,
            };
            if suffix.is_empty() {
                node.terminal = Some(term);
            } else {
                add_chain_at(&mut node.children, suffix, term);
            }
            level.push(node);
        }
    }
}

/// Descend into (or create) the child for `step`, returning its child list.
fn step_into<'f>(level: &'f mut Vec<FragNode>, step: &ResolvedStep) -> &'f mut Vec<FragNode> {
    let pos = step
        .pos
        .expect("normalized non-multiplicity steps carry positions");
    let idx = match level
        .iter()
        .position(|n| n.slot == step.slot && n.pos == pos && n.ty == step.ty)
    {
        Some(i) => i,
        None => {
            level.push(FragNode {
                ty: step.ty,
                slot: step.slot,
                pos,
                children: Vec::new(),
                terminal: None,
            });
            level.len() - 1
        }
    };
    &mut level[idx].children
}

fn add_chain_at(level: &mut Vec<FragNode>, steps: &[ResolvedStep], terminal: Terminal) {
    debug_assert!(!steps.is_empty());
    let mut level = level;
    for (i, step) in steps.iter().enumerate() {
        if i + 1 == steps.len() {
            let pos = step.pos.expect("normalized steps carry positions");
            level.push(FragNode {
                ty: step.ty,
                slot: step.slot,
                pos,
                children: Vec::new(),
                terminal: Some(terminal),
            });
            return;
        }
        level = step_into(level, step);
    }
}

/// Hot leaves produced while materializing a fragment.
pub(crate) struct HotLeaf {
    pub(crate) target: NodeId,
    pub(crate) src: NodeId,
    pub(crate) src_type: TypeId,
}

/// Text copies produced while materializing (target text node ↦ source text
/// node), recorded into `idM` so `text()` query results map back.
pub(crate) struct TextCopy {
    pub(crate) target: NodeId,
    pub(crate) src: NodeId,
}

/// What materializing a fragment reports back: its hot leaves, its text
/// copies, and the endpoints of static chains as `(chain, node)`.
#[derive(Default)]
pub(crate) struct Leaves {
    pub(crate) hot: Vec<HotLeaf>,
    pub(crate) texts: Vec<TextCopy>,
    pub(crate) ends: Vec<(usize, NodeId)>,
}

/// The per-apply materialization context: the immutable engine state plus
/// the output tree's pre-interned tag table (`tags[ty.index()]` is the tag
/// of target type `ty` in the output's symbol table) and the source tree
/// for copying text values (`None` for static fragments).
pub(crate) struct Emitter<'a> {
    pub(crate) target: &'a Dtd,
    pub(crate) plans: &'a [MindefPlan],
    pub(crate) tags: &'a [TagId],
    pub(crate) src: Option<&'a XmlTree>,
}

impl Emitter<'_> {
    fn copy_text(&self, tree: &mut XmlTree, at: NodeId, src: NodeId, texts: &mut Vec<TextCopy>) {
        let value = self
            .src
            .expect("text terminals require a source tree")
            .text_value(src)
            .unwrap_or_default();
        let t = tree.add_text(at, value);
        texts.push(TextCopy { target: t, src });
    }

    /// Materialize the static fragment of target type `root_ty` for
    /// `chains` under the root of `tree`, and return each chain's endpoint
    /// in chain order. A chain with no steps ends at the root.
    pub(crate) fn materialize_static(
        &self,
        tree: &mut XmlTree,
        root_ty: TypeId,
        chains: &[&[ResolvedStep]],
    ) -> Vec<NodeId> {
        let mut frag = Fragment::new(root_ty);
        for (chain, steps) in chains.iter().enumerate() {
            frag.add_chain(steps, Terminal::End { chain });
        }
        let mut leaves = Leaves::default();
        let root = tree.root();
        materialize(frag, self, tree, root, &mut leaves);
        debug_assert_eq!(leaves.ends.len(), chains.len());
        leaves.ends.sort_unstable_by_key(|&(chain, _)| chain);
        leaves.ends.into_iter().map(|(_, node)| node).collect()
    }
}

/// Intern every tag of `target` in `tree`: `tags[ty.index()]` is target
/// type `ty`'s tag, so emitting an element never hashes a string.
pub(crate) fn intern_target_tags(target: &Dtd, tree: &mut XmlTree) -> Vec<TagId> {
    target
        .types()
        .map(|ty| tree.intern_tag(target.name(ty)))
        .collect()
}

impl CompiledEmbedding {
    /// The static production fragment of target type `root_ty` for
    /// `chains` (§4.3): the chains merged on their common prefixes and
    /// completed with minimum defaults, exactly as
    /// [`apply`](Self::apply) builds a fragment, but with every chain's
    /// endpoint left as an empty element (or, for a chain with no steps,
    /// the root). Returns the tree, rooted at `root_ty`'s tag, and each
    /// chain's endpoint in chain order. The `σd` stylesheet builds its
    /// template rules from these: an apply-templates replaces a hot leaf's
    /// endpoint, and goes inside a `text()` copy's or a star parent's.
    ///
    /// # Panics
    /// Each chain must be a run of steps of this engine's resolved paths
    /// ([`path`](Self::path)) that starts at `root_ty`. Other steps may
    /// panic: two chains under one disjunction node, say.
    pub fn static_fragment(
        &self,
        root_ty: TypeId,
        chains: &[&[ResolvedStep]],
    ) -> (XmlTree, Vec<NodeId>) {
        let mut tree = XmlTree::new(self.target.name(root_ty));
        let tags = intern_target_tags(&self.target, &mut tree);
        let em = Emitter {
            target: &self.target,
            plans: &self.plans,
            tags: &tags,
            src: None,
        };
        let ends = em.materialize_static(&mut tree, root_ty, chains);
        (tree, ends)
    }
}

/// Materialize `fragment` under the existing node `at` of `tree`:
/// mindef-complete every non-hot node, order children canonically, emit hot
/// leaves, text copies and static endpoints.
pub(crate) fn materialize(
    fragment: Fragment,
    em: &Emitter<'_>,
    tree: &mut XmlTree,
    at: NodeId,
    out: &mut Leaves,
) {
    match fragment.root_terminal {
        Some(terminal) => {
            debug_assert!(fragment.children.is_empty());
            terminate(terminal, em, tree, at, out);
        }
        None => materialize_children(fragment.children, fragment.root_ty, em, tree, at, out),
    }
}

/// Complete-and-emit the children of a non-hot fragment node of type `ty`
/// at tree node `at`.
fn materialize_children(
    mut frag_children: Vec<FragNode>,
    ty: TypeId,
    em: &Emitter<'_>,
    tree: &mut XmlTree,
    at: NodeId,
    out: &mut Leaves,
) {
    match em.target.production(ty) {
        Production::Str => {
            // Only reachable for nodes with no chains through them (chains
            // cannot traverse a str-typed node); required text gets the
            // default value.
            debug_assert!(frag_children.is_empty());
            tree.add_text(at, xse_dtd::DEFAULT_STRING);
        }
        Production::Empty => {
            debug_assert!(frag_children.is_empty());
        }
        Production::Concat(cs) => {
            // One child per slot; missing slots filled with mindef.
            frag_children.sort_by_key(|c| c.slot);
            let mut iter = frag_children.into_iter().peekable();
            for (slot, &cty) in cs.iter().enumerate() {
                if iter.peek().is_some_and(|c| c.slot == slot) {
                    let child = iter.next().unwrap();
                    emit(child, em, tree, at, out);
                } else {
                    em.target
                        .mindef_into_tagged(em.plans, em.tags, cty, tree, at);
                }
            }
            debug_assert!(iter.next().is_none(), "chain slot outside production");
        }
        Production::Disjunction { allows_empty, .. } => match frag_children.len() {
            0 => {
                if !allows_empty {
                    match &em.plans[ty.index()] {
                        MindefPlan::OneChild(c) => {
                            em.target
                                .mindef_into_tagged(em.plans, em.tags, *c, tree, at);
                        }
                        other => unreachable!("disjunction plan {other:?}"),
                    }
                }
            }
            1 => {
                let child = frag_children.into_iter().next().unwrap();
                emit(child, em, tree, at, out);
            }
            n => unreachable!("{n} chains under one OR node — validation is broken"),
        },
        Production::Star(b) => {
            // Children carry positions; fill gaps below the max with mindef.
            frag_children.sort_by_key(|c| c.pos);
            let mut next_pos = 1;
            for child in frag_children {
                debug_assert!(child.pos >= next_pos, "duplicate star positions");
                while next_pos < child.pos {
                    em.target
                        .mindef_into_tagged(em.plans, em.tags, *b, tree, at);
                    next_pos += 1;
                }
                emit(child, em, tree, at, out);
                next_pos += 1;
            }
        }
    }
}

fn emit(node: FragNode, em: &Emitter<'_>, tree: &mut XmlTree, at: NodeId, out: &mut Leaves) {
    let id = tree.add_element_tag(at, em.tags[node.ty.index()]);
    match node.terminal {
        Some(terminal) => {
            debug_assert!(node.children.is_empty(), "no chain passes a chain end");
            terminate(terminal, em, tree, id, out);
        }
        None => materialize_children(node.children, node.ty, em, tree, id, out),
    }
}

/// Report the node `id` that ends a chain, copying a `str` chain's text
/// into it.
fn terminate(
    terminal: Terminal,
    em: &Emitter<'_>,
    tree: &mut XmlTree,
    id: NodeId,
    out: &mut Leaves,
) {
    match terminal {
        Terminal::Hot { src, src_type } => out.hot.push(HotLeaf {
            target: id,
            src,
            src_type,
        }),
        Terminal::Text { src } => em.copy_text(tree, id, src, &mut out.texts),
        Terminal::End { chain } => out.ends.push((chain, id)),
    }
}
