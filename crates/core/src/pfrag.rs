//! Production fragments (§4.2) and the programs compiled from them.
//!
//! The production fragment `pfrag_A(v)` is the target-side subtree a single
//! source node `v` of type `A` expands to: the chains of its edge paths,
//! merged on their longest common prefixes, completed with minimum default
//! instances for required-but-unmapped target structure, and ordered by the
//! canonical positions (Figure 4 shows the fragment of a `class` node).
//! Its shape depends only on the schema (§4.3). What varies per instance is
//! what fills each chain's endpoint: the image of one of `v`'s children, or
//! `v`'s text value.
//!
//! This module builds *static* fragments — the fragment a set of chains
//! produces, with each chain's endpoint marked instead of filled. It has
//! three users:
//!
//! - program compile ([`compile`]): once per engine, every source type's
//!   fragments are flattened into [`Op`] programs, which `apply`
//!   (Figure 5, see `instmap`) replays for every source node;
//! - the distinguishability validity check (DESIGN.md §3): a disjunction
//!   alternative must not be navigable inside the static fragment some
//!   *other* alternative (or the empty alternative) produces, otherwise
//!   minimum default padding could alias a choice and break invertibility.
//!   It runs inside the compile pass, on the trees the disjunction
//!   programs are read from;
//! - the `σd` stylesheet (§4.3), whose template rules are static fragments
//!   read through [`CompiledEmbedding::static_fragment`] with
//!   apply-templates placed at the endpoints.

use xse_dtd::{Dtd, MindefPlan, Production, TypeId, DEFAULT_STRING};
use xse_xmltree::{NodeId, NodeKind, TagId, XmlTree};

use crate::resolve::{ResolvedPath, ResolvedStep};
use crate::{CompiledEmbedding, EmbeddingError, TypeMapping};

/// One node of a fragment under construction.
#[derive(Debug)]
struct FragNode {
    ty: TypeId,
    /// Edge slot in the parent's target production.
    slot: usize,
    /// Canonical position among same-label siblings.
    pos: usize,
    children: Vec<FragNode>,
    /// The chain this node ends, if any.
    end: Option<usize>,
}

/// A fragment under construction: a root of type `root_ty` plus merged
/// chains.
#[derive(Debug)]
struct Fragment {
    root_ty: TypeId,
    children: Vec<FragNode>,
    /// The chain with no steps, which ends at the root: a `text()`-only
    /// `str` path, or a star prefix whose star parent is the root.
    root_end: Option<usize>,
}

impl Fragment {
    /// Add chain number `chain`, merging on the longest existing prefix.
    fn add_chain(&mut self, steps: &[ResolvedStep], chain: usize) {
        let Some((last, prefix)) = steps.split_last() else {
            debug_assert!(self.root_end.is_none());
            self.root_end = Some(chain);
            return;
        };
        let mut level = &mut self.children;
        for step in prefix {
            level = step_into(level, step);
        }
        level.push(FragNode {
            ty: last.ty,
            slot: last.slot,
            pos: last.pos.expect("normalized steps carry positions"),
            children: Vec::new(),
            end: Some(chain),
        });
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
                end: None,
            });
            level.len() - 1
        }
    };
    &mut level[idx].children
}

/// The immutable state static fragments are materialized from: the target
/// DTD, its minimum-default plans, and the tree's pre-interned tag table
/// (`tags[ty.index()]` is the tag of target type `ty`).
pub(crate) struct Emitter<'a> {
    pub(crate) target: &'a Dtd,
    pub(crate) plans: &'a [MindefPlan],
    pub(crate) tags: &'a [TagId],
}

impl Emitter<'_> {
    /// Materialize the static fragment of target type `root_ty` for
    /// `chains` under the root of `tree`, and return each chain's endpoint
    /// in chain order. A chain with no steps ends at the root.
    pub(crate) fn materialize_static(
        &self,
        tree: &mut XmlTree,
        root_ty: TypeId,
        chains: &[&[ResolvedStep]],
    ) -> Vec<NodeId> {
        let mut frag = Fragment {
            root_ty,
            children: Vec::new(),
            root_end: None,
        };
        for (chain, steps) in chains.iter().enumerate() {
            frag.add_chain(steps, chain);
        }
        let mut ends = Vec::with_capacity(chains.len());
        let root = tree.root();
        match frag.root_end {
            Some(chain) => {
                debug_assert!(frag.children.is_empty());
                ends.push((chain, root));
            }
            None => self.materialize_children(frag.children, frag.root_ty, tree, root, &mut ends),
        }
        debug_assert_eq!(ends.len(), chains.len());
        ends.sort_unstable_by_key(|&(chain, _)| chain);
        ends.into_iter().map(|(_, node)| node).collect()
    }

    /// Complete-and-emit the children of a fragment node of type `ty` at
    /// tree node `at`, recording chain endpoints as `(chain, node)`.
    fn materialize_children(
        &self,
        mut frag_children: Vec<FragNode>,
        ty: TypeId,
        tree: &mut XmlTree,
        at: NodeId,
        ends: &mut Vec<(usize, NodeId)>,
    ) {
        let (target, plans, tags) = (self.target, self.plans, self.tags);
        match target.production(ty) {
            Production::Str => {
                // Only reachable for nodes with no chains through them (chains
                // cannot traverse a str-typed node); required text gets the
                // default value.
                debug_assert!(frag_children.is_empty());
                tree.add_text(at, DEFAULT_STRING);
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
                        self.emit(child, tree, at, ends);
                    } else {
                        target.mindef_into_tagged(plans, tags, cty, tree, at);
                    }
                }
                debug_assert!(iter.next().is_none(), "chain slot outside production");
            }
            Production::Disjunction { allows_empty, .. } => match frag_children.len() {
                0 => {
                    if !allows_empty {
                        match &plans[ty.index()] {
                            MindefPlan::OneChild(c) => {
                                target.mindef_into_tagged(plans, tags, *c, tree, at);
                            }
                            other => unreachable!("disjunction plan {other:?}"),
                        }
                    }
                }
                1 => {
                    let child = frag_children.into_iter().next().unwrap();
                    self.emit(child, tree, at, ends);
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
                        target.mindef_into_tagged(plans, tags, *b, tree, at);
                        next_pos += 1;
                    }
                    self.emit(child, tree, at, ends);
                    next_pos += 1;
                }
            }
        }
    }

    fn emit(
        &self,
        node: FragNode,
        tree: &mut XmlTree,
        at: NodeId,
        ends: &mut Vec<(usize, NodeId)>,
    ) {
        let id = tree.add_element_tag(at, self.tags[node.ty.index()]);
        match node.end {
            Some(chain) => {
                debug_assert!(node.children.is_empty(), "no chain passes a chain end");
                ends.push((chain, id));
            }
            None => self.materialize_children(node.children, node.ty, tree, id, ends),
        }
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
        };
        let ends = em.materialize_static(&mut tree, root_ty, chains);
        (tree, ends)
    }
}

/// One instruction of a fragment program. A program runs against a cursor,
/// the current output element, and writes below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// Append an element of target type `t` to the current element; it
    /// becomes the current element.
    Open(TypeId),
    /// Close the current element, of target type `t`; its parent becomes
    /// the current element.
    Close(TypeId),
    /// Append the default string value to the current element.
    DefaultText,
    /// Chain `i` ends at the current element.
    End(usize),
}

/// The compiled `σd` template of one source type: its production fragment
/// as flat [`Op`] programs, one per shape the fragment can take.
#[derive(Debug)]
pub(crate) enum Program {
    /// Empty and concatenation types: chain `i` ends at the image of child
    /// `i`, of source type `children[i]`.
    Concat {
        ops: Box<[Op]>,
        children: Box<[TypeId]>,
    },
    /// `str` types: the one chain ends where the text value is copied.
    Str(Box<[Op]>),
    /// Disjunction types: `alts[j]` is alternative `j`'s source type and
    /// the program for a node whose child is of that type (its one chain
    /// ends at the child's image); `none` is the program for a node with no
    /// child, present when the production allows one.
    Choice {
        alts: Box<[(TypeId, Box<[Op]>)]>,
        none: Option<Box<[Op]>>,
    },
    /// Star types: `prefix` is the constant part, whose one chain ends at
    /// the star parent; inside it, `rep` runs once per child (of source
    /// type `child`), and its one chain ends at that child's image.
    Star {
        child: TypeId,
        prefix: Box<[Op]>,
        rep: Box<[Op]>,
    },
}

/// Compile every source type's [`Program`] on one scratch tree, checking
/// disjunction distinguishability on each disjunction scenario as it is
/// materialized.
///
/// # Errors
/// [`EmbeddingError::AlternativeAliased`] when some alternative's path is
/// navigable in another scenario's fragment.
pub(crate) fn compile(
    source: &Dtd,
    target: &Dtd,
    lambda: &TypeMapping,
    resolved: &[Vec<ResolvedPath>],
    plans: &[MindefPlan],
) -> Result<Vec<Program>, EmbeddingError> {
    // Navigation never reads the root's tag, and programs leave the root
    // out, so one root serves every origin type.
    let mut tree = XmlTree::new(target.name(target.root()));
    let tags = intern_target_tags(target, &mut tree);
    let mut types = vec![target.root(); tags.iter().map(|t| t.index() + 1).max().unwrap_or(0)];
    for ty in target.types() {
        types[tags[ty.index()].index()] = ty;
    }
    let mut scratch = Scratch {
        em: Emitter {
            target,
            plans,
            tags: &tags,
        },
        tree,
        types,
    };
    // Disjunction types go first, so an embedding the check refuses costs
    // no other type's compile.
    let is_choice = |a: &TypeId| matches!(source.production(*a), Production::Disjunction { .. });
    let order = source
        .types()
        .filter(is_choice)
        .chain(source.types().filter(|a| !is_choice(a)));
    let mut programs: Vec<Option<Program>> = source.types().map(|_| None).collect();
    for a in order {
        let paths = &resolved[a.index()];
        let root_ty = lambda.get(a);
        let chains: Vec<&[ResolvedStep]> = paths.iter().map(|p| p.steps.as_slice()).collect();
        let production = source.production(a);
        programs[a.index()] = Some(match production {
            Production::Empty | Production::Concat(_) => Program::Concat {
                ops: scratch.program(root_ty, &chains).into(),
                children: production.children().into(),
            },
            Production::Str => Program::Str(scratch.program(root_ty, &chains).into()),
            Production::Disjunction { alts, allows_empty } => {
                let mut scenario = |scn: Option<usize>| {
                    let chain: Option<&[ResolvedStep]> = scn.map(|j| chains[j]);
                    let ends = scratch.materialize(root_ty, chain.as_slice());
                    crate::validity::check_unaliased(
                        source,
                        target,
                        a,
                        paths,
                        scn,
                        &scratch.tree,
                        &tags,
                    )?;
                    Ok::<_, EmbeddingError>(scratch.read(&ends).into_boxed_slice())
                };
                let alt_programs = (0..alts.len())
                    .map(|j| Ok((alts[j], scenario(Some(j))?)))
                    .collect::<Result<_, EmbeddingError>>()?;
                let none = if *allows_empty {
                    Some(scenario(None)?)
                } else {
                    None
                };
                Program::Choice {
                    alts: alt_programs,
                    none,
                }
            }
            Production::Star(b) => {
                let steps = chains[0];
                let mult = paths[0]
                    .first_star_step()
                    .expect("validated star path has a star step");
                let rep_ty = steps[mult].ty;
                let mut rep = vec![Op::Open(rep_ty)];
                rep.extend(scratch.program(rep_ty, &[&steps[mult + 1..]]));
                rep.push(Op::Close(rep_ty));
                Program::Star {
                    child: *b,
                    prefix: scratch.program(root_ty, &[&steps[..mult]]).into(),
                    rep: rep.into(),
                }
            }
        });
    }
    Ok(programs
        .into_iter()
        .map(|p| p.expect("every type is compiled"))
        .collect())
}

/// The compile pass's scratch tree, reset to its root before every
/// fragment, so the target's tags are interned once per engine.
struct Scratch<'a> {
    em: Emitter<'a>,
    tree: XmlTree,
    /// `types[tag.index()]` is the target type whose name `tag` interns.
    types: Vec<TypeId>,
}

impl Scratch<'_> {
    /// Materialize the static fragment of `root_ty` for `chains` and
    /// return each chain's endpoint in chain order.
    fn materialize(&mut self, root_ty: TypeId, chains: &[&[ResolvedStep]]) -> Vec<NodeId> {
        self.tree.reset_to_root();
        self.em.materialize_static(&mut self.tree, root_ty, chains)
    }

    /// The program of the static fragment of `root_ty` for `chains`.
    fn program(&mut self, root_ty: TypeId, chains: &[&[ResolvedStep]]) -> Vec<Op> {
        let ends = self.materialize(root_ty, chains);
        self.read(&ends)
    }

    /// The tree below the root as a program in document order, with chain
    /// `i` ending at `ends[i]`.
    fn read(&self, ends: &[NodeId]) -> Vec<Op> {
        let tree = &self.tree;
        let end = |n: NodeId| ends.iter().position(|&e| e == n).map(Op::End);
        let ty = |n: NodeId| {
            let tag = tree.node_tag_id(n).expect("an element");
            self.types[tag.index()]
        };
        let mut ops: Vec<Op> = end(tree.root()).into_iter().collect();
        // The emitter appends every node before its subtree, so arena order
        // is document order, and the walk needs no child spans.
        debug_assert!(tree.preorder().eq(tree.iter().map(|(n, _)| n)));
        // The open elements below the root, innermost last.
        let mut open: Vec<NodeId> = Vec::new();
        for (n, kind) in tree.iter().skip(1) {
            let parent = tree.parent(n).expect("below the root");
            while let Some(&o) = open.last().filter(|&&o| o != parent) {
                open.pop();
                ops.push(Op::Close(ty(o)));
            }
            match kind {
                NodeKind::Text(value) => {
                    debug_assert_eq!(value, DEFAULT_STRING, "static fragments carry no values");
                    ops.push(Op::DefaultText);
                }
                NodeKind::Element(_) => {
                    ops.push(Op::Open(ty(n)));
                    ops.extend(end(n));
                    open.push(n);
                }
            }
        }
        ops.extend(open.into_iter().rev().map(|o| Op::Close(ty(o))));
        ops
    }
}
