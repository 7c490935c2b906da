//! Schema-directed query translation `Tr` (§4.4, Theorem 4.3b).
//!
//! `Tr(Q) = Trl(Q, r1)` where the *local translation* `Trl(Q1, A)` produces
//! an ANFA over the target schema equivalent to evaluating `Q1` at (the
//! image of) an `A` element. The translation is schema-directed — each
//! subquery is translated relative to every source type it can be evaluated
//! at — which is what prevents the Figure 7 pitfall of matching
//! default-padded target nodes that no source node generated.
//!
//! Alongside the automaton we maintain the paper's `lab(f, M, A)` function:
//! each final state is labeled with the *source* type (or `str`) its matches
//! correspond to, which drives the concatenation and Kleene cases.
//!
//! `position()` handling refines the paper's case (h), which translates
//! position qualifiers unchanged — incorrect for repeated concatenation
//! children. Here (DESIGN.md §3 item 3):
//!
//! * at a **star** context, position qualifiers on the child step transfer
//!   to the multiplicity step of `path(A, B)` (source child order equals
//!   target repetition order);
//! * at a **concat** context, `position() = k` selects the `k`-th
//!   occurrence's edge path;
//! * at a **disjunction** (or on `text()` / `ε`), positions fold to the
//!   constant `k = 1`;
//! * position qualifiers that cannot be decomposed this way (e.g. under
//!   `¬`/`∨` at a concat context, or on a non-step path) are reported as
//!   [`EmbeddingError::UnsupportedPosition`] instead of being silently
//!   mistranslated.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use xse_anfa::{Anfa, Annot, CompiledAnfa, EvalScratch, StateId, Trans};
use xse_dtd::{Production, TypeId};
use xse_rxpath::{shape_key, Qualifier, XrQuery};
use xse_xmltree::{NodeId, XmlTree};

use crate::{trim_to_capacity, CompiledEmbedding, EmbeddingError};

/// What a final state's matches correspond to on the source side —
/// the paper's `lab(f, M, A)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Lab {
    /// Matches are images of source elements of this type.
    Type(TypeId),
    /// Matches are copies of source text nodes.
    Str,
}

/// A compiled translation plan: the pre-pruned target-side ANFA `Tr(Q)`,
/// its final-state labels, and the flat [`CompiledAnfa`] transition tables
/// evaluation runs on.
///
/// Plans are what [`CompiledEmbedding::translate`] caches and returns —
/// compile once per query *shape*, evaluate on any number of target
/// documents. [`eval`](TranslatePlan::eval) runs the table-driven
/// evaluator (faster than interpreting the automaton);
/// [`eval_with`](TranslatePlan::eval_with) additionally reuses scratch
/// buffers across calls for an allocation-free hot loop.
pub struct TranslatePlan {
    /// The automaton `Tr(Q)`, pruned.
    pub anfa: Anfa,
    /// `lab()` — final state → source-side label.
    pub labels: HashMap<StateId, Lab>,
    /// Flat transition tables compiled from `anfa`.
    plan: CompiledAnfa,
}

impl TranslatePlan {
    /// Evaluate on a target document at the root (then map results back
    /// through `idM` to compare with the source-side evaluation).
    pub fn eval(&self, t2: &XmlTree) -> Vec<NodeId> {
        self.plan.eval_root(t2)
    }

    /// Evaluate at the root, reusing `scratch` and writing into `out`
    /// (cleared first) — no allocation after warmup.
    pub fn eval_with(&self, t2: &XmlTree, scratch: &mut EvalScratch, out: &mut Vec<NodeId>) {
        self.plan.eval_with(t2, t2.root(), scratch, out);
    }

    /// Size `|Tr(Q)|` (states + transitions + annotation sub-automata) —
    /// bounded by `O(|Q|·|σ|·|S1|)` per Theorem 4.3(b).
    pub fn size(&self) -> usize {
        self.anfa.size()
    }

    /// Number of states of `Tr(Q)`'s main automaton.
    pub fn state_count(&self) -> usize {
        self.anfa.state_count()
    }
}

/// Hit/miss/occupancy counters of one embedding's plan cache. Counters
/// are cumulative over the engine's lifetime; `entries` is the current
/// occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Translations answered from the cache.
    pub hits: u64,
    /// Translations that compiled a fresh plan (including failed
    /// compiles, which are not cached).
    pub misses: u64,
    /// Plans currently cached.
    pub entries: u64,
}

/// Per-embedding plan bound. An insert past it evicts the least recently
/// used plan: the victim score is `Reverse(last_used)`, and the plan just
/// inserted is never the victim.
const PLAN_CACHE_CAP: usize = 256;

/// Bounded per-embedding plan cache keyed by canonical query shape
/// ([`shape_key`]). Interior-mutable so `translate` stays `&self`; the
/// lock is only held for lookups and inserts, never during compilation.
#[derive(Default)]
pub(crate) struct PlanCache {
    inner: Mutex<PlanCacheInner>,
}

#[derive(Default)]
struct PlanCacheInner {
    map: HashMap<String, (Arc<TranslatePlan>, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    fn lookup(&self, key: &str) -> Option<Arc<TranslatePlan>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some((plan, used)) => {
                *used = tick;
                let plan = Arc::clone(plan);
                inner.hits += 1;
                Some(plan)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert `plan` under `key`, unless a racing translation of the same
    /// shape got there first — then the incumbent wins, so every caller
    /// shares one plan per shape.
    fn insert(&self, key: String, plan: Arc<TranslatePlan>) -> Arc<TranslatePlan> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((existing, used)) = inner.map.get_mut(&key) {
            *used = tick;
            return Arc::clone(existing);
        }
        inner.map.insert(key, (Arc::clone(&plan), tick));
        trim_to_capacity(&mut inner.map, PLAN_CACHE_CAP, |_, &(_, used)| {
            (used != tick).then_some(Reverse(used))
        });
        plan
    }

    fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock().unwrap();
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len() as u64,
        }
    }
}

/// Working result of `Trl`: an automaton fragment plus labeled finals.
struct Trl {
    anfa: Anfa,
    /// Final states with labels (kept in sync with the anfa's final flags).
    finals: Vec<(StateId, Lab)>,
}

impl Trl {
    fn fail() -> Trl {
        Trl {
            anfa: Anfa::fail(),
            finals: Vec::new(),
        }
    }

    fn is_fail(&self) -> bool {
        self.finals.is_empty()
    }

    /// Import `other` into `self.anfa`, wiring ε from `from`; returns
    /// `other`'s finals offset into `self`.
    fn splice(&mut self, from: StateId, other: &Trl) -> Vec<(StateId, Lab)> {
        let off = self.anfa.import(&other.anfa);
        self.anfa.add_transition(
            from,
            Trans::Eps,
            StateId::from_index(other.anfa.start().index() + off as usize),
        );
        other
            .finals
            .iter()
            .map(|&(f, lab)| (StateId::from_index(f.index() + off as usize), lab))
            .collect()
    }
}

impl CompiledEmbedding {
    /// Translate a source query into a shared [`TranslatePlan`]:
    /// compile-or-lookup in the embedding's bounded plan cache, keyed by
    /// the query's canonical shape ([`shape_key`]). Repeated translations
    /// of equivalent queries return the same `Arc` without recompiling;
    /// [`CompiledEmbedding::plan_stats`] reports the hit/miss counters.
    ///
    /// Translation is deterministic, so a cached plan is byte-identical
    /// to a fresh [`compile_translation`](Self::compile_translation) of
    /// the same query.
    ///
    /// # Errors
    /// Propagates translation failures (e.g. unsupported `position()`
    /// shapes); failures are not cached.
    pub fn translate(&self, q: &XrQuery) -> Result<Arc<TranslatePlan>, EmbeddingError> {
        let key = shape_key(q);
        if let Some(plan) = self.plan_cache.lookup(&key) {
            return Ok(plan);
        }
        // Compile outside the cache lock: translation can be expensive and
        // is deterministic, so a racing duplicate compile is benign (the
        // first insert wins).
        let plan = Arc::new(self.compile_translation(q)?);
        Ok(self.plan_cache.insert(key, plan))
    }

    /// Translate a source query unconditionally — `Tr(Q) = Trl(Q, r1)`,
    /// pruned and compiled to transition tables — bypassing the plan
    /// cache. This is the raw one-shot path [`translate`](Self::translate)
    /// amortizes away; benchmarks use it as the cold baseline.
    ///
    /// # Errors
    /// Propagates translation failures.
    pub fn compile_translation(&self, q: &XrQuery) -> Result<TranslatePlan, EmbeddingError> {
        let mut t = self.trl(q, self.source.root())?;
        let remap = t.anfa.prune_map();
        let labels = t
            .finals
            .into_iter()
            .filter_map(|(f, lab)| remap[f.index()].map(|nf| (nf, lab)))
            .collect();
        let plan = CompiledAnfa::compile(&t.anfa);
        Ok(TranslatePlan {
            anfa: t.anfa,
            labels,
            plan,
        })
    }

    /// This embedding's plan-cache counters.
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// The local translation `Trl(Q1, A)`.
    fn trl(&self, q: &XrQuery, a: TypeId) -> Result<Trl, EmbeddingError> {
        Ok(match q {
            // (a) ε — empty automaton, final at start, labeled A.
            XrQuery::Empty => {
                let anfa = Anfa::empty_query();
                let start = anfa.start();
                Trl {
                    anfa,
                    finals: vec![(start, Lab::Type(a))],
                }
            }
            // (b) a label B: union of the paths of all (A → B) edges.
            XrQuery::Label(name) => self.trl_label(a, name, None),
            // p/text(): the str edge's path.
            XrQuery::Text => self.trl_text(a),
            XrQuery::DescOrSelf => {
                // Fragment-X sugar: `//` ≡ (B1 ∪ … ∪ Bn)* over the source
                // alphabet; delegate to the Kleene case.
                let labels: Vec<XrQuery> = self
                    .source
                    .types()
                    .map(|t| XrQuery::label(self.source.name(t)))
                    .collect();
                let any = labels
                    .into_iter()
                    .reduce(|x, y| x.or(y))
                    .expect("DTD has at least a root type");
                self.trl(&any.star(), a)?
            }
            // (c) union.
            XrQuery::Union(x, y) => {
                let tx = self.trl(x, a)?;
                let ty = self.trl(y, a)?;
                let mut out = Trl {
                    anfa: Anfa::new(),
                    finals: Vec::new(),
                };
                let start = out.anfa.start();
                let fx = out.splice(start, &tx);
                let fy = out.splice(start, &ty);
                out.finals = [fx, fy].concat();
                out
            }
            // (d) concatenation: continue per distinct final label.
            XrQuery::Seq(x, y) => {
                let tx = self.trl(x, a)?;
                self.continue_with(tx, y)?
            }
            // (k) Kleene closure.
            XrQuery::Star(p) => self.trl_star(p, a)?,
            // (e) qualified paths (with the position() special cases).
            XrQuery::Qualified(p, q) => self.trl_qualified(p, q, a)?,
        })
    }

    /// Case (b): all edges from `a` to children labeled `name` (several for
    /// repeated concatenation children), optionally restricted to the
    /// occurrence selected by a position qualifier.
    fn trl_label(&self, a: TypeId, name: &str, occurrence: Option<usize>) -> Trl {
        let prod = self.source.production(a);
        let mut out = Trl {
            anfa: Anfa::new(),
            finals: Vec::new(),
        };
        let start = out.anfa.start();
        let child_of = |slot: usize| -> Option<TypeId> {
            match prod {
                Production::Concat(cs) => cs.get(slot).copied(),
                Production::Disjunction { alts, .. } => alts.get(slot).copied(),
                Production::Star(b) => Some(*b),
                _ => None,
            }
        };
        let mut occ_seen = 0usize;
        for slot in 0..self.paths_of(a).len() {
            let Some(cty) = child_of(slot) else { continue };
            if self.source.name(cty) != name {
                continue;
            }
            occ_seen += 1;
            if let Some(k) = occurrence {
                // Star contexts have a single slot; occurrence selection
                // applies to concat contexts (k-th same-label occurrence).
                if matches!(prod, Production::Concat(_)) && occ_seen != k {
                    continue;
                }
                if matches!(prod, Production::Disjunction { .. }) && k != 1 {
                    continue;
                }
            }
            let chain = self.chain(
                a,
                slot,
                occurrence.filter(|_| matches!(prod, Production::Star(_))),
                Lab::Type(cty),
            );
            let finals = out.splice(start, &chain);
            out.finals.extend(finals);
        }
        out
    }

    /// The str edge's path (query `text()` at context `a`).
    fn trl_text(&self, a: TypeId) -> Trl {
        if !matches!(self.source.production(a), Production::Str) {
            return Trl::fail();
        }
        self.chain(a, 0, None, Lab::Str)
    }

    /// The path at `(a, slot)` compiled to a linear automaton whose one
    /// final, its last state, is labeled `lab`; `mult_pos` attaches an
    /// extra `position()` check at the multiplicity step (used when a
    /// source star child is selected by position).
    fn chain(&self, a: TypeId, slot: usize, mult_pos: Option<usize>, lab: Lab) -> Trl {
        let rp = &self.resolved[a.index()][slot];
        let mut m = Anfa::new();
        let mut cur = m.start();
        let mult_idx = rp.first_star_step();
        for (i, step) in rp.steps.iter().enumerate() {
            let next = m.add_state();
            m.add_transition(cur, Trans::Label(self.target.name(step.ty).into()), next);
            if step.needs_pos_check {
                if let Some(k) = step.pos {
                    m.annotate(next, Annot::Position(k));
                }
            }
            if Some(i) == mult_idx {
                if let Some(k) = mult_pos {
                    m.annotate(next, Annot::Position(k));
                }
            }
            cur = next;
        }
        if rp.text_tail {
            let next = m.add_state();
            m.add_transition(cur, Trans::Text, next);
            cur = next;
        }
        m.set_final(cur, true);
        Trl {
            anfa: m,
            finals: vec![(cur, lab)],
        }
    }

    /// Case (d): feed each final of `tx` (grouped by label) into the
    /// translation of `rest` at that label's type.
    fn continue_with(&self, tx: Trl, rest: &XrQuery) -> Result<Trl, EmbeddingError> {
        let mut out = tx;
        let prior = std::mem::take(&mut out.finals);
        // One continuation automaton per distinct label.
        let mut by_lab: HashMap<Lab, Vec<StateId>> = HashMap::new();
        for (f, lab) in prior {
            by_lab.entry(lab).or_default().push(f);
        }
        let mut labs: Vec<Lab> = by_lab.keys().copied().collect();
        labs.sort_by_key(|l| match l {
            Lab::Type(t) => t.index(),
            Lab::Str => usize::MAX,
        });
        for lab in labs {
            let states = &by_lab[&lab];
            let cont = match lab {
                Lab::Type(t) => self.trl(rest, t)?,
                // Nothing continues past a text node except ε.
                Lab::Str => match rest {
                    XrQuery::Empty => {
                        for &f in states {
                            out.anfa.set_final(f, true);
                            out.finals.push((f, Lab::Str));
                        }
                        continue;
                    }
                    _ => Trl::fail(),
                },
            };
            if cont.is_fail() {
                for &f in states {
                    out.anfa.set_final(f, false);
                }
                continue;
            }
            // Import once, ε from every final with this label.
            let off = out.anfa.import(&cont.anfa);
            let cont_start = StateId::from_index(cont.anfa.start().index() + off as usize);
            for &f in states {
                out.anfa.set_final(f, false);
                out.anfa.add_transition(f, Trans::Eps, cont_start);
            }
            for (f, l) in &cont.finals {
                out.finals
                    .push((StateId::from_index(f.index() + off as usize), *l));
            }
        }
        Ok(out)
    }

    /// Case (k): `p*` — one copy of `Trl(p, B)` per source type `B`
    /// reachable through iterations, with every `B`-labeled final wired to
    /// that copy's start (also for already-visited types: cycles need the
    /// back edges the paper's loop leaves implicit).
    fn trl_star(&self, p: &XrQuery, a: TypeId) -> Result<Trl, EmbeddingError> {
        let mut out = Trl {
            anfa: Anfa::empty_query(),
            finals: Vec::new(),
        };
        let hub = out.anfa.start();
        out.finals.push((hub, Lab::Type(a)));
        // Per source type: the start state of its imported copy.
        let mut copies: HashMap<TypeId, Option<StateId>> = HashMap::new();
        // Worklist of states needing a continuation into `p` at a type.
        let mut pending: Vec<(StateId, TypeId)> = vec![(hub, a)];
        while let Some((state, t)) = pending.pop() {
            let start = match copies.get(&t) {
                Some(s) => *s,
                None => {
                    let copy = self.trl(p, t)?;
                    if copy.is_fail() {
                        copies.insert(t, None);
                        None
                    } else {
                        let off = out.anfa.import(&copy.anfa);
                        let cstart = StateId::from_index(copy.anfa.start().index() + off as usize);
                        copies.insert(t, Some(cstart));
                        for (f, lab) in &copy.finals {
                            let nf = StateId::from_index(f.index() + off as usize);
                            out.finals.push((nf, *lab));
                            // Iterations continue from every element final.
                            if let Lab::Type(b) = lab {
                                pending.push((nf, *b));
                            }
                        }
                        Some(cstart)
                    }
                }
            };
            if let Some(cstart) = start {
                out.anfa.add_transition(state, Trans::Eps, cstart);
            }
        }
        Ok(out)
    }

    /// Case (e) with the position() special cases.
    fn trl_qualified(&self, p: &XrQuery, q: &Qualifier, a: TypeId) -> Result<Trl, EmbeddingError> {
        // Decompose the qualifier into top-level conjuncts, separating
        // position-only parts from position-free parts. Constant conjuncts
        // (pure true/¬true combinations) fold away first.
        let mut conjuncts = Vec::new();
        flatten_and(q, &mut conjuncts);
        let mut pos_only: Vec<&Qualifier> = Vec::new();
        let mut pos_free: Vec<&Qualifier> = Vec::new();
        for c in conjuncts {
            match fold_const(c) {
                Some(true) => continue, // [true] is no constraint
                Some(false) => return Ok(Trl::fail()),
                None => {}
            }
            if qualifier_is_position_only(c) {
                pos_only.push(c);
            } else if qualifier_is_position_free(c) {
                pos_free.push(c);
            } else {
                return Err(EmbeddingError::UnsupportedPosition(format!("{p}[{q}]")));
            }
        }

        // Translate the qualified path according to the step shape.
        let mut base = if pos_only.is_empty() {
            self.trl(p, a)?
        } else {
            match p {
                XrQuery::Label(name) => match self.source.production(a) {
                    Production::Star(_) => {
                        // Annotate the multiplicity step with the full
                        // position constraint (sibling order is preserved).
                        let mut t = self.trl_label(a, name, None);
                        if !t.is_fail() {
                            let annot = positions_to_annot(&pos_only);
                            annotate_multiplicity(&mut t, self, a, annot);
                        }
                        t
                    }
                    Production::Concat(_) | Production::Disjunction { .. } => {
                        // Only a plain `position() = k` conjunction selects
                        // an occurrence.
                        let Some(k) = single_position(&pos_only) else {
                            return Err(EmbeddingError::UnsupportedPosition(format!("{p}[{q}]")));
                        };
                        self.trl_label(a, name, Some(k))
                    }
                    _ => Trl::fail(),
                },
                XrQuery::Text | XrQuery::Empty => {
                    // A unique node: positions fold to the constant k = 1.
                    match single_position(&pos_only) {
                        Some(1) => self.trl(p, a)?,
                        Some(_) => Trl::fail(),
                        None => {
                            return Err(EmbeddingError::UnsupportedPosition(format!("{p}[{q}]")))
                        }
                    }
                }
                _ => return Err(EmbeddingError::UnsupportedPosition(format!("{p}[{q}]"))),
            }
        };

        // Attach the position-free conjuncts at the finals, translated at
        // each final's source type.
        for c in pos_free {
            let finals = base.finals.clone();
            for (f, lab) in finals {
                let annot = self.trl_qual(c, lab)?;
                if let Some(annot) = annot {
                    base.anfa.annotate(f, annot);
                }
            }
        }
        Ok(base)
    }

    /// Cases (f)–(j): qualifier → annotation, at context label `lab`.
    fn trl_qual(&self, q: &Qualifier, lab: Lab) -> Result<Option<Annot>, EmbeddingError> {
        let ctx = match lab {
            Lab::Type(t) => Some(t),
            Lab::Str => None,
        };
        Ok(Some(match q {
            Qualifier::True => return Ok(None),
            Qualifier::Path(p) => {
                let sub = match ctx {
                    Some(t) => self.trl(p, t)?.anfa,
                    None => Anfa::fail(),
                };
                Annot::Exists(Box::new(sub))
            }
            Qualifier::TextEq(p, c) => {
                let sub = match ctx {
                    Some(t) => self.trl(p, t)?.anfa,
                    None => Anfa::fail(),
                };
                Annot::ExistsValue(Box::new(sub), c.clone())
            }
            Qualifier::Position(_) => {
                // Bare positions are handled by trl_qualified; reaching here
                // means an unsupported nesting.
                return Err(EmbeddingError::UnsupportedPosition(q.to_string()));
            }
            Qualifier::Not(x) => match self.trl_qual(x, lab)? {
                None => Annot::Exists(Box::new(Anfa::fail())), // ¬true
                Some(ax) => Annot::Not(Box::new(ax)),
            },
            Qualifier::And(x, y) => match (self.trl_qual(x, lab)?, self.trl_qual(y, lab)?) {
                (None, None) => return Ok(None),
                (Some(ax), None) | (None, Some(ax)) => ax,
                (Some(ax), Some(ay)) => Annot::And(Box::new(ax), Box::new(ay)),
            },
            Qualifier::Or(x, y) => {
                match (self.trl_qual(x, lab)?, self.trl_qual(y, lab)?) {
                    (None, _) | (_, None) => return Ok(None), // true ∨ q
                    (Some(ax), Some(ay)) => Annot::Or(Box::new(ax), Box::new(ay)),
                }
            }
        }))
    }
}

/// Evaluate a qualifier that contains no atoms other than `true` to its
/// constant value; `None` when it has real atoms.
fn fold_const(q: &Qualifier) -> Option<bool> {
    match q {
        Qualifier::True => Some(true),
        Qualifier::Not(x) => fold_const(x).map(|b| !b),
        Qualifier::And(a, b) => Some(fold_const(a)? && fold_const(b)?),
        Qualifier::Or(a, b) => Some(fold_const(a)? || fold_const(b)?),
        _ => None,
    }
}

fn flatten_and<'q>(q: &'q Qualifier, out: &mut Vec<&'q Qualifier>) {
    match q {
        Qualifier::And(a, b) => {
            flatten_and(a, out);
            flatten_and(b, out);
        }
        other => out.push(other),
    }
}

/// Is the qualifier built exclusively from position atoms (and `true`)?
fn qualifier_is_position_only(q: &Qualifier) -> bool {
    match q {
        Qualifier::True | Qualifier::Position(_) => true,
        Qualifier::Not(x) => qualifier_is_position_only(x),
        Qualifier::And(a, b) | Qualifier::Or(a, b) => {
            qualifier_is_position_only(a) && qualifier_is_position_only(b)
        }
        Qualifier::Path(_) | Qualifier::TextEq(_, _) => false,
    }
}

/// Does the qualifier avoid bare position atoms entirely (positions inside
/// nested path qualifiers are fine — they recurse through `trl`)?
fn qualifier_is_position_free(q: &Qualifier) -> bool {
    match q {
        Qualifier::True | Qualifier::Path(_) | Qualifier::TextEq(_, _) => true,
        Qualifier::Position(_) => false,
        Qualifier::Not(x) => qualifier_is_position_free(x),
        Qualifier::And(a, b) | Qualifier::Or(a, b) => {
            qualifier_is_position_free(a) && qualifier_is_position_free(b)
        }
    }
}

/// If the conjunction is exactly one `position() = k` atom, return `k`.
fn single_position(pos_only: &[&Qualifier]) -> Option<usize> {
    match pos_only {
        [Qualifier::Position(k)] => Some(*k),
        _ => None,
    }
}

/// Boolean combination of position atoms → annotation.
fn positions_to_annot(pos_only: &[&Qualifier]) -> Annot {
    fn conv(q: &Qualifier) -> Annot {
        match q {
            Qualifier::Position(k) => Annot::Position(*k),
            Qualifier::True => Annot::Not(Box::new(Annot::Exists(Box::new(Anfa::fail())))),
            Qualifier::Not(x) => Annot::Not(Box::new(conv(x))),
            Qualifier::And(a, b) => Annot::And(Box::new(conv(a)), Box::new(conv(b))),
            Qualifier::Or(a, b) => Annot::Or(Box::new(conv(a)), Box::new(conv(b))),
            _ => unreachable!("checked position-only"),
        }
    }
    pos_only
        .iter()
        .map(|q| conv(q))
        .reduce(|a, b| Annot::And(Box::new(a), Box::new(b)))
        .expect("nonempty")
}

/// Attach `annot` at the multiplicity state of the (single) star path of
/// source type `a` inside a freshly built `trl_label` automaton.
fn annotate_multiplicity(t: &mut Trl, emb: &CompiledEmbedding, a: TypeId, annot: Annot) {
    let rp = &emb.paths_of(a)[0];
    let mult = rp.first_star_step().expect("star source edge");
    // trl_label built: start --ε--> chain of |steps| states; the chain
    // states come right after the hub start (state 0) in import order, so
    // the multiplicity state is 1 (chain start) + mult + 1.
    let state = StateId::from_index(1 + mult + 1);
    t.anfa.annotate(state, annot);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::tests::{wrap, wrap_compiled};
    use crate::instmap::tests::{fig1, fig1_embedding};
    use xse_rxpath::parse_query;
    use xse_xmltree::parse_xml;

    /// End-to-end check: Q(T) == idM(Tr(Q)(σd(T))).
    fn preserved(e: &CompiledEmbedding, t1: &xse_xmltree::XmlTree, queries: &[&str]) {
        let out = e.apply(t1).unwrap();
        for qs in queries {
            let q = parse_query(qs).unwrap();
            let direct = q.eval(t1);
            let tr = e.translate(&q).unwrap();
            let got = tr.eval(&out.tree);
            let mut mapped: Vec<_> = out.idmap.map_result(got.iter().copied()).collect();
            mapped.sort();
            let mut want = direct.clone();
            want.sort();
            assert_eq!(
                mapped, want,
                "query {qs}: target results {got:?} map to {mapped:?}, expected {want:?}"
            );
            // Nothing a translated query matches may be padding.
            assert_eq!(
                got.len(),
                mapped.len(),
                "query {qs} matched default-padding nodes"
            );
        }
    }

    #[test]
    fn wrap_translation_preserves_queries() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let t1 = parse_xml("<r><a>hi</a><b><c>1</c><c>2</c><c>1</c></b></r>").unwrap();
        preserved(
            &e,
            &t1,
            &[
                ".",
                "a",
                "b",
                "b/c",
                "a/text()",
                "b/c/text()",
                "b/c[position() = 2]",
                "b/c[position() = 2]/text()",
                "b/c[text() = '1']",
                "a | b/c",
                "b[c]",
                "b[not c]",
                "a[text() = 'hi']",
                "a[text() = 'nope']",
                "b/c[position() = 9]",
            ],
        );
    }

    #[test]
    fn school_translation_preserves_queries() {
        let (s0, s) = fig1();
        let e = fig1_embedding(&s0, &s);
        let t1 = parse_xml(
            "<db>\
               <class><cno>CS331</cno><title>DB</title><type><regular><prereq>\
                  <class><cno>CS240</cno><title>Algo</title><type><project>p1</project></type></class>\
                  <class><cno>CS101</cno><title>Intro</title><type><regular><prereq/></regular></type></class>\
               </prereq></regular></type></class>\
               <class><cno>CS499</cno><title>T</title><type><project>p3</project></type></class>\
             </db>",
        )
        .unwrap();
        preserved(
            &e,
            &t1,
            &[
                "class",
                "class/cno/text()",
                "class[cno/text() = 'CS331']",
                "class/type/regular",
                "class/type/project",
                "class[type/project]/cno",
                "class[position() = 2]/cno/text()",
                // Example 4.8: transitive prerequisites of CS331.
                "class[cno/text() = 'CS331']/(type/regular/prereq/class)*",
                "class[cno/text() = 'CS331']/(type/regular/prereq/class)*/cno/text()",
                "(class/type/regular/prereq/class)*",
                "class/type/regular/prereq/class[position() = 2]",
                "class[not type/regular]",
                ".//cno",
                ".//class[type/project]/title/text()",
            ],
        );
    }

    #[test]
    fn example_4_8_shape() {
        // The translated Example 4.8 query must be expressible and match
        // the Figure 6 automaton's behaviour: navigate to course through
        // courses/current and loop through category/mandatory/regular/
        // required/prereq/course.
        let (s0, s) = fig1();
        let e = fig1_embedding(&s0, &s);
        let q = parse_query("class[cno/text() = 'CS331']/(type/regular/prereq/class)*").unwrap();
        let tr = e.translate(&q).unwrap();
        // Bound of Theorem 4.3(b): |Tr(Q)| = O(|Q| · |σ| · |S1|).
        let bound = q.size() * e.size() * s0.type_count();
        assert!(
            tr.size() <= bound,
            "automaton size {} exceeds O-bound witness {bound}",
            tr.size()
        );
        // lab() labels finals with source types.
        assert!(!tr.labels.is_empty());
        let class_ty = s0.type_id("class").unwrap();
        assert!(tr.labels.values().all(|&l| l == super::Lab::Type(class_ty)));
    }

    #[test]
    fn figure_7_padding_is_not_matched() {
        // Figure 7: source r → A+ε, A → B+ε, B → C+ε... the paper's
        // example uses r → A? etc. with identity paths; a naive
        // substitution would match mindef-created C nodes. Model:
        // S1: r → A+ε; A → B+ε; B → C+ε; C → ε
        // S2: r → A; A → B; B → C; C → ε... but identity paths from
        // disjunction edges need OR paths, so target mirrors the source.
        let s1 = xse_dtd::Dtd::builder("r")
            .disjunction_opt("r", &["A"])
            .disjunction_opt("A", &["B"])
            .disjunction_opt("B", &["C"])
            .empty("C")
            .build()
            .unwrap();
        let s2 = xse_dtd::Dtd::builder("r")
            .disjunction_opt("r", &["A"])
            .disjunction_opt("A", &["B"])
            .disjunction_opt("B", &["C"])
            .empty("C")
            .build()
            .unwrap();
        let e = crate::EmbeddingBuilder::new(s1, s2)
            .edge("r", "A", "A")
            .edge("A", "B", "B")
            .edge("B", "C", "C")
            .build()
            .unwrap();
        let t1 = parse_xml("<r><A><B/></A></r>").unwrap();
        preserved(&e, &t1, &["(A | B | C)*", "A/B", "A/B/C", ".//C"]);
    }

    #[test]
    fn unsupported_positions_error_cleanly() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let q = parse_query("(a | b)[position() = 1]").unwrap();
        assert!(matches!(
            e.translate(&q),
            Err(EmbeddingError::UnsupportedPosition(_))
        ));
        // position under Or at a concat context is also unsupported…
        let q = parse_query("a[position() = 1 or b]").unwrap();
        assert!(matches!(
            e.translate(&q),
            Err(EmbeddingError::UnsupportedPosition(_))
        ));
    }

    #[test]
    fn star_context_boolean_positions_work() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let t1 = parse_xml("<r><a>x</a><b><c>1</c><c>2</c><c>3</c></b></r>").unwrap();
        preserved(
            &e,
            &t1,
            &[
                "b/c[not position() = 2]",
                "b/c[position() = 1 or position() = 3]/text()",
                "b/c[position() = 2 and text() = '2']",
            ],
        );
    }

    #[test]
    fn plan_cache_shares_plans_across_equivalent_queries() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let q1 = parse_query("b/c").unwrap();
        let first = e.translate(&q1).unwrap();
        assert_eq!(
            e.plan_stats(),
            crate::PlanCacheStats {
                hits: 0,
                misses: 1,
                entries: 1
            }
        );
        let second = e.translate(&q1).unwrap();
        assert!(
            std::sync::Arc::ptr_eq(&first, &second),
            "repeat translation must share one plan"
        );
        // A different spelling of the same shape also hits.
        let q2 = parse_query("./b[true]/c").unwrap();
        let third = e.translate(&q2).unwrap();
        assert!(std::sync::Arc::ptr_eq(&first, &third));
        assert_eq!(
            e.plan_stats(),
            crate::PlanCacheStats {
                hits: 2,
                misses: 1,
                entries: 1
            }
        );
        // Failures are counted as misses but never cached.
        let bad = parse_query("(a | b)[position() = 1]").unwrap();
        assert!(e.translate(&bad).is_err());
        assert!(e.translate(&bad).is_err());
        let stats = e.plan_stats();
        assert_eq!((stats.misses, stats.entries), (3, 1));
    }

    #[test]
    fn plan_cache_past_its_cap_evicts_the_least_recently_used_shape() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let shape = |i: usize| parse_query(&format!("b/c[text() = '{i}']")).unwrap();
        for i in 0..PLAN_CACHE_CAP {
            e.translate(&shape(i)).unwrap();
        }
        // Touch shape 0, leaving shape 1 the least recently used.
        e.translate(&shape(0)).unwrap();
        e.translate(&shape(PLAN_CACHE_CAP)).unwrap();
        let stats = e.plan_stats();
        assert_eq!(stats.entries, PLAN_CACHE_CAP as u64);
        assert_eq!(stats.misses, PLAN_CACHE_CAP as u64 + 1);
        e.translate(&shape(0)).unwrap();
        assert_eq!(e.plan_stats().misses, stats.misses, "recent shape must hit");
        e.translate(&shape(1)).unwrap();
        assert_eq!(
            e.plan_stats().misses,
            stats.misses + 1,
            "LRU shape must miss"
        );
        assert_eq!(e.plan_stats().entries, PLAN_CACHE_CAP as u64);
    }

    #[test]
    fn plan_eval_matches_interpreted_anfa_eval() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let t1 = parse_xml("<r><a>hi</a><b><c>1</c><c>2</c><c>1</c></b></r>").unwrap();
        let out = e.apply(&t1).unwrap();
        for qs in [
            "b/c",
            "b/c[text() = '1']",
            "b/c[position() = 2]/text()",
            "a | b/c",
            "b[not c]",
        ] {
            let tr = e.translate(&parse_query(qs).unwrap()).unwrap();
            assert_eq!(
                tr.eval(&out.tree),
                tr.anfa.eval_root(&out.tree),
                "plan eval of {qs} diverges from interpreted eval"
            );
        }
    }

    #[test]
    fn concurrent_translation_is_byte_identical_to_sequential() {
        let (s0, s) = fig1();
        let e = std::sync::Arc::new(fig1_embedding(&s0, &s));
        let queries = [
            "class/cno/text()",
            "class[cno/text() = 'CS331']/(type/regular/prereq/class)*",
            ".//cno",
            "class[type/project]/title",
        ];
        // Sequential reference: raw compiles, no cache involved.
        let reference: Vec<String> = queries
            .iter()
            .map(|qs| {
                let tr = e.compile_translation(&parse_query(qs).unwrap()).unwrap();
                let mut labels: Vec<_> = tr.labels.iter().map(|(s, l)| (*s, *l)).collect();
                labels.sort_by_key(|(s, _)| s.index());
                format!("{}{labels:?}", tr.anfa)
            })
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let e = std::sync::Arc::clone(&e);
                let reference = &reference;
                scope.spawn(move || {
                    for (qs, want) in queries.iter().zip(reference) {
                        let tr = e.translate(&parse_query(qs).unwrap()).unwrap();
                        let mut labels: Vec<_> = tr.labels.iter().map(|(s, l)| (*s, *l)).collect();
                        labels.sort_by_key(|(s, _)| s.index());
                        let got = format!("{}{labels:?}", tr.anfa);
                        assert_eq!(&got, want, "{qs}: threaded translation diverged");
                    }
                });
            }
        });
    }

    #[test]
    fn nonexistent_labels_translate_to_fail() {
        let (s1, s2) = wrap();
        let e = wrap_compiled(&s1, &s2);
        let q = parse_query("ghost/child").unwrap();
        let tr = e.translate(&q).unwrap();
        assert!(tr.anfa.is_fail());
        let t1 = parse_xml("<r><a>x</a><b/></r>").unwrap();
        let out = e.apply(&t1).unwrap();
        assert!(tr.eval(&out.tree).is_empty());
    }
}
