//! The prefix-free path problem (§5.2).
//!
//! *Given a source node `s` and `n` target nodes `t1 … tn`, find paths
//! `p1 … pn`, each from `s` to its `ti`, no path a prefix of another* —
//! with the embedding refinements: each path must additionally be of its
//! edge's kind (AND / OR / STAR / text-tailed AND), and positions
//! disambiguate repeated concatenation children and STAR crossings.
//!
//! Candidates are enumerated by a depth-first search over the
//! `(type, flags)` product graph — revisiting a `(type, flags)` state inside
//! one path is forbidden, which bounds path length by `4·|E2|` while still
//! allowing the single cycle unfolds the small-model property
//! (Theorem 4.4-style bound) calls for. The assignment search then picks
//! one candidate per requirement, backtracking on prefix conflicts, with a
//! *star bump*: when two chosen paths collide only at an unpinned STAR
//! crossing, the later one is retried at the next free position (this is
//! how two fixed source children land in repetitions 1 and 2 of one target
//! star, the Figure 3(c) pattern generalized).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use xse_dtd::{Dtd, EdgeKind, EdgeTarget, Production, SchemaGraph, TypeId};
use xse_rxpath::{PathStep, XrPath};

use crate::index::{Expansion, ReachIndex};

/// The kind of path an edge requires.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReqKind {
    /// Concatenation edge: AND path.
    And,
    /// Disjunction edge: OR path.
    Or,
    /// Star edge: STAR path.
    Star,
    /// `str` edge: AND path ending in `text()` at any str-typed node.
    Text,
}

/// One requirement: reach `endpoint` (ignored for [`ReqKind::Text`]) from
/// the shared origin with a path of kind `kind`.
#[derive(Clone, Copy, Debug)]
pub struct PathReq {
    /// Required endpoint `λ(B)`; unused for text requirements.
    pub endpoint: TypeId,
    /// Required path kind.
    pub kind: ReqKind,
}

/// Maximum candidates enumerated per requirement.
const MAX_CANDIDATES: usize = 48;

/// DFS node-expansion budget per requirement.
const EXPANSION_BUDGET: usize = 20_000;

/// The search's settable limits, both varied by the ABL-1 ablation. Its
/// cap on candidate paths per requirement and its DFS expansion budget
/// are constants.
#[derive(Clone, Debug)]
pub struct PfpConfig {
    /// Highest star position the bump refinement will try.
    pub max_star_bump: usize,
    /// ABL-1 switch: disable the reachability-index pruning (the DFS then
    /// explores blindly within its budget). Never useful in production.
    pub disable_reach_pruning: bool,
}

impl Default for PfpConfig {
    fn default() -> Self {
        PfpConfig {
            max_star_bump: 8,
            disable_reach_pruning: false,
        }
    }
}

/// Solve the prefix-free path problem. `rng` (when given) shuffles edge
/// exploration order — the Random strategy's source of diversity. Returns
/// one syntactic path per requirement, or `None` if the search fails
/// (heuristically — the problem is NP-complete).
pub fn solve(
    target: &Dtd,
    graph: &SchemaGraph,
    idx: &ReachIndex,
    origin: TypeId,
    reqs: &[PathReq],
    cfg: &PfpConfig,
    rng: Option<&mut StdRng>,
) -> Option<Vec<XrPath>> {
    let mut enumerator = Enumerator {
        target,
        idx,
        cfg,
        rng,
        visited: vec![false; target.type_count() * 4],
        steps: Vec::new(),
        pending: Vec::new(),
    };
    // Candidate lists per requirement.
    let mut candidates: Vec<Vec<XrPath>> = Vec::with_capacity(reqs.len());
    for req in reqs {
        let c = enumerator.enumerate(origin, *req);
        if c.is_empty() {
            return None;
        }
        candidates.push(c);
    }
    // Most-constrained requirement first.
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    order.sort_by_key(|&i| candidates[i].len());

    let mut chosen: Vec<Option<XrPath>> = vec![None; reqs.len()];
    if assign(
        target,
        graph,
        origin,
        &order,
        &candidates,
        &mut chosen,
        0,
        cfg,
    ) {
        Some(chosen.into_iter().map(Option::unwrap).collect())
    } else {
        None
    }
}

/// Backtracking assignment over candidate lists.
#[allow(clippy::too_many_arguments)]
fn assign(
    target: &Dtd,
    graph: &SchemaGraph,
    origin: TypeId,
    order: &[usize],
    candidates: &[Vec<XrPath>],
    chosen: &mut Vec<Option<XrPath>>,
    depth: usize,
    cfg: &PfpConfig,
) -> bool {
    let Some(&req_idx) = order.get(depth) else {
        return true;
    };
    for cand in &candidates[req_idx] {
        // Try the candidate and, on star-collisions, bumped variants.
        let mut variant = cand.clone();
        let mut bumps = 0usize;
        loop {
            match first_conflict(target, graph, origin, chosen, &variant) {
                Conflict::None => {
                    chosen[req_idx] = Some(variant);
                    if assign(
                        target,
                        graph,
                        origin,
                        order,
                        candidates,
                        chosen,
                        depth + 1,
                        cfg,
                    ) {
                        return true;
                    }
                    chosen[req_idx] = None;
                    break;
                }
                Conflict::Bumpable(star_at) => {
                    if bumps >= cfg.max_star_bump {
                        break;
                    }
                    match bump_star(&variant, star_at) {
                        Some(v) => {
                            variant = v;
                            bumps += 1;
                        }
                        None => break,
                    }
                }
                Conflict::Hard => break,
            }
        }
    }
    false
}

enum Conflict {
    /// Prefix-compatible with every chosen path.
    None,
    /// Conflicts, but pinning the star step at this index may resolve it.
    Bumpable(usize),
    /// Conflicts with no bumpable star step.
    Hard,
}

/// Where (if anywhere) `cand` collides with the chosen paths. Collision =
/// one path covers a prefix of the other, comparing `(label, position)`
/// steps with `None` star positions covering everything.
fn first_conflict(
    target: &Dtd,
    graph: &SchemaGraph,
    origin: TypeId,
    chosen: &[Option<XrPath>],
    cand: &XrPath,
) -> Conflict {
    for other in chosen.iter().flatten() {
        let m = cand.steps.len().min(other.steps.len());
        let mut all = true;
        let mut star_overlap: Option<usize> = None;
        for i in 0..m {
            let (a, b) = (&cand.steps[i], &other.steps[i]);
            if a.label != b.label {
                all = false;
                break;
            }
            if let (Some(x), Some(y)) = (a.pos, b.pos) {
                if x != y {
                    all = false;
                    break;
                }
            }
            // Overlapping step (equal positions, or a `None` star position
            // covering everything): a bump can separate the paths here if
            // the step crosses a star edge — but never at a `None` position
            // on the *candidate*, which is a star requirement's multiplicity
            // point and must stay open.
            if star_overlap.is_none()
                && cand.steps[i].pos.is_some()
                && step_is_star(target, graph, origin, cand, i)
            {
                star_overlap = Some(i);
            }
        }
        if all {
            // Full overlap along the shorter path: conflict, unless the
            // shorter ends with a text tail and the longer goes on with
            // element steps (different component kinds).
            let (short, long) = if cand.steps.len() <= other.steps.len() {
                (cand, other)
            } else {
                (other, cand)
            };
            if short.text_tail && long.steps.len() > short.steps.len() {
                continue;
            }
            return match star_overlap {
                Some(i) => Conflict::Bumpable(i),
                None => Conflict::Hard,
            };
        }
    }
    Conflict::None
}

/// Does step `i` of `path` (resolved from `origin`) cross a star edge?
fn step_is_star(
    target: &Dtd,
    graph: &SchemaGraph,
    origin: TypeId,
    path: &XrPath,
    i: usize,
) -> bool {
    let mut cur = origin;
    for (j, step) in path.steps.iter().enumerate() {
        let Some((ty, kind)) = child_by_label(target, graph, cur, &step.label) else {
            return false;
        };
        if j == i {
            return kind.is_star();
        }
        cur = ty;
    }
    false
}

fn child_by_label(
    target: &Dtd,
    graph: &SchemaGraph,
    t: TypeId,
    label: &str,
) -> Option<(TypeId, EdgeKind)> {
    graph.edges_from(t).iter().find_map(|e| match e.target {
        EdgeTarget::Type(c) if target.name(c) == label => Some((c, e.kind)),
        _ => None,
    })
}

/// Produce a variant of `path` with the star step at `i` pinned to the next
/// position (None → 2, Some(k) → k+1). The caller re-checks conflicts.
fn bump_star(path: &XrPath, i: usize) -> Option<XrPath> {
    let step = path.steps.get(i)?;
    let next = match step.pos {
        None => 2,
        Some(k) => k + 1,
    };
    let mut out = path.clone();
    out.steps[i] = PathStep {
        label: step.label.clone(),
        pos: Some(next),
    };
    Some(out)
}

/// DFS candidate enumeration. The buffers are reused across requirements.
struct Enumerator<'a> {
    target: &'a Dtd,
    idx: &'a ReachIndex,
    cfg: &'a PfpConfig,
    rng: Option<&'a mut StdRng>,
    /// `(type, star, or)` states on the current path; all `false` between
    /// requirements.
    visited: Vec<bool>,
    /// The current path.
    steps: Vec<PathStep>,
    /// The expansions of every node on the current path, each node's in
    /// one slice, shuffled in place.
    pending: Vec<Expansion>,
}

impl<'a> Enumerator<'a> {
    fn enumerate(&mut self, origin: TypeId, req: PathReq) -> Vec<XrPath> {
        let mut out: Vec<XrPath> = Vec::new();
        let mut budget = EXPANSION_BUDGET;

        // Text requirement at a str-typed origin: the empty path + text().
        if req.kind == ReqKind::Text && matches!(self.target.production(origin), Production::Str) {
            out.push(XrPath::with_text(Vec::new()));
        }
        self.dfs(origin, false, false, req, &mut out, &mut budget);
        out
    }

    fn dfs(
        &mut self,
        at: TypeId,
        star: bool,
        or: bool,
        req: PathReq,
        out: &mut Vec<XrPath>,
        budget: &mut usize,
    ) {
        if out.len() >= MAX_CANDIDATES || *budget == 0 {
            return;
        }
        *budget -= 1;
        let state = at.index() * 4 + usize::from(star) * 2 + usize::from(or);
        if self.visited[state] {
            return;
        }
        self.visited[state] = true;

        // Emit if the requirement is satisfied here.
        if !self.steps.is_empty() {
            let emit = match req.kind {
                ReqKind::And => at == req.endpoint && !or,
                ReqKind::Or => at == req.endpoint && or,
                ReqKind::Star => at == req.endpoint && star && !or,
                ReqKind::Text => !or && matches!(self.target.production(at), Production::Str),
            };
            if emit {
                let mut p = XrPath::new(self.steps.clone());
                if req.kind == ReqKind::Text {
                    p.text_tail = true;
                }
                out.push(p);
            }
        }

        // Expansion, pruned by feasibility. Deeper nodes push their
        // expansions after this node's slice and truncate back to it.
        let start = self.pending.len();
        self.pending.extend_from_slice(self.idx.expansions.of(at));
        let end = self.pending.len();
        if let Some(rng) = self.rng.as_deref_mut() {
            self.pending[start..].shuffle(rng);
        }
        for i in start..end {
            let Expansion { child, kind, pos } = self.pending[i];
            if kind.is_or() && !matches!(req.kind, ReqKind::Or) {
                continue; // AND/STAR/Text paths are solid-only
            }
            let nstar = star || kind.is_star();
            let nor = or || kind.is_or();
            if !self.feasible(child, nstar, nor, req) {
                continue;
            }
            // The first star crossing of a STAR requirement is the
            // multiplicity point and stays open; every other star step
            // keeps the canonical pin.
            let pos = if kind.is_star() && req.kind == ReqKind::Star && !star {
                None
            } else {
                pos
            };
            self.steps.push(PathStep {
                label: Arc::clone(self.idx.expansions.label(child)),
                pos,
            });
            self.dfs(child, nstar, nor, req, out, budget);
            self.steps.pop();
        }
        self.pending.truncate(start);
        self.visited[state] = false;
    }

    /// Can the requirement still complete from `at` with the given flags
    /// (or is it already satisfied at `at`)?
    fn feasible(&self, at: TypeId, star: bool, or: bool, req: PathReq) -> bool {
        if self.cfg.disable_reach_pruning {
            return true;
        }
        let done_here = |need_flags: bool| need_flags;
        match req.kind {
            ReqKind::And => !or && (at == req.endpoint || self.idx.solid.get(at, req.endpoint)),
            ReqKind::Star => {
                !or && if star {
                    at == req.endpoint || self.idx.solid.get(at, req.endpoint)
                } else {
                    self.idx.solid_star.get(at, req.endpoint)
                }
            }
            ReqKind::Or => {
                if or {
                    at == req.endpoint || self.idx.any.get(at, req.endpoint)
                } else {
                    self.idx.with_or.get(at, req.endpoint)
                }
            }
            ReqKind::Text => {
                let _ = done_here;
                !or && self.idx.str_solid[at.index()]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xse_dtd::Dtd;

    fn setup(d: &Dtd) -> (SchemaGraph, ReachIndex) {
        let g = SchemaGraph::new(d);
        let idx = ReachIndex::new(d, &g);
        (g, idx)
    }

    fn school() -> Dtd {
        Dtd::builder("school")
            .concat("school", &["courses"])
            .concat("courses", &["history", "current"])
            .star("history", "course")
            .star("current", "course")
            .concat("course", &["cno", "category"])
            .str_type("cno")
            .disjunction("category", &["regular", "project"])
            .empty("regular")
            .str_type("project")
            .build()
            .unwrap()
    }

    #[test]
    fn finds_single_star_path() {
        let d = school();
        let (g, idx) = setup(&d);
        let reqs = [PathReq {
            endpoint: d.type_id("course").unwrap(),
            kind: ReqKind::Star,
        }];
        let paths = solve(&d, &g, &idx, d.root(), &reqs, &PfpConfig::default(), None).unwrap();
        assert_eq!(paths.len(), 1);
        let p = paths[0].to_string();
        assert!(
            p == "courses/history/course" || p == "courses/current/course",
            "{p}"
        );
    }

    #[test]
    fn finds_or_path_through_category() {
        let d = school();
        let (g, idx) = setup(&d);
        let reqs = [PathReq {
            endpoint: d.type_id("regular").unwrap(),
            kind: ReqKind::Or,
        }];
        let paths = solve(
            &d,
            &g,
            &idx,
            d.type_id("course").unwrap(),
            &reqs,
            &PfpConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(paths[0].to_string(), "category/regular");
    }

    #[test]
    fn finds_text_path() {
        let d = school();
        let (g, idx) = setup(&d);
        let reqs = [PathReq {
            endpoint: d.root(), // ignored
            kind: ReqKind::Text,
        }];
        let paths = solve(
            &d,
            &g,
            &idx,
            d.type_id("cno").unwrap(),
            &reqs,
            &PfpConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(paths[0].to_string(), "text()");
        // From course, the nearest str node is cno.
        let paths = solve(
            &d,
            &g,
            &idx,
            d.type_id("course").unwrap(),
            &reqs,
            &PfpConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(paths[0].to_string(), "cno/text()");
    }

    #[test]
    fn prefix_conflicts_force_distinct_paths() {
        // Two AND requirements to the same endpoint through one star: the
        // bump refinement must pin distinct positions.
        let d = Dtd::builder("r")
            .star("r", "item")
            .concat("item", &["v"])
            .str_type("v")
            .build()
            .unwrap();
        let (g, idx) = setup(&d);
        let item = d.type_id("item").unwrap();
        let reqs = [
            PathReq {
                endpoint: item,
                kind: ReqKind::And,
            },
            PathReq {
                endpoint: item,
                kind: ReqKind::And,
            },
        ];
        let paths = solve(&d, &g, &idx, d.root(), &reqs, &PfpConfig::default(), None).unwrap();
        let mut rendered: Vec<String> = paths.iter().map(|p| p.to_string()).collect();
        rendered.sort();
        assert_ne!(rendered[0], rendered[1]);
        assert!(
            rendered.iter().any(|p| p.contains("position()")),
            "{rendered:?}"
        );
    }

    #[test]
    fn impossible_requirements_fail() {
        let d = school();
        let (g, idx) = setup(&d);
        // AND path to "regular" is impossible (needs an OR edge).
        let reqs = [PathReq {
            endpoint: d.type_id("regular").unwrap(),
            kind: ReqKind::And,
        }];
        assert!(solve(&d, &g, &idx, d.root(), &reqs, &PfpConfig::default(), None).is_none());
        // STAR path from course to category: no star edge on the way.
        let reqs = [PathReq {
            endpoint: d.type_id("category").unwrap(),
            kind: ReqKind::Star,
        }];
        assert!(solve(
            &d,
            &g,
            &idx,
            d.type_id("course").unwrap(),
            &reqs,
            &PfpConfig::default(),
            None
        )
        .is_none());
    }

    #[test]
    fn repeated_concat_children_get_positions() {
        let d = Dtd::builder("r")
            .concat("r", &["a", "a"])
            .str_type("a")
            .build()
            .unwrap();
        let (g, idx) = setup(&d);
        let a = d.type_id("a").unwrap();
        let reqs = [
            PathReq {
                endpoint: a,
                kind: ReqKind::And,
            },
            PathReq {
                endpoint: a,
                kind: ReqKind::And,
            },
        ];
        let paths = solve(&d, &g, &idx, d.root(), &reqs, &PfpConfig::default(), None).unwrap();
        let mut rendered: Vec<String> = paths.iter().map(|p| p.to_string()).collect();
        rendered.sort();
        assert_eq!(rendered[0], "a[position() = 1]");
        assert_eq!(rendered[1], "a[position() = 2]");
    }

    #[test]
    fn randomized_enumeration_is_seed_deterministic() {
        use rand::SeedableRng;
        let d = school();
        let (g, idx) = setup(&d);
        let reqs = [PathReq {
            endpoint: d.type_id("course").unwrap(),
            kind: ReqKind::Star,
        }];
        let mut r1 = rand::rngs::StdRng::seed_from_u64(7);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(7);
        let p1 = solve(
            &d,
            &g,
            &idx,
            d.root(),
            &reqs,
            &PfpConfig::default(),
            Some(&mut r1),
        );
        let p2 = solve(
            &d,
            &g,
            &idx,
            d.root(),
            &reqs,
            &PfpConfig::default(),
            Some(&mut r2),
        );
        assert_eq!(p1.map(|v| v[0].to_string()), p2.map(|v| v[0].to_string()));
    }
}
