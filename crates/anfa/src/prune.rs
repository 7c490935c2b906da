//! Useless-state removal.
//!
//! §4.4 assumes "a standard useless state removal algorithm is run on each
//! completed automaton, which removes states that cannot reach a final
//! state"; an automaton with no final states is the `Fail` automaton.

use crate::{Anfa, StateId};

impl Anfa {
    /// `true` iff no final state is reachable from the start — the automaton
    /// is equivalent to [`Anfa::fail`].
    pub fn is_fail(&self) -> bool {
        let reach = self.forward_reachable();
        !(0..self.states.len()).any(|i| reach[i] && self.states[i].is_final)
    }

    /// Remove states that are unreachable from the start or cannot reach a
    /// final state. The start state is always kept (possibly as the sole
    /// state of a `Fail` automaton). Sub-automata in annotations are pruned
    /// recursively; an annotation's own `Fail`-ness is semantic (an
    /// `Exists(Fail)` gate is simply always false) and left to evaluation.
    pub fn prune(&mut self) {
        let _ = self.prune_map();
    }

    /// Like [`Anfa::prune`], returning for each old state its new id
    /// (`None` for removed states) so callers can remap external
    /// bookkeeping such as the query translation's `lab()` function.
    pub fn prune_map(&mut self) -> Vec<Option<StateId>> {
        // Recurse into annotation sub-automata first.
        for st in &mut self.states {
            if let Some(a) = &mut st.annot {
                prune_annot(a);
            }
        }
        let fwd = self.forward_reachable();
        let bwd = self.backward_from_finals();
        let keep: Vec<bool> = (0..self.states.len()).map(|i| fwd[i] && bwd[i]).collect();
        // Always keep the start.
        let mut remap = vec![u32::MAX; self.states.len()];
        let mut new_states = Vec::new();
        for (i, st) in self.states.iter().enumerate() {
            if keep[i] || i == self.start.index() {
                remap[i] = new_states.len() as u32;
                new_states.push(st.clone());
            }
        }
        for st in &mut new_states {
            st.transitions
                .retain(|(_, to)| remap[to.index()] != u32::MAX);
            for (_, to) in &mut st.transitions {
                *to = StateId(remap[to.index()]);
            }
        }
        self.start = StateId(remap[self.start.index()]);
        self.states = new_states;
        remap
            .into_iter()
            .map(|i| (i != u32::MAX).then_some(StateId(i)))
            .collect()
    }

    fn forward_reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.states.len()];
        let mut stack = vec![self.start];
        seen[self.start.index()] = true;
        while let Some(s) = stack.pop() {
            for (_, to) in &self.states[s.index()].transitions {
                if !seen[to.index()] {
                    seen[to.index()] = true;
                    stack.push(*to);
                }
            }
        }
        seen
    }

    fn backward_from_finals(&self) -> Vec<bool> {
        let n = self.states.len();
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, st) in self.states.iter().enumerate() {
            for (_, to) in &st.transitions {
                rev[to.index()].push(i as u32);
            }
        }
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&i| self.states[i].is_final).collect();
        for &s in &stack {
            seen[s] = true;
        }
        while let Some(s) = stack.pop() {
            for &p in &rev[s] {
                if !seen[p as usize] {
                    seen[p as usize] = true;
                    stack.push(p as usize);
                }
            }
        }
        seen
    }
}

fn prune_annot(a: &mut crate::Annot) {
    use crate::Annot;
    match a {
        Annot::Exists(m) | Annot::ExistsValue(m, _) => m.prune(),
        Annot::Position(_) => {}
        Annot::Not(x) => prune_annot(x),
        Annot::And(x, y) | Annot::Or(x, y) => {
            prune_annot(x);
            prune_annot(y);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Anfa, Trans};
    use xse_rxpath::parse_query;
    use xse_xmltree::parse_xml;

    #[test]
    fn prune_drops_dead_branches() {
        // a | (dead branch that never reaches a final)
        let mut m = Anfa::label("a");
        let dead = m.add_state();
        m.add_transition(m.start(), Trans::Label("x".into()), dead);
        let before = m.state_count();
        m.prune();
        assert_eq!(m.state_count(), before - 1);
        assert!(!m.is_fail());
    }

    #[test]
    fn fail_detection() {
        let mut m = Anfa::label("a");
        let f = m.finals()[0];
        m.set_final(f, false);
        assert!(m.is_fail());
        m.prune();
        assert_eq!(m.state_count(), 1, "only the start survives");
    }

    #[test]
    fn prune_preserves_semantics() {
        let tree = parse_xml("<r><a><b/></a><c/></r>").unwrap();
        for q in ["a/b | c", "(a | c)*", "a[b]"] {
            let parsed = parse_query(q).unwrap();
            let m0 = Anfa::from_query(&parsed).unwrap();
            let mut m1 = m0.clone();
            m1.prune();
            assert_eq!(m0.eval_root(&tree), m1.eval_root(&tree), "{q}");
        }
    }
}
