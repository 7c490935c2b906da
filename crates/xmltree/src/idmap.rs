use crate::NodeId;

/// Sentinel marking "no mapping" in the dense direction vectors.
const NIL: u32 = u32::MAX;

/// The paper's (partial) node id mapping `idM()`.
///
/// An instance mapping `σd : I(S1) → I(S2)` is accompanied by a mapping that
/// sends node ids of the *target* document `σd(T)` back to the ids of the
/// *source* nodes they were copied from; it is the identity on string values.
/// Query preservation w.r.t. regular XPath is stated through this mapping:
/// `Q(T) = idM(Tr(Q)(σd(T)))`.
///
/// The map is partial: target nodes fabricated by the mapping (minimum
/// default instances, intermediate path nodes) have no source preimage.
///
/// Node ids are dense arena indexes, so both directions are stored as flat
/// vectors indexed by id — insertion and lookup are array accesses, with no
/// hashing on the apply hot path.
#[derive(Clone, Debug, Default)]
pub struct IdMap {
    /// `fwd[target] = source` (or [`NIL`]).
    fwd: Vec<u32>,
    /// `rev[source] = target` (or [`NIL`]).
    rev: Vec<u32>,
    len: usize,
}

impl IdMap {
    /// An empty id mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty mapping pre-sized for documents of `targets` / `sources`
    /// nodes, so inserts during an apply never reallocate.
    pub fn with_capacity(targets: usize, sources: usize) -> Self {
        IdMap {
            fwd: vec![NIL; targets],
            rev: vec![NIL; sources],
            len: 0,
        }
    }

    fn slot(v: &mut Vec<u32>, id: NodeId) -> &mut u32 {
        let i = id.index();
        if i >= v.len() {
            v.resize(i + 1, NIL);
        }
        &mut v[i]
    }

    /// Record that target node `tgt` was copied from source node `src`.
    ///
    /// # Panics
    /// Panics if either endpoint is already mapped — `σd` is injective
    /// (Theorem 4.1), so a bijection between mapped nodes is an invariant.
    pub fn insert(&mut self, tgt: NodeId, src: NodeId) {
        let f = Self::slot(&mut self.fwd, tgt);
        assert!(*f == NIL, "idM: target node {tgt:?} mapped twice");
        *f = src.0;
        let r = Self::slot(&mut self.rev, src);
        assert!(*r == NIL, "idM: source node {src:?} mapped twice");
        *r = tgt.0;
        self.len += 1;
    }

    /// `idM(tgt)`: the source node `tgt` was copied from, if any.
    pub fn source_of(&self, tgt: NodeId) -> Option<NodeId> {
        match self.fwd.get(tgt.index()) {
            Some(&s) if s != NIL => Some(NodeId(s)),
            _ => None,
        }
    }

    /// The target node a source node was copied to, if any (the inverse
    /// direction, useful when checking injectivity).
    pub fn target_of(&self, src: NodeId) -> Option<NodeId> {
        match self.rev.get(src.index()) {
            Some(&t) if t != NIL => Some(NodeId(t)),
            _ => None,
        }
    }

    /// Number of mapped pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff no pair is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Apply `idM` to a set of target ids, dropping unmapped ones — exactly
    /// how the paper recovers `Q(T)` from `Tr(Q)(σd(T))`.
    pub fn map_result<'a>(
        &'a self,
        ids: impl IntoIterator<Item = NodeId> + 'a,
    ) -> impl Iterator<Item = NodeId> + 'a {
        ids.into_iter().filter_map(move |id| self.source_of(id))
    }

    /// Iterate over `(target, source)` pairs, ordered by target id.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.fwd
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s != NIL)
            .map(|(t, &s)| (NodeId(t as u32), NodeId(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn roundtrips_both_directions() {
        let mut m = IdMap::new();
        m.insert(n(10), n(1));
        m.insert(n(11), n(2));
        assert_eq!(m.source_of(n(10)), Some(n(1)));
        assert_eq!(m.target_of(n(2)), Some(n(11)));
        assert_eq!(m.source_of(n(12)), None);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "mapped twice")]
    fn rejects_double_target() {
        let mut m = IdMap::new();
        m.insert(n(10), n(1));
        m.insert(n(10), n(2));
    }

    #[test]
    #[should_panic(expected = "mapped twice")]
    fn rejects_double_source() {
        let mut m = IdMap::new();
        m.insert(n(10), n(1));
        m.insert(n(11), n(1));
    }

    #[test]
    fn map_result_filters_unmapped() {
        let mut m = IdMap::new();
        m.insert(n(10), n(1));
        let out: Vec<_> = m.map_result(vec![n(10), n(99)]).collect();
        assert_eq!(out, vec![n(1)]);
    }

    #[test]
    fn iter_is_ordered_by_target() {
        let mut m = IdMap::new();
        m.insert(n(11), n(2));
        m.insert(n(3), n(7));
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(n(3), n(7)), (n(11), n(2))]);
    }

    #[test]
    fn with_capacity_presizes_without_mapping() {
        let m = IdMap::with_capacity(16, 8);
        assert!(m.is_empty());
        assert_eq!(m.source_of(n(3)), None);
        assert_eq!(m.target_of(n(3)), None);
    }
}
