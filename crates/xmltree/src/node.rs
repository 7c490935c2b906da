use std::fmt;
use std::sync::OnceLock;

use crate::symbol::{SymbolTable, TagId};

/// Identifier of a node within one [`XmlTree`].
///
/// Ids are dense indexes into the tree's arena. They are stable for the
/// lifetime of the tree — removing is not supported, so an id handed out once
/// stays valid — which makes them a faithful stand-in for the paper's
/// abstract node ids in `dom(T)`. Freezing / CSR compaction never renumbers:
/// `dom(T)` is invariant under [`XmlTree::freeze`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The numeric index of this id in its tree's arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct an id from an arena index (use only with indexes obtained
    /// from [`NodeId::index`] on the same tree).
    pub fn from_index(i: usize) -> Self {
        let i = u32::try_from(i).expect("tree larger than u32::MAX nodes");
        assert_ne!(i, NIL, "tree larger than u32::MAX - 1 nodes");
        NodeId(i)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Niche index meaning "no node" in the flat link fields.
const NIL: u32 = u32::MAX;
/// Tag slot value marking a text node (real [`TagId`]s are dense from 0).
const TEXT: u32 = u32::MAX;

/// One flat arena record: 32 bytes, no heap ownership. Tags are interned
/// [`TagId`]s, text payloads are byte ranges into the tree's shared buffer,
/// and child structure lives in intrusive first/last-child + next-sibling
/// links that [`XmlTree::freeze`] compacts into CSR spans.
#[derive(Clone, Copy, Debug)]
struct NodeRec {
    parent: u32,
    next_sibling: u32,
    first_child: u32,
    last_child: u32,
    child_count: u32,
    /// `TagId` for elements, [`TEXT`] for text nodes.
    tag: u32,
    text_start: u32,
    text_len: u32,
}

/// What a node is: an element with a tag, or a text (PCDATA) leaf. Borrowed
/// from the tree's interned tag table / shared text buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind<'a> {
    /// An element node labeled with an element-type tag.
    Element(&'a str),
    /// A text node carrying a string (PCDATA) value. Always a leaf.
    Text(&'a str),
}

/// Compressed-sparse-row view of the child lists: all children of all nodes
/// in one contiguous array, each parent owning the span
/// `edges[spans[p] .. spans[p] + child_count(p)]`. Built lazily on first
/// read after a mutation (see [`XmlTree::freeze`]).
#[derive(Clone, Debug)]
struct Csr {
    edges: Vec<NodeId>,
    spans: Vec<u32>,
}

/// Label-offset index over the CSR: per parent, the same child span as
/// [`Csr`] but **stably sorted by tag**, with a parallel array of the tags.
/// Within one parent the children of each tag form a contiguous run in
/// document order, so "the `k`-th child labeled `t`" is a binary search for
/// the run plus an offset — `O(log c)` instead of the `O(c)` sibling scan —
/// which is what canonical-position navigation on the invert hot path does
/// per step. Built lazily on the first wide-fanout lookup (small parents
/// are cheaper to scan; see [`XmlTree::nth_child_with_tag_id`]).
#[derive(Clone, Debug)]
struct TagIndex {
    /// Children per parent span, stably sorted by tag slot value.
    edges: Vec<NodeId>,
    /// `tags[i]` is the tag slot of `edges[i]` (text nodes sort last).
    tags: Vec<u32>,
}

/// Fan-out at or below this uses the linear sibling scan even when an index
/// exists: for a handful of children the scan is faster than two binary
/// searches, and most real parents are small.
const SMALL_FANOUT: usize = 16;

/// An ordered, node-labeled XML tree with stable node ids, stored as a
/// struct-of-arrays arena.
///
/// The tree always has a root element (created by [`XmlTree::new`]). Nodes
/// are appended with [`XmlTree::add_element`] / [`XmlTree::add_text`] and are
/// never removed one by one, so every [`NodeId`] stays valid until
/// [`XmlTree::reset_to_root`] drops them all. Appends maintain cheap
/// intrusive sibling links; the first traversal after a batch of mutations
/// compacts them into CSR spans ([`XmlTree::freeze`]), after which
/// [`XmlTree::children`] is a contiguous slice.
#[derive(Clone, Debug)]
pub struct XmlTree {
    symbols: SymbolTable,
    nodes: Vec<NodeRec>,
    text: String,
    csr: OnceLock<Csr>,
    tag_index: OnceLock<TagIndex>,
}

impl XmlTree {
    /// Create a tree whose root element is labeled `root_tag`.
    pub fn new(root_tag: impl AsRef<str>) -> Self {
        Self::with_capacity(root_tag, 0, 0)
    }

    /// Create a tree with pre-reserved arena capacity: `nodes` node records
    /// and `text_bytes` bytes of text payload. Parsers and instance mappings
    /// that know (or can estimate) the output size use this to avoid
    /// reallocation during construction.
    pub fn with_capacity(root_tag: impl AsRef<str>, nodes: usize, text_bytes: usize) -> Self {
        let mut symbols = SymbolTable::new();
        let tag = symbols.intern(root_tag.as_ref());
        let mut node_vec = Vec::with_capacity(nodes.max(1));
        node_vec.push(NodeRec {
            parent: NIL,
            next_sibling: NIL,
            first_child: NIL,
            last_child: NIL,
            child_count: 0,
            tag: tag.0,
            text_start: 0,
            text_len: 0,
        });
        XmlTree {
            symbols,
            nodes: node_vec,
            text: String::with_capacity(text_bytes),
            csr: OnceLock::new(),
            tag_index: OnceLock::new(),
        }
    }

    /// Reserve capacity for at least `nodes` more node records and
    /// `text_bytes` more bytes of text payload.
    pub fn reserve(&mut self, nodes: usize, text_bytes: usize) {
        self.nodes.reserve(nodes);
        self.text.reserve(text_bytes);
    }

    /// Drop every node except the root, and all text, keeping the root's
    /// tag, the symbol table and the arena's allocations. Every interned
    /// [`TagId`] stays valid; every other [`NodeId`] does not. A tree
    /// rebuilt many times over (one per check, say) is reset instead of
    /// reallocated and re-interned.
    pub fn reset_to_root(&mut self) {
        self.invalidate();
        self.nodes.truncate(1);
        let root = &mut self.nodes[0];
        root.first_child = NIL;
        root.last_child = NIL;
        root.child_count = 0;
        self.text.clear();
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes in the tree (elements and text nodes), i.e. `|dom(T)|`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the tree consists of just the root element.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Total bytes of text (PCDATA) payload stored in the shared buffer.
    pub fn text_bytes(&self) -> usize {
        self.text.len()
    }

    /// Intern a tag in this tree's symbol table without creating a node.
    /// Use with [`XmlTree::add_element_tag`] to build large documents
    /// without per-node string hashing.
    pub fn intern_tag(&mut self, tag: &str) -> TagId {
        self.symbols.intern(tag)
    }

    /// The id of an already-interned tag, if any. A tag that was never
    /// interned labels no node of this tree.
    pub fn tag_id(&self, tag: &str) -> Option<TagId> {
        self.symbols.get(tag)
    }

    /// The tag string of an interned [`TagId`].
    pub fn tag_name(&self, tag: TagId) -> &str {
        self.symbols.name(tag)
    }

    fn rec(&self, id: NodeId) -> &NodeRec {
        &self.nodes[id.index()]
    }

    /// Drop the CSR cache and its label-offset index (called by every
    /// mutation).
    fn invalidate(&mut self) {
        if self.csr.get_mut().is_some() {
            self.csr = OnceLock::new();
        }
        if self.tag_index.get_mut().is_some() {
            self.tag_index = OnceLock::new();
        }
    }

    fn build_csr(&self) -> Csr {
        let n = self.nodes.len();
        let mut spans = Vec::with_capacity(n);
        let mut edges = Vec::with_capacity(n.saturating_sub(1));
        for rec in &self.nodes {
            spans.push(edges.len() as u32);
            let mut c = rec.first_child;
            while c != NIL {
                edges.push(NodeId(c));
                c = self.nodes[c as usize].next_sibling;
            }
        }
        Csr { edges, spans }
    }

    fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| self.build_csr())
    }

    /// Compact the intrusive sibling links into CSR spans now, so later
    /// reads pay nothing. Traversal accessors ([`XmlTree::children`] et al.)
    /// do this lazily on first use; calling `freeze` is never required for
    /// correctness — mutations after a freeze simply invalidate the spans
    /// and the next read re-compacts. Node ids, document order and equality
    /// are invariant under freezing.
    pub fn freeze(&mut self) {
        if self.csr.get_mut().is_none() {
            let csr = self.build_csr();
            let _ = self.csr.set(csr);
        }
    }

    /// Append a new element labeled `tag` as the last child of `parent`.
    pub fn add_element(&mut self, parent: NodeId, tag: impl AsRef<str>) -> NodeId {
        let tag = self.symbols.intern(tag.as_ref());
        self.add_element_tag(parent, tag)
    }

    /// Append a new element with a pre-interned tag as the last child of
    /// `parent`. This is the allocation-free hot path: no hashing, no string
    /// copy, one arena push plus a link splice.
    pub fn add_element_tag(&mut self, parent: NodeId, tag: TagId) -> NodeId {
        debug_assert!(tag.index() < self.symbols.len(), "foreign TagId");
        self.push_rec(parent, tag.0, 0, 0)
    }

    /// Append a new text node with string `value` as the last child of
    /// `parent`. The bytes are copied into the tree's shared text buffer.
    pub fn add_text(&mut self, parent: NodeId, value: impl AsRef<str>) -> NodeId {
        let start = self.text.len();
        self.text.push_str(value.as_ref());
        self.add_text_from(parent, start)
    }

    /// The shared text buffer, for writers that decode straight into it
    /// (the parser). Bytes past the last text node belong to no node until
    /// [`XmlTree::add_text_from`] claims them; truncating back to that
    /// point discards them.
    pub(crate) fn text_buffer_mut(&mut self) -> &mut String {
        &mut self.text
    }

    /// Append a text node whose value is the text buffer from byte `start`
    /// to its end, as the last child of `parent`.
    pub(crate) fn add_text_from(&mut self, parent: NodeId, start: usize) -> NodeId {
        let end = u32::try_from(self.text.len()).expect("text buffer larger than u32::MAX");
        let start = u32::try_from(start).expect("text start within the buffer");
        self.push_rec(parent, TEXT, start, end - start)
    }

    fn push_rec(&mut self, parent: NodeId, tag: u32, text_start: u32, text_len: u32) -> NodeId {
        self.invalidate();
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeRec {
            parent: parent.0,
            next_sibling: NIL,
            first_child: NIL,
            last_child: NIL,
            child_count: 0,
            tag,
            text_start,
            text_len,
        });
        let prev_last = self.nodes[parent.index()].last_child;
        if prev_last == NIL {
            self.nodes[parent.index()].first_child = id.0;
        } else {
            self.nodes[prev_last as usize].next_sibling = id.0;
        }
        let p = &mut self.nodes[parent.index()];
        p.last_child = id.0;
        p.child_count += 1;
        id
    }

    /// Insert a new element labeled `tag` as the `pos`-th (0-based) child of
    /// `parent`, shifting later siblings right (`pos` clamps to the end).
    pub fn insert_element(&mut self, parent: NodeId, pos: usize, tag: impl AsRef<str>) -> NodeId {
        let tag = self.symbols.intern(tag.as_ref());
        self.invalidate();
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(NodeRec {
            parent: parent.0,
            next_sibling: NIL,
            first_child: NIL,
            last_child: NIL,
            child_count: 0,
            tag: tag.0,
            text_start: 0,
            text_len: 0,
        });
        // Find the splice point: the (pos-1)-th child, or None for the front.
        let mut before = NIL;
        let mut cur = self.nodes[parent.index()].first_child;
        for _ in 0..pos {
            if cur == NIL {
                break;
            }
            before = cur;
            cur = self.nodes[cur as usize].next_sibling;
        }
        if before == NIL {
            let first = self.nodes[parent.index()].first_child;
            self.nodes[id.index()].next_sibling = first;
            self.nodes[parent.index()].first_child = id.0;
        } else {
            let after = self.nodes[before as usize].next_sibling;
            self.nodes[id.index()].next_sibling = after;
            self.nodes[before as usize].next_sibling = id.0;
        }
        let p = &mut self.nodes[parent.index()];
        if p.last_child == before || p.last_child == NIL {
            p.last_child = id.0;
        }
        p.child_count += 1;
        id
    }

    /// Reorder the children of `parent` to the given permutation of its
    /// current child list.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of the current children.
    pub fn reorder_children(&mut self, parent: NodeId, order: &[NodeId]) {
        let current: Vec<NodeId> = self.children_linked(parent).collect();
        assert_eq!(current.len(), order.len(), "reorder: wrong arity");
        let mut sorted_a = current;
        let mut sorted_b: Vec<NodeId> = order.to_vec();
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        assert_eq!(sorted_a, sorted_b, "reorder: not a permutation");
        self.invalidate();
        for w in order.windows(2) {
            self.nodes[w[0].index()].next_sibling = w[1].0;
        }
        if let (Some(&first), Some(&last)) = (order.first(), order.last()) {
            self.nodes[last.index()].next_sibling = NIL;
            let p = &mut self.nodes[parent.index()];
            p.first_child = first.0;
            p.last_child = last.0;
        }
    }

    /// The node's kind (element or text), borrowed from the arena.
    pub fn kind(&self, id: NodeId) -> NodeKind<'_> {
        let r = self.rec(id);
        if r.tag == TEXT {
            NodeKind::Text(self.text_slice(r))
        } else {
            NodeKind::Element(self.symbols.name(TagId(r.tag)))
        }
    }

    fn text_slice(&self, r: &NodeRec) -> &str {
        &self.text[r.text_start as usize..(r.text_start + r.text_len) as usize]
    }

    /// The element tag of `id`, or `None` for a text node.
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        let r = self.rec(id);
        if r.tag == TEXT {
            None
        } else {
            Some(self.symbols.name(TagId(r.tag)))
        }
    }

    /// The interned tag id of `id`, or `None` for a text node.
    pub fn node_tag_id(&self, id: NodeId) -> Option<TagId> {
        let r = self.rec(id);
        if r.tag == TEXT {
            None
        } else {
            Some(TagId(r.tag))
        }
    }

    /// The string value of `id`, or `None` for an element node.
    pub fn text_value(&self, id: NodeId) -> Option<&str> {
        let r = self.rec(id);
        if r.tag == TEXT {
            Some(self.text_slice(r))
        } else {
            None
        }
    }

    /// `true` iff `id` is a text node.
    pub fn is_text(&self, id: NodeId) -> bool {
        self.rec(id).tag == TEXT
    }

    /// The ordered children of `id`, as a contiguous CSR span.
    ///
    /// The first call after a mutation compacts the sibling links into CSR
    /// form (O(|T|), amortized over the whole read phase); subsequent calls
    /// are two array lookups.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let csr = self.csr();
        let start = csr.spans[id.index()] as usize;
        &csr.edges[start..start + self.rec(id).child_count as usize]
    }

    /// Number of children of `id` (O(1), no CSR required).
    pub fn child_count(&self, id: NodeId) -> usize {
        self.rec(id).child_count as usize
    }

    /// The ordered children of `id` via the intrusive links, without
    /// touching (or building) the CSR cache. Internal mutation helpers use
    /// this to avoid invalidation churn.
    fn children_linked(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.rec(id).first_child;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let out = NodeId(cur);
            cur = self.nodes[cur as usize].next_sibling;
            Some(out)
        })
    }

    /// The first child of `id` by the intrusive links (no CSR needed).
    pub(crate) fn first_child(&self, id: NodeId) -> Option<NodeId> {
        let c = self.rec(id).first_child;
        (c != NIL).then_some(NodeId(c))
    }

    /// The next sibling of `id` by the intrusive links (no CSR needed).
    pub(crate) fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        let s = self.rec(id).next_sibling;
        (s != NIL).then_some(NodeId(s))
    }

    /// Bytes of compact XML this tree serializes to, before escaping: one
    /// `<tag>` + `</tag>` pair per element plus the raw text.
    pub(crate) fn compact_len_hint(&self) -> usize {
        let markup: usize = self
            .nodes
            .iter()
            .filter(|r| r.tag != TEXT)
            .map(|r| 2 * self.symbols.name(TagId(r.tag)).len() + 5)
            .sum();
        markup + self.text.len()
    }

    /// The parent of `id` (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.rec(id).parent;
        (p != NIL).then_some(NodeId(p))
    }

    /// The element children of `id` with tag `tag`, in document order.
    pub fn children_with_tag<'a>(
        &'a self,
        id: NodeId,
        tag: &str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let want = self.symbols.get(tag).map(|t| t.0);
        self.children(id)
            .iter()
            .copied()
            .filter(move |&c| want == Some(self.nodes[c.index()].tag))
    }

    /// The element children of `id` with the given interned tag, in document
    /// order — the integer-compare fast path of
    /// [`XmlTree::children_with_tag`].
    pub fn children_with_tag_id(
        &self,
        id: NodeId,
        tag: TagId,
    ) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id)
            .iter()
            .copied()
            .filter(move |&c| self.nodes[c.index()].tag == tag.0)
    }

    fn build_tag_index(&self) -> TagIndex {
        let csr = self.csr();
        let mut edges = csr.edges.clone();
        // Stable per-span sort by tag: within a parent, each tag's children
        // stay in document order, so run offset == same-label position.
        for (p, rec) in self.nodes.iter().enumerate() {
            let start = csr.spans[p] as usize;
            let end = start + rec.child_count as usize;
            edges[start..end].sort_by_key(|&c| self.nodes[c.index()].tag);
        }
        let tags = edges.iter().map(|&c| self.nodes[c.index()].tag).collect();
        TagIndex { edges, tags }
    }

    /// The `k`-th (0-based) element child of `id` labeled `tag`, in document
    /// order — `children_with_tag_id(id, tag).nth(k)` without the sibling
    /// scan.
    ///
    /// Small fan-outs use the linear scan directly. The first lookup on a
    /// wide parent builds a per-node label-offset index over the CSR
    /// (children grouped by tag; `O(|T| log c)`, cached until the next
    /// mutation), after which every canonical-position step is a binary
    /// search — the invert hot path's `nth(k)` stops being `O(c)`.
    pub fn nth_child_with_tag_id(&self, id: NodeId, tag: TagId, k: usize) -> Option<NodeId> {
        let count = self.rec(id).child_count as usize;
        if k >= count {
            return None;
        }
        if count <= SMALL_FANOUT {
            return self.children_with_tag_id(id, tag).nth(k);
        }
        let idx = self.tag_index.get_or_init(|| self.build_tag_index());
        let start = self.csr().spans[id.index()] as usize;
        let span = &idx.tags[start..start + count];
        let lo = span.partition_point(|&t| t < tag.0);
        let hi = span.partition_point(|&t| t <= tag.0);
        idx.edges[start + lo..start + hi].get(k).copied()
    }

    /// 1-based position of `id` among its same-tag siblings (the paper's
    /// `position()` for a step labeled with `id`'s tag). The root has
    /// position 1. Text nodes are counted among text siblings.
    pub fn position_among_same_label(&self, id: NodeId) -> usize {
        let Some(p) = self.parent(id) else { return 1 };
        let me = self.rec(id).tag;
        let mut pos = 0;
        for &c in self.children(p) {
            if self.nodes[c.index()].tag == me {
                pos += 1;
            }
            if c == id {
                return pos;
            }
        }
        unreachable!("node not found among its parent's children")
    }

    /// Depth of `id` (root is 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Preorder (document-order) traversal of the subtree rooted at `id`.
    /// Allocation-free: walks the intrusive links directly.
    pub fn descendants_or_self(&self, id: NodeId) -> Preorder<'_> {
        Preorder {
            tree: self,
            next: Some(id),
            origin: id,
        }
    }

    /// Preorder traversal of the whole document.
    pub fn preorder(&self) -> Preorder<'_> {
        self.descendants_or_self(self.root())
    }

    /// Number of nodes in the subtree rooted at `id`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.descendants_or_self(id).count()
    }

    /// The tags on the path from the root to `id`, inclusive (text node
    /// rendered as `#text`).
    pub fn label_path(&self, id: NodeId) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            out.push(self.tag(c).unwrap_or("#text").to_string());
            cur = self.parent(c);
        }
        out.reverse();
        out
    }

    /// Paper equality: `T1 = T2` iff they are isomorphic by an isomorphism
    /// that is the identity on string values (same shape, tags and text —
    /// node ids are ignored).
    pub fn equals(&self, other: &XmlTree) -> bool {
        self.subtree_equals(self.root(), other, other.root())
    }

    /// Paper equality of two subtrees (`n1 = n2` in the paper's notation).
    ///
    /// Since preorder plus per-node arity determines a tree uniquely, two
    /// zipped preorder walks suffice — iterative, so very deep documents are
    /// fine.
    pub fn subtree_equals(&self, a: NodeId, other: &XmlTree, b: NodeId) -> bool {
        let mut ita = self.descendants_or_self(a);
        let mut itb = other.descendants_or_self(b);
        loop {
            match (ita.next(), itb.next()) {
                (None, None) => return true,
                (Some(x), Some(y)) => {
                    let (rx, ry) = (self.rec(x), other.rec(y));
                    if rx.child_count != ry.child_count {
                        return false;
                    }
                    match (rx.tag == TEXT, ry.tag == TEXT) {
                        (true, true) => {
                            if self.text_slice(rx) != other.text_slice(ry) {
                                return false;
                            }
                        }
                        (false, false) => {
                            if self.symbols.name(TagId(rx.tag)) != other.symbols.name(TagId(ry.tag))
                            {
                                return false;
                            }
                        }
                        _ => return false,
                    }
                }
                _ => return false,
            }
        }
    }

    /// First point where `self` and `other` differ, as a human-readable
    /// description, or `None` if the trees are equal. Useful in test
    /// diagnostics.
    pub fn first_difference(&self, other: &XmlTree) -> Option<String> {
        // Explicit stack, pushed in reverse so pops follow document order.
        let mut stack = vec![(self.root(), other.root())];
        while let Some((a, b)) = stack.pop() {
            let here = || self.label_path(a).join("/");
            match (self.kind(a), other.kind(b)) {
                (NodeKind::Text(x), NodeKind::Text(y)) => {
                    if x != y {
                        return Some(format!("at {}: text {:?} vs {:?}", here(), x, y));
                    }
                }
                (NodeKind::Element(x), NodeKind::Element(y)) => {
                    if x != y {
                        return Some(format!("at {}: tag {:?} vs {:?}", here(), x, y));
                    }
                    let (ca, cb) = (self.children(a), other.children(b));
                    if ca.len() != cb.len() {
                        return Some(format!("at {}: arity {} vs {}", here(), ca.len(), cb.len()));
                    }
                    for (&x, &y) in ca.iter().zip(cb.iter()).rev() {
                        stack.push((x, y));
                    }
                }
                (NodeKind::Text(_), NodeKind::Element(t)) => {
                    return Some(format!("at {}: text vs element <{}>", here(), t))
                }
                (NodeKind::Element(t), NodeKind::Text(_)) => {
                    return Some(format!("at {}: element <{}> vs text", here(), t))
                }
            }
        }
        None
    }

    /// Count of element nodes with each tag, for quick workload statistics.
    pub fn tag_histogram(&self) -> std::collections::BTreeMap<String, usize> {
        let mut by_id = vec![0usize; self.symbols.len()];
        for rec in &self.nodes {
            if rec.tag != TEXT {
                by_id[rec.tag as usize] += 1;
            }
        }
        by_id
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .map(|(i, n)| (self.symbols.name(TagId(i as u32)).to_string(), n))
            .collect()
    }

    /// Iterate over `(id, kind)` pairs in arena (allocation) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeKind<'_>)> {
        (0..self.nodes.len()).map(|i| {
            let id = NodeId(i as u32);
            (id, self.kind(id))
        })
    }
}

/// Document-order traversal handed out by [`XmlTree::preorder`]. Walks the
/// arena's intrusive first-child / next-sibling links — no heap allocation,
/// no CSR dependency.
pub struct Preorder<'a> {
    tree: &'a XmlTree,
    next: Option<NodeId>,
    origin: NodeId,
}

impl<'a> Iterator for Preorder<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        let rec = self.tree.rec(cur);
        self.next = if rec.first_child != NIL {
            Some(NodeId(rec.first_child))
        } else {
            // Climb until a next sibling exists, stopping at the origin.
            let mut x = cur;
            loop {
                if x == self.origin {
                    break None;
                }
                let r = self.tree.rec(x);
                if r.next_sibling != NIL {
                    break Some(NodeId(r.next_sibling));
                }
                x = NodeId(r.parent);
            }
        };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn school() -> (XmlTree, NodeId, NodeId) {
        let mut t = XmlTree::new("db");
        let class = t.add_element(t.root(), "class");
        let cno = t.add_element(class, "cno");
        t.add_text(cno, "CS331");
        (t, class, cno)
    }

    #[test]
    fn root_has_no_parent_and_depth_zero() {
        let t = XmlTree::new("r");
        assert_eq!(t.parent(t.root()), None);
        assert_eq!(t.depth(t.root()), 0);
        assert_eq!(t.tag(t.root()), Some("r"));
        assert!(t.is_empty());
    }

    #[test]
    fn add_children_preserves_order() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        let b = t.add_element(t.root(), "b");
        let c = t.add_element(t.root(), "a");
        assert_eq!(t.children(t.root()), &[a, b, c]);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        let with_a: Vec<_> = t.children_with_tag(t.root(), "a").collect();
        assert_eq!(with_a, vec![a, c]);
        // Unknown tags match nothing (and never alias text nodes).
        t.add_text(t.root(), "x");
        assert_eq!(t.children_with_tag(t.root(), "zzz").count(), 0);
    }

    #[test]
    fn interned_tag_fast_paths_agree_with_strings() {
        let mut t = XmlTree::new("r");
        let a_tag = t.intern_tag("a");
        let a = t.add_element_tag(t.root(), a_tag);
        t.add_element(t.root(), "b");
        let c = t.add_element(t.root(), "a");
        assert_eq!(t.tag_id("a"), Some(a_tag));
        assert_eq!(t.tag_name(a_tag), "a");
        assert_eq!(t.node_tag_id(a), Some(a_tag));
        let by_id: Vec<_> = t.children_with_tag_id(t.root(), a_tag).collect();
        let by_str: Vec<_> = t.children_with_tag(t.root(), "a").collect();
        assert_eq!(by_id, by_str);
        assert_eq!(by_id, vec![a, c]);
        let txt = t.add_text(t.root(), "v");
        assert_eq!(t.node_tag_id(txt), None);
    }

    #[test]
    fn nth_child_with_tag_id_agrees_with_scan() {
        // Both below and above the SMALL_FANOUT cutoff, against text nodes
        // and interleaved tags, including after mutations (invalidation).
        for width in [3usize, 5, 40, 200] {
            let mut t = XmlTree::new("r");
            let a = t.intern_tag("a");
            let b = t.intern_tag("b");
            for i in 0..width {
                if i % 3 == 0 {
                    t.add_element_tag(t.root(), b);
                } else {
                    t.add_element_tag(t.root(), a);
                }
                if i % 5 == 0 {
                    t.add_text(t.root(), "x");
                }
            }
            for tag in [a, b] {
                let scan: Vec<_> = t.children_with_tag_id(t.root(), tag).collect();
                for k in 0..scan.len() + 2 {
                    assert_eq!(
                        t.nth_child_with_tag_id(t.root(), tag, k),
                        scan.get(k).copied(),
                        "width {width}, k {k}"
                    );
                }
            }
            // Mutate (invalidates the index), then re-query.
            let extra = t.add_element_tag(t.root(), a);
            let scan: Vec<_> = t.children_with_tag_id(t.root(), a).collect();
            assert_eq!(
                t.nth_child_with_tag_id(t.root(), a, scan.len() - 1),
                Some(extra)
            );
        }
    }

    #[test]
    fn nth_child_with_tag_id_unknown_tag_and_empty() {
        let mut t = XmlTree::new("r");
        let ghost = t.intern_tag("ghost");
        assert_eq!(t.nth_child_with_tag_id(t.root(), ghost, 0), None);
        let a = t.intern_tag("a");
        for _ in 0..50 {
            t.add_element_tag(t.root(), a);
        }
        assert_eq!(t.nth_child_with_tag_id(t.root(), ghost, 0), None);
        assert_eq!(t.nth_child_with_tag_id(t.root(), a, 50), None);
        assert!(t.nth_child_with_tag_id(t.root(), a, 49).is_some());
    }

    #[test]
    fn insert_element_at_position() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        let c = t.add_element(t.root(), "c");
        let b = t.insert_element(t.root(), 1, "b");
        assert_eq!(t.children(t.root()), &[a, b, c]);
        // Out-of-range positions clamp to the end.
        let d = t.insert_element(t.root(), 99, "d");
        assert_eq!(t.children(t.root()).last(), Some(&d));
        // Insertion at the front relinks first_child.
        let z = t.insert_element(t.root(), 0, "z");
        assert_eq!(t.children(t.root()), &[z, a, b, c, d]);
        // And appends after a front-insert still land at the end.
        let e = t.add_element(t.root(), "e");
        assert_eq!(t.children(t.root()), &[z, a, b, c, d, e]);
    }

    #[test]
    fn text_nodes_are_leaves_with_values() {
        let (t, _, cno) = school();
        let txt = t.children(cno)[0];
        assert!(t.is_text(txt));
        assert_eq!(t.text_value(txt), Some("CS331"));
        assert_eq!(t.tag(txt), None);
        assert!(t.children(txt).is_empty());
    }

    #[test]
    fn kind_borrows_tag_and_text() {
        let (t, class, cno) = school();
        assert_eq!(t.kind(class), NodeKind::Element("class"));
        let txt = t.children(cno)[0];
        assert_eq!(t.kind(txt), NodeKind::Text("CS331"));
    }

    #[test]
    fn position_among_same_label() {
        let mut t = XmlTree::new("r");
        let a1 = t.add_element(t.root(), "a");
        let b = t.add_element(t.root(), "b");
        let a2 = t.add_element(t.root(), "a");
        assert_eq!(t.position_among_same_label(a1), 1);
        assert_eq!(t.position_among_same_label(b), 1);
        assert_eq!(t.position_among_same_label(a2), 2);
        assert_eq!(t.position_among_same_label(t.root()), 1);
        // Text nodes count among text siblings.
        let x1 = t.add_text(t.root(), "x");
        let x2 = t.add_text(t.root(), "y");
        assert_eq!(t.position_among_same_label(x1), 1);
        assert_eq!(t.position_among_same_label(x2), 2);
    }

    #[test]
    fn preorder_is_document_order() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        let a1 = t.add_element(a, "a1");
        let a2 = t.add_element(a, "a2");
        let b = t.add_element(t.root(), "b");
        let order: Vec<_> = t.preorder().collect();
        assert_eq!(order, vec![t.root(), a, a1, a2, b]);
        assert_eq!(t.subtree_size(a), 3);
        // Subtree traversal stops at the subtree boundary.
        let sub: Vec<_> = t.descendants_or_self(a).collect();
        assert_eq!(sub, vec![a, a1, a2]);
    }

    #[test]
    fn freeze_preserves_ids_order_and_equality() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        t.add_text(a, "x");
        t.add_element(t.root(), "b");
        let before: Vec<_> = t.preorder().collect();
        let unfrozen = t.clone();
        t.freeze();
        let after: Vec<_> = t.preorder().collect();
        assert_eq!(before, after, "dom(T) and document order are stable");
        assert!(t.equals(&unfrozen));
        assert_eq!(t.to_xml(), unfrozen.to_xml());
    }

    #[test]
    fn interleaved_mutation_and_reads_stay_consistent() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        assert_eq!(t.children(t.root()), &[a]); // builds CSR
        let b = t.add_element(t.root(), "b"); // invalidates CSR
        assert_eq!(t.children(t.root()), &[a, b]); // rebuilds
        let c = t.add_element(a, "c");
        assert_eq!(t.children(a), &[c]);
        assert_eq!(t.children(t.root()), &[a, b]);
    }

    #[test]
    fn equality_ignores_ids_but_not_order() {
        let mut t1 = XmlTree::new("r");
        t1.add_element(t1.root(), "a");
        t1.add_element(t1.root(), "b");

        // Same shape, built in a different insertion order internally.
        let mut t2 = XmlTree::new("r");
        t2.add_element(t2.root(), "a");
        t2.add_element(t2.root(), "b");
        assert!(t1.equals(&t2));
        assert_eq!(t1.first_difference(&t2), None);

        let mut t3 = XmlTree::new("r");
        t3.add_element(t3.root(), "b");
        t3.add_element(t3.root(), "a");
        assert!(!t1.equals(&t3));
        assert!(t1.first_difference(&t3).unwrap().contains("tag"));
    }

    #[test]
    fn equality_across_different_symbol_tables() {
        // Same document, but tags interned in different orders, so the raw
        // TagIds differ — equality must compare names, not ids.
        let mut t1 = XmlTree::new("r");
        t1.add_element(t1.root(), "a");
        t1.add_element(t1.root(), "b");
        let mut t2 = XmlTree::new("r");
        t2.intern_tag("zzz");
        t2.intern_tag("b");
        t2.add_element(t2.root(), "a");
        t2.add_element(t2.root(), "b");
        assert!(t1.equals(&t2));
    }

    #[test]
    fn equality_compares_text_values() {
        let mut t1 = XmlTree::new("r");
        t1.add_text(t1.root(), "x");
        let mut t2 = XmlTree::new("r");
        t2.add_text(t2.root(), "y");
        assert!(!t1.equals(&t2));
        assert!(t1.first_difference(&t2).unwrap().contains("text"));
        let mut t3 = XmlTree::new("r");
        t3.add_text(t3.root(), "x");
        assert!(t1.equals(&t3));
    }

    #[test]
    fn equality_detects_arity_and_kind_mismatch() {
        let mut t1 = XmlTree::new("r");
        t1.add_element(t1.root(), "a");
        let t2 = XmlTree::new("r");
        assert!(!t1.equals(&t2));
        assert!(t1.first_difference(&t2).unwrap().contains("arity"));

        let mut t3 = XmlTree::new("r");
        t3.add_text(t3.root(), "a");
        assert!(!t1.equals(&t3));
    }

    #[test]
    fn reorder_children_permutes() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        let b = t.add_element(t.root(), "b");
        t.reorder_children(t.root(), &[b, a]);
        assert_eq!(t.children(t.root()), &[b, a]);
        // Appends after a reorder land after the new last child.
        let c = t.add_element(t.root(), "c");
        assert_eq!(t.children(t.root()), &[b, a, c]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn reorder_rejects_non_permutation() {
        let mut t = XmlTree::new("r");
        let a = t.add_element(t.root(), "a");
        t.add_element(t.root(), "b");
        t.reorder_children(t.root(), &[a, a]);
    }

    #[test]
    fn label_path_and_histogram() {
        let (t, class, cno) = school();
        assert_eq!(t.label_path(cno), vec!["db", "class", "cno"]);
        assert_eq!(t.label_path(class), vec!["db", "class"]);
        let h = t.tag_histogram();
        assert_eq!(h.get("class"), Some(&1));
        assert_eq!(h.get("cno"), Some(&1));
        assert_eq!(h.get("#text"), None);
    }

    #[test]
    fn iter_visits_arena_order() {
        let (t, _, _) = school();
        let kinds: Vec<_> = t.iter().map(|(_, k)| k).collect();
        assert_eq!(
            kinds,
            vec![
                NodeKind::Element("db"),
                NodeKind::Element("class"),
                NodeKind::Element("cno"),
                NodeKind::Text("CS331"),
            ]
        );
    }

    #[test]
    fn reset_to_root_keeps_root_and_tags_only() {
        let (mut t, class, _) = school();
        let _ = t.children(class); // build the CSR before the reset
        let class_tag = t.tag_id("class").unwrap();
        t.reset_to_root();
        assert_eq!(t.len(), 1);
        assert_eq!(t.tag(t.root()), Some("db"));
        assert_eq!(t.text_bytes(), 0);
        assert!(t.children(t.root()).is_empty());
        assert_eq!(t.child_count(t.root()), 0);
        // Interned tags survive, with the same ids.
        assert_eq!(t.tag_id("class"), Some(class_tag));
        assert!(t.tag_id("cno").is_some());
        // Rebuilt from the root, the tree equals a fresh one.
        let a = t.add_element_tag(t.root(), class_tag);
        let b = t.add_element(t.root(), "title");
        t.add_text(b, "x");
        assert_eq!(t.children(t.root()), &[a, b]);
        assert!(t.children(a).is_empty());
        let mut fresh = XmlTree::new("db");
        fresh.add_element(fresh.root(), "class");
        let fb = fresh.add_element(fresh.root(), "title");
        fresh.add_text(fb, "x");
        assert!(t.equals(&fresh));
    }

    #[test]
    fn text_bytes_counts_payload() {
        let (t, _, _) = school();
        assert_eq!(t.text_bytes(), "CS331".len());
    }

    #[test]
    fn deep_tree_equality_does_not_overflow() {
        let mut t1 = XmlTree::new("r");
        let mut t2 = XmlTree::new("r");
        let (mut c1, mut c2) = (t1.root(), t2.root());
        for _ in 0..200_000 {
            c1 = t1.add_element(c1, "d");
            c2 = t2.add_element(c2, "d");
        }
        assert!(t1.equals(&t2));
        assert!(t1.first_difference(&t2).is_none());
    }
}
