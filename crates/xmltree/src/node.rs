use std::fmt;
use std::sync::OnceLock;

use crate::symbol::{SymbolTable, TagId};

/// Identifier of a node within one [`XmlTree`].
///
/// Ids are dense indexes into the tree's arena. They are stable for the
/// lifetime of the tree — removing is not supported, so an id handed out once
/// stays valid — which makes them a faithful stand-in for the paper's
/// abstract node ids in `dom(T)`. Building the CSR spans never renumbers:
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

/// Niche index meaning "no node" in the parent field (the root's parent).
const NIL: u32 = u32::MAX;
/// Tag slot value marking a text node (real [`TagId`]s are dense from 0).
const TEXT: u32 = u32::MAX;

/// One flat arena record: 20 bytes, no heap ownership. Tags are interned
/// [`TagId`]s, text payloads are byte ranges into the tree's shared buffer,
/// and the child structure is the parent index plus a child count, from
/// which [`XmlTree::freeze`] builds the CSR spans.
#[derive(Clone, Copy, Debug)]
struct NodeRec {
    parent: u32,
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
/// `edges[spans[p] .. spans[p] + child_count(p)]`. Every node is appended
/// as its parent's last child, so within a span ascending [`NodeId`] is
/// document order. Built lazily on first read after a mutation (see
/// [`XmlTree::freeze`]).
#[derive(Clone, Debug)]
struct Csr {
    edges: Vec<NodeId>,
    spans: Vec<u32>,
}

/// An ordered, node-labeled XML tree with stable node ids, stored as a
/// struct-of-arrays arena.
///
/// The tree always has a root element (created by [`XmlTree::new`]). Nodes
/// are appended with [`XmlTree::add_element`] / [`XmlTree::add_text`] and are
/// never removed one by one, so every [`NodeId`] stays valid until
/// [`XmlTree::reset_to_root`] drops them all. An append records the parent
/// and bumps its child count; the first traversal after a batch of
/// mutations sorts the nodes into CSR spans by parent ([`XmlTree::freeze`]),
/// after which [`XmlTree::children`] is a contiguous slice.
#[derive(Clone, Debug)]
pub struct XmlTree {
    symbols: SymbolTable,
    nodes: Vec<NodeRec>,
    text: String,
    csr: OnceLock<Csr>,
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
        self.nodes[0].child_count = 0;
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

    /// Drop the CSR cache (called by every mutation).
    fn invalidate(&mut self) {
        if self.csr.get_mut().is_some() {
            self.csr = OnceLock::new();
        }
    }

    /// A counting sort of the nodes by parent: `spans` starts as the running
    /// sums of the child counts (each span's end), and one pass over the
    /// arena from the back moves each end down to its span's start while
    /// filling the span from its last slot, so every span lists its children
    /// in ascending id — document order.
    fn build_csr(&self) -> Csr {
        let mut end = 0;
        let mut spans: Vec<u32> = self
            .nodes
            .iter()
            .map(|r| {
                end += r.child_count;
                end
            })
            .collect();
        let mut edges = vec![NodeId(0); end as usize];
        for (i, r) in self.nodes.iter().enumerate().skip(1).rev() {
            let slot = &mut spans[r.parent as usize];
            *slot -= 1;
            edges[*slot as usize] = NodeId(i as u32);
        }
        Csr { edges, spans }
    }

    fn csr(&self) -> &Csr {
        self.csr.get_or_init(|| self.build_csr())
    }

    /// Build the CSR child spans now, so later reads pay nothing.
    /// Traversal accessors ([`XmlTree::children`] et al.) do this lazily on
    /// first use; calling `freeze` is never required for correctness —
    /// mutations after a freeze simply invalidate the spans and the next
    /// read rebuilds them. Node ids, document order and equality are
    /// invariant under freezing.
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
    /// copy, one arena push plus a child-count bump.
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
            child_count: 0,
            tag,
            text_start,
            text_len,
        });
        self.nodes[parent.index()].child_count += 1;
        id
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
    /// The first call after a mutation builds the CSR spans (O(|T|),
    /// amortized over the whole read phase); subsequent calls are two array
    /// lookups.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let csr = self.csr();
        let start = csr.spans[id.index()] as usize;
        &csr.edges[start..start + self.rec(id).child_count as usize]
    }

    /// Number of children of `id` (O(1), no CSR required).
    pub fn child_count(&self, id: NodeId) -> usize {
        self.rec(id).child_count as usize
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

    /// Preorder (document-order) traversal of the subtree rooted at `id`,
    /// over the CSR child spans (see [`Preorder`]).
    pub fn descendants_or_self(&self, id: NodeId) -> Preorder<'_> {
        Preorder {
            tree: self,
            origin: Some(id),
            pending: Vec::new(),
        }
    }

    /// Preorder traversal of the whole document.
    pub fn preorder(&self) -> Preorder<'_> {
        self.descendants_or_self(self.root())
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

    /// Iterate over `(id, kind)` pairs in arena (allocation) order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeKind<'_>)> {
        (0..self.nodes.len()).map(|i| {
            let id = NodeId(i as u32);
            (id, self.kind(id))
        })
    }
}

/// Document-order traversal handed out by [`XmlTree::preorder`]. Walks the
/// CSR child spans without recursion: it keeps, for each node on the path
/// from the origin down to the node last returned, the slice of that node's
/// children not yet visited, so each step is O(1) and depth is bounded by
/// memory, not by the call stack.
pub struct Preorder<'a> {
    tree: &'a XmlTree,
    /// The subtree's root, until it is returned.
    origin: Option<NodeId>,
    /// The unvisited children of each node on the current path.
    pending: Vec<std::slice::Iter<'a, NodeId>>,
}

impl<'a> Iterator for Preorder<'a> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = match self.origin.take() {
            Some(origin) => origin,
            None => loop {
                let siblings = self.pending.last_mut()?;
                match siblings.next() {
                    Some(&c) => break c,
                    None => {
                        self.pending.pop();
                    }
                }
            },
        };
        self.pending.push(self.tree.children(cur).iter());
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
    fn label_path_runs_from_the_root() {
        let (t, class, cno) = school();
        assert_eq!(t.label_path(cno), vec!["db", "class", "cno"]);
        assert_eq!(t.label_path(class), vec!["db", "class"]);
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

    /// The document `<r><a><c>x</c><d/></a><b><e>y</e></b></r>` built level
    /// by level, as `invert` builds its output: every node's children are
    /// appended before any grandchild, so arena order is breadth-first. The
    /// second tree is the same document built in preorder.
    fn level_order_and_preorder_twins() -> (XmlTree, XmlTree) {
        let mut bfs = XmlTree::new("r");
        let a = bfs.add_element(bfs.root(), "a");
        let b = bfs.add_element(bfs.root(), "b");
        let c = bfs.add_element(a, "c");
        bfs.add_element(a, "d");
        let e = bfs.add_element(b, "e");
        bfs.add_text(c, "x");
        bfs.add_text(e, "y");
        let mut pre = XmlTree::new("r");
        let a = pre.add_element(pre.root(), "a");
        let c = pre.add_element(a, "c");
        pre.add_text(c, "x");
        pre.add_element(a, "d");
        let b = pre.add_element(pre.root(), "b");
        let e = pre.add_element(b, "e");
        pre.add_text(e, "y");
        (bfs, pre)
    }

    /// What the traversals show of a tree, by kind rather than by id: the
    /// preorder with each node's children, the subtree of the root's first
    /// child, and both serializations.
    type Observations = (Vec<(String, Vec<String>)>, Vec<String>, String, String);

    fn observations(t: &XmlTree) -> Observations {
        let show = |n: NodeId| format!("{:?}", t.kind(n));
        let walk = t
            .preorder()
            .map(|n| (show(n), t.children(n).iter().map(|&c| show(c)).collect()))
            .collect();
        let first = t.children(t.root())[0];
        let subtree = t.descendants_or_self(first).map(show).collect();
        (walk, subtree, t.to_xml(), t.to_xml_pretty())
    }

    #[test]
    fn arena_order_is_not_document_order() {
        assert_eq!(std::mem::size_of::<NodeRec>(), 20);
        let (mut bfs, mut pre) = level_order_and_preorder_twins();
        let bfs_ids: Vec<_> = bfs.preorder().map(NodeId::index).collect();
        assert_eq!(bfs_ids, vec![0, 1, 3, 6, 4, 2, 5, 7], "arena order differs");
        let want = "<r><a><c>x</c><d/></a><b><e>y</e></b></r>";
        assert_eq!(bfs.to_xml(), want);
        assert_eq!(observations(&bfs), observations(&pre));
        assert!(bfs.equals(&pre) && pre.equals(&bfs));
        // A further append lands last in its parent's span in both trees.
        for t in [&mut bfs, &mut pre] {
            let a = t.children(t.root())[0];
            let f = t.add_element(a, "f");
            t.add_text(f, "z");
        }
        assert_eq!(
            bfs.to_xml(),
            "<r><a><c>x</c><d/><f>z</f></a><b><e>y</e></b></r>"
        );
        assert_eq!(observations(&bfs), observations(&pre));
        assert!(bfs.equals(&pre));
        assert_eq!(bfs.first_difference(&pre), None);
    }
}
