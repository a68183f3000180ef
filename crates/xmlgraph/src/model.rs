//! The directed labeled edge graph `G_XML` (Definition 1 of the paper).

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use crate::interner::Interner;

/// Node identifier (`nid`). Dense, assigned in document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// The `NULL` nid used as the parent of the root in extents
/// (the paper's `<NULL, root>` edge).
pub const NULL_NODE: NodeId = NodeId(u32::MAX);

impl NodeId {
    /// Index form for dense per-node tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }

    /// True if this is the `NULL` sentinel.
    #[inline]
    pub fn is_null(self) -> bool {
        self == NULL_NODE
    }
}

/// Interned edge-label identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(pub u32);

impl LabelId {
    /// Index form for dense per-label tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An outgoing edge `(label, to)` of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Edge label.
    pub label: LabelId,
    /// Ending node.
    pub to: NodeId,
}

/// The structure of XML data: `G_XML = (V, E, root, A)`.
///
/// * Inner nodes are elements and `@attribute` nodes; leaf nodes carry a
///   string value (`V_a`).
/// * Reference relationships (ID/IDREF) appear as an edge from an element
///   to its `@attr` node plus an edge from the `@attr` node to the target
///   element, labeled with the target element's tag — exactly the encoding
///   of Figure 1 of the paper.
/// * Every node records its document order; query results are sorted by it.
#[derive(Debug, Clone)]
pub struct XmlGraph {
    pub(crate) labels: Interner,
    pub(crate) out: Vec<Vec<Edge>>,
    pub(crate) values: Vec<Option<Box<str>>>,
    /// The tag of each node = the label of its incoming tree edge
    /// (`@attr` for attribute nodes; the root keeps its own tag).
    pub(crate) tags: Vec<LabelId>,
    /// Tree parent of each node (`NULL_NODE` for the root). Reference
    /// edges never appear here, so this always forms a spanning tree.
    pub(crate) tree_parent: Vec<NodeId>,
    pub(crate) root: NodeId,
    /// `@`-labels that carry ID/IDREF references (Table 1's parenthesized
    /// label counts).
    pub(crate) idref_labels: Vec<LabelId>,
    pub(crate) edge_count: usize,
}

impl XmlGraph {
    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of edges `|E|` (including reference edges).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Outgoing edges of `n` in document order of their targets.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "NodeIds are indices into `out`, which is built with one slot per node"
    )]
    pub fn out_edges(&self, n: NodeId) -> &[Edge] {
        &self.out[n.idx()]
    }

    /// The value of a leaf node, if any.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "NodeIds are indices into `values`, which is built with one slot per node"
    )]
    pub fn value(&self, n: NodeId) -> Option<&str> {
        self.values[n.idx()].as_deref()
    }

    /// True if `n` has no outgoing edges.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "NodeIds are indices into `out`, which is built with one slot per node"
    )]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.out[n.idx()].is_empty()
    }

    /// The tag of `n` (label of its incoming tree edge).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "NodeIds are indices into `tags`, which is built with one slot per node"
    )]
    pub fn tag(&self, n: NodeId) -> LabelId {
        self.tags[n.idx()]
    }

    /// Tree parent of `n` (`NULL_NODE` for the root).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "NodeIds are indices into `tree_parent`, which is built with one slot per node"
    )]
    pub fn tree_parent(&self, n: NodeId) -> NodeId {
        self.tree_parent[n.idx()]
    }

    /// Document order of `n`. Nids are assigned in document order, so the
    /// nid itself serves as the document-order key.
    #[inline]
    pub fn doc_order(&self, n: NodeId) -> u32 {
        n.0
    }

    /// The label interner.
    #[inline]
    pub fn labels(&self) -> &Interner {
        &self.labels
    }

    /// Number of distinct labels `|A|`.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Resolves a label id to its string.
    #[inline]
    pub fn label_str(&self, l: LabelId) -> &str {
        self.labels.resolve(l)
    }

    /// Looks up a label string.
    #[inline]
    pub fn label_id(&self, s: &str) -> Option<LabelId> {
        self.labels.get(s)
    }

    /// Labels that carry ID/IDREF references.
    #[inline]
    pub fn idref_labels(&self) -> &[LabelId] {
        &self.idref_labels
    }

    /// Iterates over all node ids in document order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.out.len() as u32).map(NodeId)
    }

    /// Iterates over all edges as `(from, label, to)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, LabelId, NodeId)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(from, es)| es.iter().map(move |e| (NodeId(from as u32), e.label, e.to)))
    }

    /// Sorts node ids by document order and removes duplicates — the
    /// post-processing step the paper applies to every query result.
    /// Nids are document order, so this is [`sort_distinct`].
    pub fn sort_doc_order(&self, nodes: &mut Vec<NodeId>) {
        sort_distinct(nodes, &mut Vec::new());
    }

    /// Renders the label path of `path` as a dot-separated string
    /// (Definition 2 notation, e.g. `movie.title`).
    pub fn render_path(&self, path: &[LabelId]) -> String {
        let mut s = String::new();
        for (i, l) in path.iter().enumerate() {
            if i > 0 {
                s.push('.');
            }
            s.push_str(self.label_str(*l));
        }
        s
    }
}

/// Sorts `nodes` ascending and removes duplicates, in place — the one
/// sorted-distinct routine behind every node set a query builds.
///
/// Ids that already strictly increase are left as they are. Otherwise
/// one pass finds the smallest and largest id. If their span is dense,
/// `(max − min + 1) / 64 ≤ len`, each id sets its bit in
/// `words` (caller scratch, cleared and reused) and the set bits are
/// read back in order over the input's own slots: linear in the input
/// plus the span's words, which is at most `len`. Otherwise the ids are
/// sparse and `sort_unstable` + `dedup` runs. The choice depends only
/// on the input; every path gives the same result.
pub fn sort_distinct(nodes: &mut Vec<NodeId>, words: &mut Vec<u64>) {
    // Stops at the first descent, so an unsorted input pays little.
    if nodes.iter().zip(nodes.iter().skip(1)).all(|(a, b)| a < b) {
        return;
    }
    let (lo, hi) = nodes
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), n| (lo.min(n.0), hi.max(n.0)));
    let span = u64::from(hi - lo) + 1;
    if span / 64 > nodes.len() as u64 {
        nodes.sort_unstable();
        nodes.dedup();
        return;
    }
    words.clear();
    words.resize(span.div_ceil(64) as usize, 0);
    for n in nodes.iter() {
        let off = (n.0 - lo) as usize;
        if let Some(w) = words.get_mut(off / 64) {
            *w |= 1 << (off % 64);
        }
    }
    // At most `len` bits are set, so the read-back never outgrows the
    // slots it overwrites.
    let mut len = 0;
    for (i, &w) in words.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            if let Some(slot) = nodes.get_mut(len) {
                *slot = NodeId(lo + i as u32 * 64 + bits.trailing_zeros());
            }
            len += 1;
            bits &= bits - 1;
        }
    }
    nodes.truncate(len);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn tiny() -> XmlGraph {
        // <a><b>v</b><b/><c><b>w</b></c></a>
        let mut b = GraphBuilder::new("a");
        let root = b.root();
        let _b1 = b.add_value_child(root, "b", "v");
        let _b2 = b.add_child(root, "b");
        let c = b.add_child(root, "c");
        b.add_value_child(c, "b", "w");
        b.finish().unwrap()
    }

    #[test]
    fn counts_and_access() {
        let g = tiny();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.label_count(), 3);
        assert_eq!(g.out_edges(g.root()).len(), 3);
        assert!(g.is_leaf(NodeId(1)));
        assert_eq!(g.value(NodeId(1)), Some("v"));
        assert_eq!(g.value(NodeId(2)), None);
    }

    #[test]
    fn tags_and_parents() {
        let g = tiny();
        let b = g.label_id("b").unwrap();
        let c = g.label_id("c").unwrap();
        assert_eq!(g.tag(NodeId(1)), b);
        assert_eq!(g.tag(NodeId(3)), c);
        assert_eq!(g.tree_parent(NodeId(4)), NodeId(3));
        assert!(g.tree_parent(g.root()).is_null());
    }

    #[test]
    fn sort_doc_order_dedups() {
        let g = tiny();
        let mut v = vec![NodeId(4), NodeId(1), NodeId(4), NodeId(0)];
        g.sort_doc_order(&mut v);
        assert_eq!(v, vec![NodeId(0), NodeId(1), NodeId(4)]);
    }

    #[test]
    fn sort_distinct_takes_either_path_to_the_same_answer() {
        let mut words = Vec::new();
        // Dense: 6 ids over a 131-id span (131 / 64 = 2 <= 6).
        let mut dense: Vec<NodeId> = [140, 10, 75, 10, 11, 140].map(NodeId).to_vec();
        sort_distinct(&mut dense, &mut words);
        assert_eq!(dense, [10, 11, 75, 140].map(NodeId).to_vec());
        assert_eq!(words.len(), 3, "the bitmap path ran");
        // Sparse: 3 ids over the whole u32 range.
        words.clear();
        let mut sparse: Vec<NodeId> = [u32::MAX, 0, u32::MAX].map(NodeId).to_vec();
        sort_distinct(&mut sparse, &mut words);
        assert_eq!(sparse, vec![NodeId(0), NodeId(u32::MAX)]);
        assert!(words.is_empty(), "the sort path ran");
    }

    #[test]
    fn render_path_dot_notation() {
        let g = tiny();
        let a = g.label_id("a").unwrap();
        let b = g.label_id("b").unwrap();
        assert_eq!(g.render_path(&[a, b]), "a.b");
        assert_eq!(g.render_path(&[]), "");
    }

    #[test]
    fn edges_iterator_matches_edge_count() {
        let g = tiny();
        assert_eq!(g.edges().count(), g.edge_count());
    }
}
