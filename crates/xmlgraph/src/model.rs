//! The directed labeled edge graph `G_XML` (Definition 1 of the paper),
//! held as flat arrays that a builder's `finish` lays out once: all
//! out-edges back to back with an offset per node, and per node its tag,
//! tree parent and value id into one byte-ordered value dictionary.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::sync::Arc;

use crate::interner::Interner;

/// Node identifier (`nid`). Dense, assigned in document order.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(pub u32);

impl LabelId {
    /// Index form for dense per-label tables.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An outgoing edge `(label, to)` of a node.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Edge label.
    pub label: LabelId,
    /// Ending node.
    pub to: NodeId,
}

/// The value id of a node that carries no value.
pub(crate) const NO_VALUE: u32 = u32::MAX;

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
    /// Node `n`'s out-edges are `edges[offsets[n]..offsets[n + 1]]`.
    pub(crate) offsets: Vec<u32>,
    pub(crate) edges: Vec<Edge>,
    /// Per node: its value's id in `values`, or [`NO_VALUE`].
    pub(crate) value_ids: Vec<u32>,
    /// The distinct values, in byte order.
    pub(crate) values: Arc<Interner>,
    /// The tag of each node = the label of its incoming tree edge
    /// (`@attr` for attribute nodes; the root keeps its own tag).
    pub(crate) tags: Vec<LabelId>,
    /// Tree parent of each node (`NULL_NODE` for the root). Reference
    /// edges never appear here, so this always forms a spanning tree.
    pub(crate) tree_parent: Vec<NodeId>,
    /// `@`-labels that carry ID/IDREF references (Table 1's parenthesized
    /// label counts).
    pub(crate) idref_labels: Vec<LabelId>,
}

impl XmlGraph {
    /// The root node (always `NodeId(0)`).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.tags.len()
    }

    /// Number of edges `|E|` (including reference edges).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Outgoing edges of `n`: its tree children in document order, then
    /// its reference edges.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "NodeIds index `offsets`, which holds one entry per node plus one, and each offset pair bounds a run of `edges`"
    )]
    pub fn out_edges(&self, n: NodeId) -> &[Edge] {
        let i = n.idx();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The value of a leaf node, if any.
    #[inline]
    pub fn value(&self, n: NodeId) -> Option<&str> {
        self.value_id(n).map(|id| self.values.resolve(id))
    }

    /// The id of `n`'s value in [`XmlGraph::value_dictionary`], if any.
    #[inline]
    pub fn value_id(&self, n: NodeId) -> Option<u32> {
        self.value_ids
            .get(n.idx())
            .copied()
            .filter(|&id| id != NO_VALUE)
    }

    /// The distinct values, each once, numbered in byte order: value ids
    /// compare as their strings do, and [`Interner::get`] finds one by
    /// bisection.
    #[inline]
    pub fn value_dictionary(&self) -> &Arc<Interner> {
        &self.values
    }

    /// True if `n` has no outgoing edges.
    #[inline]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.out_edges(n).is_empty()
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

    /// The label table; its ids are the [`LabelId`]s.
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
        self.labels.resolve(l.0)
    }

    /// Looks up a label string.
    #[inline]
    pub fn label_id(&self, s: &str) -> Option<LabelId> {
        self.labels.get(s).map(LabelId)
    }

    /// Labels that carry ID/IDREF references.
    #[inline]
    pub fn idref_labels(&self) -> &[LabelId] {
        &self.idref_labels
    }

    /// Iterates over all node ids in document order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.tags.len() as u32).map(NodeId)
    }

    /// Iterates over all edges as `(from, label, to)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, LabelId, NodeId)> + '_ {
        self.nodes().flat_map(move |from| {
            self.out_edges(from)
                .iter()
                .map(move |e| (from, e.label, e.to))
        })
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

/// Groups the `(key, item)` pairs `list` yields by key, in the order
/// listed within each key: key `k`'s items are
/// `items[starts[k]..starts[k + 1]]`, with `keys + 1` starts. A stable
/// counting sort into exact-size arrays, which walks `list` once forwards
/// to count and once backwards to place; a pair whose key is not below
/// `keys` is dropped.
pub fn group_by_key<T, I>(keys: usize, list: impl Fn() -> I) -> (Vec<u32>, Vec<T>)
where
    T: Copy + Default,
    I: DoubleEndedIterator<Item = (usize, T)>,
{
    // `starts[k]` counts key k's items, is made the end of its run, and
    // is walked down to the run's start as the items are placed.
    let mut starts = vec![0u32; keys + 1];
    for (k, _) in list().filter(|&(k, _)| k < keys) {
        if let Some(count) = starts.get_mut(k) {
            *count += 1;
        }
    }
    let mut end = 0;
    for s in &mut starts {
        end += *s;
        *s = end;
    }
    let mut items = vec![T::default(); end as usize];
    for (k, item) in list().rev().filter(|&(k, _)| k < keys) {
        if let Some(s) = starts.get_mut(k) {
            *s -= 1;
            if let Some(slot) = items.get_mut(*s as usize) {
                *slot = item;
            }
        }
    }
    (starts, items)
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
