//! `G_APEX` — the graph half of APEX (Definition 10).

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use apex_storage::{EdgeSet, SuccinctExtent};
use xmlgraph::LabelId;

/// Identifier of a `G_APEX` node (arena index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct XNodeId(pub u32);

impl XNodeId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An extent as [`GApex::seal`]'s interner keys it: found by its
/// content hash, equal only to the same bytes.
struct Interned(Arc<SuccinctExtent>);

impl Hash for Interned {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.content_hash().hash(state);
    }
}

impl PartialEq for Interned {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Interned {}

/// A node of `G_APEX`: an extent (the target edge set `T^R(p)` of its
/// incoming label path) plus labeled edges to other nodes.
///
/// By construction a node has at most one outgoing edge per label: the
/// target is determined by `H_APEX` lookup of the extended path.
#[derive(Debug, Clone)]
pub struct XNode {
    /// The extent: incoming data edges of the nodes this class
    /// represents, in its one stored form — the block image the kernels
    /// scan and `persist` writes. Immutable, so shared: a clone of the
    /// graph copies the pointer, and a build or update works on decoded
    /// copies (`GApex::open_extent`) and swaps in a new extent once
    /// when it is done (`GApex::seal`); every extent it did not change
    /// stays the one every earlier clone holds, and classes with one
    /// content hold one `Arc`.
    pub extent: Arc<SuccinctExtent>,
    /// Outgoing edges, at most one per label.
    pub edges: Vec<(LabelId, XNodeId)>,
    /// The last label of the node's incoming label path (`None` only for
    /// the root, whose special incoming label is `xroot`).
    pub incoming: Option<LabelId>,
}

impl Default for XNode {
    /// A node with no edges and the one shared empty extent: making one
    /// allocates nothing.
    fn default() -> XNode {
        static EMPTY: OnceLock<Arc<SuccinctExtent>> = OnceLock::new();
        XNode {
            extent: Arc::clone(EMPTY.get_or_init(Arc::default)),
            edges: Vec::new(),
            incoming: None,
        }
    }
}

/// Arena of [`XNode`]s. Nodes orphaned by an incremental update are
/// unreachable until [`GApex::compact`] drops them at the end of the
/// same `refine`; [`GApex::reachable`] lists the live ones.
#[derive(Debug, Clone, Default)]
pub struct GApex {
    nodes: Vec<XNode>,
}

impl GApex {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a node with the given incoming label and the (shared)
    /// empty extent.
    pub fn new_node(&mut self, incoming: Option<LabelId>) -> XNodeId {
        let id = XNodeId(self.nodes.len() as u32);
        self.nodes.push(XNode {
            incoming,
            ..XNode::default()
        });
        id
    }

    /// Total allocated nodes (including ones orphaned since the last
    /// [`GApex::compact`]).
    pub fn allocated(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable node access.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "XNodeIds are minted by this arena and index it by construction (persist::decode refuses any image holding an id at or past n_xnodes — xroot, edge target, H_APEX xnode or remainder); the accessor is the class-node hot path"
    )]
    pub fn node(&self, x: XNodeId) -> &XNode {
        &self.nodes[x.idx()]
    }

    /// Mutable node access.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "XNodeIds are minted by this arena and index it by construction (persist::decode refuses any image holding an id at or past n_xnodes)"
    )]
    pub fn node_mut(&mut self, x: XNodeId) -> &mut XNode {
        &mut self.nodes[x.idx()]
    }

    /// The extent of `x`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "XNodeIds are minted by this arena and index it by construction (persist::decode refuses any image holding an id at or past n_xnodes)"
    )]
    pub fn extent(&self, x: XNodeId) -> &SuccinctExtent {
        &self.nodes[x.idx()].extent
    }

    /// The decoded copy of `x`'s extent a build or update run adds to:
    /// decoded into `open` on first touch, the same set on every later
    /// one. A run only ever *adds* pairs to it. `open` belongs to the
    /// run, not to the graph, so a published graph never holds a decoded
    /// pair.
    pub(crate) fn open_extent<'a>(
        &self,
        open: &'a mut HashMap<XNodeId, EdgeSet>,
        x: XNodeId,
    ) -> &'a mut EdgeSet {
        open.entry(x)
            .or_insert_with(|| EdgeSet::from_sorted(self.extent(x).to_vec()))
    }

    /// Ends a run: encodes each extent the run added to back into its
    /// node, once, however many steps touched it. Opened sets only grow,
    /// so one that is no longer than the stored extent is unchanged;
    /// such nodes, like the ones never opened, keep their bytes. Seals
    /// in `XNodeId` order, so a run allocates the same way every time.
    ///
    /// Sealing hash-conses: a content some node already holds is shared,
    /// not held twice, so build and refine give one `Arc` per content,
    /// as `persist::decode` does. Contents are found by
    /// [`SuccinctExtent::content_hash`] and compared byte for byte, so
    /// two contents under one name stay two extents.
    pub(crate) fn seal(&mut self, open: HashMap<XNodeId, EdgeSet>) {
        let mut grown: Vec<(XNodeId, EdgeSet)> = open
            .into_iter()
            .filter(|(x, set)| set.len() > self.extent(*x).len())
            .collect();
        if grown.is_empty() {
            return;
        }
        grown.sort_unstable_by_key(|(x, _)| x.0);
        let mut held: HashSet<Interned> = self
            .nodes
            .iter()
            .map(|n| Interned(Arc::clone(&n.extent)))
            .collect();
        for (x, set) in grown {
            let sealed = Interned(Arc::new(SuccinctExtent::from_pairs(set.pairs())));
            let extent = match held.get(&sealed) {
                Some(same) => Arc::clone(&same.0),
                None => {
                    let extent = Arc::clone(&sealed.0);
                    held.insert(sealed);
                    extent
                }
            };
            self.node_mut(x).extent = extent;
        }
    }

    /// The child of `x` along `label`, if wired.
    #[expect(
        clippy::indexing_slicing,
        reason = "XNodeIds are minted by this arena and index it by construction"
    )]
    pub fn child(&self, x: XNodeId, label: LabelId) -> Option<XNodeId> {
        self.nodes[x.idx()]
            .edges
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, t)| *t)
    }

    /// The paper's `make_edge(x, y, l)`: creates an edge from `x` to `y`
    /// labeled `l`; if `x` already has an `l`-edge to a *different* node,
    /// it is retargeted to `y` (Figure 11's retargeting step). Returns
    /// true if anything changed.
    #[expect(
        clippy::indexing_slicing,
        reason = "XNodeIds are minted by this arena and index it by construction"
    )]
    pub fn make_edge(&mut self, x: XNodeId, y: XNodeId, label: LabelId) -> bool {
        let edges = &mut self.nodes[x.idx()].edges;
        if let Some(slot) = edges.iter_mut().find(|(l, _)| *l == label) {
            if slot.1 == y {
                return false;
            }
            slot.1 = y;
            true
        } else {
            edges.push((label, y));
            true
        }
    }

    /// Rebuilds the arena as exactly the nodes reachable from `root`,
    /// numbered breadth-first (`root` becomes node 0) with each node's
    /// out-edges sorted and followed in label order, so the numbering
    /// depends on the graph's shape alone, not on the update history.
    /// Returns the old-arena-index → new-id map (`None` = dropped) for
    /// rewriting the pointers `H_APEX` holds.
    #[expect(
        clippy::indexing_slicing,
        reason = "`root` and every edge target are ids of this arena, and `map` has one slot per arena node"
    )]
    pub fn compact(&mut self, root: XNodeId) -> Vec<Option<XNodeId>> {
        let mut map: Vec<Option<XNodeId>> = vec![None; self.nodes.len()];
        // Old ids in their new order; position = new id.
        let mut order = vec![root];
        map[root.idx()] = Some(XNodeId(0));
        let mut i = 0;
        while let Some(&x) = order.get(i) {
            let edges = &mut self.nodes[x.idx()].edges;
            edges.sort_unstable_by_key(|&(label, _)| label);
            for (_, t) in edges {
                let new = *map[t.idx()].get_or_insert_with(|| {
                    order.push(*t);
                    XNodeId(order.len() as u32 - 1)
                });
                *t = new;
            }
            i += 1;
        }
        let mut old = std::mem::take(&mut self.nodes);
        self.nodes = order
            .iter()
            .map(|x| std::mem::take(&mut old[x.idx()]))
            .collect();
        map
    }

    /// Ids of nodes reachable from `root`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`root` and every edge target are ids of this arena, and `seen` has one slot per arena node"
    )]
    pub fn reachable(&self, root: XNodeId) -> Vec<XNodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        let mut out = Vec::new();
        seen[root.idx()] = true;
        while let Some(x) = stack.pop() {
            out.push(x);
            for &(_, t) in &self.nodes[x.idx()].edges {
                if !seen[t.idx()] {
                    seen[t.idx()] = true;
                    stack.push(t);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_edge_adds_and_retargets() {
        let mut g = GApex::new();
        let a = g.new_node(None);
        let b = g.new_node(Some(LabelId(1)));
        let c = g.new_node(Some(LabelId(1)));
        assert!(g.make_edge(a, b, LabelId(1)));
        assert_eq!(g.child(a, LabelId(1)), Some(b));
        // Same edge again: no change.
        assert!(!g.make_edge(a, b, LabelId(1)));
        // Retarget to c.
        assert!(g.make_edge(a, c, LabelId(1)));
        assert_eq!(g.child(a, LabelId(1)), Some(c));
        assert_eq!(g.node(a).edges.len(), 1);
    }

    #[test]
    fn reachable_ignores_orphans() {
        let mut g = GApex::new();
        let root = g.new_node(None);
        let a = g.new_node(Some(LabelId(0)));
        let _orphan = g.new_node(Some(LabelId(9)));
        g.make_edge(root, a, LabelId(0));
        g.make_edge(a, a, LabelId(0)); // self-loop
        assert_eq!(g.reachable(root), vec![root, a]);
        assert_eq!(g.allocated(), 3);
        let edges: usize = g
            .reachable(root)
            .iter()
            .map(|&x| g.node(x).edges.len())
            .sum();
        assert_eq!(edges, 2);
    }

    #[test]
    fn compact_drops_orphans_and_renumbers_in_label_order() {
        let mut g = GApex::new();
        let _orphan = g.new_node(Some(LabelId(9)));
        let root = g.new_node(None);
        let b = g.new_node(Some(LabelId(2)));
        let a = g.new_node(Some(LabelId(1)));
        g.node_mut(a).extent =
            Arc::new(SuccinctExtent::from_pairs(&[apex_storage::EdgePair::new(
                xmlgraph::NodeId(3),
                xmlgraph::NodeId(4),
            )]));
        g.make_edge(root, b, LabelId(2));
        g.make_edge(root, a, LabelId(1));
        g.make_edge(b, a, LabelId(1));
        g.make_edge(a, a, LabelId(1)); // self-loop
        let map = g.compact(root);
        assert_eq!(
            map,
            vec![None, Some(XNodeId(0)), Some(XNodeId(2)), Some(XNodeId(1))]
        );
        assert_eq!(g.allocated(), 3);
        assert_eq!(g.reachable(XNodeId(0)).len(), 3);
        // Edges sorted by label and retargeted; extents travel with nodes.
        assert_eq!(
            g.node(XNodeId(0)).edges,
            vec![(LabelId(1), XNodeId(1)), (LabelId(2), XNodeId(2))]
        );
        assert_eq!(g.node(XNodeId(2)).edges, vec![(LabelId(1), XNodeId(1))]);
        assert_eq!(g.node(XNodeId(1)).edges, vec![(LabelId(1), XNodeId(1))]);
        assert_eq!(g.extent(XNodeId(1)).len(), 1);
        // Compacting a compact arena is the identity.
        let again = g.compact(XNodeId(0));
        assert_eq!(again, (0..3).map(|i| Some(XNodeId(i))).collect::<Vec<_>>());
    }
}
