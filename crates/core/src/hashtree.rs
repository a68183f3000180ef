//! `H_APEX` — the hash tree half of APEX (§4, Figures 7–9).
//!
//! Label paths are stored in **reverse** order: the root hash node
//! (`HashHead`) is keyed by the *last* label of a path, its subnodes by
//! the second-to-last, and so on. Each entry carries the five fields of
//! Figure 7: `label` (the map key), `count`, `new`, `xnode` (a pointer
//! into `G_APEX`), and `next` (a pointer to a deeper hash node). Every
//! non-head hash node additionally has a `remainder` entry pointing to the
//! `G_APEX` node that holds `T^R(p)` for the node's suffix `p` — the
//! instances of `p` not covered by any longer required path.
//!
//! Invariant (§5.3): an entry never has both `next` and `xnode` non-NULL.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::collections::HashMap;

use xmlgraph::LabelId;

use crate::graph::XNodeId;

/// Identifier of a hash-tree node (arena index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HNodeId(pub u32);

impl HNodeId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One hash-table entry (Figure 7's `label/count/new/xnode/next`; the
/// label is the map key).
#[derive(Debug, Clone, Copy, Default)]
pub struct Entry {
    /// Workload frequency of the label path this entry represents, if
    /// it reached the threshold in the last window (0 otherwise).
    pub count: u32,
    /// True if the entry was created during the current extraction pass.
    pub new: bool,
    /// The `G_APEX` node for this path, if it is a maximal required suffix.
    pub xnode: Option<XNodeId>,
    /// Deeper hash node holding longer required paths with this suffix.
    pub next: Option<HNodeId>,
}

/// A node of the hash tree.
#[derive(Debug, Clone, Default)]
pub struct HNode {
    entries: HashMap<LabelId, Entry>,
    /// `remainder` entry: `G_APEX` node for instances of this node's
    /// suffix not covered by any longer required path. `None` = NULL
    /// (either never materialized or invalidated by pruning).
    pub remainder: Option<XNodeId>,
}

impl HNode {
    /// Iterates over `(label, entry)` pairs (arbitrary order).
    pub fn entries_iter(&self) -> impl Iterator<Item = (LabelId, Entry)> + '_ {
        self.entries.iter().map(|(&l, &e)| (l, e))
    }
}

/// Location of an entry, as returned by [`HashTree::locate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryRef {
    /// A labeled entry in the given hash node.
    Label(HNodeId, LabelId),
    /// The remainder entry of the given hash node.
    Remainder(HNodeId),
}

/// Result of a Figure 9 lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Located {
    /// Where the longest-required-suffix entry lives.
    pub entry: EntryRef,
    /// How many trailing labels of the input the suffix covers.
    pub matched_len: usize,
}

/// Nodes relevant to a *query* on a label path (as opposed to the single
/// class node Figure 9 yields for a full rooted path).
#[derive(Debug, Clone, Default)]
pub struct QueryNodes {
    /// `G_APEX` nodes whose extents may contain instances of the path.
    pub xnodes: Vec<XNodeId>,
    /// True if the union of those extents is exactly `T(path)` — i.e. the
    /// whole path is a required path, so no join filtering is needed.
    pub exact: bool,
    /// Hash probes performed (for cost accounting).
    pub hash_lookups: u64,
}

/// The hash tree.
#[derive(Debug, Clone)]
pub struct HashTree {
    nodes: Vec<HNode>,
    head: HNodeId,
}

impl Default for HashTree {
    fn default() -> Self {
        Self::new()
    }
}

impl HashTree {
    /// A tree with an empty `HashHead`.
    pub fn new() -> Self {
        HashTree {
            nodes: vec![HNode::default()],
            head: HNodeId(0),
        }
    }

    /// The root hash node.
    #[inline]
    pub fn head(&self) -> HNodeId {
        self.head
    }

    /// A child is always allocated after its parent and [`compact`]
    /// renumbers breadth-first, so every `next` link points at a higher
    /// id — `persist`'s decoder refuses an image where one does not.
    ///
    /// [`compact`]: HashTree::compact
    fn alloc(&mut self) -> HNodeId {
        let id = HNodeId(self.nodes.len() as u32);
        self.nodes.push(HNode::default());
        id
    }

    /// Immutable access to a hash node.
    #[expect(
        clippy::indexing_slicing,
        reason = "HNodeIds are minted by this arena and index it by construction"
    )]
    pub fn node(&self, h: HNodeId) -> &HNode {
        &self.nodes[h.idx()]
    }

    /// Total allocated hash nodes. Pruning orphans nodes until the next
    /// [`HashTree::compact`]; persistence stores the arena verbatim.
    pub fn allocated(&self) -> usize {
        self.nodes.len()
    }

    /// Creates a tree with `n` pre-allocated empty nodes (persistence
    /// load path; node 0 is the head).
    pub fn with_nodes(n: usize) -> Self {
        assert!(n >= 1, "hash tree needs at least the head node");
        HashTree {
            nodes: (0..n).map(|_| HNode::default()).collect(),
            head: HNodeId(0),
        }
    }

    /// Sets a node's remainder pointer directly (persistence load path).
    #[expect(
        clippy::indexing_slicing,
        reason = "load passes HNodeIds from its own loop over the arena it just allocated"
    )]
    pub fn set_remainder_raw(&mut self, h: HNodeId, remainder: Option<XNodeId>) {
        self.nodes[h.idx()].remainder = remainder;
    }

    /// Inserts an entry verbatim (persistence load path).
    #[expect(
        clippy::indexing_slicing,
        reason = "load passes HNodeIds from its own loop over the arena it just allocated"
    )]
    pub fn insert_entry_raw(&mut self, h: HNodeId, label: LabelId, entry: Entry) {
        self.nodes[h.idx()].entries.insert(label, entry);
    }

    /// Entry for `label` in `h`, if present.
    #[expect(
        clippy::indexing_slicing,
        reason = "HNodeIds are minted by this arena and index it by construction"
    )]
    pub fn entry(&self, h: HNodeId, label: LabelId) -> Option<&Entry> {
        self.nodes[h.idx()].entries.get(&label)
    }

    /// Ensures a head-level entry exists for `label` (length-1 paths are
    /// always required — Definition 6). Returns whether it was created.
    #[expect(
        clippy::indexing_slicing,
        reason = "`head` is minted in the constructor against the arena it indexes"
    )]
    pub fn ensure_head_entry(&mut self, label: LabelId) -> bool {
        let head = self.head;
        let fresh = !self.nodes[head.idx()].entries.contains_key(&label);
        self.nodes[head.idx()].entries.entry(label).or_default();
        fresh
    }

    /// Reads an entry through an [`EntryRef`].
    #[expect(
        clippy::indexing_slicing,
        reason = "HNodeIds are minted by this arena and index it by construction"
    )]
    pub fn xnode_of(&self, r: EntryRef) -> Option<XNodeId> {
        match r {
            EntryRef::Label(h, l) => self.entry(h, l).and_then(|e| e.xnode),
            EntryRef::Remainder(h) => self.nodes[h.idx()].remainder,
        }
    }

    /// Writes the `xnode` field through an [`EntryRef`] (the paper's
    /// `hash.append`).
    #[expect(
        clippy::indexing_slicing,
        reason = "EntryRefs are minted against entries of this arena and index it by construction"
    )]
    pub fn set_xnode(&mut self, r: EntryRef, x: XNodeId) {
        match r {
            EntryRef::Label(h, l) => {
                // EntryRefs are only minted against existing entries; a
                // missing slot is a stale handle and the write is dropped.
                debug_assert!(
                    self.nodes[h.idx()].entries.contains_key(&l),
                    "EntryRef must point at an existing entry"
                );
                if let Some(e) = self.nodes[h.idx()].entries.get_mut(&l) {
                    debug_assert!(e.next.is_none(), "entry cannot have both next and xnode");
                    e.xnode = Some(x);
                }
            }
            EntryRef::Remainder(h) => self.nodes[h.idx()].remainder = Some(x),
        }
    }

    /// Figure 9's `lookup`: finds the entry for the **longest required
    /// suffix** of `path` (labels in natural order; traversal is reverse).
    ///
    /// Returns `None` only if the last label of `path` has no head entry
    /// (a label the index has never seen). The `hash_lookups` out-param
    /// counts probes for cost accounting.
    #[expect(
        clippy::indexing_slicing,
        reason = "`i` runs over `0..n` with `n = path.len()`"
    )]
    pub fn locate(&self, path: &[LabelId], hash_lookups: &mut u64) -> Option<Located> {
        let mut hnode = self.head;
        let n = path.len();
        debug_assert!(n > 0, "lookup of an empty path");
        for i in (0..n).rev() {
            *hash_lookups += 1;
            match self.entry(hnode, path[i]) {
                None => {
                    if hnode == self.head {
                        // Unknown label: nothing in the index matches.
                        return None;
                    }
                    // H_APEX keeps `l_a.suffix` entries with l_a != path[i];
                    // the longest required suffix is the current hnode's
                    // suffix, whose class is the remainder entry.
                    return Some(Located {
                        entry: EntryRef::Remainder(hnode),
                        matched_len: n - 1 - i,
                    });
                }
                Some(e) => match e.next {
                    None => {
                        return Some(Located {
                            entry: EntryRef::Label(hnode, path[i]),
                            matched_len: n - i,
                        })
                    }
                    Some(next) => hnode = next,
                },
            }
        }
        // The whole path matched but longer required paths extend it; the
        // rooted path's own class is the remainder of the deepest node.
        Some(Located {
            entry: EntryRef::Remainder(hnode),
            matched_len: n,
        })
    }

    /// Collects every `xnode` in the subtree rooted at `h` (labeled
    /// entries recursively, plus remainders). The union of their extents
    /// is exactly `T(p)` for the suffix `p` that `h` represents.
    #[expect(
        clippy::indexing_slicing,
        reason = "HNodeIds are minted by this arena and index it by construction"
    )]
    pub fn subtree_xnodes(&self, h: HNodeId, out: &mut Vec<XNodeId>) {
        let mut stack = vec![h];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id.idx()];
            if let Some(x) = node.remainder {
                out.push(x);
            }
            for e in node.entries.values() {
                if let Some(x) = e.xnode {
                    out.push(x);
                }
                if let Some(next) = e.next {
                    stack.push(next);
                }
            }
        }
    }

    /// The `G_APEX` nodes a *query* on `path` must read (§6.1's "union of
    /// extents of nodes which can be located using H_APEX"), plus whether
    /// that union is exactly `T(path)`.
    #[expect(
        clippy::indexing_slicing,
        reason = "hnode walks entry.next links, which only ever point at live arena nodes"
    )]
    pub fn query_nodes(&self, path: &[LabelId]) -> QueryNodes {
        let mut q = QueryNodes::default();
        let mut hnode = self.head;
        let n = path.len();
        for i in (0..n).rev() {
            q.hash_lookups += 1;
            match self.entry(hnode, path[i]) {
                None => {
                    if hnode != self.head {
                        // Instances of `path` all fall in the remainder
                        // class of the matched suffix (see module docs).
                        if let Some(x) = self.nodes[hnode.idx()].remainder {
                            q.xnodes.push(x);
                        }
                    }
                    q.exact = false;
                    return q;
                }
                Some(e) => match e.next {
                    None => {
                        if let Some(x) = e.xnode {
                            q.xnodes.push(x);
                        }
                        q.exact = i == 0;
                        return q;
                    }
                    Some(next) => hnode = next,
                },
            }
        }
        // Whole path matched with extensions: T(path) is the union of the
        // entire subtree (extension classes + remainder).
        self.subtree_xnodes(hnode, &mut q.xnodes);
        q.exact = true;
        q
    }

    /// Resets all `count` fields to 0 and `new` flags to false
    /// (Figure 8 line 1).
    pub fn reset_counts(&mut self) {
        for n in &mut self.nodes {
            for e in n.entries.values_mut() {
                e.count = 0;
                e.new = false;
            }
        }
    }

    /// Makes `path` a required path with workload frequency `count`,
    /// creating the entry chain as needed (the insert half of
    /// `frequencyCount`, Figure 8). Newly created entries get
    /// `new = true`. Extraction counts the window *beside* the tree and
    /// calls this for frequent paths only, so no transient chain ever
    /// hangs under an entry whose class is still valid.
    #[expect(
        clippy::indexing_slicing,
        reason = "`head` and every `next` link are ids of this arena; `path` is non-empty (asserted), so `path[0]` and `path[1..]` exist"
    )]
    pub fn require(&mut self, path: &[LabelId], count: u32) {
        debug_assert!(!path.is_empty());
        let fresh = Entry {
            new: true,
            ..Entry::default()
        };
        let mut hnode = self.head;
        // Walk/create from the last label towards the first.
        for &label in path[1..].iter().rev() {
            let next = self.nodes[hnode.idx()]
                .entries
                .entry(label)
                .or_insert(fresh)
                .next;
            hnode = match next {
                Some(h) => h,
                None => {
                    let h = self.alloc();
                    if let Some(e) = self.nodes[hnode.idx()].entries.get_mut(&label) {
                        e.next = Some(h);
                    }
                    h
                }
            };
        }
        self.nodes[hnode.idx()]
            .entries
            .entry(path[0])
            .or_insert(fresh)
            .count = count;
    }

    /// `pruningHAPEX` (Figure 8): removes entries with `count <
    /// threshold`, collapses empty subnodes, and invalidates `xnode`
    /// fields whose classes changed (both §5.2 cases). Head entries are
    /// never removed (length-1 paths are always required); a cold head
    /// label loses its subtree because nothing below it can be frequent.
    pub fn prune(&mut self, threshold: f64) {
        let head = self.head;
        self.prune_node(head, threshold);
    }

    /// Returns true if `h` ended up empty (no labeled entries).
    #[expect(
        clippy::indexing_slicing,
        reason = "`h` is the head or a `next` link, both ids of this arena; `label` was just read from the node's own key set"
    )]
    fn prune_node(&mut self, h: HNodeId, threshold: f64) -> bool {
        let is_head = h == self.head;
        let mut labels: Vec<LabelId> = self.nodes[h.idx()].entries.keys().copied().collect();
        labels.sort_unstable(); // one order every run
        let mut saw_new_survivor = false;
        for label in labels {
            let e = self.nodes[h.idx()].entries[&label];
            if !is_head && (e.count as f64) < threshold {
                // Drop the whole subtree with the entry.
                self.nodes[h.idx()].entries.remove(&label);
                continue;
            }
            let emptied = e.next.is_some_and(|next| self.prune_node(next, threshold));
            if let Some(slot) = self.nodes[h.idx()].entries.get_mut(&label) {
                if emptied {
                    // No longer required path extends this one: the entry
                    // is a maximal suffix again and regains a direct
                    // class via updateAPEX.
                    slot.next = None;
                }
                // §5.2 case 1: was a maximal suffix, is not any more (both
                // next and xnode non-NULL) — invalidate xnode.
                if slot.next.is_some() && slot.xnode.is_some() {
                    slot.xnode = None;
                }
                if slot.new {
                    saw_new_survivor = true;
                }
            }
        }
        // §5.2 case 2: a new frequent path appeared in this hash node, so
        // the remainder class (everything *not* covered by the entries)
        // shrank — invalidate it.
        if saw_new_survivor && self.nodes[h.idx()].remainder.is_some() {
            self.nodes[h.idx()].remainder = None;
        }
        !is_head && self.nodes[h.idx()].entries.is_empty()
    }

    /// Rebuilds the arena as exactly the hash nodes reachable from the
    /// head, numbered breadth-first with each node's entries taken in
    /// label order, and rewrites every `xnode`/`remainder` through
    /// `xmap` (old `G_APEX` arena index → new id, as returned by
    /// [`crate::graph::GApex::compact`]). The numbering depends on the
    /// tree's shape alone, not on the history that produced it.
    #[expect(
        clippy::indexing_slicing,
        reason = "`head` and every `next` link index the old arena being drained, each exactly once"
    )]
    pub fn compact(&mut self, xmap: &[Option<XNodeId>]) {
        let remap = |x: Option<XNodeId>| x.and_then(|x| xmap.get(x.idx()).copied().flatten());
        let mut old = std::mem::take(&mut self.nodes);
        // Old ids in their new order; position = new id.
        let mut order = vec![self.head];
        let mut i = 0;
        while let Some(&h) = order.get(i) {
            let mut node = std::mem::take(&mut old[h.idx()]);
            node.remainder = remap(node.remainder);
            let mut entries: Vec<(&LabelId, &mut Entry)> = node.entries.iter_mut().collect();
            entries.sort_unstable_by_key(|(l, _)| **l);
            for (_, e) in entries {
                e.xnode = remap(e.xnode);
                if let Some(next) = e.next {
                    e.next = Some(HNodeId(order.len() as u32));
                    order.push(next);
                }
            }
            self.nodes.push(node);
            i += 1;
        }
        self.head = HNodeId(0);
    }

    /// Maximum chain depth (longest required path length). Lookups never
    /// inspect more than this many trailing labels, which lets
    /// `updateAPEX` carry bounded rolling paths on cyclic data.
    #[expect(
        clippy::indexing_slicing,
        reason = "`head` and every `next` link are ids of this arena"
    )]
    pub fn max_depth(&self) -> usize {
        let mut depth = 1usize;
        let mut stack = vec![(self.head, 1usize)];
        while let Some((id, d)) = stack.pop() {
            depth = depth.max(d);
            for e in self.nodes[id.idx()].entries.values() {
                if let Some(next) = e.next {
                    stack.push((next, d + 1));
                }
            }
        }
        depth
    }

    /// Number of labeled entries in the whole tree that are reachable
    /// from the head (diagnostics).
    #[expect(
        clippy::indexing_slicing,
        reason = "`head` and every `next` link are ids of this arena"
    )]
    pub fn entry_count(&self) -> usize {
        let mut count = 0usize;
        let mut stack = vec![self.head];
        while let Some(id) = stack.pop() {
            let node = &self.nodes[id.idx()];
            count += node.entries.len();
            for e in node.entries.values() {
                if let Some(next) = e.next {
                    stack.push(next);
                }
            }
        }
        count
    }

    /// Renders the set of required paths the tree currently encodes, as
    /// reversed-label chains (`label` vectors in natural path order).
    /// Used by tests to assert against the paper's worked examples.
    #[expect(
        clippy::indexing_slicing,
        reason = "`head` and every `next` link are ids of this arena"
    )]
    pub fn required_paths(&self) -> Vec<Vec<LabelId>> {
        let mut out = Vec::new();
        // DFS carrying the suffix built so far (natural order).
        let mut stack: Vec<(HNodeId, Vec<LabelId>)> = vec![(self.head, Vec::new())];
        while let Some((id, suffix)) = stack.pop() {
            let node = &self.nodes[id.idx()];
            for (&label, e) in &node.entries {
                let mut p = Vec::with_capacity(suffix.len() + 1);
                p.push(label);
                p.extend_from_slice(&suffix);
                if let Some(next) = e.next {
                    stack.push((next, p.clone()));
                }
                out.push(p);
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LabelId {
        LabelId(i)
    }

    #[test]
    fn require_builds_reverse_chains() {
        let mut t = HashTree::new();
        // Path A.D stored as head[D] -> subnode[A].
        let (a, d) = (l(0), l(3));
        t.require(&[a, d], 1);
        let head_d = t.entry(t.head(), d).expect("D at head");
        let sub = head_d.next.expect("subnode");
        assert_eq!(t.entry(sub, a).map(|e| (e.count, e.new)), Some((1, true)));
        t.require(&[a, d], 2);
        assert_eq!(t.entry(sub, a).map(|e| e.count), Some(2));
        assert_eq!(t.allocated(), 2, "an existing chain is reused");
        // D itself was not counted by these calls.
        assert_eq!(t.entry(t.head(), d).map(|e| e.count), Some(0));
    }

    #[test]
    fn locate_finds_longest_suffix() {
        let mut t = HashTree::new();
        let (a, b, d) = (l(0), l(1), l(3));
        for lab in [a, b, d] {
            t.ensure_head_entry(lab);
        }
        t.require(&[b, d], 1); // required: B.D
        let mut probes = 0;
        // lookup(A.B.D) -> entry for B.D (matched 2).
        let got = t.locate(&[a, b, d], &mut probes).expect("known label");
        assert_eq!(got.matched_len, 2);
        assert!(matches!(got.entry, EntryRef::Label(_, lab) if lab == b));
        // lookup(A.D): subnode of D has no A entry -> remainder of subnode.
        let got = t.locate(&[a, d], &mut probes).expect("known label");
        assert_eq!(got.matched_len, 1);
        assert!(matches!(got.entry, EntryRef::Remainder(_)));
        // lookup(D): exhausted while D has extensions -> remainder.
        let got = t.locate(&[d], &mut probes).expect("known label");
        assert_eq!(got.matched_len, 1);
        assert!(matches!(got.entry, EntryRef::Remainder(_)));
        // Unknown label.
        assert!(t.locate(&[l(99)], &mut probes).is_none());
    }

    #[test]
    fn set_and_get_xnode_via_ref() {
        let mut t = HashTree::new();
        let d = l(3);
        t.ensure_head_entry(d);
        let mut probes = 0;
        let got = t.locate(&[d], &mut probes).unwrap();
        assert_eq!(t.xnode_of(got.entry), None);
        t.set_xnode(got.entry, XNodeId(7));
        assert_eq!(t.xnode_of(got.entry), Some(XNodeId(7)));
    }

    #[test]
    fn query_nodes_exactness() {
        let mut t = HashTree::new();
        let (a, b, d) = (l(0), l(1), l(3));
        for lab in [a, b, d] {
            t.ensure_head_entry(lab);
        }
        t.require(&[b, d], 1);
        // Wire xnodes: head A -> x0; head B -> x1; subnode(D)[B] -> x2,
        // subnode(D).remainder -> x3.
        let mut probes = 0;
        let ra = t.locate(&[a], &mut probes).unwrap().entry;
        t.set_xnode(ra, XNodeId(0));
        let rbd = t.locate(&[b, d], &mut probes).unwrap().entry;
        t.set_xnode(rbd, XNodeId(2));
        let rd = t.locate(&[d], &mut probes).unwrap().entry; // remainder
        t.set_xnode(rd, XNodeId(3));

        // Query A: exact single node.
        let q = t.query_nodes(&[a]);
        assert!(q.exact);
        assert_eq!(q.xnodes, vec![XNodeId(0)]);
        // Query D: whole subtree (B.D class + remainder), exact.
        let mut q = t.query_nodes(&[d]);
        q.xnodes.sort();
        assert!(q.exact);
        assert_eq!(q.xnodes, vec![XNodeId(2), XNodeId(3)]);
        // Query B.D: exact, single class.
        let q = t.query_nodes(&[b, d]);
        assert!(q.exact);
        assert_eq!(q.xnodes, vec![XNodeId(2)]);
        // Query A.D: not required -> remainder class, inexact.
        let q = t.query_nodes(&[a, d]);
        assert!(!q.exact);
        assert_eq!(q.xnodes, vec![XNodeId(3)]);
        // Query A.B.D: suffix B.D matched but shorter than query -> inexact.
        let q = t.query_nodes(&[a, b, d]);
        assert!(!q.exact);
        assert_eq!(q.xnodes, vec![XNodeId(2)]);
    }

    #[test]
    fn prune_mirrors_figure7_example() {
        // Figure 7: required {A,B,C,D,B.D}; workload {A.D, C, A.D};
        // minSup 0.6 over 3 queries -> threshold 1.8.
        let mut t = HashTree::new();
        let (a, b, c, d) = (l(0), l(1), l(2), l(3));
        for lab in [a, b, c, d] {
            t.ensure_head_entry(lab);
        }
        // Make B.D required initially (with all its subpaths, as the
        // extraction pass does).
        for p in [[b].as_slice(), [d].as_slice(), [b, d].as_slice()] {
            t.require(p, 1);
        }
        t.prune(0.5); // threshold below 1: B.D survives with count 1
        let sub = t.entry(t.head(), d).unwrap().next.expect("B.D chain");
        assert!(t.entry(sub, b).is_some());
        // Give the old remainder a class node so invalidation is visible.
        let mut probes = 0;
        let rd = t.locate(&[a, d], &mut probes).unwrap().entry;
        t.set_xnode(rd, XNodeId(9)); // remainder.D -> &9

        // New workload {A.D, C, A.D}: A, D and A.D reach the threshold
        // (count 2), C (count 1) does not.
        t.reset_counts();
        for p in [[a].as_slice(), [d].as_slice(), [a, d].as_slice()] {
            t.require(p, 2);
        }
        t.prune(1.8);

        // B.D pruned; A.D survives; head entries A..D all remain.
        let head = t.head();
        for lab in [a, b, c, d] {
            assert!(t.entry(head, lab).is_some(), "head entry must survive");
        }
        let sub = t.entry(head, d).unwrap().next.expect("A.D chain");
        assert!(t.entry(sub, a).is_some());
        assert!(t.entry(sub, b).is_none(), "B.D must be pruned");
        // The remainder class of D changed (A.D is new) -> invalidated.
        assert_eq!(t.node(sub).remainder, None);
    }

    #[test]
    fn prune_collapses_empty_subnodes() {
        let mut t = HashTree::new();
        let (a, d) = (l(0), l(3));
        t.ensure_head_entry(a);
        t.ensure_head_entry(d);
        t.require(&[a, d], 1);
        t.reset_counts();
        // Nothing counted: A.D dies; subnode collapses; head D keeps.
        t.prune(1.0);
        assert!(t.entry(t.head(), d).unwrap().next.is_none());
    }

    #[test]
    fn compact_renumbers_in_label_order_and_remaps_xnodes() {
        let mut t = HashTree::new();
        let (a, b, d) = (l(0), l(1), l(3));
        // Allocate the D chain before the B chain, then orphan a node.
        t.require(&[a, d], 1);
        t.require(&[a, b, d], 1);
        t.require(&[d, b], 1);
        t.reset_counts();
        t.require(&[a, d], 1);
        t.require(&[d, b], 1);
        t.require(&[d], 1);
        t.require(&[b], 1);
        t.prune(1.0); // A.B.D dies, its hash node is orphaned
        assert_eq!(t.allocated(), 4);
        let sub_d = t.entry(t.head(), d).unwrap().next.unwrap();
        t.set_xnode(EntryRef::Label(sub_d, a), XNodeId(7));
        t.set_xnode(EntryRef::Remainder(sub_d), XNodeId(9));
        let mut xmap = vec![None; 10];
        xmap[7] = Some(XNodeId(1));
        // XNodeId(9) is not live: the pointer is dropped.
        t.compact(&xmap);
        assert_eq!(t.allocated(), 3);
        // B < D in label order, so B's subnode is numbered first.
        assert_eq!(t.entry(t.head(), b).unwrap().next, Some(HNodeId(1)));
        assert_eq!(t.entry(t.head(), d).unwrap().next, Some(HNodeId(2)));
        assert_eq!(t.entry(HNodeId(2), a).unwrap().xnode, Some(XNodeId(1)));
        assert_eq!(t.node(HNodeId(2)).remainder, None);
        assert_eq!(t.required_paths().len(), 4);
    }

    #[test]
    fn required_paths_lists_chains() {
        let mut t = HashTree::new();
        let (a, d) = (l(0), l(3));
        t.ensure_head_entry(a);
        t.ensure_head_entry(d);
        t.require(&[a, d], 1);
        let req = t.required_paths();
        assert!(req.contains(&vec![a]));
        assert!(req.contains(&vec![d]));
        assert!(req.contains(&vec![a, d]));
        assert_eq!(req.len(), 3);
    }
}
