//! Edge pairs and in-flight edge sets (Definition 7).

use xmlgraph::{sort_distinct, NodeId, NULL_NODE};

/// One element of an extent: the incoming edge `<parent, node>` of a node
/// reachable by some label path. The root's pair is `<NULL, root>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgePair {
    /// Starting node of the edge (`NULL_NODE` for the root pair).
    pub parent: NodeId,
    /// Ending node of the edge.
    pub node: NodeId,
}

impl EdgePair {
    /// Convenience constructor.
    #[inline]
    pub fn new(parent: NodeId, node: NodeId) -> Self {
        EdgePair { parent, node }
    }

    /// The `<NULL, root>` pair.
    #[inline]
    pub fn root(root: NodeId) -> Self {
        EdgePair {
            parent: NULL_NODE,
            node: root,
        }
    }
}

/// A sorted, duplicate-free vector of [`EdgePair`]s: what query
/// execution passes between operators, and the decoded, mutable form an
/// index build or update works on before sealing it.
///
/// This is the *in-flight* role only. A stored extent is a
/// [`crate::succinct::SuccinctExtent`]; an `EdgeSet` is decoded from
/// one (or produced by a kernel), lives for a query or a refresh, and
/// is never what an index keeps. All operations preserve sortedness (by
/// `(parent, node)`) so unions and semijoins are linear merges, per the
/// allocation-conscious style of the Rust Performance Book (buffers are
/// reusable via the `*_into` variants).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeSet {
    pairs: Vec<EdgePair>,
}

impl EdgeSet {
    /// Empty set.
    pub fn new() -> Self {
        EdgeSet::default()
    }

    /// Builds from arbitrary pairs (sorts and dedups).
    pub fn from_pairs(mut pairs: Vec<EdgePair>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        EdgeSet { pairs }
    }

    /// Builds from pairs already sorted by `(parent, node)` and
    /// duplicate-free — the output contract of the semijoin kernels.
    pub fn from_sorted(pairs: Vec<EdgePair>) -> Self {
        debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]));
        EdgeSet { pairs }
    }

    /// Builds from `(parent, node)` raw u32 pairs — test convenience.
    pub fn from_raw(pairs: &[(u32, u32)]) -> Self {
        Self::from_pairs(
            pairs
                .iter()
                .map(|&(p, n)| EdgePair::new(NodeId(p), NodeId(n)))
                .collect(),
        )
    }

    /// Number of pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pairs, sorted by `(parent, node)`.
    #[inline]
    pub fn pairs(&self) -> &[EdgePair] {
        &self.pairs
    }

    /// Membership test (binary search).
    pub fn contains(&self, pair: EdgePair) -> bool {
        self.pairs.binary_search(&pair).is_ok()
    }

    /// Inserts one pair, keeping order. O(n) worst case; used only on the
    /// incremental-update path where deltas are small.
    pub fn insert(&mut self, pair: EdgePair) -> bool {
        match self.pairs.binary_search(&pair) {
            Ok(_) => false,
            Err(i) => {
                self.pairs.insert(i, pair);
                true
            }
        }
    }

    /// `self ∪ other` as a new set (linear merge).
    pub fn union(&self, other: &EdgeSet) -> EdgeSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        merge_union(&self.pairs, &other.pairs, &mut out);
        EdgeSet::from_sorted(out)
    }

    /// Extends `self` with `other` in place (merge through a scratch
    /// buffer provided by the caller to avoid repeated allocation).
    pub fn union_in_place(&mut self, other: &EdgeSet, scratch: &mut Vec<EdgePair>) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.pairs.extend_from_slice(&other.pairs);
            return;
        }
        scratch.clear();
        scratch.reserve(self.len() + other.len());
        merge_union(&self.pairs, &other.pairs, scratch);
        std::mem::swap(&mut self.pairs, scratch);
    }

    /// `self \ other` as a new set.
    // apex-lint: allow(panic-reachability): i and j are bounds-checked by the loop and branch conditions before every index
    pub fn difference(&self, other: &EdgeSet) -> EdgeSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.pairs.len() {
            if j >= other.pairs.len() {
                out.extend_from_slice(&self.pairs[i..]);
                break;
            }
            match self.pairs[i].cmp(&other.pairs[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.pairs[i]);
                    i += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        EdgeSet::from_sorted(out)
    }

    /// True if every pair of `self` is in `other`.
    pub fn is_subset_of(&self, other: &EdgeSet) -> bool {
        self.pairs.iter().all(|p| other.contains(*p))
    }

    /// Distinct end nodes, sorted: a fresh vector, the driving side a
    /// semijoin over this set's successors takes.
    pub fn end_nodes(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.pairs.iter().map(|p| p.node).collect();
        sort_distinct(&mut v, &mut Vec::new());
        v
    }

    /// Merge semijoin over the materialized pairs: pairs of `self`
    /// whose `parent` is in the sorted, distinct `ends`, via a linear
    /// merge — optimal when `ends` is of the same order as the set.
    /// Returns matches and comparisons.
    ///
    /// With [`EdgeSet::probe_by_parents`] this is the one pair-slice
    /// semijoin in the workspace: the planner runs it on reduced
    /// in-memory stages, and the kernels bench and property tests use
    /// it as the full-decode reference for [`crate::kernels`].
    pub fn semijoin_ends(&self, ends: &[NodeId]) -> (EdgeSet, usize) {
        let mut ei = 0usize;
        let mut out = Vec::new();
        let mut work = 0usize;
        for p in &self.pairs {
            work += 1;
            ei += ends
                .get(ei..)
                .map_or(0, |rest| rest.iter().take_while(|&&e| e < p.parent).count());
            match ends.get(ei) {
                None => break,
                Some(&e) if e == p.parent => out.push(*p),
                Some(_) => {}
            }
        }
        (EdgeSet::from_sorted(out), work)
    }

    /// Indexed semijoin: pairs of `self` whose `parent` is in the
    /// sorted, distinct `ends`. Because pairs are sorted by
    /// `(parent, node)`, each end is
    /// located by a galloping search from the previous match (see
    /// [`crate::kernels`] for the block-aware variants over stored
    /// extents). Returns the matched pairs and the number of probes
    /// performed.
    pub fn probe_by_parents(&self, ends: &[NodeId]) -> (EdgeSet, usize) {
        let mut out = Vec::new();
        let mut probes = 0usize;
        let mut lo = 0usize;
        for &e in ends {
            if lo >= self.pairs.len() {
                break;
            }
            probes += 1;
            // Gallop to the start of the `parent == e` range.
            let mut step = 1usize;
            let mut hi = lo;
            while hi < self.pairs.len() && self.pairs[hi].parent < e {
                lo = hi + 1;
                hi += step;
                step *= 2;
            }
            let hi = hi.min(self.pairs.len());
            let start = lo + self.pairs[lo..hi].partition_point(|p| p.parent < e);
            let mut i = start;
            while i < self.pairs.len() && self.pairs[i].parent == e {
                out.push(self.pairs[i]);
                i += 1;
            }
            lo = i;
        }
        (EdgeSet::from_sorted(out), probes)
    }

    /// Iterates over pairs.
    pub fn iter(&self) -> impl Iterator<Item = EdgePair> + '_ {
        self.pairs.iter().copied()
    }
}

impl FromIterator<EdgePair> for EdgeSet {
    fn from_iter<T: IntoIterator<Item = EdgePair>>(iter: T) -> Self {
        EdgeSet::from_pairs(iter.into_iter().collect())
    }
}

fn merge_union(a: &[EdgePair], b: &[EdgePair], out: &mut Vec<EdgePair>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let s = EdgeSet::from_raw(&[(2, 3), (1, 2), (2, 3)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.pairs()[0], EdgePair::new(NodeId(1), NodeId(2)));
    }

    #[test]
    fn union_and_difference() {
        let a = EdgeSet::from_raw(&[(1, 2), (3, 4)]);
        let b = EdgeSet::from_raw(&[(3, 4), (5, 6)]);
        let u = a.union(&b);
        assert_eq!(u.len(), 3);
        let d = u.difference(&a);
        assert_eq!(d, EdgeSet::from_raw(&[(5, 6)]));
        assert!(a.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
    }

    #[test]
    fn union_in_place_reuses_scratch() {
        let mut a = EdgeSet::from_raw(&[(1, 2)]);
        let b = EdgeSet::from_raw(&[(0, 1), (2, 3)]);
        let mut scratch = Vec::new();
        a.union_in_place(&b, &mut scratch);
        assert_eq!(a, EdgeSet::from_raw(&[(0, 1), (1, 2), (2, 3)]));
    }

    #[test]
    fn insert_keeps_sorted() {
        let mut s = EdgeSet::new();
        assert!(s.insert(EdgePair::new(NodeId(5), NodeId(6))));
        assert!(s.insert(EdgePair::new(NodeId(1), NodeId(2))));
        assert!(!s.insert(EdgePair::new(NodeId(5), NodeId(6))));
        assert_eq!(s.pairs()[0].parent, NodeId(1));
    }

    #[test]
    fn semijoin_follows_paths() {
        // a: edges ending at nodes 2 and 4; next: edges from 2 and from 9.
        let a = EdgeSet::from_raw(&[(1, 2), (3, 4)]);
        let next = EdgeSet::from_raw(&[(2, 7), (2, 8), (9, 10), (4, 11)]);
        let (j, work) = next.semijoin_ends(&a.end_nodes());
        assert_eq!(j, EdgeSet::from_raw(&[(2, 7), (2, 8), (4, 11)]));
        // The merge stops once the ends run out (at <9,10>).
        assert_eq!(work, 4);
    }

    #[test]
    fn probe_by_parents_matches_scan_semijoin() {
        let a = EdgeSet::from_raw(&[(1, 2), (3, 4), (9, 9)]);
        let next = EdgeSet::from_raw(&[(2, 7), (2, 8), (9, 10), (4, 11), (5, 5)]);
        let ends = a.end_nodes();
        let (probed, probes) = next.probe_by_parents(&ends);
        let (scanned, _) = next.semijoin_ends(&ends);
        assert_eq!(probed, scanned);
        assert_eq!(probes, 3);
        // Empty ends and empty extent.
        assert!(next.probe_by_parents(&[]).0.is_empty());
        assert!(EdgeSet::new().probe_by_parents(&ends).0.is_empty());
    }

    #[test]
    fn root_pair_uses_null_parent() {
        let p = EdgePair::root(NodeId(0));
        assert!(p.parent.is_null());
        let s = EdgeSet::from_pairs(vec![p]);
        assert_eq!(s.end_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn end_nodes_dedup() {
        let s = EdgeSet::from_raw(&[(1, 5), (2, 5), (3, 6)]);
        assert_eq!(s.end_nodes(), vec![NodeId(5), NodeId(6)]);
    }
}
