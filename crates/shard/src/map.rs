//! The partitioner: a stable hash of label paths → shard ids.
//!
//! A [`ShardMap`] assigns every node of an [`XmlGraph`] to exactly one
//! shard by hashing the node's *rooted tree label path* — the sequence
//! of label **strings** from the root down to the node. Hashing strings
//! (not interned `LabelId`s) makes the assignment independent of
//! interner order, so a router and its shards agree as long as they
//! hold equal `ShardMap`s (same shard count and seed). Every router
//! and shard runs in one process and is handed the same value, so the
//! map is never written down.
//!
//! Partitioning by label path follows the path-partitioning literature
//! (see PAPERS.md): nodes reached by the same downward label sequence
//! cluster on one shard, so a shard's workload monitor sees coherent
//! per-path traffic and its APEX index adapts to *its* slice. Because
//! the assignment is a total function of the tree position, the owned
//! sets of an `n`-shard map tile the node space exactly — the
//! disjointness the scatter-gather merge relies on.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use xmlgraph::XmlGraph;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Label-path hash partitioner; cheap to copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: u16,
    seed: u64,
}

/// Extends a running path hash by one label: FNV-1a over the label's
/// bytes, then a `/` separator byte so `["ab","c"]` and `["a","bc"]`
/// hash apart.
fn step(h: u64, label: &str) -> u64 {
    let mut h = h;
    for &b in label.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    (h ^ u64::from(b'/')).wrapping_mul(FNV_PRIME)
}

impl ShardMap {
    /// A map over `shards` shards (clamped to ≥ 1) with the default
    /// seed.
    pub fn new(shards: u16) -> ShardMap {
        ShardMap::with_seed(shards, FNV_OFFSET)
    }

    /// A map with an explicit seed — two maps agree iff shard count
    /// and seed agree.
    pub fn with_seed(shards: u16, seed: u64) -> ShardMap {
        ShardMap {
            shards: shards.max(1),
            seed,
        }
    }

    /// Number of shards this map partitions into.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// The stable hash of a label path (over label strings, so it is
    /// independent of any graph's interner).
    pub fn hash_path<'a>(&self, labels: impl IntoIterator<Item = &'a str>) -> u64 {
        let mut h = self.seed;
        for l in labels {
            h = step(h, l);
        }
        h
    }

    /// Shard owning an already-computed path hash.
    pub fn shard_of_hash(&self, h: u64) -> u16 {
        (h % u64::from(self.shards)) as u16
    }

    /// Shard owning a label path. Total: every path maps to exactly one
    /// shard, including the empty path.
    pub fn shard_of_path<'a>(&self, labels: impl IntoIterator<Item = &'a str>) -> u16 {
        self.shard_of_hash(self.hash_path(labels))
    }

    /// Owner shard of every node of `g`, indexed by node id. Each
    /// node's path hash extends its tree parent's; hashes are memoized
    /// by climbing to the nearest already-hashed ancestor and unwinding
    /// (node ids are *not* assumed to be topologically ordered), so the
    /// whole pass is O(nodes).
    pub fn owners(&self, g: &XmlGraph) -> Vec<u16> {
        let n = g.node_count();
        let mut hash: Vec<Option<u64>> = vec![None; n];
        let mut chain: Vec<xmlgraph::NodeId> = Vec::new();
        for nid in g.nodes() {
            if hash.get(nid.0 as usize).is_some_and(Option::is_some) {
                continue;
            }
            chain.clear();
            let mut cur = nid;
            let mut base = self.seed;
            while !cur.is_null() {
                if let Some(&Some(h)) = hash.get(cur.0 as usize) {
                    base = h;
                    break;
                }
                chain.push(cur);
                cur = g.tree_parent(cur);
            }
            while let Some(node) = chain.pop() {
                base = step(base, g.label_str(g.tag(node)));
                if let Some(slot) = hash.get_mut(node.0 as usize) {
                    *slot = Some(base);
                }
            }
        }
        hash.iter()
            .map(|h| self.shard_of_hash(h.unwrap_or(self.seed)))
            .collect()
    }

    /// The sorted node ids shard `shard` owns in `g`.
    pub fn owned_nodes(&self, g: &XmlGraph, shard: u16) -> Vec<u32> {
        self.owners(g)
            .iter()
            .enumerate()
            .filter(|&(_, &o)| o == shard)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::builder::moviedb;

    #[test]
    fn partitioner_is_total_and_tiles_the_node_space() {
        let g = moviedb();
        for shards in [1u16, 2, 3, 5] {
            let map = ShardMap::new(shards);
            let owners = map.owners(&g);
            assert_eq!(owners.len(), g.node_count());
            assert!(owners.iter().all(|&o| o < shards));
            let total: usize = (0..shards).map(|s| map.owned_nodes(&g, s).len()).sum();
            assert_eq!(total, g.node_count(), "owned sets must tile exactly");
        }
    }

    #[test]
    fn owners_hash_label_strings_not_ids() {
        // Same tree shape, same strings → same owners, independent of
        // the interner's id assignment order.
        let g = moviedb();
        let map = ShardMap::new(4);
        let owners = map.owners(&g);
        for nid in g.nodes() {
            // Recompute the rooted path by walking up, then hash the
            // strings directly.
            let mut labels = Vec::new();
            let mut cur = nid;
            while !cur.is_null() {
                labels.push(g.label_str(g.tag(cur)).to_string());
                cur = g.tree_parent(cur);
            }
            labels.reverse();
            let want = map.shard_of_path(labels.iter().map(|s| s.as_str()));
            assert_eq!(owners[nid.0 as usize], want, "node {}", nid.0);
        }
    }
}
