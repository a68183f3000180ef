//! # fabric — the Index Fabric baseline
//!
//! The Index Fabric (Cooper et al., VLDB'01) encodes each rooted label
//! path to each XML element *having a data value* as a **designator
//! string**, appends the value, and stores the composed keys in a
//! Patricia trie packed into fixed-size index blocks. Exact (rooted) path
//! + value queries become a single key search; partial-matching queries
//!   must traverse the whole trie and validate each key (§2 and §6.1 of
//!   the APEX paper — the behaviour Figure 15's crossover comes from).
//!
//! Simplifications relative to the original system, documented in
//! DESIGN.md: the layered trie is flattened to a single Patricia trie
//! whose nodes are packed into 8 KiB blocks in DFS order (block reads are
//! counted per distinct block touched), and rooted paths through IDREF
//! reference edges are enumerated up to configurable bounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::indexing_slicing, clippy::unreachable)]

pub mod trie;

use apex_storage::Cost;
use xmlgraph::{LabelId, NodeId, XmlGraph};

use trie::Trie;

/// Bounds on key enumeration (graphs with reference cycles have
/// unboundedly many rooted simple paths).
#[derive(Debug, Clone, Copy)]
pub struct FabricLimits {
    /// Maximum rooted path length encoded.
    pub max_path_len: usize,
    /// Maximum number of distinct rooted paths recorded per valued node.
    pub max_paths_per_node: usize,
    /// Global cap on keys.
    pub max_keys: usize,
}

impl Default for FabricLimits {
    fn default() -> Self {
        FabricLimits {
            max_path_len: 12,
            max_paths_per_node: 4096,
            max_keys: 2_000_000,
        }
    }
}

/// The Index Fabric.
#[derive(Debug)]
pub struct IndexFabric {
    trie: Trie,
    /// Per-key decoded form kept for partial-match validation:
    /// (label path, valued node, value). Indexed by the trie payload id.
    keys: Vec<(Vec<LabelId>, NodeId, Box<str>)>,
    /// True if enumeration hit a limit (coverage is then partial).
    pub truncated: bool,
}

/// Encodes `path` + `value` into a designator key. Each label becomes a
/// two-byte designator (labels are interned densely, so 2 bytes suffice
/// for any realistic vocabulary); `0x00 0x00` separates path from value.
fn encode_key(path: &[LabelId], value: &str, out: &mut Vec<u8>) {
    out.clear();
    for l in path {
        // +1 so no designator byte-pair is 0x00 0x00.
        let code = l.0 + 1;
        out.push((code >> 8) as u8);
        out.push((code & 0xff) as u8);
    }
    out.push(0);
    out.push(0);
    out.extend_from_slice(value.as_bytes());
}

impl IndexFabric {
    /// Builds the fabric over `g` with default limits.
    pub fn build(g: &XmlGraph) -> Self {
        Self::build_with(g, FabricLimits::default())
    }

    /// Builds with explicit enumeration limits.
    #[expect(
        clippy::indexing_slicing,
        reason = "`on_path` and `paths_per_node` have one slot per node of `g` and are indexed by g's own NodeIds; `edges[next]` is guarded by `next < edges.len()`"
    )]
    pub fn build_with(g: &XmlGraph, limits: FabricLimits) -> Self {
        let mut trie = Trie::new();
        let mut keys: Vec<(Vec<LabelId>, NodeId, Box<str>)> = Vec::new();
        let mut truncated = false;

        // DFS over rooted simple data paths; record a key at every valued
        // node. Mirrors the workload generator's path semantics.
        let n = g.node_count();
        let mut on_path = vec![false; n];
        let mut paths_per_node = vec![0u32; n];
        let mut labels: Vec<LabelId> = Vec::new();
        let mut stack: Vec<(NodeId, usize)> = vec![(g.root(), 0)];
        let mut keybuf: Vec<u8> = Vec::new();
        on_path[g.root().idx()] = true;

        while let Some(&(node, next)) = stack.last() {
            if keys.len() >= limits.max_keys {
                truncated = true;
                break;
            }
            let edges = g.out_edges(node);
            if next < edges.len() && labels.len() < limits.max_path_len {
                if let Some(top) = stack.last_mut() {
                    top.1 += 1;
                }
                let e = edges[next];
                if on_path[e.to.idx()] {
                    continue;
                }
                labels.push(e.label);
                let target = e.to;
                if let Some(v) = g.value(target) {
                    if (paths_per_node[target.idx()] as usize) < limits.max_paths_per_node {
                        paths_per_node[target.idx()] += 1;
                        encode_key(&labels, v, &mut keybuf);
                        let payload = keys.len() as u32;
                        keys.push((labels.clone(), target, v.into()));
                        trie.insert(&keybuf, payload);
                    } else {
                        truncated = true;
                    }
                }
                on_path[target.idx()] = true;
                stack.push((target, 0));
            } else {
                if next < edges.len() {
                    truncated = true; // depth limit cut enumeration
                }
                stack.pop();
                on_path[node.idx()] = false;
                labels.pop();
            }
        }

        trie.assign_blocks(apex_storage::pages::DEFAULT_PAGE_SIZE);
        IndexFabric {
            trie,
            keys,
            truncated,
        }
    }

    /// Number of keys stored.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Trie node count (index size diagnostic).
    pub fn trie_nodes(&self) -> usize {
        self.trie.node_count()
    }

    /// Number of 8 KiB index blocks.
    pub fn block_count(&self) -> usize {
        self.trie.block_count()
    }

    /// Exact search: rooted path `path` with value `value` — a single key
    /// lookup (the operation the fabric is optimized for), through a
    /// shared buffer pool.
    #[expect(
        clippy::indexing_slicing,
        reason = "trie payloads are indices into `keys`, written together at build time"
    )]
    pub fn search_exact(
        &self,
        buf: &apex_storage::BufferHandle,
        path: &[LabelId],
        value: &str,
        cost: &mut Cost,
    ) -> Vec<NodeId> {
        let mut key = Vec::with_capacity(path.len() * 2 + 2 + value.len());
        encode_key(path, value, &mut key);
        let payloads = self.trie.lookup(buf, &key, cost);
        let mut out: Vec<NodeId> = payloads.iter().map(|&p| self.keys[p as usize].1).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Partial-matching search: `//l_1/…/l_n[text() = value]`. The whole
    /// trie is traversed and every key validated against the suffix and
    /// value (the §6.1 behaviour that makes the fabric slow on irregular
    /// data). Blocks resident in the shared buffer pool from earlier
    /// queries are buffer hits instead of page reads.
    #[expect(
        clippy::indexing_slicing,
        reason = "trie payloads are indices into `keys`, written together at build time"
    )]
    pub fn search_partial(
        &self,
        buf: &apex_storage::BufferHandle,
        suffix: &[LabelId],
        value: &str,
        cost: &mut Cost,
    ) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        self.trie.traverse_all(buf, cost, |payload| {
            let (path, node, v) = &self.keys[payload as usize];
            if path.len() >= suffix.len() && path.ends_with(suffix) && v.as_ref() == value {
                out.push(*node);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    #[test]
    fn exact_search_finds_title() {
        let g = moviedb();
        let f = IndexFabric::build(&g);
        let p = LabelPath::parse(&g, "director.movie.title").unwrap();
        let buf = apex_storage::BufferHandle::unbounded();
        let mut c = Cost::new();
        let hits = f.search_exact(&buf, p.labels(), "Star Wars", &mut c);
        assert_eq!(hits, vec![NodeId(10)]);
        assert!(c.trie_nodes > 0);
        assert!(c.pages_read > 0);
        // Wrong value misses.
        let miss = f.search_exact(&buf, p.labels(), "Jaws", &mut c);
        assert!(miss.is_empty());
    }

    #[test]
    fn partial_search_validates_suffix_and_value() {
        let g = moviedb();
        let f = IndexFabric::build(&g);
        let p = LabelPath::parse(&g, "movie.title").unwrap();
        let buf = apex_storage::BufferHandle::unbounded();
        let mut c = Cost::new();
        let hits = f.search_partial(&buf, p.labels(), "Star Wars", &mut c);
        assert_eq!(hits, vec![NodeId(10)]);
        // Partial search touches many more trie nodes than exact.
        let mut c2 = Cost::new();
        let _ = f.search_exact(&buf, p.labels(), "Star Wars", &mut c2);
        assert!(c.trie_nodes > c2.trie_nodes);
    }

    #[test]
    fn key_count_reflects_paths_not_nodes() {
        let g = moviedb();
        let f = IndexFabric::build(&g);
        // Valued nodes: 7; several have multiple rooted simple paths.
        assert!(f.key_count() > 7);
        assert!(!f.truncated);
    }
}
