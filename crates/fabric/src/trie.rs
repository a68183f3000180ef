//! A path-compressed byte trie (Patricia-style radix tree) with DFS block
//! packing and block-read accounting.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use apex_storage::bufmgr::{BufferHandle, ObjectId, Space};
use apex_storage::Cost;

/// One trie node: a compressed byte prefix on its incoming edge, children
/// dispatched by first byte, and payloads of keys ending here.
#[derive(Debug, Clone, Default)]
struct TrieNode {
    prefix: Vec<u8>,
    children: Vec<(u8, u32)>,
    payloads: Vec<u32>,
    block: u32,
}

/// The trie.
#[derive(Debug, Default)]
pub struct Trie {
    nodes: Vec<TrieNode>,
    blocks: u32,
}

impl Trie {
    /// Empty trie with a root node.
    pub fn new() -> Self {
        Trie {
            nodes: vec![TrieNode::default()],
            blocks: 0,
        }
    }

    /// Node count (including the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of assigned blocks.
    pub fn block_count(&self) -> usize {
        self.blocks as usize
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "node ids come from the builder's arena and index it by construction"
    )]
    fn child(&self, node: u32, byte: u8) -> Option<u32> {
        self.nodes[node as usize]
            .children
            .iter()
            .find(|(b, _)| *b == byte)
            .map(|(_, c)| *c)
    }

    /// Inserts `key` with `payload`. Duplicate keys accumulate payloads.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids come from the builder's arena and index it by construction; `rest[0]`, `tail[0]` and `rest[common..]` follow the emptiness checks and `common <= rest.len()`"
    )]
    pub fn insert(&mut self, key: &[u8], payload: u32) {
        let mut node = 0u32;
        let mut rest = key;
        loop {
            if rest.is_empty() {
                self.nodes[node as usize].payloads.push(payload);
                return;
            }
            match self.child(node, rest[0]) {
                None => {
                    // New leaf consuming all remaining bytes.
                    let leaf = self.alloc(rest.to_vec());
                    self.nodes[leaf as usize].payloads.push(payload);
                    self.nodes[node as usize].children.push((rest[0], leaf));
                    return;
                }
                Some(c) => {
                    let plen = self.nodes[c as usize].prefix.len();
                    let common = common_prefix(&self.nodes[c as usize].prefix, rest);
                    if common == plen {
                        // Full edge consumed: descend.
                        node = c;
                        rest = &rest[common..];
                    } else {
                        // Split the edge at `common`.
                        let tail = self.nodes[c as usize].prefix.split_off(common);
                        // `c` keeps the head prefix; a new node takes the
                        // tail and inherits c's children/payloads.
                        let mid_children = std::mem::take(&mut self.nodes[c as usize].children);
                        let mid_payloads = std::mem::take(&mut self.nodes[c as usize].payloads);
                        let tail_first = tail[0];
                        let mid = self.alloc(tail);
                        self.nodes[mid as usize].children = mid_children;
                        self.nodes[mid as usize].payloads = mid_payloads;
                        self.nodes[c as usize].children.push((tail_first, mid));
                        node = c;
                        rest = &rest[common..];
                    }
                }
            }
        }
    }

    fn alloc(&mut self, prefix: Vec<u8>) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(TrieNode {
            prefix,
            ..TrieNode::default()
        });
        id
    }

    /// Exact key lookup, charging visited trie nodes, and the distinct
    /// blocks along the descent when absent from the shared buffer pool,
    /// so repeated searches of a hot key region become buffer hits.
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids index the builder's arena; `rest` slicing is guarded by explicit length checks in the descent loop"
    )]
    pub fn lookup(&self, buf: &BufferHandle, key: &[u8], cost: &mut Cost) -> &[u32] {
        let mut node = 0u32;
        let mut rest = key;
        let mut last_block = u32::MAX;
        loop {
            cost.trie_nodes += 1;
            let blk = self.nodes[node as usize].block;
            if blk != last_block {
                // The trie is its own block store; Fabric I/O is charged here, not in exec
                cost.pages_read += buf.touch(ObjectId::new(Space::TrieBlock, blk as u64), 0);
                last_block = blk;
            }
            if rest.is_empty() {
                return &self.nodes[node as usize].payloads;
            }
            match self.child(node, rest[0]) {
                None => return &[],
                Some(c) => {
                    let prefix = &self.nodes[c as usize].prefix;
                    if rest.len() < prefix.len() || &rest[..prefix.len()] != prefix.as_slice() {
                        return &[];
                    }
                    rest = &rest[prefix.len()..];
                    node = c;
                }
            }
        }
    }

    /// Visits every payload in the trie (partial-match evaluation),
    /// charging every node, and each block when absent from the shared
    /// buffer pool.
    pub fn traverse_all(&self, buf: &BufferHandle, cost: &mut Cost, mut visit: impl FnMut(u32)) {
        cost.trie_nodes += self.nodes.len() as u64;
        for b in 0..self.blocks.max(1) as u64 {
            // The trie is its own block store; Fabric I/O is charged here, not in exec
            cost.pages_read += buf.touch(ObjectId::new(Space::TrieBlock, b), 0);
        }
        for n in &self.nodes {
            for &p in &n.payloads {
                visit(p);
            }
        }
    }

    /// Packs nodes into blocks of `block_size` bytes in DFS order
    /// (size model: prefix bytes + 8 bytes per child + 4 per payload +
    /// 16 fixed).
    #[expect(
        clippy::indexing_slicing,
        reason = "node ids come from the builder's arena and index it by construction, and `seen` has one slot per node"
    )]
    pub fn assign_blocks(&mut self, block_size: usize) {
        let mut block = 0u32;
        let mut used = 0usize;
        // DFS from root for locality.
        let mut stack = vec![0u32];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(id) = stack.pop() {
            if seen[id as usize] {
                continue;
            }
            seen[id as usize] = true;
            let n = &self.nodes[id as usize];
            let sz = 16 + n.prefix.len() + 8 * n.children.len() + 4 * n.payloads.len();
            if used + sz > block_size && used > 0 {
                block += 1;
                used = 0;
            }
            used += sz.min(block_size);
            for &(_, c) in self.nodes[id as usize].children.iter().rev() {
                stack.push(c);
            }
            self.nodes[id as usize].block = block;
        }
        self.blocks = block + 1;
    }
}

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(keys: &[&str]) -> Trie {
        let mut t = Trie::new();
        for (i, k) in keys.iter().enumerate() {
            t.insert(k.as_bytes(), i as u32);
        }
        t.assign_blocks(8192);
        t
    }

    #[test]
    fn insert_and_lookup() {
        let t = build(&["romane", "romanus", "romulus", "rubens", "ruber"]);
        let buf = BufferHandle::unbounded();
        let mut c = Cost::new();
        assert_eq!(t.lookup(&buf, b"romane", &mut c), &[0]);
        assert_eq!(t.lookup(&buf, b"romulus", &mut c), &[2]);
        assert_eq!(t.lookup(&buf, b"ruber", &mut c), &[4]);
        assert!(t.lookup(&buf, b"rom", &mut c).is_empty());
        assert!(t.lookup(&buf, b"xx", &mut c).is_empty());
        assert!(c.trie_nodes > 0);
    }

    #[test]
    fn duplicate_keys_accumulate() {
        let mut t = Trie::new();
        t.insert(b"abc", 1);
        t.insert(b"abc", 2);
        t.assign_blocks(8192);
        let buf = BufferHandle::unbounded();
        let mut c = Cost::new();
        assert_eq!(t.lookup(&buf, b"abc", &mut c), &[1, 2]);
    }

    #[test]
    fn prefix_of_existing_key() {
        let mut t = Trie::new();
        t.insert(b"abcdef", 1);
        t.insert(b"abc", 2);
        t.assign_blocks(8192);
        let buf = BufferHandle::unbounded();
        let mut c = Cost::new();
        assert_eq!(t.lookup(&buf, b"abc", &mut c), &[2]);
        assert_eq!(t.lookup(&buf, b"abcdef", &mut c), &[1]);
    }

    #[test]
    fn traverse_visits_all_payloads() {
        let t = build(&["a", "b", "ab", "ba"]);
        let mut c = Cost::new();
        let mut seen = Vec::new();
        t.traverse_all(&BufferHandle::unbounded(), &mut c, |p| seen.push(p));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(c.trie_nodes as usize, t.node_count());
    }

    #[test]
    fn path_compression_keeps_node_count_low() {
        // One long key: root + 1 compressed node.
        let mut t = Trie::new();
        t.insert(&[7u8; 1000], 0);
        assert_eq!(t.node_count(), 2);
    }

    #[test]
    fn blocks_split_large_tries() {
        let mut t = Trie::new();
        for i in 0..20000u32 {
            t.insert(format!("key-{i:08}").as_bytes(), i);
        }
        t.assign_blocks(8192);
        assert!(t.block_count() > 1);
    }
}
