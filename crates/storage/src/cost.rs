//! Logical cost counters.
//!
//! The paper's figures report elapsed seconds on 2002 hardware. To compare
//! *shapes* robustly, every query processor in this reproduction
//! accumulates machine-independent counters alongside wall time.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::fmt;
use std::ops::AddAssign;

/// The physical operators of the shared execution layer, used as keys
/// of the per-operator cost breakdown (see `apex-query`'s `exec`
/// module for the operator semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Materializing one stored extent.
    ExtentScan,
    /// Scanning and merging several extents into one edge set.
    ExtentUnion,
    /// Semijoin via a linear merge with a sorted extent.
    SemijoinMerge,
    /// Semijoin via galloping (exponential + binary) searches into a
    /// sorted extent.
    SemijoinGallop,
    /// Semijoin that skips whole blocks via the extent's skip-index
    /// headers, galloping within the surviving blocks.
    SemijoinSkip,
    /// The QTYPE1 join chain (composite; inner work attributes to the
    /// union/semijoin operators it drives).
    MultiwayJoin,
    /// One data-table value probe (QTYPE3).
    DataProbe,
    /// Index-graph navigation (automaton products, dataflow fixpoints).
    IndexNav,
    /// Patricia-trie key search / traversal (Index Fabric).
    TrieSearch,
    /// Right-to-left semijoin reduction: keeps the pairs of a stage
    /// whose *end node* parents some pair of the already-reduced stage
    /// to its right (planner-chosen backward pass).
    SemijoinReverse,
}

impl OpKind {
    /// Every operator, in display order.
    pub const ALL: [OpKind; 10] = [
        OpKind::ExtentScan,
        OpKind::ExtentUnion,
        OpKind::SemijoinMerge,
        OpKind::SemijoinGallop,
        OpKind::SemijoinSkip,
        OpKind::MultiwayJoin,
        OpKind::DataProbe,
        OpKind::IndexNav,
        OpKind::TrieSearch,
        OpKind::SemijoinReverse,
    ];

    /// Operator name as shown by `explain` and the shell.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::ExtentScan => "ExtentScan",
            OpKind::ExtentUnion => "ExtentUnion",
            OpKind::SemijoinMerge => "SemijoinMerge",
            OpKind::SemijoinGallop => "SemijoinGallop",
            OpKind::SemijoinSkip => "SemijoinSkip",
            OpKind::MultiwayJoin => "MultiwayJoin",
            OpKind::DataProbe => "DataProbe",
            OpKind::IndexNav => "IndexNav",
            OpKind::TrieSearch => "TrieSearch",
            OpKind::SemijoinReverse => "SemijoinReverse",
        }
    }

    /// Stable dense index of this kind — its position in
    /// [`OpKind::ALL`]. Lets aggregators (the workload monitor's plan
    /// feedback, the per-operator breakdown) keep flat arrays.
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            OpKind::ExtentScan => 0,
            OpKind::ExtentUnion => 1,
            OpKind::SemijoinMerge => 2,
            OpKind::SemijoinGallop => 3,
            OpKind::SemijoinSkip => 4,
            OpKind::MultiwayJoin => 5,
            OpKind::DataProbe => 6,
            OpKind::IndexNav => 7,
            OpKind::TrieSearch => 8,
            OpKind::SemijoinReverse => 9,
        }
    }
}

/// Counter deltas attributed to one operator kind.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCost {
    /// Operator invocations.
    pub invocations: u64,
    /// Scalar counter deltas, in [`Cost::scalars`] order.
    pub scalars: [u64; 8],
}

impl OpCost {
    /// Pages read by this operator.
    pub fn pages_read(&self) -> u64 {
        self.scalars[5]
    }

    /// Join comparisons performed by this operator.
    pub fn join_work(&self) -> u64 {
        self.scalars[3]
    }

    /// Extent pairs read by this operator.
    pub fn extent_pairs(&self) -> u64 {
        self.scalars[2]
    }
}

/// Per-operator attribution of the scalar counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpBreakdown {
    per_op: [OpCost; 10],
}

impl OpBreakdown {
    /// Records `delta` (and one invocation if `invoked`) against `kind`.
    #[expect(
        clippy::indexing_slicing,
        reason = "kind.idx() enumerates the 10 OpKind variants; per_op is sized to match"
    )]
    pub fn record(&mut self, kind: OpKind, invoked: bool, delta: [u64; 8]) {
        let slot = &mut self.per_op[kind.idx()];
        if invoked {
            slot.invocations += 1;
        }
        for (acc, d) in slot.scalars.iter_mut().zip(delta) {
            *acc += d;
        }
    }

    /// The accumulated cost of one operator kind.
    #[expect(
        clippy::indexing_slicing,
        reason = "kind.idx() enumerates the 10 OpKind variants; per_op is sized to match"
    )]
    pub fn get(&self, kind: OpKind) -> &OpCost {
        &self.per_op[kind.idx()]
    }

    /// Iterates `(kind, cost)` over operators that did any work.
    pub fn active(&self) -> impl Iterator<Item = (OpKind, &OpCost)> {
        // `ALL` lists the kinds in `idx()` order, the order of `per_op`.
        OpKind::ALL
            .into_iter()
            .zip(&self.per_op)
            .filter(|(_, c)| c.invocations != 0 || c.scalars.iter().any(|&s| s != 0))
    }

    /// Multi-line table of the active operators, for `explain`/shell
    /// output. Empty string when no operator ran.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (kind, c) in self.active() {
            s.push_str(&format!(
                "  {:<14} calls={:<6} pages={:<8} pairs={:<10} join_work={:<10} join_out={:<8} probes={}\n",
                kind.name(),
                c.invocations,
                c.scalars[5],
                c.scalars[2],
                c.scalars[3],
                c.scalars[4],
                c.scalars[6],
            ));
        }
        s
    }
}

impl AddAssign for OpBreakdown {
    fn add_assign(&mut self, rhs: Self) {
        for (a, b) in self.per_op.iter_mut().zip(rhs.per_op) {
            a.invocations += b.invocations;
            for (x, y) in a.scalars.iter_mut().zip(b.scalars) {
                *x += y;
            }
        }
    }
}

/// Counters accumulated while evaluating queries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Cost {
    /// Edges of an *index* structure traversed (the paper's "edge lookup"
    /// during pruning/rewriting, e.g. 14 for q1 on the strong DataGuide).
    pub index_edges: u64,
    /// Hash-table lookups (H_APEX probes, DataGuide child lookups).
    pub hash_lookups: u64,
    /// Extent pairs scanned (read out of storage).
    pub extent_pairs: u64,
    /// Pair comparisons performed by joins.
    pub join_work: u64,
    /// Pairs produced by joins.
    pub join_output: u64,
    /// 8 KiB pages read (extent scans, data-table probes, trie blocks).
    pub pages_read: u64,
    /// Data-table probes (QTYPE3 value checks).
    pub table_probes: u64,
    /// Patricia-trie / index-block node visits (Index Fabric).
    pub trie_nodes: u64,
    /// Per-operator attribution of the scalar counters above (filled by
    /// the execution layer; excluded from [`Cost::total`]).
    pub ops: OpBreakdown,
}

impl Cost {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scalar counters as an array, in the documented order:
    /// `[index_edges, hash_lookups, extent_pairs, join_work,
    /// join_output, pages_read, table_probes, trie_nodes]`. Used to
    /// diff snapshots for per-operator attribution.
    pub fn scalars(&self) -> [u64; 8] {
        [
            self.index_edges,
            self.hash_lookups,
            self.extent_pairs,
            self.join_work,
            self.join_output,
            self.pages_read,
            self.table_probes,
            self.trie_nodes,
        ]
    }

    /// Sum of all counters — a crude single-number "logical cost" used for
    /// quick comparisons; figures report individual counters too.
    pub fn total(&self) -> u64 {
        self.index_edges
            + self.hash_lookups
            + self.extent_pairs
            + self.join_work
            + self.join_output
            + self.pages_read
            + self.table_probes
            + self.trie_nodes
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Self) {
        self.index_edges += rhs.index_edges;
        self.hash_lookups += rhs.hash_lookups;
        self.extent_pairs += rhs.extent_pairs;
        self.join_work += rhs.join_work;
        self.join_output += rhs.join_output;
        self.pages_read += rhs.pages_read;
        self.table_probes += rhs.table_probes;
        self.trie_nodes += rhs.trie_nodes;
        self.ops += rhs.ops;
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "idx_edges={} hash={} extent={} join_work={} join_out={} pages={} probes={} trie={}",
            self.index_edges,
            self.hash_lookups,
            self.extent_pairs,
            self.join_work,
            self.join_output,
            self.pages_read,
            self.table_probes,
            self.trie_nodes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates() {
        let mut a = Cost {
            index_edges: 1,
            pages_read: 2,
            ..Cost::new()
        };
        let b = Cost {
            index_edges: 10,
            join_work: 5,
            ..Cost::new()
        };
        a += b;
        assert_eq!(a.index_edges, 11);
        assert_eq!(a.join_work, 5);
        assert_eq!(a.pages_read, 2);
    }

    #[test]
    fn total_sums_everything() {
        let c = Cost {
            index_edges: 1,
            hash_lookups: 2,
            extent_pairs: 3,
            join_work: 4,
            join_output: 5,
            pages_read: 6,
            table_probes: 7,
            trie_nodes: 8,
            ..Cost::new()
        };
        assert_eq!(c.total(), 36);
        let mut c2 = c;
        c2.reset();
        assert_eq!(c2.total(), 0);
    }

    #[test]
    fn breakdown_records_and_accumulates() {
        let mut a = Cost::new();
        a.ops
            .record(OpKind::SemijoinGallop, true, [0, 0, 10, 4, 2, 1, 0, 0]);
        a.ops
            .record(OpKind::SemijoinGallop, true, [0, 0, 5, 1, 1, 0, 0, 0]);
        let mut b = Cost::new();
        b.ops
            .record(OpKind::DataProbe, true, [0, 0, 0, 0, 0, 2, 1, 0]);
        a += b;
        let sj = a.ops.get(OpKind::SemijoinGallop);
        assert_eq!(sj.invocations, 2);
        assert_eq!(sj.extent_pairs(), 15);
        assert_eq!(sj.join_work(), 5);
        assert_eq!(sj.pages_read(), 1);
        assert_eq!(a.ops.get(OpKind::DataProbe).invocations, 1);
        assert_eq!(a.ops.active().count(), 2);
        let table = a.ops.render();
        assert!(table.contains("SemijoinGallop"));
        assert!(table.contains("DataProbe"));
        assert!(!table.contains("TrieSearch"));
        // The breakdown never leaks into the scalar total.
        assert_eq!(a.total(), 0);
    }
}
