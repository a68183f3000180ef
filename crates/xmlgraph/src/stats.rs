//! Structural statistics of [`XmlGraph`]s.
//!
//! Used to (a) print Table 1 of the paper for our generated datasets and
//! (b) quantify the irregularity gradient (Play < FlixML < GedML) that the
//! evaluation's conclusions hinge on.

use std::collections::HashSet;
use std::fmt;

use crate::model::{NodeId, XmlGraph};
use crate::paths::{rooted_label_paths, EnumLimits};

/// Summary statistics for one dataset (Table 1 columns plus irregularity
/// measures).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// `|V|`.
    pub nodes: usize,
    /// `|E|`.
    pub edges: usize,
    /// Distinct labels `|A|`.
    pub labels: usize,
    /// Distinct IDREF-typed labels (Table 1's parenthesized count).
    pub idref_labels: usize,
    /// Distinct rooted label paths (bounded enumeration) — grows with
    /// structural irregularity.
    pub distinct_rooted_paths: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Mean out-degree of non-leaf nodes.
    pub avg_fanout: f64,
    /// Number of reference (non-tree) edges.
    pub ref_edges: usize,
}

impl GraphStats {
    /// Computes statistics for `g`. Path enumeration is bounded by
    /// `limits` to stay cheap on cyclic data.
    pub fn compute(g: &XmlGraph, limits: EnumLimits) -> Self {
        let nodes = g.node_count();
        let edges = g.edge_count();
        let labels = g.label_count();
        let idref_labels = g.idref_labels().len();

        let mut ref_edges = 0usize;
        for (from, _, to) in g.edges() {
            if g.tree_parent(to) != from {
                ref_edges += 1;
            }
        }

        let mut max_depth = 0usize;
        for n in g.nodes() {
            let mut d = 0usize;
            let mut cur = n;
            while !g.tree_parent(cur).is_null() {
                cur = g.tree_parent(cur);
                d += 1;
                if d > nodes {
                    break; // defensive: malformed parent chain
                }
            }
            max_depth = max_depth.max(d);
        }

        let inner: Vec<NodeId> = g.nodes().filter(|&n| !g.is_leaf(n)).collect();
        let avg_fanout = if inner.is_empty() {
            0.0
        } else {
            inner.iter().map(|&n| g.out_edges(n).len()).sum::<usize>() as f64 / inner.len() as f64
        };

        let distinct_rooted_paths = rooted_label_paths(g, limits).len();

        GraphStats {
            nodes,
            edges,
            labels,
            idref_labels,
            distinct_rooted_paths,
            max_depth,
            avg_fanout,
            ref_edges,
        }
    }

    /// A Table 1 row: `nodes edges labels(idref)`.
    pub fn table1_row(&self, name: &str) -> String {
        format!(
            "{:<18} {:>8} {:>8} {:>6}({})",
            name, self.nodes, self.edges, self.labels, self.idref_labels
        )
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} edges={} labels={}({}) rooted_paths={} depth={} fanout={:.2} refs={}",
            self.nodes,
            self.edges,
            self.labels,
            self.idref_labels,
            self.distinct_rooted_paths,
            self.max_depth,
            self.avg_fanout,
            self.ref_edges
        )
    }
}

/// Checks basic well-formedness invariants of a graph; returns the list of
/// violations (empty = healthy). Used by property tests and generators.
pub fn check_invariants(g: &XmlGraph) -> Vec<String> {
    let mut problems = Vec::new();
    let n = g.node_count();
    // Edge endpoints are in range and `edge_count` is the adjacency's
    // length by construction: the builders refuse any other edge.
    // Tree parents form a forest rooted at root, and every node is
    // reachable from the root along tree edges.
    let root = g.root();
    if !g.tree_parent(root).is_null() {
        problems.push("root has a tree parent".into());
    }
    let mut reachable: HashSet<NodeId> = HashSet::new();
    for node in g.nodes() {
        let mut chain = Vec::new();
        let mut cur = node;
        loop {
            if reachable.contains(&cur) || cur == root {
                break;
            }
            chain.push(cur);
            let p = g.tree_parent(cur);
            if p.is_null() {
                if cur != root {
                    problems.push(format!("node {} detached from root", cur.0));
                }
                break;
            }
            if chain.len() > n {
                problems.push(format!("tree-parent cycle at node {}", node.0));
                break;
            }
            cur = p;
        }
        reachable.extend(chain);
    }
    // Tree edges exist in the adjacency lists.
    for node in g.nodes() {
        let p = g.tree_parent(node);
        if p.is_null() {
            continue;
        }
        if !g.out_edges(p).iter().any(|e| e.to == node) {
            problems.push(format!(
                "tree edge {}->{} missing from adjacency",
                p.0, node.0
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::moviedb;

    #[test]
    fn moviedb_stats() {
        let g = moviedb();
        let s = GraphStats::compute(&g, EnumLimits::default());
        assert_eq!(s.nodes, 18);
        assert_eq!(s.edges, 21);
        assert_eq!(s.idref_labels, 3);
        assert_eq!(s.ref_edges, 4);
        assert!(s.max_depth >= 2);
        assert!(s.distinct_rooted_paths > 10);
    }

    #[test]
    fn moviedb_invariants_hold() {
        let g = moviedb();
        assert!(check_invariants(&g).is_empty());
    }

    #[test]
    fn table1_row_formats() {
        let g = moviedb();
        let s = GraphStats::compute(&g, EnumLimits::default());
        let row = s.table1_row("moviedb");
        assert!(row.contains("18"));
        assert!(row.contains("(3)"));
    }
}
