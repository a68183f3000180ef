//! # dataguide — the strong DataGuide baseline
//!
//! A strong DataGuide (Goldman & Widom, VLDB'97) is the determinization
//! of the data graph viewed as an NFA over edge labels: each DataGuide
//! node is a *target set* — the exact set of data nodes reached by some
//! rooted label path — and every rooted label path of the data appears
//! exactly once in the guide. The construction emulates the NFA→DFA
//! subset construction, which is linear for tree data and exponential in
//! the worst case for graphs (§2 of the APEX paper) — that blow-up on
//! irregular data is precisely what Table 2 and Figures 13–15 measure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use xmlgraph::{LabelId, NodeId, XmlGraph};

/// Identifier of a DataGuide node (arena index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DgNodeId(pub u32);

impl DgNodeId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One DataGuide node: a target set plus labeled edges.
#[derive(Debug, Clone)]
pub struct DgNode {
    /// The target set: data nodes reached by (every) rooted label path
    /// that leads to this guide node. Sorted.
    pub extent: Vec<NodeId>,
    /// Outgoing edges; exactly one per label (the guide is deterministic).
    pub edges: Vec<(LabelId, DgNodeId)>,
}

/// A strong DataGuide.
#[derive(Debug, Clone)]
pub struct DataGuide {
    nodes: Vec<DgNode>,
    root: DgNodeId,
    edge_count: usize,
}

/// Safety limit: abort construction if the guide exceeds this many nodes
/// (the worst case is exponential; our datasets stay far below).
pub const DEFAULT_NODE_LIMIT: usize = 5_000_000;

impl DataGuide {
    /// Builds the strong DataGuide of `g` with the default node limit.
    ///
    /// # Panics
    /// Panics if the subset construction exceeds [`DEFAULT_NODE_LIMIT`]
    /// nodes (prevents runaway memory on pathological inputs).
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract; build_bounded is the non-panicking API"
    )]
    pub fn build(g: &XmlGraph) -> Self {
        Self::build_bounded(g, DEFAULT_NODE_LIMIT).expect("DataGuide exceeded node limit")
    }

    /// Builds with an explicit node limit; `None` if exceeded.
    pub fn build_bounded(g: &XmlGraph, node_limit: usize) -> Option<Self> {
        let mut interned: HashMap<Vec<NodeId>, DgNodeId> = HashMap::new();
        let mut nodes: Vec<DgNode> = Vec::new();
        let mut edge_count = 0usize;

        let root_set = vec![g.root()];
        nodes.push(DgNode {
            extent: root_set.clone(),
            edges: Vec::new(),
        });
        let root = DgNodeId(0);
        interned.insert(root_set, root);

        let mut work = vec![root];
        let mut groups: HashMap<LabelId, Vec<NodeId>> = HashMap::new();
        while let Some(cur) = work.pop() {
            // Group successors of the whole target set by label.
            groups.clear();
            for &v in &nodes[cur.idx()].extent {
                for e in g.out_edges(v) {
                    groups.entry(e.label).or_default().push(e.to);
                }
            }
            let mut grouped: Vec<(LabelId, Vec<NodeId>)> = groups.drain().collect();
            grouped.sort_unstable_by_key(|&(label, _)| label);
            for (label, mut targets) in grouped {
                targets.sort_unstable();
                targets.dedup();
                let next = match interned.get(&targets) {
                    Some(&id) => id,
                    None => {
                        if nodes.len() >= node_limit {
                            return None;
                        }
                        let id = DgNodeId(nodes.len() as u32);
                        nodes.push(DgNode {
                            extent: targets.clone(),
                            edges: Vec::new(),
                        });
                        interned.insert(targets, id);
                        work.push(id);
                        id
                    }
                };
                nodes[cur.idx()].edges.push((label, next));
                edge_count += 1;
            }
        }
        Some(DataGuide {
            nodes,
            root,
            edge_count,
        })
    }

    /// The root guide node (target set `{root}`).
    #[inline]
    pub fn root(&self) -> DgNodeId {
        self.root
    }

    /// Number of guide nodes (Table 2's "Nodes").
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of guide edges (Table 2's "Edges").
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Access one node.
    #[inline]
    pub fn node(&self, id: DgNodeId) -> &DgNode {
        &self.nodes[id.idx()]
    }

    /// The deterministic child along `label`, if any.
    pub fn child(&self, id: DgNodeId, label: LabelId) -> Option<DgNodeId> {
        self.nodes[id.idx()]
            .edges
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, t)| *t)
    }

    /// Evaluates a *rooted* simple path by walking the guide (the
    /// operation DataGuides are built for). Returns the target set.
    pub fn eval_rooted(&self, path: &[LabelId]) -> &[NodeId] {
        let mut cur = self.root;
        for &l in path {
            match self.child(cur, l) {
                Some(next) => cur = next,
                None => return &[],
            }
        }
        &self.nodes[cur.idx()].extent
    }

    /// Iterates over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = DgNodeId> {
        (0..self.nodes.len() as u32).map(DgNodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::builder::moviedb;
    use xmlgraph::{GraphBuilder, LabelPath};

    #[test]
    fn tree_guide_has_one_node_per_distinct_path() {
        // <a><b/><b/><c><b/></c></a>: rooted paths: a?, b, c, c.b
        let mut bld = GraphBuilder::new("a");
        let r = bld.root();
        bld.add_child(r, "b");
        bld.add_child(r, "b");
        let c = bld.add_child(r, "c");
        bld.add_child(c, "b");
        let g = bld.finish().unwrap();
        let dg = DataGuide::build(&g);
        // Nodes: {root}, {b,b}, {c}, {c.b} = 4.
        assert_eq!(dg.node_count(), 4);
        assert_eq!(dg.edge_count(), 3);
    }

    #[test]
    fn eval_rooted_matches_direct_eval() {
        let g = moviedb();
        let dg = DataGuide::build(&g);
        for p in [
            "movie.title",
            "director.movie.title",
            "actor.name",
            "director.name",
        ] {
            let path = LabelPath::parse(&g, p).unwrap();
            let expect = xmlgraph::paths::eval_rooted(&g, &path);
            assert_eq!(dg.eval_rooted(path.labels()), expect.as_slice(), "path {p}");
        }
    }

    #[test]
    fn guide_is_deterministic() {
        let g = moviedb();
        let dg = DataGuide::build(&g);
        for id in dg.ids() {
            let mut labels: Vec<LabelId> = dg.node(id).edges.iter().map(|(l, _)| *l).collect();
            let before = labels.len();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), before, "duplicate label out of node {}", id.0);
        }
    }

    #[test]
    fn target_sets_are_sorted_dedup() {
        let g = moviedb();
        let dg = DataGuide::build(&g);
        for id in dg.ids() {
            let ext = &dg.node(id).extent;
            assert!(ext.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn cyclic_graph_terminates() {
        let mut rb = xmlgraph::builder::RawGraphBuilder::new();
        rb.node(0, "r", None, None);
        rb.node(1, "a", Some(0), None);
        rb.node(2, "a", Some(0), None);
        rb.edge(0, "a", 1);
        rb.edge(0, "a", 2);
        rb.edge(1, "a", 2);
        rb.edge(2, "a", 1);
        let g = rb.finish(&[]);
        let dg = DataGuide::build(&g);
        // Target sets: {0} -a-> {1,2} -a-> {1,2} (self loop).
        assert_eq!(dg.node_count(), 2);
        let a = g.label_id("a").unwrap();
        assert_eq!(dg.eval_rooted(&[a, a, a]).len(), 2);
    }

    #[test]
    fn node_limit_respected() {
        let g = moviedb();
        assert!(DataGuide::build_bounded(&g, 2).is_none());
    }
}
