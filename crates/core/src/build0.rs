//! `APEX⁰` construction (Figure 6) — the workload-free seed index.
//!
//! Each `G_APEX` node of `APEX⁰` represents all data edges sharing one
//! incoming label; the graph over them contains every label path of
//! length two of the data (like the 1-Representative Object the paper
//! cites). `H_APEX` is a flat head node: one entry per label.

use std::collections::HashMap;

use apex_storage::{EdgePair, EdgeSet};
use xmlgraph::{LabelId, XmlGraph};

use crate::graph::{GApex, XNodeId};
use crate::hashtree::{EntryRef, HashTree};

/// Builds `APEX⁰` over `g`. Returns the graph, hash tree and `xroot`.
pub fn build_apex0(g: &XmlGraph) -> (GApex, HashTree, XNodeId) {
    let mut ga = GApex::new();
    let mut ht = HashTree::new();
    let xroot = ga.new_node(None);
    // Extents grow as decoded sets and are sealed into their stored
    // form once, when the fixpoint is reached.
    let root_delta = EdgeSet::from_pairs(vec![EdgePair::root(g.root())]);
    let mut open = HashMap::from([(xroot, root_delta.clone())]);

    // Worklist version of Figure 6's exploreAPEX0 recursion: each item is
    // (G_APEX node, edges newly added to its extent). Chaotic iteration of
    // a monotone operator — same fixpoint as the paper's DFS, no stack
    // overflow on deep documents.
    let mut work: Vec<(XNodeId, EdgeSet)> = vec![(xroot, root_delta)];
    let mut groups: HashMap<LabelId, Vec<EdgePair>> = HashMap::new();
    let mut scratch = Vec::new();

    while let Some((x, delta)) = work.pop() {
        // ESet: outgoing data edges from the end nodes of the delta.
        groups.clear();
        for pair in delta.iter() {
            for e in g.out_edges(pair.node) {
                groups
                    .entry(e.label)
                    .or_default()
                    .push(EdgePair::new(pair.node, e.to));
            }
        }
        // Deterministic order regardless of hash iteration.
        let mut grouped: Vec<(LabelId, Vec<EdgePair>)> = groups.drain().collect();
        grouped.sort_unstable_by_key(|&(label, _)| label);
        for (label, pairs) in grouped {
            // y := hash(l), creating the node on first sight.
            ht.ensure_head_entry(label);
            let head = ht.head();
            let y = match ht.entry(head, label).and_then(|e| e.xnode) {
                Some(y) => y,
                None => {
                    let y = ga.new_node(Some(label));
                    ht.set_xnode(EntryRef::Label(head, label), y);
                    y
                }
            };
            ga.make_edge(x, y, label);
            // ΔnewESet := group \ y.extent  (cycle guard of Figure 6).
            let extent = ga.open_extent(&mut open, y);
            let delta_new = EdgeSet::from_pairs(pairs).difference(extent);
            if !delta_new.is_empty() {
                extent.union_in_place(&delta_new, &mut scratch);
                work.push((y, delta_new));
            }
        }
    }
    ga.seal(open);
    (ga, ht, xroot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::builder::moviedb;
    use xmlgraph::NodeId;

    #[test]
    fn apex0_one_node_per_label() {
        let g = moviedb();
        let (ga, _ht, xroot) = build_apex0(&g);
        let (nodes, _edges) = ga.reachable_stats(xroot);
        // xroot + one node per label that labels at least one edge.
        // moviedb labels: MovieDB (root tag, labels no edge), actor, name,
        // director, movie, @movie, title, year, @director, @actor.
        // Edge-labeling labels: actor, name, director, movie, @movie,
        // title, year, @director, @actor = 9.
        assert_eq!(nodes, 10);
    }

    #[test]
    fn apex0_extents_group_by_incoming_label() {
        let g = moviedb();
        let (ga, ht, _xroot) = build_apex0(&g);
        let title = g.label_id("title").unwrap();
        let x = ht
            .entry(ht.head(), title)
            .and_then(|e| e.xnode)
            .expect("title class");
        let raw = |x| -> Vec<(u32, u32)> {
            let pairs = ga.extent(x).to_vec();
            pairs.iter().map(|p| (p.parent.0, p.node.0)).collect()
        };
        assert_eq!(raw(x), vec![(8, 10), (14, 17)]);

        // name class: T(name) = {<2,3>, <4,5>, <7,11>, <12,13>}.
        let name = g.label_id("name").unwrap();
        let x = ht.entry(ht.head(), name).and_then(|e| e.xnode).unwrap();
        assert_eq!(raw(x), vec![(2, 3), (4, 5), (7, 11), (12, 13)]);
    }

    #[test]
    fn apex0_has_all_length2_paths() {
        // Theorem 2 in the APEX⁰ case: every label path of length 2 in
        // G_APEX exists in G_XML and vice versa.
        let g = moviedb();
        let (ga, ht, _) = build_apex0(&g);
        // Data: collect all length-2 label pairs.
        let mut data_pairs = std::collections::HashSet::new();
        for (_, l1, mid) in g.edges() {
            for e in g.out_edges(mid) {
                data_pairs.insert((l1, e.label));
            }
        }
        // Index: pairs (incoming label of x, label of x's out-edge).
        let mut idx_pairs = std::collections::HashSet::new();
        for (_, s) in g.labels().iter() {
            if let Some(l) = g.label_id(s) {
                if let Some(x) = ht.entry(ht.head(), l).and_then(|e| e.xnode) {
                    for &(l2, _) in &ga.node(x).edges {
                        idx_pairs.insert((l, l2));
                    }
                }
            }
        }
        assert_eq!(data_pairs, idx_pairs);
    }

    #[test]
    fn apex0_root_extent_is_null_root() {
        let g = moviedb();
        let (ga, _, xroot) = build_apex0(&g);
        assert_eq!(ga.extent(xroot).to_vec(), vec![EdgePair::root(NodeId(0))]);
    }

    #[test]
    fn apex0_handles_cycles() {
        // a -> b -> a reference cycle via raw builder.
        let mut rb = xmlgraph::builder::RawGraphBuilder::new();
        rb.node(0, "r", None, None);
        rb.node(1, "a", Some(0), None);
        rb.node(2, "b", Some(1), None);
        rb.edge(0, "a", 1);
        rb.edge(1, "b", 2);
        rb.edge(2, "a", 1); // cycle back
        let g = rb.finish(&[]);
        let (ga, ht, xroot) = build_apex0(&g);
        let (nodes, edges) = ga.reachable_stats(xroot);
        assert_eq!(nodes, 3); // xroot, a-class, b-class
        assert_eq!(edges, 3); // root->a, a->b, b->a
        let a = g.label_id("a").unwrap();
        let x = ht.entry(ht.head(), a).and_then(|e| e.xnode).unwrap();
        // a-class extent: <0,1> and <2,1>.
        assert_eq!(ga.extent(x).len(), 2);
    }
}
