//! Structural integrity checking for [`Apex`] indexes.
//!
//! Verifies, against a data graph, every invariant the paper's
//! construction promises. Run after any `refine` in tests (and in the
//! property suite) to catch drift between the algorithms and the
//! structures they maintain:
//!
//! 1. **Entry exclusivity** (§5.3): no `H_APEX` entry has both `next`
//!    and `xnode` set.
//! 2. **Simulation** (Theorem 1): every data edge is simulated by a
//!    `G_APEX` edge from every class its source belongs to.
//! 3. **No phantom paths** (Theorem 2): every length-2 label path of
//!    `G_APEX` exists in the data.
//! 4. **Extent labeling**: every pair in a class extent is a real data
//!    edge whose label equals the class's incoming label.
//! 5. **Coverage**: the union of the classes located by `query_nodes`
//!    for each single label equals `T(label)` exactly.
//! 6. **Determinism**: at most one `G_APEX` out-edge per label per node.
//! 7. **No garbage**: both arenas hold exactly their live set —
//!    every allocated `G_APEX` node is reachable from `xroot`, every
//!    allocated hash node from the head (`refine` compacts both).
//! 8. **No dangling class**: every `xnode`/`remainder` in `H_APEX`
//!    points at a class node reachable from `xroot`.
//! 9. **Sealed extents**: every reachable extent's block image is
//!    exactly what the encoder writes for a strictly increasing pair
//!    sequence (so image equality is pair-set equality, and `persist`
//!    will accept what it wrote).
//! 10. **Label columns**: every built node column of a label `l` is
//!     `T(l)`'s end nodes — the sorted, distinct `to` of the data edges
//!     labelled `l`, and the sorted, distinct end nodes of the extents
//!     of `l`'s whole `H_APEX` subtree.

use std::collections::HashSet;

use xmlgraph::{LabelId, XmlGraph};

use crate::index::Apex;

/// Violations found by [`check`] (empty = healthy).
pub type Violations = Vec<String>;

/// Runs all integrity checks of `apex` against `g`.
pub fn check(g: &XmlGraph, apex: &Apex) -> Violations {
    let mut out = Violations::new();
    check_entry_exclusivity(apex, &mut out);
    check_simulation(g, apex, &mut out);
    check_phantom_paths(g, apex, &mut out);
    check_extent_labels(g, apex, &mut out);
    check_label_coverage(g, apex, &mut out);
    check_determinism(apex, &mut out);
    check_arenas(apex, &mut out);
    check_sealed_extents(apex, &mut out);
    check_label_columns(g, apex, &mut out);
    out
}

fn check_entry_exclusivity(apex: &Apex, out: &mut Violations) {
    let ht = apex.hash_tree();
    for i in 0..ht.allocated() as u32 {
        let node = ht.node(crate::hashtree::HNodeId(i));
        for (label, e) in node.entries_iter() {
            if e.next.is_some() && e.xnode.is_some() {
                out.push(format!(
                    "hnode {i} entry label#{} has both next and xnode",
                    label.0
                ));
            }
        }
    }
}

fn check_simulation(g: &XmlGraph, apex: &Apex, out: &mut Violations) {
    let mut seen: HashSet<(u32, u32)> = HashSet::new();
    let mut stack = vec![(g.root(), apex.xroot())];
    while let Some((v, x)) = stack.pop() {
        if !seen.insert((v.0, x.0)) {
            continue;
        }
        for e in g.out_edges(v) {
            match apex.out_edges(x).iter().find(|(l, _)| *l == e.label) {
                Some(&(_, child)) => stack.push((e.to, child)),
                None => out.push(format!(
                    "Theorem 1 violated: no simulating edge for {} -{}-> {} from class {}",
                    v.0,
                    g.label_str(e.label),
                    e.to.0,
                    x.0
                )),
            }
        }
    }
}

fn check_phantom_paths(g: &XmlGraph, apex: &Apex, out: &mut Violations) {
    let mut data_pairs: HashSet<(LabelId, LabelId)> = HashSet::new();
    for (_, l1, mid) in g.edges() {
        for e in g.out_edges(mid) {
            data_pairs.insert((l1, e.label));
        }
    }
    for x in apex.graph().reachable(apex.xroot()) {
        let Some(inc) = apex.incoming_label(x) else {
            continue;
        };
        for &(l2, _) in apex.out_edges(x) {
            if !data_pairs.contains(&(inc, l2)) {
                out.push(format!(
                    "Theorem 2 violated: index path {}.{} absent from data",
                    g.label_str(inc),
                    g.label_str(l2)
                ));
            }
        }
    }
}

fn check_extent_labels(g: &XmlGraph, apex: &Apex, out: &mut Violations) {
    let edge_exists = |from: xmlgraph::NodeId, label: LabelId, to: xmlgraph::NodeId| {
        g.out_edges(from)
            .iter()
            .any(|e| e.label == label && e.to == to)
    };
    for x in apex.graph().reachable(apex.xroot()) {
        let Some(inc) = apex.incoming_label(x) else {
            // xroot: extent must be exactly <NULL, root>.
            let pairs = apex.extent(x).to_vec();
            if pairs.len() != 1 || !pairs[0].parent.is_null() || pairs[0].node != g.root() {
                out.push("xroot extent is not {<NULL, root>}".to_string());
            }
            continue;
        };
        for p in apex.extent(x).to_vec() {
            if p.parent.is_null() || !edge_exists(p.parent, inc, p.node) {
                out.push(format!(
                    "extent of class {} (label {}) holds non-edge <{},{}>",
                    x.0,
                    g.label_str(inc),
                    p.parent.0,
                    p.node.0
                ));
            }
        }
    }
}

fn check_label_coverage(g: &XmlGraph, apex: &Apex, out: &mut Violations) {
    // For every label, union of located class extents == T(label).
    let mut t: Vec<Vec<(u32, u32)>> = vec![Vec::new(); g.label_count()];
    for (from, l, to) in g.edges() {
        t[l.idx()].push((from.0, to.0));
    }
    for label in (0..g.label_count() as u32).map(LabelId) {
        let expected = {
            let mut v = t[label.idx()].clone();
            v.sort_unstable();
            v.dedup();
            v
        };
        if expected.is_empty() {
            continue; // label exists only as a node tag (e.g. root tag)
        }
        let seg = apex.segment_nodes(&[label]);
        if !seg.exact {
            out.push(format!(
                "single label {} is not exact in H_APEX",
                g.label_str(label)
            ));
            continue;
        }
        let mut union: Vec<(u32, u32)> = Vec::new();
        for x in &seg.xnodes {
            let pairs = apex.extent(*x).to_vec();
            union.extend(pairs.iter().map(|p| (p.parent.0, p.node.0)));
        }
        union.sort_unstable();
        union.dedup();
        if union != expected {
            out.push(format!(
                "T({}) coverage mismatch: {} pairs in index vs {} in data",
                g.label_str(label),
                union.len(),
                expected.len()
            ));
        }
    }
}

fn check_determinism(apex: &Apex, out: &mut Violations) {
    for x in apex.graph().reachable(apex.xroot()) {
        let mut labels: Vec<LabelId> = apex.out_edges(x).iter().map(|(l, _)| *l).collect();
        let before = labels.len();
        labels.sort_unstable();
        labels.dedup();
        if labels.len() != before {
            out.push(format!("class {} has duplicate-label out-edges", x.0));
        }
    }
}

fn check_arenas(apex: &Apex, out: &mut Violations) {
    let (ga, ht) = (apex.graph(), apex.hash_tree());
    let mut live = vec![false; ga.allocated()];
    for x in ga.reachable(apex.xroot()) {
        live[x.idx()] = true;
    }
    let reachable = live.iter().filter(|&&l| l).count();
    if ga.allocated() != reachable {
        out.push(format!(
            "G_APEX arena holds {} nodes, {reachable} reachable from xroot",
            ga.allocated()
        ));
    }
    let mut hnodes = 0usize;
    let mut stack = vec![ht.head()];
    while let Some(h) = stack.pop() {
        hnodes += 1;
        let node = ht.node(h);
        let held = node.entries_iter().filter_map(|(_, e)| e.xnode);
        for x in held.chain(node.remainder) {
            if !live.get(x.idx()).is_some_and(|&l| l) {
                out.push(format!(
                    "hnode {} points at class {} which xroot does not reach",
                    h.0, x.0
                ));
            }
        }
        stack.extend(node.entries_iter().filter_map(|(_, e)| e.next));
    }
    if ht.allocated() != hnodes {
        out.push(format!(
            "H_APEX arena holds {} nodes, {hnodes} reachable from the head",
            ht.allocated()
        ));
    }
}

fn check_sealed_extents(apex: &Apex, out: &mut Violations) {
    for x in apex.graph().reachable(apex.xroot()) {
        if !apex.extent(x).image().check() {
            out.push(format!(
                "extent of class {} is not a sealed image: unsorted pairs, \
                 inconsistent headers or non-canonical encoding",
                x.0
            ));
        }
    }
}

fn check_label_columns(g: &XmlGraph, apex: &Apex, out: &mut Violations) {
    for label in (0..g.label_count() as u32).map(LabelId) {
        let Some(column) = apex.label_column(label).and_then(|slot| slot.get()) else {
            continue;
        };
        let column = column.to_vec();
        let mut data: Vec<_> = g.edges().filter(|e| e.1 == label).map(|e| e.2).collect();
        data.sort_unstable();
        data.dedup();
        let mut held = Vec::new();
        for x in apex.segment_nodes(&[label]).xnodes {
            apex.extent(x).decode_nodes_into(&mut held);
        }
        held.sort_unstable();
        held.dedup();
        if column != data || column != held {
            out.push(format!(
                "label column of {} holds {} nodes: T({}) ends at {} in the data, {} in its classes",
                g.label_str(label),
                column.len(),
                g.label_str(label),
                data.len(),
                held.len()
            ));
        }
    }
}

/// Convenience used by tests: panics with the violation list if any.
pub fn assert_valid(g: &XmlGraph, apex: &Apex) {
    let v = check(g, apex);
    assert!(v.is_empty(), "index integrity violations: {v:#?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::XNodeId;
    use crate::Workload;
    use apex_storage::SuccinctExtent;
    use xmlgraph::builder::moviedb;

    #[test]
    fn fresh_apex0_is_valid() {
        let g = moviedb();
        let apex = Apex::build_initial(&g);
        assert_valid(&g, &apex);
    }

    #[test]
    fn refined_apex_is_valid() {
        let g = moviedb();
        let mut apex = Apex::build_initial(&g);
        let wl = Workload::parse(&g, &["actor.name", "director.movie", "@movie.movie"]).unwrap();
        apex.refine(&g, &wl, 0.1);
        assert_valid(&g, &apex);
        // And after a drift.
        let wl2 = Workload::parse(&g, &["movie.title"]).unwrap();
        apex.refine(&g, &wl2, 0.5);
        assert_valid(&g, &apex);
    }

    #[test]
    fn validator_is_sensitive() {
        // Check that the validator actually detects a broken structure:
        // build a graph-level inconsistency by loading a corrupted
        // persisted index (extent pair that is not a data edge).
        let g = moviedb();
        let apex = Apex::build_initial(&g);
        let mut buf = Vec::new();
        crate::persist::save(&apex, &mut buf).unwrap();
        let loaded = crate::persist::load(&mut buf.as_slice()).unwrap();
        // Tamper post-load: shove a bogus pair into a class extent.
        let mut tampered = loaded;
        {
            let ga = tampered.graph_mut_for_tests();
            let x = XNodeId(1);
            let mut pairs = ga.extent(x).to_vec();
            pairs.insert(
                0,
                apex_storage::EdgePair::new(xmlgraph::NodeId(0), xmlgraph::NodeId(0)),
            );
            ga.node_mut(x).extent = SuccinctExtent::from_pairs(&pairs).into();
        }
        let v = check(&g, &tampered);
        assert!(!v.is_empty(), "validator must flag the bogus pair");
        assert!(v.iter().all(|m| !m.contains("sealed")), "{v:#?}");
    }

    #[test]
    fn validator_flags_an_extent_that_is_not_sealed() {
        // Pairs out of order: every kernel assumes sorted blocks, and the
        // image is not one `persist::load` would take back.
        let g = moviedb();
        let mut apex = Apex::build_initial(&g);
        let name = g.label_id("name").unwrap();
        let x = apex.lookup(&[name]).xnode.unwrap();
        let mut pairs = apex.extent(x).to_vec();
        pairs.reverse();
        apex.graph_mut_for_tests().node_mut(x).extent = SuccinctExtent::from_pairs(&pairs).into();
        let v = check(&g, &apex);
        assert!(v.iter().any(|m| m.contains("not a sealed image")), "{v:#?}");
    }

    #[test]
    fn validator_flags_garbage_and_dangling_classes() {
        let g = moviedb();
        let mut apex = Apex::build_initial(&g);
        let orphan = apex.graph_mut_for_tests().new_node(None);
        let v = check(&g, &apex);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].contains("G_APEX arena holds"), "{v:#?}");
        // Point a head entry at the orphan: now it also dangles.
        let name = g.label_id("name").unwrap();
        let mut ht = apex.hash_tree().clone();
        ht.set_xnode(crate::EntryRef::Label(ht.head(), name), orphan);
        let dangling = Apex::from_parts(apex.graph().clone(), ht, apex.xroot());
        let v = check(&g, &dangling);
        assert!(
            v.iter().any(|m| m.contains("which xroot does not reach")),
            "{v:#?}"
        );
    }

    #[test]
    fn validates_generated_datasets() {
        for g in [datagen_small_play(), datagen_small_ged()] {
            let mut apex = Apex::build_initial(&g);
            assert_valid(&g, &apex);
            // Refine with a few single-label queries (always valid).
            let wl = Workload::from_paths(vec![]);
            apex.refine(&g, &wl, 0.5);
            assert_valid(&g, &apex);
        }
    }

    fn datagen_small_play() -> XmlGraph {
        // Inline mini-tree (datagen is not a dependency of this crate).
        let mut b = xmlgraph::GraphBuilder::new("PLAYS");
        let root = b.root();
        for _ in 0..3 {
            let play = b.add_child(root, "PLAY");
            let act = b.add_child(play, "ACT");
            let scene = b.add_child(act, "SCENE");
            b.add_value_child(scene, "LINE", "to be");
        }
        b.finish().unwrap()
    }

    fn datagen_small_ged() -> XmlGraph {
        let mut b = xmlgraph::GraphBuilder::new("gedcom");
        let root = b.root();
        let i1 = b.add_child(root, "indi");
        b.register_id(i1, "I1").unwrap();
        let f1 = b.add_child(root, "fam");
        b.register_id(f1, "F1").unwrap();
        b.add_idref(i1, "fams", "F1");
        b.add_idref(f1, "husb", "I1");
        b.finish().unwrap()
    }
}
