//! `updateAPEX` (§5.3, Figure 11) — incremental re-materialization of
//! `G_APEX` after the required-path set changed.
//!
//! The traversal follows the paper exactly, with two engineering changes
//! that do not alter the fixpoint:
//!
//! 1. The recursion is a worklist (no stack overflow on deep or cyclic
//!    data). Extents grow monotonically and class wiring is a function of
//!    `(class, label)` — see below — so chaotic iteration converges to
//!    the same result as the paper's DFS.
//! 2. Rooted paths carried for `lookup` are capped to the hash tree's
//!    maximum depth + 1 trailing labels: `lookup` never inspects more.
//!
//! **Why the `visited`-skip is sound.** Two facts carry it.
//!
//! *Same children on every arrival.* Extraction counts *all* subpaths
//! of each workload query, so the required-path set is subpath-closed.
//! Consequently the longest required suffix of `p.l` is determined by the
//! longest required suffix of `p` alone: any longer required suffix
//! `r.l` of `p.l` would make `r` required (it is a subpath of `r.l`) and
//! a longer required suffix of `p` — contradiction. Hence every arrival
//! path at a class node extends into the *same* child classes, and one
//! verification per node per run suffices (Figure 11 line 1). Seed
//! [`crate::Apex::refine`] keeps this invariant; seeding a
//! non-subpath-closed required set by hand would not be faithful to the
//! paper either.
//!
//! *Verify before delta.* A node's out-edges are the only record of
//! which child classes already hold its extent's contribution: an edge
//! that still points where `H_APEX` points means "the whole extent is
//! accounted for there", an edge that points elsewhere means "recompute
//! this child's slice from the whole extent". The delta pass retargets
//! edges after contributing only the delta's slice, so it destroys that
//! record. A node therefore takes its verification pass — whole extent,
//! against the wiring the previous run left — **before** its first delta
//! pass in a run; afterwards every edge is current and later deltas need
//! only their own slice. (Running the delta pass first is what lost rows
//! under a drifting hot set: a rebuilt child class received the delta's
//! pairs, the edge was retargeted, and the later verification found the
//! wiring "already correct".)
//!
//! **Extents are opened, mutated, sealed.** A class node's stored
//! extent is an immutable block image. The first time a run adds to a
//! node it decodes that image into an `EdgeSet` (`GApex::open_extent`);
//! every later step works on the decoded set; `GApex::seal` encodes
//! each opened node once when the worklist is empty. A node the run
//! only *reads* (a verification pass over its whole extent) is decoded
//! for that read and not kept; a node the run does not reach — every
//! node, when nothing changed — is neither decoded nor re-encoded.

use std::collections::HashMap;

use apex_storage::{EdgePair, EdgeSet};
use xmlgraph::{LabelId, XmlGraph};

use crate::graph::{GApex, XNodeId};
use crate::hashtree::HashTree;

/// A rooted label path capped to its last `cap` labels — all `lookup`
/// ever needs (see module docs).
#[derive(Debug, Clone)]
struct RollingPath {
    labels: Vec<LabelId>,
}

impl RollingPath {
    fn empty() -> Self {
        RollingPath { labels: Vec::new() }
    }

    fn extended(&self, l: LabelId, cap: usize) -> Self {
        let mut labels = Vec::with_capacity(self.labels.len().min(cap) + 1);
        let start = if self.labels.len() >= cap {
            self.labels.len() + 1 - cap
        } else {
            0
        };
        labels.extend_from_slice(&self.labels[start..]);
        labels.push(l);
        RollingPath { labels }
    }
}

/// Groups the outgoing data edges of the end nodes of `pairs` by label
/// (the `ESet` computation of Figures 6 and 11), keeping only the labels
/// `wanted` accepts. Groups come back in label order; labels are dense
/// small integers, so bucketing is an index, not a hash.
fn group_out_edges(
    g: &XmlGraph,
    pairs: &[EdgePair],
    wanted: impl Fn(LabelId) -> bool,
) -> Vec<(LabelId, Vec<EdgePair>)> {
    let mut buckets: Vec<Vec<EdgePair>> = vec![Vec::new(); g.label_count()];
    for p in pairs {
        for e in g.out_edges(p.node) {
            if wanted(e.label) {
                buckets[e.label.idx()].push(EdgePair::new(p.node, e.to));
            }
        }
    }
    let labeled = buckets.into_iter().enumerate();
    labeled
        .filter(|(_, group)| !group.is_empty())
        .map(|(l, group)| (LabelId(l as u32), group))
        .collect()
}

/// Runs `updateAPEX(xroot, ∅, NULL)` over the whole index.
///
/// Returns the number of worklist steps (a determinism-friendly measure
/// of update cost, reported by the ablation bench): one per reachable
/// class node when nothing changed, plus one per propagated delta.
pub fn update_apex(g: &XmlGraph, ga: &mut GApex, ht: &mut HashTree, xroot: XNodeId) -> usize {
    ga.reset_visited();
    let cap = ht.max_depth() + 1;
    let mut steps = 0usize;
    let mut scratch: Vec<EdgePair> = Vec::new();
    // Decoded extents of the nodes this run has added to (module docs).
    let mut open: HashMap<XNodeId, EdgeSet> = HashMap::new();
    // (node, ΔESet, rooted path). LIFO ≈ the paper's DFS.
    let mut work: Vec<(XNodeId, EdgeSet, RollingPath)> =
        vec![(xroot, EdgeSet::new(), RollingPath::empty())];

    while let Some((xnode, delta, path)) = work.pop() {
        let verified = std::mem::replace(&mut ga.node_mut(xnode).visited, true);
        if verified && delta.is_empty() {
            continue; // Figure 11 line 1
        }
        steps += 1;

        // (label, located entry, rooted path, the child's slice of the
        // extent or of the delta).
        let mut rewire = Vec::new();
        if !verified {
            // Verification pass: re-check every child's wiring against
            // H_APEX (Figure 11 lines 4–22) — before any delta pass
            // retargets an edge (module docs).
            let mut stale = Vec::new();
            for &(label, end) in &ga.node(xnode).edges {
                let newpath = path.extended(label, cap);
                let mut probes = 0u64;
                let Some(loc) = ht.locate(&newpath.labels, &mut probes) else {
                    continue; // label unknown to H_APEX (cannot happen
                              // after build_apex0; defensive)
                };
                if ht.xnode_of(loc.entry) == Some(end) {
                    // Wiring already correct: descend with ∅.
                    work.push((end, EdgeSet::new(), newpath));
                } else {
                    stale.push((label, loc.entry, newpath));
                }
            }
            if !stale.is_empty() {
                // Recompute the mis-wired children's slices of the whole
                // extent from G_XML, in one scan.
                let decoded;
                let extent = match open.get(&xnode) {
                    Some(set) => set.pairs(),
                    None => {
                        decoded = ga.extent(xnode).to_vec();
                        &decoded
                    }
                };
                let mut groups =
                    group_out_edges(g, extent, |l| stale.iter().any(|(label, ..)| *label == l));
                for (label, entry, newpath) in stale {
                    let group = groups.iter_mut().find(|(l, _)| *l == label);
                    let slice = group.map(|(_, slice)| std::mem::take(slice));
                    rewire.push((label, entry, newpath, slice.unwrap_or_default()));
                }
            }
        }
        if !delta.is_empty() {
            // Extent-delta pass (Figure 11 lines 23–37).
            for (label, slice) in group_out_edges(g, delta.pairs(), |_| true) {
                let newpath = path.extended(label, cap);
                let mut probes = 0u64;
                if let Some(loc) = ht.locate(&newpath.labels, &mut probes) {
                    rewire.push((label, loc.entry, newpath, slice));
                }
            }
        }
        for (label, entry, newpath, slice) in rewire {
            let xchild = ht
                .xnode_of(entry)
                .unwrap_or_else(|| ga.new_node(Some(label)));
            let extent = ga.open_extent(&mut open, xchild);
            let dnew = EdgeSet::from_pairs(slice).difference(extent);
            extent.union_in_place(&dnew, &mut scratch);
            ga.make_edge(xnode, xchild, label);
            ht.set_xnode(entry, xchild);
            work.push((xchild, dnew, newpath));
        }
    }
    ga.seal(open);
    steps
}

/// Certifies that two indexes over the same graph are
/// *extent-equivalent*: they answer every label-path query with the
/// same extent. Returns the first discrepancy as an error message.
///
/// Used by the update-equivalence suite to check that incremental
/// `updateAPEX` on a live index converges to the same fixpoint as a
/// from-scratch build over the final workload. The probe set is the
/// union of both indexes' required paths, every single label, and every
/// required path extended by one label on either side — by the
/// subpath-closure argument in the module docs, a divergence in any
/// longer path implies a divergence in one of these.
pub fn extent_equivalent(g: &XmlGraph, a: &crate::Apex, b: &crate::Apex) -> Result<(), String> {
    use std::collections::BTreeSet;

    let req_a: BTreeSet<String> = a.required_paths(g).into_iter().collect();
    let req_b: BTreeSet<String> = b.required_paths(g).into_iter().collect();
    if req_a != req_b {
        let only_a: Vec<_> = req_a.difference(&req_b).cloned().collect();
        let only_b: Vec<_> = req_b.difference(&req_a).cloned().collect();
        return Err(format!(
            "required paths differ: only in a: {only_a:?}; only in b: {only_b:?}"
        ));
    }

    let all_labels: Vec<LabelId> = (0..g.label_count() as u32).map(LabelId).collect();
    let mut probes: BTreeSet<Vec<LabelId>> = BTreeSet::new();
    for l in &all_labels {
        probes.insert(vec![*l]);
    }
    for rendered in &req_a {
        let Some(path) = xmlgraph::LabelPath::parse(g, rendered) else {
            return Err(format!("required path {rendered:?} fails to re-parse"));
        };
        let base = path.labels().to_vec();
        probes.insert(base.clone());
        for l in &all_labels {
            let mut pre = Vec::with_capacity(base.len() + 1);
            pre.push(*l);
            pre.extend_from_slice(&base);
            probes.insert(pre);
            let mut suf = base.clone();
            suf.push(*l);
            probes.insert(suf);
        }
    }

    for path in &probes {
        let rendered = || {
            path.iter()
                .map(|l| g.labels().resolve(*l).to_string())
                .collect::<Vec<_>>()
                .join(".")
        };
        let la = a.lookup(path);
        let lb = b.lookup(path);
        if la.matched_len != lb.matched_len {
            return Err(format!(
                "lookup({}) matched_len {} vs {}",
                rendered(),
                la.matched_len,
                lb.matched_len
            ));
        }
        match (la.xnode, lb.xnode) {
            (None, None) => {}
            (Some(xa), Some(xb)) => {
                if a.extent(xa) != b.extent(xb) {
                    return Err(format!(
                        "lookup({}) extents differ: {} vs {} pairs",
                        rendered(),
                        a.extent(xa).len(),
                        b.extent(xb).len()
                    ));
                }
            }
            (xa, xb) => {
                return Err(format!(
                    "lookup({}) materialization differs: {} vs {}",
                    rendered(),
                    xa.is_some(),
                    xb.is_some()
                ));
            }
        }
    }

    let sa = a.stats();
    let sb = b.stats();
    if sa != sb {
        return Err(format!("index stats differ: {sa:?} vs {sb:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_path_caps_history() {
        let p = RollingPath::empty();
        let p = p.extended(LabelId(1), 3);
        let p = p.extended(LabelId(2), 3);
        let p = p.extended(LabelId(3), 3);
        assert_eq!(p.labels, vec![LabelId(1), LabelId(2), LabelId(3)]);
        let p = p.extended(LabelId(4), 3);
        assert_eq!(p.labels, vec![LabelId(2), LabelId(3), LabelId(4)]);
    }

    // End-to-end behaviour of update_apex is exercised through
    // `crate::index` tests (Figure 2 / Figure 12 reconstructions) and the
    // cross-crate equivalence tests in `tests/`.
}
