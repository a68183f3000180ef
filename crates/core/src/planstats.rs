//! Live planning statistics — the statistics layer of the cost-based
//! planner (`apex_query::plan`).
//!
//! A [`PlanStats`] is an immutable per-generation summary of everything
//! the planner needs to predict operator costs *without touching the
//! index itself at plan time*: per-extent cardinalities, block counts,
//! parent/node bounds and resident bytes — exact, O(1) reads of the
//! stored extents, so the statistics are a function of the index and
//! nothing else (in particular not of which queries ran before
//! assembly) — plus the windowed workload
//! supports from the [`WorkloadMonitor`](crate::monitor::WorkloadMonitor)
//! and the buffer pool's resident-page count. It is published alongside
//! the index inside every [`Snapshot`](crate::serve::Snapshot), so the
//! background [`Refresher`](crate::serve::Refresher) keeps the planner's
//! view fresh under live traffic with no extra locking.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::collections::HashMap;

use apex_storage::SuccinctExtent;
use xmlgraph::{LabelPath, NodeId};

use crate::index::Apex;
use crate::workload::Workload;

/// Cheap summary of one stored extent, keyed by its class node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtentStat {
    /// Pair count (exact).
    pub pairs: usize,
    /// Stored-block count (exact).
    pub blocks: usize,
    /// Upper bound on the distinct end-node count: the pair count. (The
    /// exact figure would cost a sort of the whole extent.)
    pub ends: usize,
    /// `(min, max)` parent of the extent (`None` when empty).
    pub parent_bounds: Option<(NodeId, NodeId)>,
    /// `(min, max)` end node of the extent (`None` when empty).
    pub node_bounds: Option<(NodeId, NodeId)>,
    /// Bytes the extent keeps resident (exact): compressed payload +
    /// headers + directory + samples.
    pub resident_bytes: usize,
}

impl ExtentStat {
    /// Reads the summary off a stored extent.
    pub fn of(set: &SuccinctExtent) -> ExtentStat {
        ExtentStat {
            pairs: set.len(),
            blocks: set.num_blocks(),
            ends: set.len(),
            parent_bounds: set.parent_bounds(),
            node_bounds: set.node_bounds(),
            resident_bytes: set.resident_bytes(),
        }
    }

    /// Fraction of this extent's pairs whose parent could fall inside
    /// `bounds` under a uniform-spread assumption — the interval-overlap
    /// selectivity the planner uses to size a semijoin between two
    /// stages before running anything.
    pub fn parent_overlap(&self, bounds: Option<(NodeId, NodeId)>) -> f64 {
        let (Some((my_lo, my_hi)), Some((lo, hi))) = (self.parent_bounds, bounds) else {
            return 0.0;
        };
        let span = (my_hi.0.saturating_sub(my_lo.0) as f64) + 1.0;
        let olo = my_lo.0.max(lo.0);
        let ohi = my_hi.0.min(hi.0);
        if olo > ohi {
            return 0.0;
        }
        (((ohi - olo) as f64) + 1.0) / span
    }
}

/// Immutable statistics snapshot for one index generation.
#[derive(Debug, Clone, Default)]
pub struct PlanStats {
    generation: u64,
    extents: HashMap<u32, ExtentStat>,
    total_pairs: u64,
    supports: HashMap<LabelPath, f64>,
    resident_pages: u64,
}

impl PlanStats {
    /// Summarizes every extent reachable from `xroot`. Each summary is
    /// a handful of O(1) reads of the stored extent's directory: no
    /// payload byte is decoded and no page is faulted.
    pub fn assemble(index: &Apex) -> PlanStats {
        let mut extents = HashMap::new();
        let mut total_pairs = 0u64;
        for x in index.graph().reachable(index.xroot()) {
            let set = index.extent(x);
            total_pairs += set.len() as u64;
            extents.insert(x.0, ExtentStat::of(set));
        }
        PlanStats {
            generation: 0,
            extents,
            total_pairs,
            supports: HashMap::new(),
            resident_pages: 0,
        }
    }

    /// Stamps the generation this snapshot describes.
    pub fn with_generation(mut self, generation: u64) -> PlanStats {
        self.generation = generation;
        self
    }

    /// Folds in the windowed workload: each distinct query path and its
    /// support. Used by the refresher so the planner sees the same
    /// window that drove the refinement it is planning against.
    pub fn with_workload(mut self, wl: &Workload) -> PlanStats {
        self.supports.clear();
        for q in wl.iter() {
            if !self.supports.contains_key(q) {
                let s = wl.support(q);
                self.supports.insert(q.clone(), s);
            }
        }
        self
    }

    /// Folds in the buffer pool's resident-page count at assembly time.
    pub fn with_residency(mut self, resident_pages: u64) -> PlanStats {
        self.resident_pages = resident_pages;
        self
    }

    /// The generation these statistics describe.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The summary for class node `x`, if it was reachable at assembly.
    pub fn extent(&self, x: u32) -> Option<&ExtentStat> {
        self.extents.get(&x)
    }

    /// Number of summarized extents.
    pub fn len(&self) -> usize {
        self.extents.len()
    }

    /// True when no extent was summarized.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Total pairs across all summarized extents.
    pub fn total_pairs(&self) -> u64 {
        self.total_pairs
    }

    /// Windowed support of `p` (0.0 when unseen or no workload folded).
    pub fn path_support(&self, p: &LabelPath) -> f64 {
        self.supports.get(p).copied().unwrap_or(0.0)
    }

    /// Number of distinct workload paths folded in.
    pub fn workload_paths(&self) -> usize {
        self.supports.len()
    }

    /// Resident pages of the pool at assembly time (0 if not folded).
    pub fn resident_pages(&self) -> u64 {
        self.resident_pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::builder::moviedb;
    use xmlgraph::XmlGraph;

    fn path(g: &XmlGraph, s: &str) -> LabelPath {
        LabelPath::parse(g, s).unwrap()
    }

    #[test]
    fn assemble_summarizes_every_reachable_extent() {
        let g = moviedb();
        let idx = Apex::build_initial(&g);
        let st = PlanStats::assemble(&idx).with_generation(3);
        assert_eq!(st.generation(), 3);
        assert_eq!(st.len(), idx.graph().reachable(idx.xroot()).len());
        let mut pairs = 0u64;
        for x in idx.graph().reachable(idx.xroot()) {
            let e = st.extent(x.0).expect("reachable node summarized");
            let set = idx.extent(x);
            assert_eq!(e.pairs, set.len());
            pairs += set.len() as u64;
            if !set.is_empty() {
                assert_eq!(e.parent_bounds, set.parent_bounds());
                assert_eq!(e.node_bounds, set.node_bounds());
                assert_eq!(e.blocks, set.num_blocks());
                assert!(e.blocks >= 1);
                assert!(e.ends <= e.pairs);
                assert_eq!(e.resident_bytes, set.resident_bytes());
            }
        }
        assert_eq!(st.total_pairs(), pairs);
        assert!(!st.is_empty());
    }

    #[test]
    fn workload_and_residency_fold_in() {
        let g = moviedb();
        let idx = Apex::build_initial(&g);
        let wl = Workload::parse(&g, &["actor.name", "actor.name", "movie.title"]).unwrap();
        let st = PlanStats::assemble(&idx)
            .with_workload(&wl)
            .with_residency(17);
        assert_eq!(st.workload_paths(), 2);
        let an = path(&g, "actor.name");
        assert!((st.path_support(&an) - 2.0 / 3.0).abs() < 1e-9);
        let cold = path(&g, "director.movie");
        assert_eq!(st.path_support(&cold), 0.0);
        assert_eq!(st.resident_pages(), 17);
    }

    #[test]
    fn parent_overlap_is_a_fraction() {
        let e = ExtentStat {
            pairs: 100,
            blocks: 1,
            ends: 100,
            parent_bounds: Some((NodeId(10), NodeId(29))),
            node_bounds: Some((NodeId(0), NodeId(99))),
            resident_bytes: 400,
        };
        // Full overlap.
        assert!((e.parent_overlap(Some((NodeId(0), NodeId(100)))) - 1.0).abs() < 1e-9);
        // Half overlap: 10..=19 of 10..=29.
        assert!((e.parent_overlap(Some((NodeId(0), NodeId(19)))) - 0.5).abs() < 1e-9);
        // Disjoint and empty.
        assert_eq!(e.parent_overlap(Some((NodeId(40), NodeId(50)))), 0.0);
        assert_eq!(e.parent_overlap(None), 0.0);
        assert_eq!(
            ExtentStat::default().parent_overlap(Some((NodeId(0), NodeId(1)))),
            0.0
        );
    }
}
