//! The [`Apex`] facade: lifecycle, lookup and query-support API.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use apex_storage::SuccinctExtent;
use xmlgraph::{LabelId, XmlGraph};

use crate::build0::build_apex0;
use crate::extract::extract_frequent;
use crate::graph::{GApex, XNodeId};
use crate::hashtree::{HashTree, QueryNodes};
use crate::update::update_apex;
use crate::workload::Workload;

/// Result of a Figure 9 lookup through the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// The `G_APEX` node of the longest required suffix (if materialized).
    pub xnode: Option<XNodeId>,
    /// Number of trailing labels that suffix covers.
    pub matched_len: usize,
}

/// The `G_APEX` nodes whose extents a query segment must union; alias of
/// the hash tree's result type.
pub type SegmentNodes = QueryNodes;

/// A stored extent together with its stable storage identity — what
/// the execution layer's operators take, so every access is
/// attributable to one buffer-pool object.
#[derive(Debug, Clone, Copy)]
pub struct ExtentRef<'a> {
    /// Buffer-pool object id (the class node's arena index).
    pub id: u64,
    /// The stored extent.
    pub set: &'a SuccinctExtent,
}

/// Size of the index as reported in Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// `G_APEX` nodes reachable from `xroot`.
    pub nodes: usize,
    /// `G_APEX` edges reachable from `xroot`.
    pub edges: usize,
    /// Labeled entries in `H_APEX`.
    pub hash_entries: usize,
    /// Length of the longest required path.
    pub max_required_len: usize,
    /// Total extent pairs stored on reachable nodes.
    pub extent_pairs: usize,
    /// Stored size of the reachable extents in the packed frame
    /// encoding (frame headers plus payload words).
    pub extent_encoded_bytes: usize,
    /// Uncompressed size of the same extents (8 bytes per pair).
    pub extent_raw_bytes: usize,
    /// Bytes the extents keep resident: packed payload + in-memory
    /// frame and block headers + the rank/select directory.
    /// This is all an index holds per extent — there is no decoded copy
    /// beside it.
    pub extent_resident_bytes: usize,
}

/// The adaptive path index (graph + hash tree + root).
#[derive(Debug, Clone)]
pub struct Apex {
    ga: GApex,
    ht: HashTree,
    xroot: XNodeId,
}

impl Apex {
    /// Builds `APEX⁰` (Figure 6): the initial index whose required paths
    /// are exactly the label paths of length one.
    pub fn build_initial(g: &XmlGraph) -> Self {
        let (ga, ht, xroot) = build_apex0(g);
        Apex { ga, ht, xroot }
    }

    /// Reassembles an index from its parts (persistence load path).
    pub fn from_parts(ga: GApex, ht: HashTree, xroot: XNodeId) -> Self {
        Apex { ga, ht, xroot }
    }

    /// Adapts the index to `workload` at threshold `min_sup` — Figure 8
    /// (extraction + pruning) followed by Figure 11 (incremental update)
    /// — then collects both arenas, so the index that is cloned,
    /// persisted and recovered holds exactly its live nodes under ids
    /// that depend on its shape alone. Extents the update changed are
    /// re-encoded once each; the rest keep their bytes. Returns the
    /// number of update steps performed.
    pub fn refine(&mut self, g: &XmlGraph, workload: &Workload, min_sup: f64) -> usize {
        extract_frequent(&mut self.ht, workload, min_sup);
        let steps = update_apex(g, &mut self.ga, &mut self.ht, self.xroot);
        let xmap = self.ga.compact(self.xroot);
        debug_assert!(
            {
                let mut held = Vec::new();
                self.ht.subtree_xnodes(self.ht.head(), &mut held);
                held.iter()
                    .all(|x| xmap.get(x.idx()).is_some_and(Option::is_some))
            },
            "H_APEX holds a class node that xroot does not reach"
        );
        self.ht.compact(&xmap);
        self.xroot = XNodeId(0);
        steps
    }

    /// The root node of `G_APEX`.
    #[inline]
    pub fn xroot(&self) -> XNodeId {
        self.xroot
    }

    /// Figure 9 lookup: the class node of the longest required suffix of
    /// `path`. `probes` (if provided) accumulates hash lookups.
    pub fn lookup(&self, path: &[LabelId]) -> Lookup {
        let mut probes = 0u64;
        self.lookup_counted(path, &mut probes)
    }

    /// [`Apex::lookup`] with cost accounting.
    pub fn lookup_counted(&self, path: &[LabelId], probes: &mut u64) -> Lookup {
        match self.ht.locate(path, probes) {
            None => Lookup {
                xnode: None,
                matched_len: 0,
            },
            Some(loc) => Lookup {
                xnode: self.ht.xnode_of(loc.entry),
                matched_len: loc.matched_len,
            },
        }
    }

    /// The class nodes a query on `path` must union (exact iff the whole
    /// `path` is a required path) — the §6.1 query-processing primitive.
    pub fn segment_nodes(&self, path: &[LabelId]) -> SegmentNodes {
        self.ht.query_nodes(path)
    }

    /// Extent of a class node.
    #[inline]
    pub fn extent(&self, x: XNodeId) -> &SuccinctExtent {
        self.ga.extent(x)
    }

    /// Extent of a class node as a storage handle: the stored extent
    /// plus the buffer-pool identity the execution layer charges reads
    /// against.
    #[inline]
    pub fn extent_ref(&self, x: XNodeId) -> ExtentRef<'_> {
        ExtentRef {
            id: x.0 as u64,
            set: self.ga.extent(x),
        }
    }

    /// Outgoing `G_APEX` edges of a class node.
    #[inline]
    pub fn out_edges(&self, x: XNodeId) -> &[(LabelId, XNodeId)] {
        &self.ga.node(x).edges
    }

    /// Incoming label of a class node (`None` for `xroot`).
    #[inline]
    pub fn incoming_label(&self, x: XNodeId) -> Option<LabelId> {
        self.ga.node(x).incoming
    }

    /// The underlying graph (read-only).
    pub fn graph(&self) -> &GApex {
        &self.ga
    }

    /// The underlying hash tree (read-only).
    pub fn hash_tree(&self) -> &HashTree {
        &self.ht
    }

    /// Mutable graph access for in-crate negative tests only.
    #[cfg(test)]
    pub(crate) fn graph_mut_for_tests(&mut self) -> &mut GApex {
        &mut self.ga
    }

    /// Index sizes (Table 2).
    pub fn stats(&self) -> IndexStats {
        let (nodes, edges) = self.ga.reachable_stats(self.xroot);
        let mut extent_pairs = 0;
        let mut extent_encoded_bytes = 0;
        let mut extent_raw_bytes = 0;
        let mut extent_resident_bytes = 0;
        for &x in &self.ga.reachable(self.xroot) {
            let e = self.ga.extent(x);
            extent_pairs += e.len();
            extent_encoded_bytes += e.image().encoded_bytes();
            extent_raw_bytes += e.len() * std::mem::size_of::<(u32, u32)>();
            extent_resident_bytes += e.resident_bytes();
        }
        IndexStats {
            nodes,
            edges,
            hash_entries: self.ht.entry_count(),
            max_required_len: self.ht.max_depth(),
            extent_pairs,
            extent_encoded_bytes,
            extent_raw_bytes,
            extent_resident_bytes,
        }
    }

    /// Renders the current required-path set (debug/test aid).
    pub fn required_paths(&self, g: &XmlGraph) -> Vec<String> {
        self.ht
            .required_paths()
            .iter()
            .map(|p| g.render_path(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    fn pairs(e: &SuccinctExtent) -> Vec<(u32, u32)> {
        let pairs = e.to_vec();
        pairs.iter().map(|p| (p.parent.0, p.node.0)).collect()
    }

    /// The Figure 2 index: required paths = singles ∪
    /// {director.movie, @movie.movie, actor.name}.
    fn figure2() -> (xmlgraph::XmlGraph, Apex) {
        let g = moviedb();
        let mut idx = Apex::build_initial(&g);
        let wl = Workload::parse(&g, &["director.movie", "@movie.movie", "actor.name"]).unwrap();
        idx.refine(&g, &wl, 0.1);
        (g, idx)
    }

    #[test]
    fn figure2_required_paths() {
        let (g, idx) = figure2();
        let req = idx.required_paths(&g);
        assert!(req.contains(&"director.movie".to_string()));
        assert!(req.contains(&"@movie.movie".to_string()));
        assert!(req.contains(&"actor.name".to_string()));
        // Singles all present.
        for s in ["actor", "name", "movie", "title", "@movie"] {
            assert!(req.contains(&s.to_string()), "missing single {s}");
        }
    }

    #[test]
    fn figure2_actor_name_extent() {
        let (g, idx) = figure2();
        let p = LabelPath::parse(&g, "actor.name").unwrap();
        let hit = idx.lookup(p.labels());
        assert_eq!(hit.matched_len, 2);
        let x = hit.xnode.expect("actor.name class materialized");
        // T^R(actor.name) = T(actor.name) = {<2,3>, <4,5>} (§4).
        assert_eq!(pairs(idx.extent(x)), vec![(2, 3), (4, 5)]);
    }

    #[test]
    fn figure2_name_remainder_extent() {
        let (g, idx) = figure2();
        // lookup(director.name): subnode of `name` has no `director`
        // entry -> remainder class = T^R(name) = {<7,11>, <12,13>} (§4).
        let p = LabelPath::parse(&g, "director.name").unwrap();
        let hit = idx.lookup(p.labels());
        assert_eq!(hit.matched_len, 1);
        let x = hit.xnode.expect("remainder of name materialized");
        assert_eq!(pairs(idx.extent(x)), vec![(7, 11), (12, 13)]);
    }

    #[test]
    fn figure2_name_query_union_is_t_name() {
        let (g, idx) = figure2();
        let p = LabelPath::parse(&g, "name").unwrap();
        let seg = idx.segment_nodes(p.labels());
        assert!(seg.exact);
        let mut union: Vec<(u32, u32)> = Vec::new();
        for x in &seg.xnodes {
            union.extend(pairs(idx.extent(*x)));
        }
        union.sort_unstable();
        // T(name) = {<2,3>, <4,5>, <7,11>, <12,13>}.
        assert_eq!(union, vec![(2, 3), (4, 5), (7, 11), (12, 13)]);
    }

    #[test]
    fn figure2_at_movie_movie_extent() {
        let (g, idx) = figure2();
        let p = LabelPath::parse(&g, "@movie.movie").unwrap();
        let hit = idx.lookup(p.labels());
        assert_eq!(hit.matched_len, 2);
        let x = hit.xnode.unwrap();
        // @movie attr nodes 9 (->movie 8) and 16 (->movie 14).
        assert_eq!(pairs(idx.extent(x)), vec![(9, 8), (16, 14)]);
    }

    #[test]
    fn figure2_movie_remainder() {
        let (g, idx) = figure2();
        // movie instances: <0,14> (root), <7,8> (director.movie),
        // <9,8>,<16,14> (@movie.movie). With director.movie and
        // @movie.movie required, T^R(movie) = {<0,14>}.
        let p = LabelPath::parse(&g, "actor.movie").unwrap(); // no such required path
        let hit = idx.lookup(p.labels());
        assert_eq!(hit.matched_len, 1);
        let x = hit.xnode.expect("movie remainder");
        assert_eq!(pairs(idx.extent(x)), vec![(0, 14)]);
    }

    #[test]
    fn figure2_director_movie_extent() {
        let (g, idx) = figure2();
        let p = LabelPath::parse(&g, "director.movie").unwrap();
        let x = idx.lookup(p.labels()).xnode.unwrap();
        assert_eq!(pairs(idx.extent(x)), vec![(7, 8)]);
    }

    #[test]
    fn apex0_lookup_is_single_label() {
        let g = moviedb();
        let idx = Apex::build_initial(&g);
        let p = LabelPath::parse(&g, "actor.name").unwrap();
        let hit = idx.lookup(p.labels());
        assert_eq!(hit.matched_len, 1); // only `name` matches
        let seg = idx.segment_nodes(p.labels());
        assert!(!seg.exact);
    }

    #[test]
    fn simulation_property_theorem1() {
        // Every data edge must be simulated by a G_APEX edge: walking any
        // rooted data path through G_APEX (greedily via H_APEX classes)
        // must never get stuck.
        let (g, idx) = figure2();
        // BFS over data graph carrying the corresponding G_APEX node.
        use std::collections::{HashSet, VecDeque};
        let mut seen: HashSet<(xmlgraph::NodeId, XNodeId)> = HashSet::new();
        let mut q = VecDeque::new();
        q.push_back((g.root(), idx.xroot()));
        while let Some((v, x)) = q.pop_front() {
            if !seen.insert((v, x)) {
                continue;
            }
            for e in g.out_edges(v) {
                let xchild = idx
                    .out_edges(x)
                    .iter()
                    .find(|(l, _)| *l == e.label)
                    .map(|(_, t)| *t);
                let xchild = xchild.unwrap_or_else(|| {
                    panic!(
                        "no simulating edge for data edge {}-{}->{}",
                        v.0,
                        g.label_str(e.label),
                        e.to.0
                    )
                });
                q.push_back((e.to, xchild));
            }
        }
    }

    #[test]
    fn theorem2_all_index_length2_paths_exist_in_data() {
        let (g, idx) = figure2();
        // Collect data length-2 label pairs.
        let mut data_pairs = std::collections::HashSet::new();
        for (_, l1, mid) in g.edges() {
            for e in g.out_edges(mid) {
                data_pairs.insert((l1, e.label));
            }
        }
        for x in idx.graph().reachable(idx.xroot()) {
            let Some(inc) = idx.incoming_label(x) else {
                continue;
            };
            for &(l2, _) in idx.out_edges(x) {
                assert!(
                    data_pairs.contains(&(inc, l2)),
                    "index path {}.{} missing from data",
                    g.label_str(inc),
                    g.label_str(l2)
                );
            }
        }
    }

    #[test]
    fn refine_back_to_initial_shape() {
        // Refining with an empty-ish workload at high minSup collapses
        // APEX back towards APEX⁰: only length-1 required paths.
        let (g, mut_idx) = figure2();
        let mut idx = mut_idx;
        let wl = Workload::parse(&g, &["title"]).unwrap();
        idx.refine(&g, &wl, 1.0);
        let req = idx.required_paths(&g);
        assert!(
            req.iter().all(|p| !p.contains('.')),
            "only singles: {req:?}"
        );
        let s = idx.stats();
        let idx0 = Apex::build_initial(&g);
        let s0 = idx0.stats();
        assert_eq!(s.nodes, s0.nodes);
        assert_eq!(s.edges, s0.edges);
    }

    #[test]
    fn a_clone_shares_every_extent_and_a_refine_replaces_only_what_it_changed() {
        use std::sync::Arc;
        let (g, idx) = figure2();
        let ga = idx.graph();
        let n = ga.allocated() as u32;
        let held = |a: &Apex| {
            (0..a.graph().allocated() as u32)
                .map(|i| Arc::clone(&a.graph().node(XNodeId(i)).extent))
                .collect::<Vec<_>>()
        };
        // A clone copies pointers, not extents.
        let copy = idx.clone();
        assert!(held(&idx)
            .iter()
            .zip(held(&copy))
            .all(|(a, b)| Arc::ptr_eq(a, &b)));
        // A refine that changes nothing keeps every extent it had.
        let mut same = idx.clone();
        let wl = Workload::parse(&g, &["director.movie", "@movie.movie", "actor.name"]).unwrap();
        same.refine(&g, &wl, 0.1);
        assert_eq!(same.graph().allocated() as u32, n);
        assert!(held(&idx)
            .iter()
            .zip(held(&same))
            .all(|(a, b)| Arc::ptr_eq(a, &b)));
        // A drifted one re-encodes the classes it changed and keeps the
        // rest as they were.
        let mut drifted = idx.clone();
        drifted.refine(&g, &Workload::parse(&g, &["movie.title"]).unwrap(), 0.5);
        let before = held(&idx);
        let after = held(&drifted);
        let shared = after
            .iter()
            .filter(|e| before.iter().any(|o| Arc::ptr_eq(o, e)))
            .count();
        assert!(
            shared > 1 && shared < after.len(),
            "{shared} of {}",
            after.len()
        );
    }

    #[test]
    fn stats_reports_reachable_sizes() {
        let (_, idx) = figure2();
        let s = idx.stats();
        assert!(s.nodes > 10);
        assert!(s.edges >= s.nodes - 1);
        assert!(s.max_required_len >= 2);
        assert!(s.extent_pairs >= 21);
    }
}
