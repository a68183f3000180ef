//! Query processing over rooted path indexes (strong DataGuide and
//! 1-index).
//!
//! These indexes record every label path *from the root*, so a
//! partial-matching query `//l_1/…/l_n` must be rewritten into simple
//! path expressions by exhaustively navigating the index graph (§2, §6.1
//! — the 14-edge-lookup example of §4). We implement that navigation as
//! a product fixpoint between the index graph and the suffix-matching
//! automaton of the query: per index node we track which query prefixes
//! can end there (a bitmask), propagating new bits along index edges
//! until a fixpoint. Nodes holding the full-match bit contribute their
//! extents. This visits exactly the part of the index an exhaustive
//! rewriting pass must visit, while remaining cycle-safe, and its cost
//! (index edges traversed) grows with index size — the effect Figures
//! 13–15 show for irregular data.
//!
//! Extent reads, navigation I/O and table probes run through the shared
//! operators in [`crate::exec`] over a cross-query buffer pool.

use std::hash::Hash;

use apex_storage::bufmgr::{BufferHandle, Space};
use apex_storage::pages::record_layout;
use apex_storage::{DataTable, OpKind, PageModel};
use dataguide::{DataGuide, DgNodeId};
use oneindex::{BlockId, OneIndex};
use xmlgraph::{LabelId, NodeId, XmlGraph};

use crate::ast::Query;
use crate::batch::{QueryOutput, QueryProcessor};
use crate::exec::{DataProbe, ExecContext, ExtentScan, IndexNav};
use crate::plan;

/// Abstraction over rooted path indexes whose nodes carry target-set
/// extents (DataGuide, 1-index).
pub trait RootedIndex {
    /// Node identifier type.
    type Id: Copy + Eq + Hash + Ord;
    /// The index root.
    fn root(&self) -> Self::Id;
    /// Iterates outgoing edges of a node.
    fn for_each_edge(&self, id: Self::Id, f: &mut dyn FnMut(LabelId, Self::Id));
    /// The extent (target set) of a node.
    fn extent(&self, id: Self::Id) -> &[NodeId];
    /// Stable numeric id for page accounting.
    fn id_u64(id: Self::Id) -> u64;
    /// Inverse of [`RootedIndex::id_u64`] over the dense arena.
    fn id_from_usize(i: usize) -> Self::Id;
    /// Buffer-pool address space of this index's extents.
    fn extent_space() -> Space;
    /// Buffer-pool address space of this index's page-packed node
    /// records.
    fn node_space() -> Space;
    /// Number of index nodes (dense-state sizing).
    fn node_count_hint(&self) -> usize;
    /// Display name.
    fn index_name(&self) -> &'static str;
}

impl RootedIndex for DataGuide {
    type Id = DgNodeId;
    fn root(&self) -> DgNodeId {
        DataGuide::root(self)
    }
    fn for_each_edge(&self, id: DgNodeId, f: &mut dyn FnMut(LabelId, DgNodeId)) {
        for &(l, t) in &self.node(id).edges {
            f(l, t);
        }
    }
    fn extent(&self, id: DgNodeId) -> &[NodeId] {
        &self.node(id).extent
    }
    fn id_u64(id: DgNodeId) -> u64 {
        id.0 as u64
    }
    fn id_from_usize(i: usize) -> DgNodeId {
        DgNodeId(i as u32)
    }
    fn extent_space() -> Space {
        Space::GuideExtent
    }
    fn node_space() -> Space {
        Space::GuideNode
    }
    fn node_count_hint(&self) -> usize {
        self.node_count()
    }
    fn index_name(&self) -> &'static str {
        "SDG"
    }
}

impl RootedIndex for OneIndex {
    type Id = BlockId;
    fn root(&self) -> BlockId {
        OneIndex::root(self)
    }
    fn for_each_edge(&self, id: BlockId, f: &mut dyn FnMut(LabelId, BlockId)) {
        for &(l, t) in &self.block(id).edges {
            f(l, t);
        }
    }
    fn extent(&self, id: BlockId) -> &[NodeId] {
        &self.block(id).extent
    }
    fn id_u64(id: BlockId) -> u64 {
        id.0 as u64
    }
    fn id_from_usize(i: usize) -> BlockId {
        BlockId(i as u32)
    }
    fn extent_space() -> Space {
        Space::OneExtent
    }
    fn node_space() -> Space {
        Space::OneNode
    }
    fn node_count_hint(&self) -> usize {
        self.node_count()
    }
    fn index_name(&self) -> &'static str {
        "1-index"
    }
}

/// Query processor over a [`RootedIndex`].
pub struct GuideProcessor<'a, I: RootedIndex> {
    index: &'a I,
    table: &'a DataTable,
    buf: BufferHandle,
    /// Page-packed byte offsets of index-node records (16 bytes header +
    /// 8 per edge): node `i` occupies `node_offsets[i]..node_offsets[i+1]`
    /// of [`RootedIndex::node_space`].
    node_offsets: Vec<u64>,
}

impl<'a, I: RootedIndex> GuideProcessor<'a, I> {
    /// Creates a processor with a private (unbounded) buffer pool.
    pub fn new(g: &'a XmlGraph, index: &'a I, table: &'a DataTable) -> Self {
        Self::with_buffer(g, index, table, BufferHandle::unbounded())
    }

    /// Creates a processor charging against a shared buffer pool.
    /// `_g`, the graph the index covers, is not read: nids are document
    /// order, so answers are sorted without it.
    pub fn with_buffer(
        _g: &'a XmlGraph,
        index: &'a I,
        table: &'a DataTable,
        buf: BufferHandle,
    ) -> Self {
        let node_offsets = record_layout((0..index.node_count_hint()).map(|i| {
            let mut n_edges = 0usize;
            index.for_each_edge(I::id_from_usize(i), &mut |_, _| n_edges += 1);
            16 + 8 * n_edges
        }));
        GuideProcessor {
            index,
            table,
            buf,
            node_offsets,
        }
    }

    /// Scans index node `id`'s extent through the pool.
    fn scan_extent(&self, id: I::Id, ctx: &mut ExecContext<'_>) {
        ExtentScan::nodes(I::extent_space(), I::id_u64(id), self.index.extent(id)).run(ctx);
    }

    /// Charges the first visit of index node `id`'s page-packed record.
    fn nav_node(&self, id: I::Id, touched: &mut [bool], ctx: &mut ExecContext<'_>) {
        let i = I::id_u64(id) as usize;
        if !touched[i] {
            touched[i] = true;
            IndexNav {
                space: I::node_space(),
                layout: 0,
                bytes: self.node_offsets[i]..self.node_offsets[i + 1],
            }
            .run(ctx);
        }
    }

    /// QTYPE1 `//labels`: bitmask fixpoint; bit `k` at a node means "the
    /// last `k` edge labels of some rooted path to this node equal
    /// `labels[..k]`".
    fn eval_path(&self, labels: &[LabelId], ctx: &mut ExecContext<'_>) -> Vec<NodeId> {
        let n = labels.len();
        assert!(n < 63, "query length bounded by generator");
        let full: u64 = 1 << n;
        // Dense per-node automaton state (indexes are arena-allocated, so
        // ids are dense); a HashMap here dominates runtime on 100k+-node
        // guides.
        let mut bits: Vec<u64> = vec![0; self.index.node_count_hint()];
        let mut collected: Vec<bool> = vec![false; self.index.node_count_hint()];
        let mut touched: Vec<bool> = vec![false; self.index.node_count_hint()];
        let root = self.index.root();
        bits[I::id_u64(root) as usize] = 1;
        let mut work: Vec<(I::Id, u64)> = vec![(root, 1)];
        let mut out: Vec<NodeId> = Vec::new();

        while let Some((node, delta)) = work.pop() {
            let mut pushes: Vec<(I::Id, u64)> = Vec::new();
            self.index.for_each_edge(node, &mut |l, child| {
                let mut next = 1u64; // restart state is always live
                for (k, &lab) in labels.iter().enumerate() {
                    if delta & (1 << k) != 0 && lab == l {
                        next |= 1 << (k + 1);
                    }
                }
                pushes.push((child, next));
            });
            ctx.nav_edges(pushes.len() as u64);
            self.nav_node(node, &mut touched, ctx);
            for (child, next) in pushes {
                let slot = &mut bits[I::id_u64(child) as usize];
                let fresh = next & !*slot;
                if fresh == 0 {
                    continue;
                }
                *slot |= fresh;
                let seen = &mut collected[I::id_u64(child) as usize];
                if fresh & full != 0 && !*seen {
                    *seen = true;
                    self.scan_extent(child, ctx);
                    out.extend_from_slice(self.index.extent(child));
                }
                work.push((child, fresh));
            }
        }
        ctx.sort_distinct(&mut out);
        out
    }

    /// QTYPE2 `//first//last`: two automaton bits (seen `first`; full
    /// match via a later `last` edge).
    fn eval_anc_desc(
        &self,
        first: LabelId,
        last: LabelId,
        ctx: &mut ExecContext<'_>,
    ) -> Vec<NodeId> {
        let mut bits: Vec<u8> = vec![0; self.index.node_count_hint()];
        let mut collected: Vec<bool> = vec![false; self.index.node_count_hint()];
        let mut touched: Vec<bool> = vec![false; self.index.node_count_hint()];
        let root = self.index.root();
        bits[I::id_u64(root) as usize] = 0b01; // bit0: initial; bit1: inside l_i
        let mut work: Vec<(I::Id, u8)> = vec![(root, 0b01)];
        let mut out: Vec<NodeId> = Vec::new();

        while let Some((node, delta)) = work.pop() {
            let mut pushes: Vec<(I::Id, u8, bool)> = Vec::new();
            self.index.for_each_edge(node, &mut |l, child| {
                let mut next = 0u8;
                if delta & 0b01 != 0 {
                    next |= 0b01;
                    if l == first {
                        next |= 0b10;
                    }
                }
                if delta & 0b10 != 0 {
                    next |= 0b10;
                }
                // Collect when an `last` edge is taken from a state that
                // has already passed an `first` edge.
                let hit = delta & 0b10 != 0 && l == last;
                pushes.push((child, next, hit));
            });
            ctx.nav_edges(pushes.len() as u64);
            self.nav_node(node, &mut touched, ctx);
            for (child, next, hit) in pushes {
                let seen = &mut collected[I::id_u64(child) as usize];
                if hit && !*seen {
                    *seen = true;
                    self.scan_extent(child, ctx);
                    out.extend_from_slice(self.index.extent(child));
                }
                let slot = &mut bits[I::id_u64(child) as usize];
                let fresh = next & !*slot;
                if fresh == 0 {
                    continue;
                }
                *slot |= fresh;
                work.push((child, fresh));
            }
        }
        ctx.sort_distinct(&mut out);
        out
    }
}

impl<I: RootedIndex> QueryProcessor for GuideProcessor<'_, I> {
    fn name(&self) -> &'static str {
        self.index.index_name()
    }

    fn eval(&self, q: &Query) -> QueryOutput {
        let mut ctx = ExecContext::new(&self.buf);
        // A rooted index has exactly one strategy — exhaustive
        // navigation — so its forecast is the whole index graph: every
        // edge traversed, every node record faulted. Accurate for
        // QTYPE1/2 (the fixpoints visit everything reachable); extent
        // scans and value probes surface as honest mispredicts.
        let before = ctx.cost.ops;
        let total_bytes = self.node_offsets.last().copied().unwrap_or(0);
        let nodes_n = self.index.node_count_hint() as u64;
        let edges = (total_bytes.saturating_sub(16 * nodes_n)) / 8;
        let psz = PageModel::default().page_size as u64;
        let predicted = [(OpKind::IndexNav, edges, total_bytes.div_ceil(psz.max(1)))];
        let nodes = match q {
            Query::PartialPath { labels } => self.eval_path(labels, &mut ctx),
            Query::AncestorDescendant { first, last } => {
                self.eval_anc_desc(*first, *last, &mut ctx)
            }
            Query::ValuePath { labels, value } => {
                let mut nodes = self.eval_path(labels, &mut ctx);
                DataProbe {
                    table: self.table,
                    value,
                }
                .run(&mut nodes, &mut ctx);
                nodes
            }
        };
        let report = plan::build_report(
            nodes_n ^ (edges << 20),
            "navigate",
            &predicted,
            &before,
            &ctx.cost.ops,
        );
        QueryOutput {
            nodes,
            cost: ctx.finish(),
            interrupted: false,
            plan: Some(report),
        }
    }

    fn buffer(&self) -> Option<&BufferHandle> {
        Some(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveProcessor;
    use apex_storage::PageModel;
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    fn q1(g: &XmlGraph, p: &str) -> Query {
        Query::PartialPath {
            labels: LabelPath::parse(g, p).unwrap().0,
        }
    }

    #[test]
    fn sdg_qtype1_matches_naive() {
        let g = moviedb();
        let dg = DataGuide::build(&g);
        let t = DataTable::build(&g, PageModel::default());
        let gp = GuideProcessor::new(&g, &dg, &t);
        let nv = NaiveProcessor::new(&g, &t);
        for p in [
            "actor.name",
            "movie.title",
            "name",
            "@movie.movie",
            "director.movie.@director.director.name",
            "title.actor", // empty
        ] {
            let q = q1(&g, p);
            assert_eq!(gp.eval(&q).nodes, nv.eval(&q).nodes, "query {p}");
        }
    }

    #[test]
    fn oneindex_qtype1_matches_naive() {
        let g = moviedb();
        let oi = OneIndex::build(&g);
        let t = DataTable::build(&g, PageModel::default());
        let gp = GuideProcessor::new(&g, &oi, &t);
        let nv = NaiveProcessor::new(&g, &t);
        for p in ["actor.name", "movie.title", "name", "@movie.movie.title"] {
            let q = q1(&g, p);
            assert_eq!(gp.eval(&q).nodes, nv.eval(&q).nodes, "query {p}");
        }
    }

    #[test]
    fn sdg_qtype2_matches_naive() {
        let g = moviedb();
        let dg = DataGuide::build(&g);
        let t = DataTable::build(&g, PageModel::default());
        let gp = GuideProcessor::new(&g, &dg, &t);
        let nv = NaiveProcessor::new(&g, &t);
        for (a, b) in [("movie", "name"), ("director", "title"), ("movie", "movie")] {
            let q = Query::AncestorDescendant {
                first: g.label_id(a).unwrap(),
                last: g.label_id(b).unwrap(),
            };
            assert_eq!(gp.eval(&q).nodes, nv.eval(&q).nodes, "//{a}//{b}");
        }
    }

    #[test]
    fn sdg_qtype3_matches_naive() {
        let g = moviedb();
        let dg = DataGuide::build(&g);
        let t = DataTable::build(&g, PageModel::default());
        let gp = GuideProcessor::new(&g, &dg, &t);
        let nv = NaiveProcessor::new(&g, &t);
        let q = Query::ValuePath {
            labels: LabelPath::parse(&g, "movie.title").unwrap().0,
            value: "Star Wars".into(),
        };
        assert_eq!(gp.eval(&q).nodes, nv.eval(&q).nodes);
    }

    #[test]
    fn q1_on_guide_visits_many_index_edges() {
        // The §4 point: partial-matching queries force navigation.
        let g = moviedb();
        let dg = DataGuide::build(&g);
        let t = DataTable::build(&g, PageModel::default());
        let gp = GuideProcessor::new(&g, &dg, &t);
        let q = q1(&g, "actor.name");
        let out = gp.eval(&q);
        assert!(out.cost.index_edges >= dg.edge_count() as u64);
    }

    #[test]
    fn navigation_io_is_pooled_across_queries() {
        let g = moviedb();
        let dg = DataGuide::build(&g);
        let t = DataTable::build(&g, PageModel::default());
        let gp = GuideProcessor::new(&g, &dg, &t);
        let q = q1(&g, "actor.name");
        let cold = gp.eval(&q);
        assert!(cold.cost.pages_read >= 1);
        let warm = gp.eval(&q);
        assert_eq!(warm.cost.pages_read, 0, "warm run must hit the pool");
        // Navigation work is unchanged — only the I/O is cached.
        assert_eq!(warm.cost.index_edges, cold.cost.index_edges);
    }
}
