//! The shared physical execution layer.
//!
//! Every query processor used in the Figure 13–15 comparison (APEX,
//! strong DataGuide, 1-index, Index Fabric, naive) evaluates QTYPE1/2/3
//! through the operators in this module, so extent access, buffer-pool
//! charging and cost accounting are implemented exactly once and the
//! cross-index comparison stays fair by construction.
//!
//! [`ExecContext`] carries the per-query [`Cost`], the
//! [`KernelPolicy`] deciding each semijoin's kernel, reusable scratch
//! buffers, and a handle to the *cross-query* [`BufferHandle`] pool;
//! operators route every page touch through the pool and attribute the
//! counters they move to their [`OpKind`] (by diffing scalar snapshots
//! around the operator body, so nested composites never double-count).
//!
//! Pair extents are charged at *block* granularity: each page-sized
//! compressed block of an extent (see `apex_storage::block`) is its own
//! pool object, so a kernel that skips a block via the skip index never
//! faults its page, and `pages_read` reflects both the compression and
//! the skipping.
//!
//! Operators *read* stored extents as [`SuccinctExtent`] (what the
//! index holds; the kernels scan its blocks in place) and *hand each
//! other* node frontiers: sorted, distinct `Vec<NodeId>`s of end nodes.
//! A QTYPE1 answer is the end nodes of the joined extents (§6.1), and a
//! semijoin needs only the end nodes of the side it extends, so no pair
//! set travels between operators. Every frontier is made sorted and
//! distinct by one routine, [`xmlgraph::sort_distinct`]: a bitmap over
//! the id span when it is dense, a sort when it is sparse.
//!
//! | operator | paper role |
//! |---|---|
//! | [`ExtentScan`] | read one stored extent |
//! | [`ExtentUnion`] | decode the extents of one `H_APEX` segment to their sorted, distinct end nodes |
//! | [`Semijoin`] | one join step (merge / gallop / block-skip kernel), appending the matched end nodes |
//! | [`MultiwayJoin`] | the §6.1 QTYPE1 chain: seed union + join steps over node frontiers |
//! | [`DataProbe`] | QTYPE3 value test: one sorted pass of the candidates through the data table |
//! | [`IndexNav`] | index-graph navigation I/O (page-packed records) |
//! | [`TrieSearch`] | Index Fabric key search / traversal |

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::time::Instant;

use apex_storage::bufmgr::{BufferHandle, ObjectId, Space};
use apex_storage::kernels::{self, Kernel, KernelPolicy, SemijoinScratch};
use apex_storage::{Cost, DataTable, OpKind, SuccinctExtent};
use fabric::IndexFabric;
use xmlgraph::{LabelId, NodeId};

/// Reusable per-context buffers: operators borrow these instead of
/// allocating per invocation.
#[derive(Debug, Default)]
pub(crate) struct ExecScratch {
    pub(crate) semi: SemijoinScratch,
    /// Bitmap words of [`xmlgraph::sort_distinct`].
    words: Vec<u64>,
    /// One stage's arrivals, swapped with the frontier per stage.
    nodes: Vec<NodeId>,
}

/// Per-query execution state: the cost being accumulated, the kernel
/// policy, scratch buffers, plus the shared buffer pool every operator
/// charges against.
pub struct ExecContext<'a> {
    buf: &'a BufferHandle,
    policy: KernelPolicy,
    scratch: ExecScratch,
    /// Absolute deadline for this query, if any: composite operators
    /// poll [`ExecContext::checkpoint`] at stage boundaries and stop
    /// early once it passes (cooperative cancellation — the unit of
    /// non-preemptible work is one operator stage, never a whole query).
    deadline: Option<Instant>,
    /// Sticky flag: a checkpoint observed the deadline in the past.
    interrupted: bool,
    /// The counters this query has accumulated so far.
    pub cost: Cost,
}

impl<'a> ExecContext<'a> {
    /// A fresh context over a shared pool, with the adaptive kernel
    /// policy.
    pub fn new(buf: &'a BufferHandle) -> Self {
        Self::with_policy(buf, KernelPolicy::Adaptive)
    }

    /// A fresh context with an explicit kernel policy (tests and
    /// benches force single kernels through this).
    pub fn with_policy(buf: &'a BufferHandle, policy: KernelPolicy) -> Self {
        ExecContext {
            buf,
            policy,
            scratch: ExecScratch::default(),
            deadline: None,
            interrupted: false,
            cost: Cost::new(),
        }
    }

    /// Arms a deadline: once `deadline` passes, [`checkpoint`] calls
    /// return `false` and operators unwind with whatever partial result
    /// they hold. [`interrupted`] reports whether that happened.
    ///
    /// [`checkpoint`]: ExecContext::checkpoint
    /// [`interrupted`]: ExecContext::interrupted
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// True once a checkpoint has tripped the armed deadline.
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// Deadline checkpoint: `true` means keep going. Called by composite
    /// operators between stages (join steps, fixpoint rounds, probe
    /// loops) — cheap enough for per-stage use, and deliberately not per
    /// pair, so kernels stay branch-free.
    pub fn checkpoint(&mut self) -> bool {
        keep_going(self.deadline, &mut self.interrupted)
    }

    /// Makes `nodes` sorted and distinct through this context's bitmap
    /// words ([`xmlgraph::sort_distinct`]).
    pub(crate) fn sort_distinct(&mut self, nodes: &mut Vec<NodeId>) {
        xmlgraph::sort_distinct(nodes, &mut self.scratch.words);
    }

    /// One forward join stage: semijoins every `(id, extent)` of `stage`
    /// against the sorted, distinct `frontier` and replaces the frontier
    /// with the stage's sorted, distinct arrivals. The arrivals collect
    /// in the context's node buffer, which keeps the old frontier's
    /// allocation for the next stage.
    pub(crate) fn advance<'e>(
        &mut self,
        frontier: &mut Vec<NodeId>,
        space: Space,
        stage: impl IntoIterator<Item = (u64, &'e SuccinctExtent)>,
    ) {
        let mut arrivals = std::mem::take(&mut self.scratch.nodes);
        arrivals.clear();
        for (id, extent) in stage {
            semijoin(self, frontier, space, id, extent, &mut arrivals);
        }
        self.sort_distinct(&mut arrivals);
        std::mem::swap(frontier, &mut arrivals);
        self.scratch.nodes = arrivals;
    }

    /// The kernel policy governing this context's semijoins.
    pub fn policy(&self) -> KernelPolicy {
        self.policy
    }

    /// The buffer pool behind this context.
    pub fn buffer(&self) -> &'a BufferHandle {
        self.buf
    }

    /// Consumes the context, yielding the accumulated cost.
    pub fn finish(self) -> Cost {
        self.cost
    }

    /// Runs `body` and attributes every scalar counter it moves to
    /// `kind`, counting one invocation. Shared with the planner's
    /// executor ([`crate::plan`]), which runs its backward pass through
    /// the same attribution discipline as the built-in operators.
    pub(crate) fn attributed<T>(
        &mut self,
        kind: OpKind,
        body: impl FnOnce(&mut Cost, &BufferHandle, &mut ExecScratch) -> T,
    ) -> T {
        let before = self.cost.scalars();
        let out = body(&mut self.cost, self.buf, &mut self.scratch);
        let after = self.cost.scalars();
        let mut delta = [0u64; 8];
        for (d, (a, b)) in delta.iter_mut().zip(after.iter().zip(before)) {
            *d = a - b;
        }
        self.cost.ops.record(kind, true, delta);
        out
    }

    /// Records `n` hash-table lookups (H_APEX / hash-tree probes),
    /// attributed to [`OpKind::IndexNav`] without counting an
    /// invocation.
    pub fn note_hash_lookups(&mut self, n: u64) {
        self.cost.hash_lookups += n;
        self.cost
            .ops
            .record(OpKind::IndexNav, false, [0, n, 0, 0, 0, 0, 0, 0]);
    }

    /// Records `n` result pairs accumulated by a dataflow fixpoint
    /// step, attributed to [`OpKind::IndexNav`] without counting an
    /// invocation.
    pub fn note_fixpoint_output(&mut self, n: u64) {
        self.cost.join_output += n;
        self.cost
            .ops
            .record(OpKind::IndexNav, false, [0, 0, 0, 0, n, 0, 0, 0]);
    }

    /// Records `n` index-graph edges traversed, attributed to
    /// [`OpKind::IndexNav`] without counting an invocation.
    pub fn nav_edges(&mut self, n: u64) {
        self.cost.index_edges += n;
        self.cost
            .ops
            .record(OpKind::IndexNav, false, [n, 0, 0, 0, 0, 0, 0, 0]);
    }
}

/// The deadline test behind [`ExecContext::checkpoint`]: `false` once
/// `interrupted` is set or `deadline` has passed (which sets it).
fn keep_going(deadline: Option<Instant>, interrupted: &mut bool) -> bool {
    if !*interrupted && deadline.is_some_and(|d| Instant::now() >= d) {
        *interrupted = true;
    }
    !*interrupted
}

/// Buffer-pool identity of block `k` of pair extent `id`: the extent id
/// shifted into the high bits with the block index below it. Extent ids
/// must stay below 2⁴⁸ — they are `(generation_tag << 32) | xnode`, so
/// this bounds generation tags to 2¹⁶ (snapshot swap counts, far
/// below).
#[inline]
pub(crate) fn block_oid(space: Space, id: u64, k: u32) -> ObjectId {
    debug_assert!(id < 1 << 48, "extent id {id:#x} overflows block ids");
    ObjectId::new(space, (id << 16) | k as u64)
}

/// Charges every block of `set` (a full scan), returning pages read.
fn charge_all_blocks(buf: &BufferHandle, space: Space, id: u64, set: &SuccinctExtent) -> u64 {
    let bx = set.image();
    let mut pages = 0;
    for k in 0..bx.num_blocks() {
        pages += buf.touch(block_oid(space, id, k as u32), bx.block_bytes(k));
    }
    pages
}

/// What an [`ExtentScan`] reads: a pair extent in block storage, a
/// separately stored object, or a byte range of a page-packed array
/// (posting lists, adjacency lists).
#[derive(Debug, Clone)]
enum ScanTarget<'a> {
    Blocks {
        space: Space,
        id: u64,
        set: &'a SuccinctExtent,
    },
    Object {
        id: ObjectId,
        bytes: usize,
    },
    Packed {
        space: Space,
        bytes: std::ops::Range<u64>,
    },
}

/// Materializes one stored extent through the buffer pool: charges the
/// elements read plus the pages a miss costs. Covers pair extents
/// (APEX, block-compressed, charged per block), node-list extents
/// (guide/1-index, 4 bytes/node) and page-packed ranges (naive
/// posting/adjacency scans) via the constructors.
#[derive(Debug, Clone)]
pub struct ExtentScan<'a> {
    target: ScanTarget<'a>,
    len: usize,
}

impl<'a> ExtentScan<'a> {
    /// Scan of an edge-pair extent, stored as compressed blocks: every
    /// block is faulted (it's a full scan) at its encoded size.
    pub fn pairs(space: Space, id: u64, set: &'a SuccinctExtent) -> Self {
        ExtentScan {
            target: ScanTarget::Blocks { space, id, set },
            len: set.len(),
        }
    }

    /// Scan of a node-list extent (4 bytes per node id).
    pub fn nodes(space: Space, id: u64, nodes: &[NodeId]) -> Self {
        ExtentScan {
            target: ScanTarget::Object {
                id: ObjectId::new(space, id),
                bytes: nodes.len() * 4,
            },
            len: nodes.len(),
        }
    }

    /// Scan of `len` elements packed at `bytes` of a page-packed array.
    pub fn packed(space: Space, bytes: std::ops::Range<u64>, len: usize) -> Self {
        ExtentScan {
            target: ScanTarget::Packed { space, bytes },
            len,
        }
    }

    /// Charges the scan. The caller keeps the data (extents live in the
    /// index structures; this operator models their I/O).
    pub fn run(self, ctx: &mut ExecContext<'_>) {
        ctx.attributed(OpKind::ExtentScan, |cost, buf, _| {
            cost.extent_pairs += self.len as u64;
            cost.pages_read += match self.target {
                ScanTarget::Blocks { space, id, set } => charge_all_blocks(buf, space, id, set),
                ScanTarget::Object { id, bytes } => buf.touch(id, bytes),
                ScanTarget::Packed { space, bytes } => buf.touch_byte_range(space, bytes),
            };
        })
    }
}

/// Scans several stored extents and returns the sorted, distinct end
/// nodes of their union — the seed frontier of a QTYPE1 plan (the exact
/// segment's class extents). This is where stored extents are decoded
/// wholesale, every source's end nodes into one buffer sized once, then
/// made sorted and distinct in one pass; every later stage reads its
/// extents through the kernels, block by block. Each source charges all
/// of its pairs and all of its blocks.
#[derive(Debug)]
pub struct ExtentUnion<'a> {
    /// `(buffer id, extent)` sources, scanned in order.
    pub sources: Vec<(u64, &'a SuccinctExtent)>,
    /// The address space the ids live in.
    pub space: Space,
}

impl ExtentUnion<'_> {
    /// Scans every source; returns the union's sorted, distinct end
    /// nodes.
    pub fn run(self, ctx: &mut ExecContext<'_>) -> Vec<NodeId> {
        ctx.attributed(OpKind::ExtentUnion, |cost, buf, scratch| {
            let mut nodes = Vec::with_capacity(self.sources.iter().map(|s| s.1.len()).sum());
            for (id, set) in &self.sources {
                cost.extent_pairs += set.len() as u64;
                cost.pages_read += charge_all_blocks(buf, self.space, *id, set);
                set.decode_nodes_into(&mut nodes);
            }
            xmlgraph::sort_distinct(&mut nodes, &mut scratch.words);
            nodes
        })
    }
}

/// One semijoin step: matches the pairs of `extent` whose parent is one
/// of the sorted, distinct `ends`, using the given [`Kernel`]. Faults
/// only the blocks the kernel reads — a skipped block is never charged.
/// Use [`semijoin`] to let the context's policy pick the kernel.
#[derive(Debug)]
pub struct Semijoin<'a> {
    /// Sorted, distinct end nodes driving the join.
    pub ends: &'a [NodeId],
    /// The address space of the extent.
    pub space: Space,
    /// Buffer id of the extent (block ids derive from it).
    pub id: u64,
    /// The joined extent.
    pub extent: &'a SuccinctExtent,
    /// The kernel to run.
    pub kernel: Kernel,
}

impl Semijoin<'_> {
    /// Runs the kernel, appending the matched pairs' end nodes — in
    /// pair order, so neither sorted nor distinct — to `out`. Attributes
    /// to [`OpKind::SemijoinMerge`] / [`OpKind::SemijoinGallop`] /
    /// [`OpKind::SemijoinSkip`] according to the kernel that ran; the
    /// matched pairs themselves count as `join_output`.
    pub fn run(self, ctx: &mut ExecContext<'_>, out: &mut Vec<NodeId>) {
        let kind = match self.kernel {
            Kernel::Merge => OpKind::SemijoinMerge,
            Kernel::Gallop => OpKind::SemijoinGallop,
            Kernel::BlockSkip => OpKind::SemijoinSkip,
        };
        ctx.attributed(kind, |cost, buf, scratch| {
            let report =
                kernels::semijoin_into(self.kernel, self.extent, self.ends, &mut scratch.semi);
            let bx = self.extent.image();
            for &k in &scratch.semi.blocks {
                cost.pages_read += buf.touch(
                    block_oid(self.space, self.id, k),
                    bx.block_bytes(k as usize),
                );
            }
            cost.extent_pairs += report.pairs_read as u64;
            cost.join_work += report.work as u64;
            cost.join_output += scratch.semi.out.len() as u64;
            out.extend(scratch.semi.out.iter().map(|p| p.node));
        })
    }
}

/// Adaptive semijoin: the context's [`KernelPolicy`] picks the kernel
/// from the size ratio of the two sides (the access-path choice every
/// processor previously hand-rolled). Appends the matched end nodes to
/// `out`, like [`Semijoin::run`].
pub fn semijoin(
    ctx: &mut ExecContext<'_>,
    ends: &[NodeId],
    space: Space,
    id: u64,
    extent: &SuccinctExtent,
    out: &mut Vec<NodeId>,
) {
    let kernel = ctx.policy.choose(ends.len(), extent);
    Semijoin {
        ends,
        space,
        id,
        extent,
        kernel,
    }
    .run(ctx, out)
}

/// The §6.1 QTYPE1 chain: union the exact segment's extents, then
/// semijoin forward through the remaining segments, carrying a node
/// frontier: each stage's arrivals, sorted and distinct, drive the next
/// stage. Composite — the union and semijoin work attributes to those
/// operators; this one only counts its invocation.
#[derive(Debug)]
pub struct MultiwayJoin<'a> {
    /// The exact segment's `(id, extent)` sources.
    pub seed: Vec<(u64, &'a SuccinctExtent)>,
    /// One entry per later segment: the class extents semijoined
    /// against the running result.
    pub stages: Vec<Vec<(u64, &'a SuccinctExtent)>>,
    /// The address space of every id.
    pub space: Space,
}

impl MultiwayJoin<'_> {
    /// Executes the chain, returning the sorted, distinct end nodes of
    /// the last stage. A deadline that trips between stages leaves no
    /// answer: the nodes reached so far end a prefix of the path.
    pub fn run(self, ctx: &mut ExecContext<'_>) -> Vec<NodeId> {
        ctx.cost.ops.record(OpKind::MultiwayJoin, true, [0; 8]);
        let mut frontier = ExtentUnion {
            sources: self.seed,
            space: self.space,
        }
        .run(ctx);
        for stage in self.stages {
            if frontier.is_empty() {
                break;
            }
            if !ctx.checkpoint() {
                frontier.clear();
                break;
            }
            ctx.advance(&mut frontier, self.space, stage);
        }
        frontier
    }
}

/// The QTYPE3 value test (§6.1: "testing the nodes by looking up the
/// data table"): one sorted pass of a query's candidates through the
/// table ([`DataTable::filter_sorted`]), which resolves the value to its
/// holder list once and merges the candidates through it. Charges one
/// `table_probes` per candidate, the root page once and each distinct
/// leaf page of the nid-sorted table once, as a per-node lookup would.
#[derive(Debug)]
pub struct DataProbe<'a> {
    /// The `nid → value` table.
    pub table: &'a DataTable,
    /// The expected value.
    pub value: &'a str,
}

impl DataProbe<'_> {
    /// Keeps the nodes of `nodes` (sorted, distinct) that carry exactly
    /// `value`. The deadline is checked before every
    /// [`apex_storage::datatable::PROBE_CHUNK`] candidates; once it
    /// passes, the untested rest is dropped and the context reads
    /// interrupted.
    pub fn run(self, nodes: &mut Vec<NodeId>, ctx: &mut ExecContext<'_>) {
        if nodes.is_empty() {
            return;
        }
        let deadline = ctx.deadline;
        let mut interrupted = ctx.interrupted;
        ctx.attributed(OpKind::DataProbe, |cost, buf, _| {
            self.table.filter_sorted(buf, cost, nodes, self.value, || {
                keep_going(deadline, &mut interrupted)
            })
        });
        ctx.interrupted = interrupted;
    }
}

/// Navigation I/O over page-packed index-node records: touches every
/// page overlapping the byte range of the visited record.
#[derive(Debug)]
pub struct IndexNav {
    /// The record space (e.g. [`Space::GuideNode`]).
    pub space: Space,
    /// Byte range of the visited record(s) in the packed layout.
    pub bytes: std::ops::Range<u64>,
}

impl IndexNav {
    /// Charges the record pages.
    pub fn run(self, ctx: &mut ExecContext<'_>) {
        ctx.attributed(OpKind::IndexNav, |cost, buf, _| {
            cost.pages_read += buf.touch_byte_range(self.space, self.bytes);
        })
    }
}

/// An Index Fabric key search: exact (single descent) or partial
/// (whole-trie traversal with suffix validation).
#[derive(Debug)]
pub struct TrieSearch<'a> {
    /// The fabric searched.
    pub fabric: &'a IndexFabric,
    /// Query label suffix.
    pub labels: &'a [LabelId],
    /// The value predicate.
    pub value: &'a str,
    /// True for a single exact-key descent; false traverses the trie
    /// (partial matching).
    pub exact: bool,
}

impl TrieSearch<'_> {
    /// Runs the search, returning matching nodes (unsorted).
    pub fn run(self, ctx: &mut ExecContext<'_>) -> Vec<NodeId> {
        ctx.attributed(OpKind::TrieSearch, |cost, buf, _| {
            if self.exact {
                self.fabric
                    .search_exact_buffered(buf, self.labels, self.value, cost)
            } else {
                self.fabric
                    .search_partial_buffered(buf, self.labels, self.value, cost)
            }
        })
    }
}

/// Prefix byte offsets of page-packed variable-size records: record `i`
/// occupies `offsets[i]..offsets[i+1]`. Used by processors to lay out
/// index-node records (16 bytes header + 8 per edge) once, then touch
/// ranges through [`IndexNav`].
pub fn record_layout(record_bytes: impl Iterator<Item = usize>) -> Vec<u64> {
    let mut offsets = vec![0u64];
    let mut acc = 0u64;
    for b in record_bytes {
        acc += b as u64;
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_storage::{EdgePair, EdgeSet, PageModel};

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    fn stored(pairs: &[(u32, u32)]) -> SuccinctExtent {
        SuccinctExtent::from_pairs(EdgeSet::from_raw(pairs).pairs())
    }

    /// `n` single-child parents, `step` apart.
    fn chain(n: u32, step: u32) -> SuccinctExtent {
        let pairs: Vec<EdgePair> = (0..n)
            .map(|i| EdgePair::new(NodeId(step * i), NodeId(step * i + 1)))
            .collect();
        SuccinctExtent::from_pairs(&pairs)
    }

    #[test]
    fn extent_scan_charges_pairs_and_attributes() {
        let buf = BufferHandle::unbounded();
        let set = stored(&[(1, 2), (3, 4)]);
        let mut ctx = ExecContext::new(&buf);
        ExtentScan::pairs(Space::ApexExtent, 7, &set).run(&mut ctx);
        ExtentScan::pairs(Space::ApexExtent, 7, &set).run(&mut ctx);
        let cost = ctx.finish();
        assert_eq!(cost.extent_pairs, 4);
        assert_eq!(cost.pages_read, 1, "second scan hits the pool");
        let op = cost.ops.get(OpKind::ExtentScan);
        assert_eq!(op.invocations, 2);
        assert_eq!(op.pages_read(), 1);
        assert_eq!(op.extent_pairs(), 4);
    }

    #[test]
    fn union_merges_and_semijoin_adapts() {
        let buf = BufferHandle::unbounded();
        // Overlapping sources whose end nodes are out of order and
        // repeated within and across extents.
        let a = stored(&[(1, 4), (2, 2), (3, 4)]);
        let b = stored(&[(0, 9), (3, 2)]);
        let mut ctx = ExecContext::new(&buf);
        let u = ExtentUnion {
            sources: vec![(0, &a), (1, &b)],
            space: Space::ApexExtent,
        }
        .run(&mut ctx);
        assert_eq!(u, ids(&[2, 4, 9]));
        assert_eq!(ctx.cost.extent_pairs, 5, "every source pair is charged");
        // 3 ends vs a 3-pair extent: same order, so the merge kernel runs.
        let next = stored(&[(2, 7), (4, 9), (5, 5)]);
        let mut hit = Vec::new();
        semijoin(&mut ctx, &u, Space::ApexExtent, 2, &next, &mut hit);
        assert_eq!(hit, ids(&[7, 9]));
        let cost = ctx.finish();
        assert_eq!(cost.ops.get(OpKind::SemijoinMerge).invocations, 1);
        assert_eq!(cost.ops.get(OpKind::SemijoinGallop).invocations, 0);
        assert!(cost.join_work > 0);
        assert_eq!(cost.join_output, 2);
    }

    #[test]
    fn forced_policies_agree_and_attribute_their_kind() {
        let buf = BufferHandle::unbounded();
        let extent = chain(5_000, 2);
        let ends = [NodeId(10), NodeId(4_000)];
        let adaptive_kind = match KernelPolicy::Adaptive.choose(ends.len(), &extent) {
            Kernel::Merge => OpKind::SemijoinMerge,
            Kernel::Gallop => OpKind::SemijoinGallop,
            Kernel::BlockSkip => OpKind::SemijoinSkip,
        };
        assert_ne!(
            adaptive_kind,
            OpKind::SemijoinMerge,
            "searching must win here"
        );
        let mut want = None;
        for (policy, kind) in [
            (KernelPolicy::Merge, OpKind::SemijoinMerge),
            (KernelPolicy::Gallop, OpKind::SemijoinGallop),
            (KernelPolicy::BlockSkip, OpKind::SemijoinSkip),
            (KernelPolicy::Adaptive, adaptive_kind),
        ] {
            let mut ctx = ExecContext::with_policy(&buf, policy);
            let mut hit = Vec::new();
            semijoin(&mut ctx, &ends, Space::ApexExtent, 9, &extent, &mut hit);
            assert_eq!(hit, ids(&[11, 4_001]), "{}", policy.name());
            let cost = ctx.finish();
            assert_eq!(cost.ops.get(kind).invocations, 1, "{}", policy.name());
            match &want {
                None => want = Some(hit),
                Some(w) => assert_eq!(&hit, w, "{}", policy.name()),
            }
        }
    }

    #[test]
    fn skipped_blocks_are_never_faulted() {
        let buf = BufferHandle::unbounded();
        // Multi-block extent; probe only its first parents.
        let extent = chain(40_000, 1);
        let blocks = extent.num_blocks() as u64;
        assert!(blocks > 2);
        let mut ctx = ExecContext::new(&buf);
        let mut hit = Vec::new();
        semijoin(
            &mut ctx,
            &[NodeId(1)],
            Space::ApexExtent,
            3,
            &extent,
            &mut hit,
        );
        assert_eq!(hit, ids(&[2]));
        let probe_pages = ctx.cost.pages_read;
        assert!(
            probe_pages < blocks,
            "a point probe must not fault all {blocks} blocks"
        );
        // A full scan faults the remaining blocks.
        ExtentScan::pairs(Space::ApexExtent, 3, &extent).run(&mut ctx);
        assert_eq!(ctx.finish().pages_read, blocks);
    }

    #[test]
    fn multiway_join_attributes_to_inner_operators() {
        let buf = BufferHandle::unbounded();
        let seed = stored(&[(0, 1), (0, 2)]);
        // Two classes in the stage: their arrivals (11 twice, 10) are
        // merged into one sorted, distinct frontier.
        let s1 = stored(&[(1, 11), (2, 11), (9, 9)]);
        let s2 = stored(&[(2, 10)]);
        let mut ctx = ExecContext::new(&buf);
        let out = MultiwayJoin {
            seed: vec![(0, &seed)],
            stages: vec![vec![(1, &s1), (2, &s2)]],
            space: Space::ApexExtent,
        }
        .run(&mut ctx);
        assert_eq!(out, ids(&[10, 11]));
        let cost = ctx.finish();
        assert_eq!(cost.join_output, 3, "matched pairs, not distinct nodes");
        let mj = cost.ops.get(OpKind::MultiwayJoin);
        assert_eq!(mj.invocations, 1);
        // Composite: the pages/pairs live on the inner operators.
        assert_eq!(mj.pages_read() + mj.extent_pairs(), 0);
        assert_eq!(cost.ops.get(OpKind::ExtentUnion).invocations, 1);
        let semijoins: u64 = [
            OpKind::SemijoinMerge,
            OpKind::SemijoinGallop,
            OpKind::SemijoinSkip,
        ]
        .iter()
        .map(|&k| cost.ops.get(k).invocations)
        .sum();
        assert_eq!(semijoins, 2);
        // Scalar totals equal the sum of the per-op attributions.
        let attributed: u64 = OpKind::ALL
            .iter()
            .map(|&k| cost.ops.get(k).pages_read())
            .sum();
        assert_eq!(attributed, cost.pages_read);
    }

    #[test]
    fn empty_seed_short_circuits_stages() {
        let buf = BufferHandle::unbounded();
        let s1 = stored(&[(1, 10)]);
        let mut ctx = ExecContext::new(&buf);
        let out = MultiwayJoin {
            seed: vec![],
            stages: vec![vec![(1, &s1)]],
            space: Space::ApexExtent,
        }
        .run(&mut ctx);
        assert!(out.is_empty());
        let cost = ctx.finish();
        assert_eq!(cost.ops.get(OpKind::SemijoinMerge).invocations, 0);
        assert_eq!(cost.extent_pairs, 0);
    }

    #[test]
    fn an_interrupted_chain_answers_nothing() {
        // The seed's end nodes end a prefix of the path, not the path:
        // a deadline between stages must not pass them off as answers.
        let buf = BufferHandle::unbounded();
        let seed = stored(&[(0, 1)]);
        let s1 = stored(&[(1, 10)]);
        let mut ctx = ExecContext::new(&buf);
        ctx.set_deadline(Instant::now());
        let out = MultiwayJoin {
            seed: vec![(0, &seed)],
            stages: vec![vec![(1, &s1)]],
            space: Space::ApexExtent,
        }
        .run(&mut ctx);
        assert!(out.is_empty());
        assert!(ctx.interrupted());
    }

    #[test]
    fn data_probe_filters_in_one_pass_and_stops_at_the_deadline() {
        let g = xmlgraph::builder::moviedb();
        let t = DataTable::build(&g, PageModel::default());
        let buf = BufferHandle::unbounded();
        let probe = || DataProbe {
            table: &t,
            value: "Star Wars",
        };
        let mut ctx = ExecContext::new(&buf);
        let mut nodes = ids(&[0, 10, 17]);
        probe().run(&mut nodes, &mut ctx);
        assert_eq!(nodes, ids(&[10]));
        assert!(!ctx.interrupted());
        assert_eq!(ctx.cost.table_probes, 3);
        let op = *ctx.cost.ops.get(OpKind::DataProbe);
        assert_eq!(op.invocations, 1, "one operator run per query");
        assert_eq!(op.scalars[6], 3);
        assert_eq!(op.pages_read(), ctx.cost.pages_read);
        // An expired deadline drops every untested candidate.
        let mut late = ExecContext::new(&buf);
        late.set_deadline(Instant::now());
        let mut nodes = ids(&[0, 10, 17]);
        probe().run(&mut nodes, &mut late);
        assert!(nodes.is_empty());
        assert!(late.interrupted());
        assert_eq!(late.cost.table_probes, 0);
    }

    #[test]
    fn index_nav_touches_record_pages_once() {
        let buf = BufferHandle::unbounded();
        let psz = PageModel::default().page_size as u64;
        let offsets = record_layout([16usize, 24, 8192, 40].into_iter());
        assert_eq!(offsets, vec![0, 16, 40, 8232, 8272]);
        let mut ctx = ExecContext::new(&buf);
        IndexNav {
            space: Space::GuideNode,
            bytes: offsets[0]..offsets[1],
        }
        .run(&mut ctx);
        IndexNav {
            space: Space::GuideNode,
            bytes: offsets[1]..offsets[2],
        }
        .run(&mut ctx);
        // Records 0 and 1 share page 0.
        assert_eq!(ctx.cost.pages_read, 1);
        IndexNav {
            space: Space::GuideNode,
            bytes: offsets[2]..offsets[3],
        }
        .run(&mut ctx);
        // Record 2 spans pages 0 and 1; only page 1 is new.
        assert_eq!(ctx.cost.pages_read, 2);
        assert!(offsets[3] > psz);
        let cost = ctx.finish();
        assert_eq!(cost.ops.get(OpKind::IndexNav).pages_read(), 2);
    }

    #[test]
    fn nav_edges_attribute_without_invocations() {
        let buf = BufferHandle::unbounded();
        let mut ctx = ExecContext::new(&buf);
        ctx.nav_edges(5);
        ctx.nav_edges(2);
        let cost = ctx.finish();
        assert_eq!(cost.index_edges, 7);
        let nav = cost.ops.get(OpKind::IndexNav);
        assert_eq!(nav.scalars[0], 7);
        assert_eq!(nav.invocations, 0);
    }
}
