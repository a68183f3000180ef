//! Adaptive semijoin kernels over stored extents.
//!
//! The join step of every QTYPE1/QTYPE2 plan semijoins a stored extent
//! against the sorted, distinct end nodes of the running result. Three
//! kernels implement it, all running directly over the packed frames of
//! a [`SuccinctExtent`] — a kernel decodes at most one frame
//! ([`crate::succinct::WINDOW_PAIRS`] pairs) at a time into the
//! caller's [`SemijoinScratch`], never a whole-extent `Vec`:
//!
//! * [`Kernel::Merge`] — one linear pass over the extent, frame by
//!   frame, advancing through the ends. Work ≈ `pairs + ends`; touches
//!   every block (and stops decoding once the ends are exhausted). Best
//!   when the two sides are of the same order.
//! * [`Kernel::Gallop`] — per end, a binary search over the block
//!   headers locates the candidate block, a gallop from
//!   the previous end's position over its frames' `min_parent` and then
//!   over one frame's packed parents lands on the end's run without
//!   decoding a pair, and only the run is read. Work ≈ `ends · log gap`.
//!   Best when the ends are much smaller than the extent.
//! * [`Kernel::BlockSkip`] — walks the block headers linearly, discarding
//!   whole blocks whose `[min_parent, max_parent]` range contains no
//!   end without reading a word, probing the survivors like gallop
//!   does. Adds one header probe per block; best when the ends are
//!   sparse but numerous enough to amortize the header walk.
//!
//! [`KernelPolicy::Adaptive`] picks per invocation from the size ratio
//! of the two sides (see [`KernelPolicy::choose`]); the forced variants
//! exist so tests and benches can sweep every kernel over the same
//! plans. All kernels are pair-identical to a naive nested scan; they
//! differ only in work, in which blocks they fault, and in how many
//! pairs they actually decode ([`KernelReport::decoded`]).
//!
//! The pair-slice reference these are checked against is
//! [`EdgeSet::semijoin_ends`](crate::edgeset::EdgeSet::semijoin_ends) /
//! [`probe_by_parents`](crate::edgeset::EdgeSet::probe_by_parents) —
//! the same code the planner runs on reduced in-memory stages: the
//! bench races "decode everything, then join the `Vec`" against these
//! kernels, and the proptests assert output equivalence pair by pair.
//!
//! Callers pass a reusable [`SemijoinScratch`]; kernels never allocate
//! per invocation (beyond one-time growth of the caller's buffers). The
//! `blocks` list of touched candidate blocks is what the execution
//! layer charges to the buffer pool — skipped blocks are never
//! faulted, which is where the `pages_read` win of the skip index
//! comes from.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use xmlgraph::NodeId;

use crate::block::BlockHeader;
use crate::edgeset::EdgePair;
use crate::succinct::{gallop_in, SuccinctExtent};

/// A concrete semijoin algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Linear sorted merge over the whole extent.
    Merge,
    /// Per-end header and frame search.
    Gallop,
    /// Header-driven block skipping, searching frames within blocks.
    BlockSkip,
}

impl Kernel {
    /// Kernel name, as shown by `explain` and the kernels bench.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Merge => "merge",
            Kernel::Gallop => "gallop",
            Kernel::BlockSkip => "block-skip",
        }
    }
}

/// How the execution layer picks the kernel of each semijoin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Choose per invocation from the size ratio (the default).
    #[default]
    Adaptive,
    /// Always merge.
    Merge,
    /// Always gallop.
    Gallop,
    /// Always block-skip.
    BlockSkip,
}

impl KernelPolicy {
    /// Every policy, in display order.
    pub const ALL: [KernelPolicy; 4] = [
        KernelPolicy::Adaptive,
        KernelPolicy::Merge,
        KernelPolicy::Gallop,
        KernelPolicy::BlockSkip,
    ];

    /// Policy name (`adaptive`, `merge`, `gallop`, `block-skip`).
    pub fn name(self) -> &'static str {
        match self {
            KernelPolicy::Adaptive => "adaptive",
            KernelPolicy::Merge => Kernel::Merge.name(),
            KernelPolicy::Gallop => Kernel::Gallop.name(),
            KernelPolicy::BlockSkip => Kernel::BlockSkip.name(),
        }
    }

    /// Parses a policy name as accepted by the CLI and benches.
    pub fn parse(s: &str) -> Option<KernelPolicy> {
        KernelPolicy::ALL.into_iter().find(|p| p.name() == s)
    }

    /// Resolves the kernel for one semijoin of `ends_len` end nodes
    /// against `extent`.
    ///
    /// The rule compares work estimates: a merge inspects every pair
    /// (`m + n`), a gallop pays about `2·log₂(gap) + 4` comparisons per
    /// end over gaps of `m / n` pairs, and a block skip pays the same
    /// within one-page blocks plus one header probe per block. The
    /// cheapest estimate wins; `BlockSkip` is preferred to `Gallop`
    /// only once the extent spans several blocks and the header walk
    /// is amortized (`n ≥ blocks`), since only then does the skip
    /// index pay for itself.
    pub fn choose(self, ends_len: usize, extent: &SuccinctExtent) -> Kernel {
        match self {
            KernelPolicy::Merge => Kernel::Merge,
            KernelPolicy::Gallop => Kernel::Gallop,
            KernelPolicy::BlockSkip => Kernel::BlockSkip,
            KernelPolicy::Adaptive => {
                let m = extent.len();
                let n = ends_len;
                if m == 0 || n == 0 {
                    return Kernel::Merge;
                }
                let est_merge = (m + n) as u64;
                let gap_log = usize::BITS - (m / n).max(1).leading_zeros();
                let est_search = n as u64 * (2 * gap_log as u64 + 4);
                if est_merge <= est_search {
                    return Kernel::Merge;
                }
                let blocks = extent.num_blocks();
                if blocks > 1 && n >= blocks {
                    Kernel::BlockSkip
                } else {
                    Kernel::Gallop
                }
            }
        }
    }
}

/// Caller-owned, reusable semijoin buffers.
#[derive(Debug, Default)]
pub struct SemijoinScratch {
    /// Matched pairs, in extent order.
    pub out: Vec<EdgePair>,
    /// Indices of the blocks the kernel faulted (candidate blocks; a
    /// merge faults all of them). The execution layer charges exactly
    /// these to the buffer pool.
    pub blocks: Vec<u32>,
    /// The decode window: one frame, at most
    /// [`crate::succinct::WINDOW_PAIRS`] pairs, so its capacity is
    /// fixed after first use no matter how large the extent is.
    pub window: Vec<EdgePair>,
}

impl SemijoinScratch {
    /// Fresh empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self) {
        self.out.clear();
        self.blocks.clear();
        self.window.clear();
    }
}

/// Work/volume counters of one kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelReport {
    /// Pair/header comparisons performed (the `join_work` counter).
    pub work: usize,
    /// Extent pairs resident in the blocks the kernel faulted (the
    /// `extent_pairs` counter — skipped blocks are never read).
    pub pairs_read: usize,
    /// Pairs actually decoded — the packed form's saving over a full
    /// decode is `pairs - decoded`.
    pub decoded: usize,
}

/// Runs `kernel` for the semijoin of `extent` against the sorted,
/// distinct `ends`, leaving the matched pairs (sorted, duplicate-free)
/// in `scratch.out` and the faulted block indices in `scratch.blocks`.
/// Runs directly over the stored frames; only the frames a kernel
/// reaches are read.
pub fn semijoin_into(
    kernel: Kernel,
    extent: &SuccinctExtent,
    ends: &[NodeId],
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    scratch.reset();
    if extent.is_empty() {
        return KernelReport::default();
    }
    match kernel {
        Kernel::Merge => merge_kernel(extent, ends, scratch),
        Kernel::Gallop => gallop_kernel(extent, ends, scratch),
        Kernel::BlockSkip => block_skip_kernel(extent, ends, scratch),
    }
}

fn merge_kernel(
    succ: &SuccinctExtent,
    ends: &[NodeId],
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    scratch.blocks.extend(0..succ.num_blocks() as u32);
    let mut rep = KernelReport {
        pairs_read: succ.len(),
        ..KernelReport::default()
    };
    let mut ei = 0usize;
    'frames: for f in 0..succ.num_frames() {
        if ei >= ends.len() {
            break;
        }
        succ.frame_into(f, &mut scratch.window);
        rep.decoded += scratch.window.len();
        for p in &scratch.window {
            rep.work += 1;
            while let Some(&e) = ends.get(ei) {
                if e < p.parent {
                    ei += 1;
                } else {
                    if e == p.parent {
                        scratch.out.push(*p);
                    }
                    break;
                }
            }
            if ei >= ends.len() {
                break 'frames;
            }
        }
    }
    rep
}

fn gallop_kernel(
    succ: &SuccinctExtent,
    ends: &[NodeId],
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    let headers = succ.image().headers();
    let mut rep = KernelReport::default();
    let (mut ei, mut k) = (0usize, 0usize);
    while let Some(&e) = ends.get(ei) {
        // Header search: first block from k that can still contain e.
        k = succ.first_block_reaching(k, e.0, &mut rep.work);
        let Some(h) = headers.get(k) else { break };
        rep.work += 1;
        if h.min_parent > e.0 {
            // e falls in the gap before block k: no extent pair has it.
            ei = skip_below(ends, ei, h.min_parent);
            continue;
        }
        probe_block(succ, k, h, ends, &mut ei, scratch, &mut rep);
        k += 1;
    }
    rep
}

fn block_skip_kernel(
    succ: &SuccinctExtent,
    ends: &[NodeId],
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    let mut rep = KernelReport::default();
    let mut ei = 0usize;
    for (k, h) in succ.image().headers().iter().enumerate() {
        rep.work += 1; // header probe
        ei = skip_below(ends, ei, h.min_parent);
        let Some(&e) = ends.get(ei) else { break };
        if e.0 > h.max_parent {
            continue; // skip the whole block without reading a word
        }
        probe_block(succ, k, h, ends, &mut ei, scratch, &mut rep);
    }
    rep
}

/// The first end index `>= ei` whose end is `>= t`.
fn skip_below(ends: &[NodeId], ei: usize, t: u32) -> usize {
    ei + ends
        .get(ei..)
        .map_or(0, |rest| rest.partition_point(|e| e.0 < t))
}

/// Faults block `k`, whose header is `h`, and resolves every end from
/// `ends[*ei]` on that falls in its parent range: `SuccinctExtent::seek`
/// lands on the end's run through the frame headers and packed parents,
/// and only the run (plus the pair that ends it) is read; the run counts
/// as decoded. An end equal to the block's `max_parent` is left in
/// place, since its run may continue in the next block.
fn probe_block(
    succ: &SuccinctExtent,
    k: usize,
    h: &BlockHeader,
    ends: &[NodeId],
    ei: &mut usize,
    scratch: &mut SemijoinScratch,
    rep: &mut KernelReport,
) {
    scratch.blocks.push(k as u32);
    rep.pairs_read += h.count as usize;
    let bound = h.max_parent;
    let frames = succ.block_frames(k);
    let (all, words) = (succ.image().frames(), succ.image().words());
    let (mut at, mut i) = (frames.start, 0usize);
    while let Some(&e) = ends.get(*ei).filter(|e| e.0 <= bound) {
        (at, i) = succ.seek((at, i), frames.end, e.0, &mut rep.work);
        'run: loop {
            let Some(frame) = all.get(at).filter(|_| at < frames.end) else {
                return; // the run reached the block's end: e == bound
            };
            while let Some(p) = frame.pair(words, i) {
                rep.work += 1;
                if p.parent != e {
                    break 'run;
                }
                rep.decoded += 1;
                scratch.out.push(p);
                i += 1;
            }
            (at, i) = (at + 1, 0);
        }
        *ei += 1;
    }
}

/// Right-to-left reduction kernel: keeps the pairs of `extent` whose
/// *end node* is one of the sorted, distinct `parents` — i.e. the pairs
/// that can still be extended by some pair of the (already reduced)
/// stage to their right. The planner's backward pass runs this from the
/// last stage towards the seed before the forward pass (Yannakakis-style
/// semijoin reduction); dropping a pair here is always safe because a
/// pair whose node parents nothing downstream cannot contribute to the
/// final frontier.
///
/// Pairs are stored sorted by `(parent, node)`, so node order is
/// arbitrary: every pair pays one binary search into `parents`
/// (`log₂ + 1` comparisons), and the whole extent — every frame — is
/// decoded through the window. Output keeps extent order, so it stays
/// sorted and duplicate-free.
pub fn reverse_semijoin_into(
    succ: &SuccinctExtent,
    parents: &[NodeId],
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    scratch.reset();
    if succ.is_empty() {
        return KernelReport::default();
    }
    scratch.blocks.extend(0..succ.num_blocks() as u32);
    let probe_cost = (usize::BITS - parents.len().leading_zeros()) as usize + 1;
    let mut rep = KernelReport {
        pairs_read: succ.len(),
        ..KernelReport::default()
    };
    for f in 0..succ.num_frames() {
        succ.frame_into(f, &mut scratch.window);
        rep.decoded += scratch.window.len();
        for p in &scratch.window {
            rep.work += probe_cost;
            if parents.binary_search(&p.node).is_ok() {
                scratch.out.push(*p);
            }
        }
    }
    rep
}

/// Reusable cursor state for [`merge_sorted_into`]: one allocation per
/// call site (the router keeps one per connection), not per query.
#[derive(Debug, Default)]
pub struct MergeScratch {
    pos: Vec<usize>,
}

impl MergeScratch {
    /// Fresh scratch state.
    pub fn new() -> MergeScratch {
        MergeScratch::default()
    }
}

/// Galloping lower bound over a sorted `u32` slice: first index
/// `i >= lo` with `xs[i] >= target`, counting comparisons into `work` —
/// the frame search's gallop over a plain slice. Index-free, so it stays
/// panic-free on the router's and the shard engine's serving paths.
pub fn gallop_lower_bound_u32(xs: &[u32], lo: usize, target: u32, work: &mut usize) -> usize {
    let below = |i: usize| xs.get(i).is_some_and(|&v| v < target);
    gallop_in(lo, xs.len(), below, work)
}

/// K-way union of sorted-ascending `u32` lists into `out` (cleared
/// first), deduplicating across lists; comparison count accumulates
/// into `work`. This is the scatter-gather router's merge path: every
/// shard answers with its owned rows in document order, and because
/// ownership partitions the node space the union reproduces the
/// single-process result exactly. The sole owner of the current
/// minimum gallops its whole run below every other head into the
/// output in one `extend_from_slice`, so merging disjoint shard
/// results degrades to run-length copies, not per-element heap churn.
pub fn merge_sorted_into(
    lists: &[&[u32]],
    scratch: &mut MergeScratch,
    out: &mut Vec<u32>,
    work: &mut usize,
) {
    out.clear();
    scratch.pos.clear();
    scratch.pos.resize(lists.len(), 0);
    loop {
        // Pass 1: the minimum head and how many lists share it.
        let mut min: Option<u32> = None;
        let mut owner = 0usize;
        let mut owners = 0usize;
        for (i, (l, &p)) in lists.iter().zip(scratch.pos.iter()).enumerate() {
            let Some(&v) = l.get(p) else { continue };
            *work += 1;
            match min {
                Some(m) if v > m => {}
                Some(m) if v == m => owners += 1,
                _ => {
                    min = Some(v);
                    owner = i;
                    owners = 1;
                }
            }
        }
        let Some(m) = min else { break };
        out.push(m);
        if owners == 1 {
            // The run below every other head belongs wholly to the
            // owner: gallop to its end and copy it in one go.
            let mut bound: Option<u32> = None;
            for (i, (l, &p)) in lists.iter().zip(scratch.pos.iter()).enumerate() {
                if i == owner {
                    continue;
                }
                if let Some(&v) = l.get(p) {
                    bound = Some(match bound {
                        Some(b) if b <= v => b,
                        _ => v,
                    });
                }
            }
            let (Some(l), Some(p)) = (lists.get(owner), scratch.pos.get_mut(owner)) else {
                break; // unreachable: owner indexes a seen head
            };
            let start = *p + 1;
            let end = match bound {
                Some(b) => gallop_lower_bound_u32(l, start, b, work),
                None => l.len(),
            };
            if let Some(run) = l.get(start..end) {
                out.extend_from_slice(run);
            }
            *p = end;
        } else {
            // A cross-list duplicate: advance every list past it.
            for (l, p) in lists.iter().zip(scratch.pos.iter_mut()) {
                if l.get(*p).copied() == Some(m) {
                    *p += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgeset::EdgeSet;

    fn stored(set: &EdgeSet) -> SuccinctExtent {
        SuccinctExtent::from_pairs(set.pairs())
    }

    fn check_all(set: &EdgeSet, ends: &[NodeId]) {
        let want: Vec<EdgePair> = set.iter().filter(|p| ends.contains(&p.parent)).collect();
        let extent = &stored(set);
        let mut scratch = SemijoinScratch::new();
        for kernel in [Kernel::Merge, Kernel::Gallop, Kernel::BlockSkip] {
            let rep = semijoin_into(kernel, extent, ends, &mut scratch);
            assert_eq!(scratch.out, want, "{} output", kernel.name());
            assert!(
                rep.pairs_read <= extent.len(),
                "{} reads within extent",
                kernel.name()
            );
            assert!(
                rep.decoded <= extent.len(),
                "{} decodes within extent",
                kernel.name()
            );
        }
        // The pair-slice reference agrees pair for pair.
        assert_eq!(set.semijoin_ends(ends).0.pairs(), want);
        assert_eq!(set.probe_by_parents(ends).0.pairs(), want);
        let kernel = KernelPolicy::Adaptive.choose(ends.len(), extent);
        semijoin_into(kernel, extent, ends, &mut scratch);
        assert_eq!(scratch.out, want, "adaptive output");
    }

    #[test]
    fn kernels_agree_on_small_inputs() {
        let extent = EdgeSet::from_raw(&[(1, 2), (1, 3), (4, 5), (7, 8), (9, 1)]);
        check_all(&extent, &[NodeId(1), NodeId(7)]);
        check_all(&extent, &[NodeId(0)]);
        check_all(&extent, &[]);
        check_all(&extent, &[NodeId(9), NodeId(100)]);
        check_all(&EdgeSet::new(), &[NodeId(1)]);
    }

    #[test]
    fn kernels_agree_on_multiblock_runs() {
        // Long same-parent runs crossing frame and block boundaries.
        let extent = EdgeSet::from_pairs(
            (0..60_000u32)
                .map(|i| EdgePair::new(NodeId(i / 4000), NodeId(i)))
                .collect(),
        );
        assert!(stored(&extent).num_blocks() > 2);
        check_all(&extent, &[NodeId(0), NodeId(3), NodeId(7)]);
        check_all(&extent, &[NodeId(2)]);
        let every: Vec<NodeId> = (0..16).map(NodeId).collect();
        check_all(&extent, &every);
    }

    #[test]
    fn kernels_agree_when_ends_sit_on_frame_and_block_edges() {
        // One pair per parent: pair i has parent i, so frame and block
        // edges are parent ids.
        let set = EdgeSet::from_pairs(
            (0..60_000u32)
                .map(|i| EdgePair::new(NodeId(i), NodeId(i / 2)))
                .collect(),
        );
        let extent = stored(&set);
        assert!(extent.num_blocks() > 2);
        let mut edges = Vec::new();
        for (k, h) in extent.image().headers().iter().enumerate() {
            let (first, last) = (h.first, h.first + h.count - 1);
            edges.extend([first, last]);
            for f in extent.block_frames(k) {
                let head = extent.pair_at(f, 0).unwrap().parent.0;
                edges.extend([head, head + 127]);
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let ends: Vec<NodeId> = edges.iter().map(|&e| NodeId(e)).collect();
        check_all(&set, &ends);
        for e in &ends {
            check_all(&set, &[*e]);
        }
        check_all(&set, &ends[..ends.len() / 2]);
    }

    /// 80 000 single-child parents: a multi-block extent.
    fn chain_extent() -> SuccinctExtent {
        let pairs: Vec<EdgePair> = (0..80_000u32)
            .map(|i| EdgePair::new(NodeId(i), NodeId(i + 1)))
            .collect();
        SuccinctExtent::from_pairs(&pairs)
    }

    #[test]
    fn skip_kernel_faults_fewer_blocks() {
        // Multi-block extent with a probe far from most blocks.
        let extent = chain_extent();
        assert!(extent.num_blocks() > 2);
        let ends = [NodeId(3), NodeId(79_999)];
        let mut scratch = SemijoinScratch::new();
        let skip = semijoin_into(Kernel::BlockSkip, &extent, &ends, &mut scratch);
        assert_eq!(scratch.out.len(), 2);
        assert_eq!(scratch.blocks.len(), 2, "only first and last block fault");
        assert!(skip.pairs_read < extent.len());
        assert!(skip.decoded < extent.len(), "skipped blocks stay encoded");
        let merge = semijoin_into(Kernel::Merge, &extent, &ends, &mut scratch);
        assert_eq!(scratch.blocks.len(), extent.num_blocks());
        assert!(skip.work < merge.work);
    }

    #[test]
    fn gallop_decodes_a_fraction() {
        let extent = chain_extent();
        let ends = [NodeId(7), NodeId(20_000), NodeId(39_000)];
        let mut scratch = SemijoinScratch::new();
        let rep = semijoin_into(Kernel::Gallop, &extent, &ends, &mut scratch);
        assert_eq!(scratch.out.len(), 3);
        // Only the runs, not whole blocks or frames.
        assert_eq!(rep.decoded, 3);
        assert!(
            rep.decoded * 10 < extent.len(),
            "decoded {} of {}",
            rep.decoded,
            extent.len()
        );
    }

    #[test]
    fn adaptive_matches_ratio() {
        let big = chain_extent();
        // Same-order sides merge; sparse probes search.
        assert_eq!(
            KernelPolicy::Adaptive.choose(big.len(), &big),
            Kernel::Merge
        );
        assert_eq!(KernelPolicy::Adaptive.choose(2, &big), Kernel::Gallop);
        let n = big.num_blocks();
        assert!(n > 1);
        assert_eq!(
            KernelPolicy::Adaptive.choose(n.max(64), &big),
            Kernel::BlockSkip
        );
        // Degenerate inputs fall back to merge.
        assert_eq!(KernelPolicy::Adaptive.choose(0, &big), Kernel::Merge);
    }

    #[test]
    fn policy_parse_roundtrips() {
        for p in KernelPolicy::ALL {
            assert_eq!(KernelPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(KernelPolicy::parse("nope"), None);
    }

    #[test]
    fn reverse_kernel_keeps_extendable_pairs() {
        let extent = stored(&EdgeSet::from_raw(&[
            (1, 2),
            (1, 3),
            (4, 5),
            (7, 8),
            (9, 1),
        ]));
        let mut scratch = SemijoinScratch::new();
        // Pairs ending at 2, 5 or 42 survive.
        let parents = [NodeId(2), NodeId(5), NodeId(42)];
        let rep = reverse_semijoin_into(&extent, &parents, &mut scratch);
        assert_eq!(
            scratch.out,
            vec![
                EdgePair::new(NodeId(1), NodeId(2)),
                EdgePair::new(NodeId(4), NodeId(5)),
            ]
        );
        // Output keeps (parent, node) order.
        assert!(scratch.out.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(rep.pairs_read, extent.len());
        assert_eq!(rep.decoded, extent.len());
        assert_eq!(scratch.blocks.len(), extent.num_blocks());
        assert!(rep.work > 0);
        // Empty parent set drops everything; empty extent is free.
        reverse_semijoin_into(&extent, &[], &mut scratch);
        assert!(scratch.out.is_empty());
        let rep = reverse_semijoin_into(&SuccinctExtent::default(), &parents, &mut scratch);
        assert_eq!(rep, KernelReport::default());
        assert!(scratch.blocks.is_empty());
    }

    #[test]
    fn null_parent_root_pair_is_matchable() {
        let extent = EdgeSet::from_pairs(vec![
            EdgePair::new(NodeId(1), NodeId(2)),
            EdgePair::root(NodeId(0)),
        ]);
        check_all(&extent, &[xmlgraph::NULL_NODE]);
    }

    fn merged(lists: &[&[u32]]) -> Vec<u32> {
        let mut scratch = MergeScratch::new();
        let mut out = Vec::new();
        let mut work = 0usize;
        merge_sorted_into(lists, &mut scratch, &mut out, &mut work);
        out
    }

    #[test]
    fn kway_merge_unions_sorted_lists() {
        assert_eq!(merged(&[]), Vec::<u32>::new());
        assert_eq!(merged(&[&[], &[]]), Vec::<u32>::new());
        assert_eq!(merged(&[&[1, 2, 3]]), vec![1, 2, 3]);
        // Disjoint interleaved runs (the shard-partition shape).
        assert_eq!(
            merged(&[&[0, 3, 4, 9], &[1, 2, 8], &[5, 6, 7]]),
            (0..10).collect::<Vec<u32>>()
        );
        // Long disjoint runs exercise the gallop fast path.
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (100..200).collect();
        assert_eq!(merged(&[&b, &a]), (0..200).collect::<Vec<u32>>());
        // Cross-list duplicates collapse.
        assert_eq!(merged(&[&[1, 3, 5], &[1, 2, 5, 6]]), vec![1, 2, 3, 5, 6]);
        assert_eq!(merged(&[&[7], &[7], &[7]]), vec![7]);
    }

    #[test]
    fn kway_merge_matches_naive_union_on_random_partitions() {
        // Deterministic pseudo-random partition of 0..N into k lists.
        let mut x = 0x1234_5678_9abc_def0u64;
        for k in 1..6usize {
            let mut lists: Vec<Vec<u32>> = vec![Vec::new(); k];
            for v in 0..500u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                lists[(x % k as u64) as usize].push(v);
                if x.is_multiple_of(7) {
                    // Occasional duplicate in a second list.
                    lists[(x / 7 % k as u64) as usize].push(v);
                }
            }
            for l in &mut lists {
                l.sort_unstable();
                l.dedup();
            }
            let borrowed: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
            assert_eq!(merged(&borrowed), (0..500).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn kway_merge_reuses_scratch_across_calls() {
        let mut scratch = MergeScratch::new();
        let mut out = Vec::new();
        let mut work = 0usize;
        merge_sorted_into(&[&[1, 5], &[2, 3]], &mut scratch, &mut out, &mut work);
        assert_eq!(out, vec![1, 2, 3, 5]);
        merge_sorted_into(&[&[9]], &mut scratch, &mut out, &mut work);
        assert_eq!(out, vec![9], "out is cleared per call");
        assert!(work > 0);
    }
}
