//! Adaptive semijoin kernels over stored extents.
//!
//! The join step of every QTYPE1/QTYPE2 plan semijoins a stored extent
//! against the sorted, distinct end nodes of the running result. Three
//! kernels implement it, all running directly over the compressed
//! [`SuccinctExtent`] — blocks decode through bounded
//! [`crate::succinct::WINDOW_PAIRS`]-pair windows in the caller's
//! [`SemijoinScratch`], never into a whole-extent `Vec`:
//!
//! * [`Kernel::Merge`] — one linear pass over the extent, advancing an
//!   end cursor. Work ≈ `pairs + ends`; touches every block (and stops
//!   decoding once the ends are exhausted). Best when the two sides
//!   are of the same order.
//! * [`Kernel::Gallop`] — per end, a binary header search in the
//!   rank/select directory locates the candidate block, a sampled
//!   restart lands the decoder mid-block, and a galloping search over
//!   the decode window finds the run. Work ≈ `ends · log`; decodes at
//!   most a sample stride plus the run per end. Best when the ends are
//!   much smaller than the extent.
//! * [`Kernel::BlockSkip`] — walks the directory linearly, discarding
//!   whole blocks whose `[min_parent, max_parent]` range contains no
//!   end without decoding a byte, probing the survivors like gallop
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

use xmlgraph::NodeId;

use crate::edgeset::EdgePair;
use crate::succinct::{EndCursor, Ends, SuccinctExtent};

/// A concrete semijoin algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Linear sorted merge over the whole extent.
    Merge,
    /// Per-end directory + sampled-window galloping search.
    Gallop,
    /// Header-driven block skipping, galloping within blocks.
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
    /// Bounded decode window the kernels stream compressed blocks
    /// through: at most [`crate::succinct::WINDOW_PAIRS`] pairs live
    /// here at once, so its capacity is fixed after first use no
    /// matter how large the extent is.
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
    /// Pairs actually decoded through the window — the succinct form's
    /// saving over a full decode is `pairs - decoded`.
    pub decoded: usize,
}

/// Runs `kernel` for the semijoin of `extent` against the sorted,
/// distinct `ends`, leaving the matched pairs (sorted, duplicate-free)
/// in `scratch.out` and the faulted block indices in `scratch.blocks`.
/// Runs directly over the stored compressed form; only the
/// intersecting stretches of the intersecting blocks are decoded.
pub fn semijoin_into(
    kernel: Kernel,
    extent: &SuccinctExtent,
    ends: Ends<'_>,
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
    ends: Ends<'_>,
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    let nb = succ.num_blocks();
    scratch.blocks.extend(0..nb as u32);
    let mut work = 0usize;
    let mut decoded = 0usize;
    // The merge's inner loop runs once per extent pair, so the end-side
    // dispatch is specialized per representation: the slice form gets
    // the baseline's tight index loop (no per-pair enum match), the
    // packed form streams through its cursor. Both count `work` as one
    // comparison per pair examined, so the two forms report identically.
    match ends {
        Ends::Slice(es) => {
            let mut ei = 0usize;
            'blocks: for k in 0..nb {
                if ei >= es.len() {
                    break;
                }
                let mut bc = succ.block_cursor(k);
                loop {
                    let n = bc.fill(&mut scratch.window);
                    if n == 0 {
                        break;
                    }
                    decoded += n;
                    for p in &scratch.window {
                        work += 1;
                        while let Some(&e) = es.get(ei) {
                            if e < p.parent {
                                ei += 1;
                            } else {
                                if e == p.parent {
                                    scratch.out.push(*p);
                                }
                                break;
                            }
                        }
                        if ei >= es.len() {
                            break 'blocks;
                        }
                    }
                }
            }
        }
        Ends::Packed(_) => {
            let mut cur = ends.cursor();
            'pblocks: for k in 0..nb {
                if cur.peek().is_none() {
                    break;
                }
                let mut bc = succ.block_cursor(k);
                loop {
                    let n = bc.fill(&mut scratch.window);
                    if n == 0 {
                        break;
                    }
                    decoded += n;
                    for p in &scratch.window {
                        work += 1;
                        loop {
                            match cur.peek() {
                                None => break 'pblocks,
                                Some(e) if e < p.parent => cur.advance(),
                                Some(e) => {
                                    if e == p.parent {
                                        scratch.out.push(*p);
                                    }
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    KernelReport {
        work,
        pairs_read: succ.len(),
        decoded,
    }
}

fn gallop_kernel(
    succ: &SuccinctExtent,
    ends: Ends<'_>,
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    let dir = succ.directory();
    let nb = dir.num_blocks();
    let mut work = 0usize;
    let mut pairs_read = 0usize;
    let mut decoded = 0usize;
    let mut cur = ends.cursor();
    let mut k = 0usize;
    while k < nb {
        let Some(e) = cur.peek() else { break };
        // Header search: first block from k that can still contain e.
        k = dir.first_block_reaching_from(k, e.0, &mut work);
        if k >= nb {
            break;
        }
        work += 1;
        if dir.min_parent(k) > e.0 {
            // e falls in the gap before block k: no extent pair has it.
            cur.skip_below(dir.min_parent(k));
            continue;
        }
        scratch.blocks.push(k as u32);
        pairs_read += dir.count(k);
        probe_block(
            succ,
            k,
            &mut cur,
            &mut scratch.out,
            &mut scratch.window,
            &mut work,
            &mut decoded,
        );
        k += 1;
    }
    KernelReport {
        work,
        pairs_read,
        decoded,
    }
}

fn block_skip_kernel(
    succ: &SuccinctExtent,
    ends: Ends<'_>,
    scratch: &mut SemijoinScratch,
) -> KernelReport {
    let dir = succ.directory();
    let nb = dir.num_blocks();
    let mut work = 0usize;
    let mut pairs_read = 0usize;
    let mut decoded = 0usize;
    let mut cur = ends.cursor();
    for k in 0..nb {
        work += 1; // header probe
        cur.skip_below(dir.min_parent(k));
        let Some(e) = cur.peek() else { break };
        if e.0 > dir.max_parent(k) {
            continue; // skip the whole block without decoding a byte
        }
        scratch.blocks.push(k as u32);
        pairs_read += dir.count(k);
        probe_block(
            succ,
            k,
            &mut cur,
            &mut scratch.out,
            &mut scratch.window,
            &mut work,
            &mut decoded,
        );
    }
    KernelReport {
        work,
        pairs_read,
        decoded,
    }
}

/// Probes one block for the current run of ends: restarts the decoder
/// at the latest sample before the first end, streams the block through
/// the window, and locates each end's run with the shared galloping
/// helper. On return the cursor sits at the first end `>= max_parent`
/// of the block — an end equal to `max_parent` is left in place because
/// its run may continue in the next block.
// apex-lint: allow(panic-reachability): i is bounded by wp.len() checks before every wp[i] read
fn probe_block(
    succ: &SuccinctExtent,
    k: usize,
    cur: &mut EndCursor<'_>,
    out: &mut Vec<EdgePair>,
    window: &mut Vec<EdgePair>,
    work: &mut usize,
    decoded: &mut usize,
) {
    let bound = succ.directory().max_parent(k);
    let Some(e0) = cur.peek() else { return };
    let mut bc = succ.block_cursor_at(k, e0.0);
    loop {
        let n = bc.fill(window);
        if n == 0 {
            break;
        }
        *decoded += n;
        let mut lo = 0usize;
        loop {
            let Some(e) = cur.peek() else { return };
            if e.0 > bound {
                return; // later ends belong to later blocks
            }
            let wp: &[EdgePair] = window;
            let start = gallop_lower_bound(wp, lo, e, work);
            if start >= wp.len() {
                break; // whole window below e: refill
            }
            let mut i = start;
            while i < wp.len() && wp[i].parent == e {
                *work += 1;
                out.push(wp[i]);
                i += 1;
            }
            lo = i;
            if i >= wp.len() {
                // The run touched the window's last pair: e may
                // continue in the next window, so keep the cursor on it.
                break;
            }
            cur.advance(); // e fully resolved inside this window
        }
    }
    // Block exhausted: ends strictly below max_parent cannot match any
    // later block (blocks are parent-ordered), so resolve them here.
    cur.skip_below(bound);
}

/// Galloping lower bound: first index `i >= lo` with
/// `pairs[i].parent >= target`, counting comparisons into `work`.
/// The bracket-invariant search [`probe_block`] runs over each decode
/// window.
// apex-lint: allow(panic-reachability): hi/base+half stay inside [lo, n) by the gallop/binary-search bracket invariant
fn gallop_lower_bound(pairs: &[EdgePair], lo: usize, target: NodeId, work: &mut usize) -> usize {
    let n = pairs.len();
    let mut step = 1usize;
    let mut prev = lo;
    let mut hi = lo;
    // Exponential phase: bracket the target.
    loop {
        if hi >= n {
            hi = n;
            break;
        }
        *work += 1;
        if pairs[hi].parent >= target {
            break;
        }
        prev = hi + 1;
        hi += step;
        step *= 2;
    }
    // Binary phase within [prev, hi).
    let mut size = hi - prev;
    let mut base = prev;
    while size > 0 {
        let half = size / 2;
        *work += 1;
        if pairs[base + half].parent < target {
            base += half + 1;
            size -= half + 1;
        } else {
            size = half;
        }
    }
    base
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
/// (`log₂ + 1` comparisons), and the whole extent — every block — is
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
    let nb = succ.num_blocks();
    scratch.blocks.extend(0..nb as u32);
    let probe_cost = (usize::BITS - parents.len().leading_zeros()) as usize + 1;
    let mut work = 0usize;
    let mut decoded = 0usize;
    for k in 0..nb {
        let mut bc = succ.block_cursor(k);
        loop {
            let n = bc.fill(&mut scratch.window);
            if n == 0 {
                break;
            }
            decoded += n;
            for p in &scratch.window {
                work += probe_cost;
                if parents.binary_search(&p.node).is_ok() {
                    scratch.out.push(*p);
                }
            }
        }
    }
    KernelReport {
        work,
        pairs_read: succ.len(),
        decoded,
    }
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
/// `i >= lo` with `xs[i] >= target`, counting comparisons into `work`.
/// The `u32` twin of [`gallop_lower_bound`]; index-free, so it stays
/// panic-free on the router's and the shard engine's serving paths.
pub fn gallop_lower_bound_u32(xs: &[u32], lo: usize, target: u32, work: &mut usize) -> usize {
    let mut step = 1usize;
    let mut prev = lo;
    let mut hi = lo;
    // Exponential phase: bracket the target.
    loop {
        match xs.get(hi) {
            None => {
                hi = xs.len();
                break;
            }
            Some(&v) => {
                *work += 1;
                if v >= target {
                    break;
                }
                prev = hi + 1;
                hi += step;
                step *= 2;
            }
        }
    }
    // Binary phase within [prev, hi).
    let mut base = prev;
    let mut size = hi - base;
    while size > 0 {
        let half = size / 2;
        *work += 1;
        if xs.get(base + half).is_some_and(|&v| v < target) {
            base += half + 1;
            size -= half + 1;
        } else {
            size = half;
        }
    }
    base
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
            let rep = semijoin_into(kernel, extent, ends.into(), &mut scratch);
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
        assert_eq!(set.semijoin_ends(ends.into()).0.pairs(), want);
        assert_eq!(set.probe_by_parents(ends.into()).0.pairs(), want);
        let kernel = KernelPolicy::Adaptive.choose(ends.len(), extent);
        semijoin_into(kernel, extent, ends.into(), &mut scratch);
        assert_eq!(scratch.out, want, "adaptive output");
        // The packed end form agrees with the slice form.
        let ix = crate::succinct::EndIndex::from_sorted(ends);
        semijoin_into(kernel, extent, (&ix).into(), &mut scratch);
        assert_eq!(scratch.out, want, "packed-ends output");
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
        // Long same-parent runs crossing block boundaries.
        let extent = EdgeSet::from_pairs(
            (0..30_000u32)
                .map(|i| EdgePair::new(NodeId(i / 4000), NodeId(i)))
                .collect(),
        );
        assert!(stored(&extent).num_blocks() > 2);
        check_all(&extent, &[NodeId(0), NodeId(3), NodeId(7)]);
        check_all(&extent, &[NodeId(2)]);
        let every: Vec<NodeId> = (0..8).map(NodeId).collect();
        check_all(&extent, &every);
    }

    /// 40 000 single-child parents: a multi-block extent.
    fn chain_extent() -> SuccinctExtent {
        let pairs: Vec<EdgePair> = (0..40_000u32)
            .map(|i| EdgePair::new(NodeId(i), NodeId(i + 1)))
            .collect();
        SuccinctExtent::from_pairs(&pairs)
    }

    #[test]
    fn skip_kernel_faults_fewer_blocks() {
        // Multi-block extent with a probe far from most blocks.
        let extent = chain_extent();
        assert!(extent.num_blocks() > 2);
        let ends = [NodeId(3), NodeId(39_999)];
        let mut scratch = SemijoinScratch::new();
        let skip = semijoin_into(Kernel::BlockSkip, &extent, ends[..].into(), &mut scratch);
        assert_eq!(scratch.out.len(), 2);
        assert_eq!(scratch.blocks.len(), 2, "only first and last block fault");
        assert!(skip.pairs_read < extent.len());
        assert!(skip.decoded < extent.len(), "skipped blocks stay encoded");
        let merge = semijoin_into(Kernel::Merge, &extent, ends[..].into(), &mut scratch);
        assert_eq!(scratch.blocks.len(), extent.num_blocks());
        assert!(skip.work < merge.work);
    }

    #[test]
    fn gallop_decodes_a_fraction() {
        let extent = chain_extent();
        let ends = [NodeId(7), NodeId(20_000), NodeId(39_000)];
        let mut scratch = SemijoinScratch::new();
        let rep = semijoin_into(Kernel::Gallop, &extent, ends[..].into(), &mut scratch);
        assert_eq!(scratch.out.len(), 3);
        // A sampled restart plus window per end, not whole blocks.
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
