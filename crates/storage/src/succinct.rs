//! Succinct extents: the stored form of an extent, queried as it lies.
//!
//! A [`SuccinctExtent`] is what a `G_APEX` class node holds, what
//! `apex::persist` writes (the [`BlockExtent`] image, verbatim) and
//! what the semijoin kernels run over: one set of bytes in memory, on
//! disk and under the kernels. It is immutable once built — an index
//! build or refresh decodes the extents it changes into
//! [`crate::edgeset::EdgeSet`]s, mutates those, and seals each back
//! with [`SuccinctExtent::from_pairs`] once at the end. Sealing also
//! names the image ([`SuccinctExtent::content_hash`]), once: a
//! checkpoint stores each content once and a later one refers to it by
//! that name. The packed frames are queryable in place through two
//! layers:
//!
//! * [`BlockDirectory`] — a rank/select directory over the block skip
//!   headers: bit-packed `min_parent` / `max_parent` / cumulative pair
//!   count / cumulative byte offset arrays, binary-searchable without
//!   touching any payload word. `pairs_before` is *rank* (pairs before
//!   block `k`), [`BlockDirectory::block_of_pair`] is *select* (which
//!   block holds pair `i`), and
//!   [`BlockDirectory::first_block_reaching`] is the header search that
//!   lets gallop land on a candidate block in `O(log blocks)`.
//! * the frames themselves — every pair of a frame sits at a fixed bit
//!   offset, so `SuccinctExtent::seek` gallops over the frame headers'
//!   `min_parent` and then over one frame's packed parents, and a
//!   kernel decodes one whole frame ([`WINDOW_PAIRS`] pairs at most) at
//!   a time into a caller-owned window.
//!
//! Everything here is `#![forbid(unsafe_code)]`-clean (inherited from
//! the crate root) and panic-free on arbitrary bytes: a corrupt payload
//! decodes to garbage pairs, never to a crash.

use std::ops::Range;

use xmlgraph::NodeId;

use crate::block::{bits_at, mask, pair, put_bits, BlockExtent, BlockHeader, Frame, FRAME_PAIRS};
use crate::edgeset::EdgePair;

/// Pairs a kernel decodes at once: one frame.
pub const WINDOW_PAIRS: usize = FRAME_PAIRS;

/// `partition_point` over `lo..hi`: the first index where `pred` turns
/// false, assuming it is monotone. Each probe counts one comparison
/// into `work`.
fn partition_point_in(
    lo: usize,
    hi: usize,
    mut pred: impl FnMut(usize) -> bool,
    work: &mut usize,
) -> usize {
    let (mut base, mut size) = (lo, hi.saturating_sub(lo));
    while size > 0 {
        let half = size / 2;
        *work += 1;
        if pred(base + half) {
            base += half + 1;
            size -= half + 1;
        } else {
            size = half;
        }
    }
    base
}

/// Galloping [`partition_point_in`]: probes `lo`, `lo + 1`, `lo + 3`,
/// … until `pred` turns false, then binary-searches the last step, so
/// an answer `d` places past `lo` costs `O(log d)` probes.
fn gallop_in(lo: usize, hi: usize, mut pred: impl FnMut(usize) -> bool, work: &mut usize) -> usize {
    let (mut prev, mut bound, mut step) = (lo, lo, 1usize);
    while bound < hi {
        *work += 1;
        if !pred(bound) {
            break;
        }
        prev = bound + 1;
        bound += step;
        step *= 2;
    }
    partition_point_in(prev, bound.min(hi), pred, work)
}

// ---------------------------------------------------------------------------
// Bit-packed u32 arrays
// ---------------------------------------------------------------------------

/// A fixed-width bit-packed array of `u32` values: the width is the
/// smallest that fits the largest value, so a directory over blocks of
/// small ids costs a fraction of a plain `Vec<u32>`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedU32s {
    words: Vec<u64>,
    width: u32,
    len: usize,
}

impl PackedU32s {
    /// Packs `values` at the minimal common bit width (≥ 1).
    pub fn pack(values: &[u32]) -> PackedU32s {
        let width = values.iter().map(|&v| v | 1).max().unwrap_or(1);
        let width = crate::block::bit_width(width) as u32;
        let mut words = vec![0u64; (values.len() * width as usize).div_ceil(64)];
        for (i, &v) in values.iter().enumerate() {
            put_bits(&mut words, i * width as usize, v as u64);
        }
        PackedU32s {
            words,
            width,
            len: values.len(),
        }
    }

    /// Number of packed values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value at `i` (0 when out of range — callers keep `i < len`).
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        (bits_at(&self.words, i * self.width as usize) & mask(self.width)) as u32
    }

    /// `partition_point` over `lo..hi`: first index where `pred` turns
    /// false, assuming `pred` is monotone over the packed values. Each
    /// probe counts one comparison into `work`.
    pub fn partition_point_in(
        &self,
        lo: usize,
        hi: usize,
        mut pred: impl FnMut(u32) -> bool,
        work: &mut usize,
    ) -> usize {
        partition_point_in(lo, hi, |i| pred(self.get(i)), work)
    }

    /// Heap bytes held by the packed words.
    pub fn resident_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

// ---------------------------------------------------------------------------
// Rank/select directory over block headers
// ---------------------------------------------------------------------------

/// Bit-packed rank/select directory over an extent's block skip
/// headers: answers "which blocks can contain parent `p`", "how many
/// pairs precede block `k`" (rank) and "which block holds pair `i`"
/// (select) without touching a single payload word.
#[derive(Debug, Clone, Default)]
pub struct BlockDirectory {
    min_parent: PackedU32s,
    max_parent: PackedU32s,
    /// Cumulative pair counts; `len = blocks + 1`, `cum_pairs[0] = 0`.
    cum_pairs: PackedU32s,
    /// Cumulative stored byte offsets; `len = blocks + 1`.
    cum_bytes: PackedU32s,
}

impl BlockDirectory {
    /// Builds the directory from an encoded image's headers.
    pub fn build(image: &BlockExtent) -> BlockDirectory {
        let hs = image.headers();
        let mins: Vec<u32> = hs.iter().map(|h| h.min_parent).collect();
        let maxs: Vec<u32> = hs.iter().map(|h| h.max_parent).collect();
        let mut cp = Vec::with_capacity(hs.len() + 1);
        let mut cb = Vec::with_capacity(hs.len() + 1);
        let (mut pairs, mut bytes) = (0u32, 0u32);
        cp.push(0);
        cb.push(0);
        for h in hs {
            pairs = pairs.saturating_add(h.count);
            bytes = bytes.saturating_add(h.len);
            cp.push(pairs);
            cb.push(bytes);
        }
        BlockDirectory {
            min_parent: PackedU32s::pack(&mins),
            max_parent: PackedU32s::pack(&maxs),
            cum_pairs: PackedU32s::pack(&cp),
            cum_bytes: PackedU32s::pack(&cb),
        }
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.min_parent.len()
    }

    /// Smallest parent in block `k` (`u32::MAX` encodes `NULL_NODE`).
    #[inline]
    pub fn min_parent(&self, k: usize) -> u32 {
        self.min_parent.get(k)
    }

    /// Largest parent in block `k`.
    #[inline]
    pub fn max_parent(&self, k: usize) -> u32 {
        self.max_parent.get(k)
    }

    /// Rank: number of pairs in blocks before `k`.
    #[inline]
    pub fn pairs_before(&self, k: usize) -> usize {
        self.cum_pairs.get(k) as usize
    }

    /// Pairs in block `k`.
    #[inline]
    pub fn count(&self, k: usize) -> usize {
        (self.cum_pairs.get(k + 1) - self.cum_pairs.get(k)) as usize
    }

    /// Stored byte range of block `k` within the image.
    #[inline]
    pub fn byte_range(&self, k: usize) -> (usize, usize) {
        (
            self.cum_bytes.get(k) as usize,
            self.cum_bytes.get(k + 1) as usize,
        )
    }

    /// Select: index of the block holding pair `i` (the inverse of
    /// [`BlockDirectory::pairs_before`]); `i` must be `< num_pairs`.
    pub fn block_of_pair(&self, i: usize) -> usize {
        let mut w = 0usize;
        self.cum_pairs
            .partition_point_in(0, self.cum_pairs.len(), |c| c as usize <= i, &mut w)
            .saturating_sub(1)
    }

    /// Header search: first block `>= lo` whose `max_parent >= p` — the
    /// only block range that can contain parent `p`. Returns
    /// `num_blocks` when no block reaches `p`; comparisons count into
    /// `work`.
    pub fn first_block_reaching_from(&self, lo: usize, p: u32, work: &mut usize) -> usize {
        self.max_parent
            .partition_point_in(lo, self.max_parent.len(), |m| m < p, work)
    }

    /// [`BlockDirectory::first_block_reaching_from`] from block 0,
    /// without work accounting.
    pub fn first_block_reaching(&self, p: u32) -> usize {
        let mut w = 0usize;
        self.first_block_reaching_from(0, p, &mut w)
    }

    /// Heap bytes of the packed arrays.
    pub fn resident_bytes(&self) -> usize {
        self.min_parent.resident_bytes()
            + self.max_parent.resident_bytes()
            + self.cum_pairs.resident_bytes()
            + self.cum_bytes.resident_bytes()
    }
}

// ---------------------------------------------------------------------------
// The succinct extent
// ---------------------------------------------------------------------------

/// The stored form of an extent: the packed [`BlockExtent`] image,
/// wrapped in a [`BlockDirectory`] (skip + rank/select without payload
/// access). Kernels decode only the frames a query actually intersects.
/// Cardinalities, block counts and bounds are exact and O(1):
/// statistics read off a stored extent do not depend on what has been
/// queried before.
///
/// Equality compares images. Every image in a `SuccinctExtent` comes
/// from [`BlockExtent::encode`] or has passed [`BlockExtent::check`],
/// so two extents are equal exactly when they hold the same pairs.
#[derive(Debug, Clone)]
pub struct SuccinctExtent {
    image: BlockExtent,
    dir: BlockDirectory,
    node_bounds: Option<(NodeId, NodeId)>,
    hash: u64,
}

impl Default for SuccinctExtent {
    fn default() -> SuccinctExtent {
        SuccinctExtent::from_pairs(&[])
    }
}

impl PartialEq for SuccinctExtent {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.image == other.image
    }
}

impl Eq for SuccinctExtent {}

impl SuccinctExtent {
    fn wrap(image: BlockExtent, (lo, hi): (u32, u32)) -> SuccinctExtent {
        SuccinctExtent {
            dir: BlockDirectory::build(&image),
            hash: image.content_hash(),
            image,
            node_bounds: (lo <= hi).then_some((NodeId(lo), NodeId(hi))),
        }
    }

    /// Seals sorted, duplicate-free pairs into the stored form.
    pub fn from_pairs(pairs: &[EdgePair]) -> SuccinctExtent {
        let bounds = pairs.iter().fold((u32::MAX, 0), |(lo, hi), p| {
            (lo.min(p.node.0), hi.max(p.node.0))
        });
        SuccinctExtent::wrap(BlockExtent::encode(pairs), bounds)
    }

    /// Wraps an image from outside the process: `None` unless
    /// [`BlockExtent::check`] accepts it. The check's one decode pass
    /// also yields the node bounds.
    pub fn open(image: BlockExtent) -> Option<SuccinctExtent> {
        let bounds = image.scan()?;
        Some(SuccinctExtent::wrap(image, bounds))
    }

    /// The image's [`BlockExtent::content_hash`]: its name in a
    /// checkpoint, computed once when the extent was sealed or opened.
    #[inline]
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// The wrapped image (the disk/wire format owner).
    #[inline]
    pub fn image(&self) -> &BlockExtent {
        &self.image
    }

    /// The rank/select directory.
    #[inline]
    pub fn directory(&self) -> &BlockDirectory {
        &self.dir
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.dir.num_blocks()
    }

    /// Number of frames.
    #[inline]
    pub fn num_frames(&self) -> usize {
        self.image.frames().len()
    }

    /// Number of pairs (rank of the one-past-last block).
    #[inline]
    pub fn len(&self) -> usize {
        self.dir.pairs_before(self.dir.num_blocks())
    }

    /// True when the extent holds no pair.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dir.num_blocks() == 0
    }

    /// Smallest and largest parent, read off the first and last block
    /// headers. `None` when empty.
    pub fn parent_bounds(&self) -> Option<(NodeId, NodeId)> {
        let last = self.dir.num_blocks().checked_sub(1)?;
        Some((
            NodeId(self.dir.min_parent(0)),
            NodeId(self.dir.max_parent(last)),
        ))
    }

    /// Smallest and largest *end node*, recorded when the extent was
    /// built. `None` when empty.
    #[inline]
    pub fn node_bounds(&self) -> Option<(NodeId, NodeId)> {
        self.node_bounds
    }

    /// Appends every pair, in `(parent, node)` order, to `out` — the
    /// whole-extent decode behind the planner's backward scans and the
    /// open step of an index update. Decodes straight into `out`'s
    /// tail, one frame at a time.
    pub fn decode_into(&self, out: &mut Vec<EdgePair>) {
        out.reserve(self.len());
        self.image.decode_into(out, pair);
    }

    /// Appends every pair's end node, in `(parent, node)` order — so
    /// neither sorted nor distinct — to `out`: the same decode as
    /// [`SuccinctExtent::decode_into`], keeping 4 bytes per pair. What a
    /// node-set union reads of an extent.
    pub fn decode_nodes_into(&self, out: &mut Vec<NodeId>) {
        out.reserve(self.len());
        self.image.decode_into(out, |_, n| NodeId(n));
    }

    /// The pairs as a fresh vector.
    pub fn to_vec(&self) -> Vec<EdgePair> {
        self.image.decode()
    }

    /// Frame indices of block `k`.
    #[inline]
    pub fn block_frames(&self, k: usize) -> Range<usize> {
        self.image.block_frames(k)
    }

    /// Clears `window` and decodes frame `f` into it (nothing when `f`
    /// is out of range): at most [`WINDOW_PAIRS`] pairs, so the
    /// window's capacity is fixed after first use.
    #[inline]
    pub fn frame_into(&self, f: usize, window: &mut Vec<EdgePair>) {
        window.clear();
        if let Some(frame) = self.image.frames().get(f) {
            frame.unpack_into(self.image.words(), window, pair);
        }
    }

    /// Pair `i` of frame `f`, `None` past the frame.
    #[inline]
    pub fn pair_at(&self, f: usize, i: usize) -> Option<EdgePair> {
        self.image.frames().get(f)?.pair(self.image.words(), i)
    }

    /// The first pair at or after pair `i` of frame `f` — and before
    /// frame `end` — with `parent >= target`, as `(frame, index)`;
    /// `(end, 0)` when there is none. Gallops over the frame headers'
    /// `min_parent`, then over the candidate frame's packed parents, so
    /// a target near the start costs a few probes; no pair is decoded.
    /// Comparisons count into `work`.
    pub(crate) fn seek(
        &self,
        (f, i): (usize, usize),
        end: usize,
        target: u32,
        work: &mut usize,
    ) -> (usize, usize) {
        let all = self.image.frames();
        if f >= end {
            return (end, 0);
        }
        let min_below = |g: usize| all.get(g).is_some_and(|fr| fr.min_parent < target);
        let next = gallop_in(f + 1, end, min_below, work);
        let (c, lo) = if next == f + 1 { (f, i) } else { (next - 1, 0) };
        let Some(frame) = all.get(c) else {
            return (end, 0);
        };
        let words = self.image.words();
        let below = |j: usize| frame.parent(words, j) < target;
        match gallop_in(lo, frame.count as usize, below, work) {
            j if j < frame.count as usize => (c, j),
            _ => (next, 0),
        }
    }

    /// Bytes this representation keeps resident to answer queries: the
    /// packed payload, the in-memory frame and block headers, and the
    /// packed directory — against 8 bytes per pair for a decoded `Vec`.
    pub fn resident_bytes(&self) -> usize {
        self.image.payload_bytes()
            + self.num_frames() * std::mem::size_of::<Frame>()
            + self.image.num_blocks() * std::mem::size_of::<BlockHeader>()
            + self.dir.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgeset::EdgeSet;
    use xmlgraph::NULL_NODE;

    fn decode_all(succ: &SuccinctExtent) -> Vec<EdgePair> {
        let mut out = Vec::new();
        let mut window = Vec::new();
        for f in 0..succ.num_frames() {
            succ.frame_into(f, &mut window);
            assert!(window.len() <= WINDOW_PAIRS);
            out.extend_from_slice(&window);
        }
        out
    }

    #[test]
    fn packed_u32s_roundtrip() {
        for vals in [
            vec![],
            vec![0],
            vec![1, 2, 3],
            vec![u32::MAX, 0, 7],
            (0..1000u32).map(|i| i * 31).collect(),
        ] {
            let p = PackedU32s::pack(&vals);
            assert_eq!(p.len(), vals.len());
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(p.get(i), *v, "index {i}");
            }
        }
    }

    #[test]
    fn windowed_decode_matches_block_decode() {
        let pairs: Vec<EdgePair> = (0..20_000u32)
            .map(|i| EdgePair::new(NodeId(i / 3), NodeId(i)))
            .collect();
        let succ = SuccinctExtent::from_pairs(&pairs);
        assert!(succ.num_blocks() > 1);
        assert_eq!(succ.len(), pairs.len());
        assert_eq!(decode_all(&succ), pairs);
        assert_eq!(succ.to_vec(), pairs);
        assert_eq!(succ.image().decode(), pairs);
        let mut nodes = Vec::new();
        succ.decode_nodes_into(&mut nodes);
        assert!(nodes.iter().zip(&pairs).all(|(n, p)| *n == p.node));
    }

    #[test]
    fn directory_rank_select_identity() {
        let pairs: Vec<EdgePair> = (0..60_000u32)
            .map(|i| EdgePair::new(NodeId(i / 7), NodeId(i)))
            .collect();
        let succ = SuccinctExtent::from_pairs(&pairs);
        let dir = succ.directory();
        assert!(dir.num_blocks() > 1);
        let mut bytes = 0;
        for k in 0..dir.num_blocks() {
            assert_eq!(dir.block_of_pair(dir.pairs_before(k)), k);
            let hdr = succ.image().header(k);
            assert_eq!(dir.min_parent(k), hdr.min_parent);
            assert_eq!(dir.max_parent(k), hdr.max_parent);
            assert_eq!(dir.count(k), hdr.count as usize);
            assert_eq!(dir.byte_range(k), (bytes, bytes + hdr.len as usize));
            bytes += hdr.len as usize;
        }
        // Header search agrees with a linear scan for a spread of targets.
        for p in [0u32, 1, 100, 1000, 2000, 2856, 8570, u32::MAX] {
            let want = succ
                .image()
                .headers()
                .iter()
                .position(|h| h.max_parent >= p)
                .unwrap_or(dir.num_blocks());
            assert_eq!(dir.first_block_reaching(p), want, "target {p}");
        }
    }

    #[test]
    fn frame_search_lands_on_the_first_pair_at_or_above_target() {
        // Parents 0, 2, 4, … with three children each: targets hit
        // runs, gaps between runs, frame and block edges.
        let pairs: Vec<EdgePair> = (0..60_000u32)
            .map(|i| EdgePair::new(NodeId(i / 3 * 2), NodeId(i)))
            .collect();
        let succ = SuccinctExtent::from_pairs(&pairs);
        let end = succ.num_frames();
        let at = |(f, i): (usize, usize)| succ.pair_at(f, i);
        for target in (0..40_010u32).step_by(7).chain([39_998, 39_999, 40_000]) {
            let want = pairs.iter().find(|p| p.parent.0 >= target).copied();
            let mut work = 0;
            assert_eq!(
                at(succ.seek((0, 0), end, target, &mut work)),
                want,
                "{target}"
            );
            assert!(work <= 4 * 10, "{target}: {work} comparisons");
            // Within one block's frames, the search stays in them.
            for k in 0..succ.num_blocks() {
                let frames = succ.block_frames(k);
                let (f, i) = succ.seek((frames.start, 0), frames.end, target, &mut work);
                assert!(frames.contains(&f) || (f, i) == (frames.end, 0));
                let first = pairs.iter().skip(succ.directory().pairs_before(k));
                let want = first
                    .take(succ.directory().count(k))
                    .find(|p| p.parent.0 >= target);
                assert_eq!(at((f, i)).filter(|_| f < frames.end), want.copied());
            }
            // From any earlier pair of the answer's frame or the one
            // before it, the search lands on the same pair.
            let (f, i) = succ.seek((0, 0), end, target, &mut work);
            for from in [(f, 0), (f, i), (f.saturating_sub(1), 0)] {
                let from = if from.0 < end { from } else { (end, 0) };
                assert_eq!(succ.seek(from, end, target, &mut work), (f, i));
            }
        }
    }

    #[test]
    fn empty_and_single_cases() {
        let succ = SuccinctExtent::from_pairs(&[]);
        assert_eq!((succ.num_blocks(), succ.len()), (0, 0));
        assert!(succ.is_empty());
        assert_eq!((succ.parent_bounds(), succ.node_bounds()), (None, None));
        assert_eq!(decode_all(&succ), vec![]);
        assert_eq!(succ.seek((0, 0), 0, 5, &mut 0), (0, 0));
        assert_eq!(SuccinctExtent::open(BlockExtent::default()), Some(succ));
        let one = EdgeSet::from_pairs(vec![EdgePair::root(NodeId(0))]);
        let succ = SuccinctExtent::from_pairs(one.pairs());
        assert_eq!(decode_all(&succ), one.pairs());
        assert_eq!(succ.directory().min_parent(0), u32::MAX);
    }

    #[test]
    fn stored_accessors_are_exact() {
        // What used to be warmth-dependent hints on the pair vector are
        // exact, O(1) reads of the stored form.
        let set = EdgeSet::from_raw(&[(1, 5), (2, 5), (3, 6), (7, 8)]);
        let succ = SuccinctExtent::from_pairs(set.pairs());
        assert_eq!(succ.len(), 4);
        assert_eq!(succ.num_blocks(), 1);
        assert_eq!(succ.parent_bounds(), Some((NodeId(1), NodeId(7))));
        assert_eq!(succ.node_bounds(), Some((NodeId(5), NodeId(8))));
        // Bounds span blocks, and the root pair's NULL parent sorts last.
        let mut pairs: Vec<EdgePair> = (0..60_000u32)
            .map(|i| EdgePair::new(NodeId(i / 3), NodeId(60_000 - i)))
            .collect();
        pairs.push(EdgePair::root(NodeId(0)));
        let set = EdgeSet::from_pairs(pairs);
        let succ = SuccinctExtent::from_pairs(set.pairs());
        assert!(succ.num_blocks() > 1);
        assert_eq!(succ.parent_bounds(), Some((NodeId(0), NULL_NODE)));
        assert_eq!(succ.node_bounds(), Some((NodeId(0), NodeId(60_000))));
        // The check's pass finds the same bounds on the same image.
        let opened = SuccinctExtent::open(succ.image().clone()).unwrap();
        assert_eq!(opened.node_bounds(), succ.node_bounds());
        // Equality is image equality is pair-set equality.
        assert_eq!(succ, SuccinctExtent::from_pairs(&succ.to_vec()));
        assert_ne!(succ, SuccinctExtent::default());
    }

    #[test]
    fn the_content_hash_names_the_content() {
        let set = EdgeSet::from_raw(&[(1, 5), (2, 5), (3, 6), (7, 8)]);
        let succ = SuccinctExtent::from_pairs(set.pairs());
        assert_eq!(succ.content_hash(), succ.image().content_hash());
        // Built or opened from its bytes: one content, one name.
        let mut bytes = Vec::new();
        succ.image().write_to(&mut bytes);
        let opened = SuccinctExtent::open(BlockExtent::from_bytes(&bytes).unwrap()).unwrap();
        assert_eq!(opened.content_hash(), succ.content_hash());
        assert_ne!(
            SuccinctExtent::default().content_hash(),
            succ.content_hash()
        );
        // Any one flipped bit of an image that still frames renames it.
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                if let Some(bx) = BlockExtent::from_bytes(&flipped) {
                    assert_ne!(bx.content_hash(), succ.content_hash(), "{at}/{bit}");
                }
            }
        }
    }

    #[test]
    fn resident_bytes_stay_under_half_of_raw() {
        let pairs: Vec<EdgePair> = (0..50_000u32)
            .map(|i| EdgePair::new(NodeId(i / 3), NodeId(i)))
            .collect();
        let succ = SuccinctExtent::from_pairs(&pairs);
        let raw = pairs.len() * 8;
        assert!(
            succ.resident_bytes() * 2 <= raw,
            "resident {} vs raw {}",
            succ.resident_bytes(),
            raw
        );
    }
}
