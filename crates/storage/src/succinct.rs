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
//! * the image's block headers ([`BlockExtent::headers`]) — the one
//!   skip index: each block's `min_parent`, `max_parent`, pair count and
//!   first pair. [`SuccinctExtent::first_block_reaching`] binary-searches
//!   their `max_parent` without touching any payload word, so gallop
//!   lands on a candidate block in `O(log blocks)`, and the extent's
//!   length and parent bounds are reads of the first and last header.
//! * the frames themselves — every pair of a frame sits at a fixed bit
//!   offset, so `SuccinctExtent::seek` gallops over the frame headers'
//!   `min_parent` and then over one frame's packed parents, and a
//!   kernel decodes one whole frame ([`WINDOW_PAIRS`] pairs at most) at
//!   a time into a caller-owned window.
//!
//! Everything here is `#![forbid(unsafe_code)]`-clean (inherited from
//! the crate root) and panic-free on arbitrary bytes: a corrupt payload
//! decodes to garbage pairs, never to a crash.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::ops::Range;

use xmlgraph::NodeId;

use crate::block::{pair, BlockExtent, FRAME_PAIRS};
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
pub(crate) fn gallop_in(
    lo: usize,
    hi: usize,
    mut pred: impl FnMut(usize) -> bool,
    work: &mut usize,
) -> usize {
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

/// The stored form of an extent: the packed [`BlockExtent`] image, its
/// content hash and its end-node bounds. Kernels skip blocks on the
/// image's headers and decode only the frames a query actually
/// intersects. Cardinalities, block counts and bounds are exact and O(1):
/// statistics read off a stored extent do not depend on what has been
/// queried before.
///
/// Equality compares images. Every image in a `SuccinctExtent` comes
/// from [`BlockExtent::encode`] or has passed [`BlockExtent::check`],
/// so two extents are equal exactly when they hold the same pairs.
#[derive(Debug, Clone)]
pub struct SuccinctExtent {
    image: BlockExtent,
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

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.image.num_blocks()
    }

    /// Number of frames.
    #[inline]
    pub fn num_frames(&self) -> usize {
        self.image.frames().len()
    }

    /// Number of pairs: the last block's first pair plus its count.
    #[inline]
    pub fn len(&self) -> usize {
        self.image
            .headers()
            .last()
            .map_or(0, |h| h.first as usize + h.count as usize)
    }

    /// True when the extent holds no pair.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.image.headers().is_empty()
    }

    /// Smallest and largest parent, read off the first and last block
    /// headers. `None` when empty.
    pub fn parent_bounds(&self) -> Option<(NodeId, NodeId)> {
        let hs = self.image.headers();
        let (first, last) = (hs.first()?, hs.last()?);
        Some((NodeId(first.min_parent), NodeId(last.max_parent)))
    }

    /// Header search: the first block `>= lo` whose `max_parent >= p` —
    /// the only block range that can contain parent `p` — by binary
    /// search over the block headers; `num_blocks` when no block reaches
    /// `p`. Each probe counts one comparison into `work`.
    pub fn first_block_reaching(&self, lo: usize, p: u32, work: &mut usize) -> usize {
        let hs = self.image.headers();
        let below = |k: usize| hs.get(k).is_some_and(|h| h.max_parent < p);
        partition_point_in(lo, hs.len(), below, work)
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
    /// packed payload and the in-memory frame and block headers —
    /// against 8 bytes per pair for a decoded `Vec`.
    pub fn resident_bytes(&self) -> usize {
        self.image.resident_bytes()
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
            for (k, h) in succ.image().headers().iter().enumerate() {
                let frames = succ.block_frames(k);
                let (f, i) = succ.seek((frames.start, 0), frames.end, target, &mut work);
                assert!(frames.contains(&f) || (f, i) == (frames.end, 0));
                let first = pairs.iter().skip(h.first as usize);
                let want = first.take(h.count as usize).find(|p| p.parent.0 >= target);
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
        assert_eq!(succ.first_block_reaching(0, 5, &mut 0), 0);
        assert_eq!(SuccinctExtent::open(BlockExtent::default()), Some(succ));
        let one = EdgeSet::from_pairs(vec![EdgePair::root(NodeId(0))]);
        let succ = SuccinctExtent::from_pairs(one.pairs());
        assert_eq!(decode_all(&succ), one.pairs());
        assert_eq!(succ.image().headers()[0].min_parent, u32::MAX);
        assert_eq!(succ.parent_bounds(), Some((NULL_NODE, NULL_NODE)));
        assert_eq!(succ.first_block_reaching(0, u32::MAX, &mut 0), 0);
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
