//! Succinct extents: the stored form of an extent, queried as it lies.
//!
//! A [`SuccinctExtent`] is what a `G_APEX` class node holds, what
//! `apex::persist` writes (the [`BlockExtent`] image, verbatim) and
//! what the semijoin kernels run over: one set of bytes in memory, on
//! disk and under the kernels. It is immutable once built — an index
//! build or refresh decodes the extents it changes into
//! [`crate::edgeset::EdgeSet`]s, mutates those, and seals each back
//! with [`SuccinctExtent::from_pairs`] once at the end. The compressed
//! payload is directly queryable through three layers:
//!
//! * [`BlockDirectory`] — a rank/select directory over the block skip
//!   headers: bit-packed `min_parent` / `max_parent` / cumulative pair
//!   count / cumulative byte offset arrays, binary-searchable without
//!   touching any payload byte. `pairs_before` is *rank* (pairs before
//!   block `k`), [`BlockDirectory::block_of_pair`] is *select* (which
//!   block holds pair `i`), and
//!   [`BlockDirectory::first_block_reaching`] is the header search that
//!   lets gallop land on a candidate block in `O(log blocks)`.
//! * [`BlockSamples`] — per-block decode-restart points every
//!   [`SAMPLE_EVERY`] pairs: `(byte offset, previous parent, previous
//!   node)`. Every pair after a block's first is delta-encoded, so the
//!   previous pair *is* the full decoder state; a probe restarts
//!   mid-block and decodes at most one sample stride instead of the
//!   whole block.
//! * [`BlockCursor`] — a batched, branch-free varint decoder. Each
//!   LEB128 value is read through an 8-byte little-endian window: the
//!   stop bit is found with one mask + `trailing_zeros`, the 7-bit
//!   groups gathered with shifts, and the `dp == 0` same-parent rule is
//!   applied with an arithmetic mask — no per-byte branches anywhere.
//!   Pairs decode in unrolled groups of four into a caller-owned,
//!   capacity-bounded window (≤ [`WINDOW_PAIRS`] pairs per
//!   [`BlockCursor::fill`]) instead of a whole-extent `Vec`.
//!
//! [`EndIndex`] applies the same treatment to the distinct end-node
//! view: a delta+varint stream with sampled restarts, iterated through
//! [`EndCursor`] — so a frontier's `end_nodes()` no longer costs a
//! second materialized copy of the extent. [`Ends`] abstracts over
//! "ends as a plain sorted slice" and "ends as a succinct index" so
//! the kernels accept either.
//!
//! Everything here is `#![forbid(unsafe_code)]`-clean (inherited from
//! the crate root) and panic-free on arbitrary bytes: corrupt payloads
//! decode to garbage pairs, never to a crash.

use xmlgraph::NodeId;

use crate::block::{decoded_pair, push_varint, BlockExtent, BlockHeader};
use crate::edgeset::EdgePair;

/// Maximum pairs a [`BlockCursor::fill`] call decodes into the window.
pub const WINDOW_PAIRS: usize = 256;

/// Pair stride between per-block decode-restart samples.
pub const SAMPLE_EVERY: usize = 64;

/// Entry stride between [`EndIndex`] restart samples.
const END_SAMPLE_EVERY: usize = 64;

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
        let width = values
            .iter()
            .map(|v| 32 - v.leading_zeros())
            .max()
            .unwrap_or(1)
            .max(1);
        let bits = values.len() * width as usize;
        let mut words = vec![0u64; bits.div_ceil(64)];
        for (i, &v) in values.iter().enumerate() {
            let bit = i * width as usize;
            let (w, s) = (bit / 64, (bit % 64) as u32);
            if let Some(slot) = words.get_mut(w) {
                *slot |= (v as u64) << s;
            }
            if s + width > 64 {
                if let Some(slot) = words.get_mut(w + 1) {
                    *slot |= (v as u64) >> (64 - s);
                }
            }
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
        let bit = i * self.width as usize;
        let (w, s) = (bit / 64, (bit % 64) as u32);
        let lo = self.words.get(w).copied().unwrap_or(0) >> s;
        let hi = if s + self.width > 64 {
            self.words.get(w + 1).copied().unwrap_or(0) << (64 - s)
        } else {
            0
        };
        let mask = if self.width >= 32 {
            u32::MAX as u64
        } else {
            (1u64 << self.width) - 1
        };
        ((lo | hi) & mask) as u32
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
        let (mut base, mut size) = (lo, hi.saturating_sub(lo));
        while size > 0 {
            let half = size / 2;
            *work += 1;
            if pred(self.get(base + half)) {
                base += half + 1;
                size -= half + 1;
            } else {
                size = half;
            }
        }
        base
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
/// (select) without touching a single payload byte.
#[derive(Debug, Clone, Default)]
pub struct BlockDirectory {
    min_parent: PackedU32s,
    max_parent: PackedU32s,
    /// Cumulative pair counts; `len = blocks + 1`, `cum_pairs[0] = 0`.
    cum_pairs: PackedU32s,
    /// Cumulative payload byte offsets; `len = blocks + 1`.
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

    /// Payload byte range of block `k` within the image payload.
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
// Per-block decode-restart samples
// ---------------------------------------------------------------------------

/// Decode-restart samples: within each block, every [`SAMPLE_EVERY`]
/// pairs, the byte offset of the next pair's encoding plus the previous
/// pair's absolute `(parent, node)` — the complete decoder state, since
/// every pair after a block's first is delta-encoded.
#[derive(Debug, Clone, Default)]
pub struct BlockSamples {
    /// Cumulative sample counts per block; `len = blocks + 1`.
    cum: PackedU32s,
    /// Byte offset (within the block payload) of the restart pair.
    pos: PackedU32s,
    /// Absolute parent of the pair before the restart.
    parent: PackedU32s,
    /// Absolute node of the pair before the restart.
    node: PackedU32s,
}

impl BlockSamples {
    /// Builds samples by one sequential decode of every block and —
    /// since this is the one pass that sees every pair — also returns
    /// the `(min, max)` end node of the extent (`None` when empty).
    pub fn build(image: &BlockExtent) -> (BlockSamples, Option<(NodeId, NodeId)>) {
        let mut cum = vec![0u32; 1];
        let (mut pos_v, mut par_v, mut node_v) = (Vec::new(), Vec::new(), Vec::new());
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        let mut stride = [EdgePair::new(NodeId(0), NodeId(0)); SAMPLE_EVERY];
        for (k, h) in image.headers().iter().enumerate() {
            let payload = image.block_payload(k).unwrap_or(&[]);
            let mut bc = BlockCursor::at_head(payload, h.count as usize);
            while let Some(slots) = stride.get_mut(..bc.remaining.min(SAMPLE_EVERY)) {
                bc.decode(slots);
                for p in slots.iter() {
                    lo = lo.min(p.node.0);
                    hi = hi.max(p.node.0);
                }
                if bc.remaining == 0 {
                    break;
                }
                // A stride in: the cursor's state is a restart point.
                pos_v.push(bc.pos as u32);
                par_v.push(bc.parent);
                node_v.push(bc.node);
            }
            cum.push(pos_v.len() as u32);
        }
        let samples = BlockSamples {
            cum: PackedU32s::pack(&cum),
            pos: PackedU32s::pack(&pos_v),
            parent: PackedU32s::pack(&par_v),
            node: PackedU32s::pack(&node_v),
        };
        (samples, (lo <= hi).then_some((NodeId(lo), NodeId(hi))))
    }

    /// Latest restart point in block `k` that is still strictly before
    /// every pair with `parent >= target`: returns `(byte offset,
    /// previous parent, previous node, pairs skipped)`, or `None` to
    /// start from the block head. Correctness hinges on the sample
    /// state being the *previous* pair: if its parent is `< target`,
    /// every `parent == target` match sits at or after the restart.
    pub fn restart_before(&self, k: usize, target: u32) -> Option<(usize, u32, u32, usize)> {
        let s0 = self.cum.get(k) as usize;
        let s1 = self.cum.get(k + 1) as usize;
        let mut w = 0usize;
        let idx = self
            .parent
            .partition_point_in(s0, s1, |p| p < target, &mut w);
        if idx == s0 {
            return None;
        }
        let j = idx - 1;
        let skipped = (j - s0 + 1) * SAMPLE_EVERY;
        Some((
            self.pos.get(j) as usize,
            self.parent.get(j),
            self.node.get(j),
            skipped,
        ))
    }

    /// Heap bytes of the packed sample arrays.
    pub fn resident_bytes(&self) -> usize {
        self.cum.resident_bytes()
            + self.pos.resident_bytes()
            + self.parent.resident_bytes()
            + self.node.resident_bytes()
    }
}

// ---------------------------------------------------------------------------
// Branch-free varint decode
// ---------------------------------------------------------------------------

/// 8-byte little-endian load, zero-padded past the end of `b` — the
/// only bounds handling the decoder needs, so the hot loop itself has
/// no per-byte branches.
#[inline]
fn load8(b: &[u8], pos: usize) -> u64 {
    match b.get(pos..pos + 8) {
        Some(s) => u64::from_le_bytes(s.try_into().unwrap_or([0; 8])),
        None => {
            let mut t = [0u8; 8];
            let rest = b.get(pos..).unwrap_or(&[]);
            if let Some(dst) = t.get_mut(..rest.len()) {
                dst.copy_from_slice(rest);
            }
            u64::from_le_bytes(t)
        }
    }
}

/// Branch-free LEB128-u32 decode from an 8-byte window: one stop-bit
/// mask + `trailing_zeros` finds the length, a five-term shift gather
/// assembles the 7-bit groups. Returns `(value, encoded length)`.
/// Valid encodings are ≤ 5 bytes; longer runs (corrupt input) decode
/// to garbage values of bounded length — never a panic.
#[inline]
fn varint64(w: u64) -> (u32, usize) {
    let stops = (!w & 0x8080_8080_8080_8080) | (1 << 63);
    let tz = stops.trailing_zeros();
    let keep = w & (u64::MAX >> (63 - tz));
    let v = (keep & 0x7f)
        | ((keep >> 8) & 0x7f) << 7
        | ((keep >> 16) & 0x7f) << 14
        | ((keep >> 24) & 0x7f) << 21
        | ((keep >> 32) & 0x7f) << 28;
    (v as u32, (tz as usize >> 3) + 1)
}

// ---------------------------------------------------------------------------
// The succinct extent and its decode cursor
// ---------------------------------------------------------------------------

/// The stored form of an extent: the compressed [`BlockExtent`] image,
/// wrapped in a [`BlockDirectory`] (skip + rank/select without payload
/// access) and [`BlockSamples`] (mid-block decode restarts). Kernels
/// decode only the blocks — and with samples, only the stretches — a
/// query actually intersects. Cardinalities, block counts and bounds
/// are exact and O(1): statistics read off a stored extent do not
/// depend on what has been queried before.
///
/// Equality compares images. Every image in a `SuccinctExtent` comes
/// from [`BlockExtent::encode`] or has passed [`BlockExtent::check`],
/// so two extents are equal exactly when they hold the same pairs.
#[derive(Debug, Clone, Default)]
pub struct SuccinctExtent {
    image: BlockExtent,
    dir: BlockDirectory,
    samples: BlockSamples,
    node_bounds: Option<(NodeId, NodeId)>,
}

impl PartialEq for SuccinctExtent {
    fn eq(&self, other: &Self) -> bool {
        self.image == other.image
    }
}

impl Eq for SuccinctExtent {}

impl SuccinctExtent {
    /// Wraps an encoded image, building the directory and samples.
    pub fn build(image: BlockExtent) -> SuccinctExtent {
        let dir = BlockDirectory::build(&image);
        let (samples, node_bounds) = BlockSamples::build(&image);
        SuccinctExtent {
            image,
            dir,
            samples,
            node_bounds,
        }
    }

    /// Seals sorted, duplicate-free pairs into the stored form.
    pub fn from_pairs(pairs: &[EdgePair]) -> SuccinctExtent {
        SuccinctExtent::build(BlockExtent::encode(pairs))
    }

    /// The wrapped compressed image (the disk/wire format owner).
    #[inline]
    pub fn image(&self) -> &BlockExtent {
        &self.image
    }

    /// The rank/select directory.
    #[inline]
    pub fn directory(&self) -> &BlockDirectory {
        &self.dir
    }

    /// The decode-restart samples.
    #[inline]
    pub fn samples(&self) -> &BlockSamples {
        &self.samples
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.dir.num_blocks()
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
    /// whole-extent decode behind unions, scans and the open step of an
    /// index update. Decodes straight into `out`'s tail, one block at a
    /// time.
    pub fn decode_into(&self, out: &mut Vec<EdgePair>) {
        for k in 0..self.num_blocks() {
            let mut bc = self.block_cursor(k);
            let at = out.len();
            out.resize(at + bc.remaining, EdgePair::new(NodeId(0), NodeId(0)));
            if let Some(slots) = out.get_mut(at..) {
                bc.decode(slots);
            }
        }
    }

    /// The pairs as a fresh vector (see [`SuccinctExtent::decode_into`]).
    pub fn to_vec(&self) -> Vec<EdgePair> {
        let mut out = Vec::with_capacity(self.len());
        self.decode_into(&mut out);
        out
    }

    /// Decode cursor over block `k`, from the block head.
    pub fn block_cursor(&self, k: usize) -> BlockCursor<'_> {
        BlockCursor::at_head(
            self.image.block_payload(k).unwrap_or(&[]),
            self.dir.count(k),
        )
    }

    /// Decode cursor over block `k` positioned at the latest sampled
    /// restart that still precedes every pair with `parent >= target` —
    /// a probe decodes at most one sample stride of pairs it does not
    /// need instead of the whole block prefix.
    pub fn block_cursor_at(&self, k: usize, target: u32) -> BlockCursor<'_> {
        let payload = self.image.block_payload(k).unwrap_or(&[]);
        let count = self.dir.count(k);
        match self.samples.restart_before(k, target) {
            Some((pos, parent, node, skipped)) if skipped < count => BlockCursor {
                payload,
                pos,
                remaining: count - skipped,
                parent,
                node,
                primed: true,
            },
            _ => BlockCursor::at_head(payload, count),
        }
    }

    /// Bytes this representation keeps resident to answer queries: the
    /// compressed payload, the in-memory header structs, the packed
    /// directory and the packed samples — against 8 bytes per pair for
    /// a decoded `Vec`.
    pub fn resident_bytes(&self) -> usize {
        self.image.payload_bytes()
            + self.image.num_blocks() * std::mem::size_of::<BlockHeader>()
            + self.dir.resident_bytes()
            + self.samples.resident_bytes()
    }
}

/// Streaming decoder over one block's payload: repeated
/// [`BlockCursor::fill`] calls decode the block in bounded windows.
#[derive(Debug, Clone)]
pub struct BlockCursor<'a> {
    payload: &'a [u8],
    pos: usize,
    remaining: usize,
    parent: u32,
    node: u32,
    /// True once `(parent, node)` holds the previously decoded pair —
    /// i.e. after the block's raw-encoded first pair, or immediately
    /// when restarting from a sample.
    primed: bool,
}

impl<'a> BlockCursor<'a> {
    /// A cursor at the head of a block of `count` pairs.
    fn at_head(payload: &'a [u8], count: usize) -> BlockCursor<'a> {
        BlockCursor {
            payload,
            pos: 0,
            remaining: count,
            parent: 0,
            node: 0,
            primed: false,
        }
    }

    /// Pairs left to decode.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Clears `window` and decodes up to [`WINDOW_PAIRS`] pairs into
    /// it. Returns the number decoded — 0 when the block is exhausted.
    /// The window's capacity is bounded: it grows once to
    /// [`WINDOW_PAIRS`] and is reused forever after.
    ///
    /// Each pair is two varints plus the arithmetic-mask `dp == 0`
    /// same-parent rule. A per-pair dispatch (never per-byte) peels the
    /// dominant shapes — a one-byte delta followed by a one-, two- or
    /// three-byte value — where the cursor advances by a *constant*, so
    /// the next pair's load address never waits on a `trailing_zeros`
    /// length computation; that serial dependency chain, not the
    /// decode arithmetic, is what throttles a naive batched decoder.
    /// Decoder state lives in locals for the whole batch and is written
    /// back once at the end.
    pub fn fill(&mut self, window: &mut Vec<EdgePair>) -> usize {
        if self.remaining == 0 {
            window.clear();
            return 0;
        }
        let taken = self.remaining.min(WINDOW_PAIRS);
        // Size the window to exactly `taken` up front and write through
        // a slot iterator: no per-pair capacity check or length update,
        // which a `push` would pay on every decoded pair. The resize
        // only writes placeholder pairs the first time the window grows;
        // steady-state refills just move the length.
        if window.len() < taken {
            window.resize(taken, EdgePair::new(NodeId(0), NodeId(0)));
        } else {
            window.truncate(taken);
        }
        self.decode(window);
        taken
    }

    /// Decodes the next `slots.len()` pairs into `slots`; both callers
    /// size `slots` to at most [`BlockCursor::remaining`].
    fn decode(&mut self, slots: &mut [EdgePair]) {
        debug_assert!(slots.len() <= self.remaining);
        let taken = slots.len();
        if taken == 0 {
            return;
        }
        let payload = self.payload;
        let mut pos = self.pos;
        let mut parent = self.parent;
        let mut node = self.node;
        let mut slots = slots.iter_mut();
        if !self.primed {
            // The block's first pair stores both components raw.
            let w = load8(payload, pos);
            let (p, la) = varint64(w);
            pos += la;
            let w = load8(payload, pos);
            let (v, lb) = varint64(w);
            pos += lb;
            parent = p;
            node = v;
            self.primed = true;
            if let Some(slot) = slots.next() {
                *slot = decoded_pair(p, v);
            }
        }
        for slot in slots {
            let w = load8(payload, pos);
            let (dp, v);
            if w & 0x8080 == 0 {
                dp = (w & 0x7f) as u32;
                v = ((w >> 8) & 0x7f) as u32;
                pos += 2;
            } else if w & 0x80_8080 == 0x8000 {
                dp = (w & 0x7f) as u32;
                v = ((w >> 8) & 0x7f) as u32 | (((w >> 16) & 0x7f) as u32) << 7;
                pos += 3;
            } else if w & 0x8080_8080 == 0x80_8000 {
                dp = (w & 0x7f) as u32;
                v = ((w >> 8) & 0x7f) as u32
                    | (((w >> 16) & 0x7f) as u32) << 7
                    | (((w >> 24) & 0x7f) as u32) << 14;
                pos += 4;
            } else {
                let (a, la) = varint64(w);
                let (b, lb) = varint64(load8(payload, pos + la));
                dp = a;
                v = b;
                pos += la + lb;
            }
            let same = ((dp == 0) as u32).wrapping_neg();
            parent = parent.wrapping_add(dp);
            node = v.wrapping_add(node & same);
            *slot = decoded_pair(parent, node);
        }
        self.pos = pos;
        self.parent = parent;
        self.node = node;
        self.remaining = self.remaining.saturating_sub(taken);
    }
}

// ---------------------------------------------------------------------------
// Succinct end-node view
// ---------------------------------------------------------------------------

/// Succinct sorted-distinct end nodes: a strictly increasing sequence
/// stored delta+varint with restart samples every [`END_SAMPLE_EVERY`]
/// entries — the `end_nodes()` view without a second materialized
/// `Vec<NodeId>` per extent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EndIndex {
    bytes: Vec<u8>,
    len: u32,
    first: u32,
    last: u32,
    /// Value of the entry before restart `j` (the decoder state).
    sample_val: PackedU32s,
    /// Byte offset of entry `(j + 1) · END_SAMPLE_EVERY`.
    sample_pos: PackedU32s,
}

impl EndIndex {
    /// Encodes a strictly increasing sequence of node ids.
    pub fn from_sorted(vals: &[NodeId]) -> EndIndex {
        debug_assert!(vals.windows(2).all(|w| w[0] < w[1]));
        let mut bytes = Vec::new();
        let (mut sv, mut sp) = (Vec::new(), Vec::new());
        let mut prev = 0u32;
        for (i, v) in vals.iter().enumerate() {
            if i > 0 && i % END_SAMPLE_EVERY == 0 {
                sp.push(bytes.len() as u32);
                sv.push(prev);
            }
            let enc = if i == 0 { v.0 } else { v.0.wrapping_sub(prev) };
            push_varint(&mut bytes, enc);
            prev = v.0;
        }
        EndIndex {
            bytes,
            len: vals.len() as u32,
            first: vals.first().map_or(0, |v| v.0),
            last: vals.last().map_or(0, |v| v.0),
            sample_val: PackedU32s::pack(&sv),
            sample_pos: PackedU32s::pack(&sp),
        }
    }

    /// Number of distinct end nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Smallest end node.
    #[inline]
    pub fn first(&self) -> Option<NodeId> {
        (self.len > 0).then_some(NodeId(self.first))
    }

    /// Largest end node.
    #[inline]
    pub fn last(&self) -> Option<NodeId> {
        (self.len > 0).then_some(NodeId(self.last))
    }

    /// Iterates the end nodes in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.cursor();
        std::iter::from_fn(move || {
            let v = cur.peek()?;
            cur.advance();
            Some(v)
        })
    }

    /// Materializes the sequence — compatibility escape hatch for
    /// callers that genuinely need a slice.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    /// Heap bytes kept resident (stream + samples).
    pub fn resident_bytes(&self) -> usize {
        self.bytes.len() + self.sample_val.resident_bytes() + self.sample_pos.resident_bytes()
    }

    /// Cursor over the sequence.
    pub fn cursor(&self) -> EndCursor<'_> {
        if self.len == 0 {
            return EndCursor {
                inner: Cur::Packed {
                    idx: self,
                    i: 0,
                    pos: 0,
                    cur: 0,
                },
            };
        }
        let mut pos = 0usize;
        let w = load8(&self.bytes, 0);
        let (v, l) = varint64(w);
        pos += l;
        EndCursor {
            inner: Cur::Packed {
                idx: self,
                i: 0,
                pos,
                cur: v,
            },
        }
    }
}

/// The two physical forms a sorted, distinct end-node set can take:
/// a plain slice (ad-hoc probes, tests) or a succinct [`EndIndex`]
/// (a frontier's cached `end_nodes()` view).
#[derive(Debug, Clone, Copy)]
pub enum Ends<'a> {
    /// Sorted, duplicate-free slice of node ids.
    Slice(&'a [NodeId]),
    /// Succinct delta+varint end index.
    Packed(&'a EndIndex),
}

impl<'a> From<&'a [NodeId]> for Ends<'a> {
    fn from(xs: &'a [NodeId]) -> Ends<'a> {
        Ends::Slice(xs)
    }
}

impl<'a> From<&'a Vec<NodeId>> for Ends<'a> {
    fn from(xs: &'a Vec<NodeId>) -> Ends<'a> {
        Ends::Slice(xs)
    }
}

impl<'a> From<&'a EndIndex> for Ends<'a> {
    fn from(ix: &'a EndIndex) -> Ends<'a> {
        Ends::Packed(ix)
    }
}

impl<'a> Ends<'a> {
    /// Number of ends.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Ends::Slice(xs) => xs.len(),
            Ends::Packed(ix) => ix.len(),
        }
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A cursor from the smallest end. Takes `self` by value (`Ends`
    /// is `Copy`), so the cursor borrows the underlying ends, not this
    /// wrapper.
    pub fn cursor(self) -> EndCursor<'a> {
        match self {
            Ends::Slice(xs) => EndCursor {
                inner: Cur::Slice { xs, i: 0 },
            },
            Ends::Packed(ix) => ix.cursor(),
        }
    }
}

#[derive(Debug, Clone)]
enum Cur<'a> {
    Slice {
        xs: &'a [NodeId],
        i: usize,
    },
    Packed {
        idx: &'a EndIndex,
        i: usize,
        pos: usize,
        cur: u32,
    },
}

/// Forward cursor over an [`Ends`] set. Cheap to clone — kernels clone
/// it to probe a bounded run of ends without consuming them.
#[derive(Debug, Clone)]
pub struct EndCursor<'a> {
    inner: Cur<'a>,
}

impl EndCursor<'_> {
    /// Current end, `None` when exhausted.
    #[inline]
    pub fn peek(&self) -> Option<NodeId> {
        match &self.inner {
            Cur::Slice { xs, i } => xs.get(*i).copied(),
            Cur::Packed { idx, i, cur, .. } => ((*i) < idx.len()).then_some(NodeId(*cur)),
        }
    }

    /// Steps to the next end.
    #[inline]
    pub fn advance(&mut self) {
        match &mut self.inner {
            Cur::Slice { xs, i } => {
                if *i < xs.len() {
                    *i += 1;
                }
            }
            Cur::Packed { idx, i, pos, cur } => {
                if *i + 1 >= idx.len() {
                    *i = idx.len();
                } else {
                    let w = load8(&idx.bytes, *pos);
                    let (d, l) = varint64(w);
                    *cur = cur.wrapping_add(d);
                    *pos += l;
                    *i += 1;
                }
            }
        }
    }

    /// Advances past every end with raw id `< t`, leaving the cursor at
    /// the first end `>= t` (or exhausted). The packed form jumps via
    /// the restart samples, so long skips cost `O(log samples +
    /// END_SAMPLE_EVERY)` instead of a full decode.
    pub fn skip_below(&mut self, t: u32) {
        match &mut self.inner {
            Cur::Slice { xs, i } => {
                while let Some(v) = xs.get(*i) {
                    if v.0 >= t {
                        break;
                    }
                    *i += 1;
                }
            }
            Cur::Packed { idx, i, pos, cur } => {
                if *i >= idx.len() || *cur >= t {
                    return;
                }
                // Jump to the latest sample whose state is still < t,
                // if it lies ahead of the cursor. The next sample's
                // state is >= t, so the first end >= t is within one
                // stride of the restart.
                let ns = idx.sample_val.len();
                let mut w = 0usize;
                let sidx = idx.sample_val.partition_point_in(0, ns, |v| v < t, &mut w);
                if sidx > 0 {
                    let j = sidx - 1;
                    let j_ent = (j + 1) * END_SAMPLE_EVERY;
                    if j_ent > *i + 1 {
                        *pos = idx.sample_pos.get(j) as usize;
                        *cur = idx.sample_val.get(j);
                        *i = j_ent - 1;
                    }
                }
                while *i < idx.len() && *cur < t {
                    if *i + 1 >= idx.len() {
                        *i = idx.len();
                    } else {
                        let w = load8(&idx.bytes, *pos);
                        let (d, l) = varint64(w);
                        *cur = cur.wrapping_add(d);
                        *pos += l;
                        *i += 1;
                    }
                }
            }
        }
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
        for k in 0..succ.num_blocks() {
            let mut bc = succ.block_cursor(k);
            while bc.fill(&mut window) > 0 {
                out.extend_from_slice(&window);
            }
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
    fn varint_decode_matches_encode() {
        for v in [
            0u32,
            1,
            127,
            128,
            300,
            1 << 14,
            (1 << 21) - 1,
            1 << 28,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            buf.extend_from_slice(&[0xAA; 8]); // trailing noise
            let (got, len) = varint64(load8(&buf, 0));
            assert_eq!(got, v);
            assert_eq!(len, buf.len() - 8);
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
        // The whole-extent decode agrees with the windowed one.
        assert_eq!(succ.to_vec(), pairs);
    }

    #[test]
    fn directory_rank_select_identity() {
        let pairs: Vec<EdgePair> = (0..20_000u32)
            .map(|i| EdgePair::new(NodeId(i / 7), NodeId(i)))
            .collect();
        let succ = SuccinctExtent::from_pairs(&pairs);
        let dir = succ.directory();
        for k in 0..dir.num_blocks() {
            assert_eq!(dir.block_of_pair(dir.pairs_before(k)), k);
            let hdr = succ.image().header(k);
            assert_eq!(dir.min_parent(k), hdr.min_parent);
            assert_eq!(dir.max_parent(k), hdr.max_parent);
            assert_eq!(dir.count(k), hdr.count as usize);
            assert_eq!(dir.byte_range(k).0, hdr.offset as usize);
        }
        // Header search agrees with a linear scan for a spread of targets.
        for p in [0u32, 1, 100, 1000, 2000, 2856, 3000, u32::MAX] {
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
    fn sampled_restart_lands_before_target() {
        let pairs: Vec<EdgePair> = (0..20_000u32)
            .map(|i| EdgePair::new(NodeId(i / 2), NodeId(i)))
            .collect();
        let succ = SuccinctExtent::from_pairs(&pairs);
        let dir = succ.directory();
        let mut window = Vec::new();
        for k in 0..succ.num_blocks() {
            let target = dir.min_parent(k).midpoint(dir.max_parent(k));
            let mut bc = succ.block_cursor_at(k, target);
            // Every pair with parent == target must still be decodable.
            let mut seen: Vec<EdgePair> = Vec::new();
            while bc.fill(&mut window) > 0 {
                seen.extend(window.iter().filter(|p| p.parent.0 == target).copied());
            }
            let want = pairs
                .iter()
                .skip(dir.pairs_before(k))
                .take(dir.count(k))
                .filter(|p| p.parent.0 == target)
                .count();
            assert_eq!(seen.len(), want, "block {k} target {target}");
        }
    }

    #[test]
    fn end_index_roundtrips_and_skips() {
        let vals: Vec<NodeId> = (0..5000u32).map(|i| NodeId(i * 3 + 1)).collect();
        let ix = EndIndex::from_sorted(&vals);
        assert_eq!(ix.len(), vals.len());
        assert_eq!(ix.first(), Some(vals[0]));
        assert_eq!(ix.last(), Some(vals[4999]));
        assert_eq!(ix.to_vec(), vals);
        // Succinct beats the materialized Vec.
        assert!(ix.resident_bytes() < vals.len() * 4);
        // skip_below agrees with the slice cursor at every boundary kind.
        for t in [0u32, 1, 2, 3000, 7499, 7500, 7501, 14_998, 20_000] {
            let mut a = Ends::from(&vals).cursor();
            let mut b = Ends::from(&ix).cursor();
            a.skip_below(t);
            b.skip_below(t);
            assert_eq!(a.peek(), b.peek(), "target {t}");
            a.advance();
            b.advance();
            assert_eq!(a.peek(), b.peek(), "target {t} + 1");
        }
    }

    #[test]
    fn empty_and_single_cases() {
        let succ = SuccinctExtent::from_pairs(&[]);
        assert_eq!(succ.num_blocks(), 0);
        assert_eq!(succ.len(), 0);
        assert!(succ.is_empty());
        assert_eq!((succ.parent_bounds(), succ.node_bounds()), (None, None));
        assert_eq!(decode_all(&succ), vec![]);
        let ix = EndIndex::from_sorted(&[]);
        assert!(ix.is_empty());
        assert_eq!(ix.cursor().peek(), None);
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
        let mut pairs: Vec<EdgePair> = (0..20_000u32)
            .map(|i| EdgePair::new(NodeId(i / 3), NodeId(20_000 - i)))
            .collect();
        pairs.push(EdgePair::root(NodeId(0)));
        let set = EdgeSet::from_pairs(pairs);
        let succ = SuccinctExtent::from_pairs(set.pairs());
        assert!(succ.num_blocks() > 1);
        assert_eq!(succ.parent_bounds(), Some((NodeId(0), NULL_NODE)));
        assert_eq!(succ.node_bounds(), Some((NodeId(0), NodeId(20_000))));
        // Equality is image equality is pair-set equality.
        assert_eq!(succ, SuccinctExtent::from_pairs(&succ.to_vec()));
        assert_ne!(succ, SuccinctExtent::default());
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
