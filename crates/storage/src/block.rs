//! The stored extent codec: bit-packed frames in page-sized blocks.
//!
//! An extent's `<parent, node>` pairs, sorted by `(parent, node)`, are
//! cut into *frames* of at most [`FRAME_PAIRS`] pairs. A frame packs each
//! pair as two fixed-width fields, one pair after the other:
//!
//! ```text
//! pair i at bit i·(w_p + w_n):  parent − min_parent          (w_p bits)
//!                               node − min_node              (w_n bits, offset mode)
//!                            or zigzag(node − parent)        (w_n bits, zigzag mode)
//! ```
//!
//! The frame header holds `min_parent`, `min_node`, both widths and the
//! node mode. Each width is the smallest that holds the frame's largest
//! field, and the node mode is the narrower of the two (offset on a tie),
//! so a frame has exactly one encoding per content. Any pair is one
//! shift and mask away: a probe binary-searches a frame's packed parents
//! without decoding a pair, and a decode is one branch-free loop per
//! node mode. `NULL_NODE` parents (the root pair) sort last and are cut
//! into frames of their own, so they never widen a frame.
//!
//! Frames start on 64-bit words and are grouped into *blocks*: a block
//! takes frames while their stored bytes (12 header bytes plus the
//! payload words) fit one page ([`BLOCK_TARGET_BYTES`]) of the cost
//! model. Each block's [`BlockHeader`] carries the parent range it covers
//! and its pair count — the skip index: a semijoin whose ends miss a
//! block's range never faults its page.
//!
//! The image [`BlockExtent::write_to`] appends (little-endian):
//!
//! ```text
//! u32 frames | u32 words
//! frames × (u32 min_parent, u32 min_node, u8 w_p, u8 w_n, u8 mode, u8 count)
//! words × u64
//! ```
//!
//! Word offsets and blocks are not stored: both follow from the frame
//! headers. An image is named by its [`BlockExtent::content_hash`]: one
//! image per content, so one name per content.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use xmlgraph::{NodeId, NULL_NODE};

use crate::edgeset::EdgePair;

/// Stored bytes per block at most — one page of the default cost model,
/// so "skip a block" means "skip a page".
pub const BLOCK_TARGET_BYTES: usize = crate::pages::DEFAULT_PAGE_SIZE;

/// Pairs per frame at most: the unit a kernel decodes at once.
pub const FRAME_PAIRS: usize = 128;

/// Serialized bytes per frame header.
pub const FRAME_HEADER_BYTES: usize = 12;

/// Mask of the low `width` bits (`width ≤ 32`).
#[inline]
fn mask(width: u32) -> u64 {
    (1u64 << (width & 63)) - 1
}

/// The 64 bits of `words` from bit `bit` on, zero past the end.
#[inline]
fn bits_at(words: &[u64], bit: usize) -> u64 {
    let (w, s) = (bit / 64, (bit % 64) as u32);
    let lo = words.get(w).copied().unwrap_or(0);
    let hi = words.get(w + 1).copied().unwrap_or(0);
    // `hi << (64 - s)`, written so that `s == 0` shifts in nothing.
    lo >> s | (hi << 1) << (63 - s)
}

/// ORs `v` into `words` from bit `bit` on; the bits it lands on must
/// be clear.
#[inline]
fn put_bits(words: &mut [u64], bit: usize, v: u64) {
    let (w, s) = (bit / 64, bit % 64);
    if let Some(x) = words.get_mut(w) {
        *x |= v << s;
    }
    if let (true, Some(x)) = (s > 0, words.get_mut(w + 1)) {
        *x |= v >> (64 - s);
    }
}

/// Bits needed to store `v`.
#[inline]
fn bit_width(v: u32) -> u8 {
    (32 - v.leading_zeros()) as u8
}

/// `node − parent` as a zigzag code: small either way round.
#[inline]
fn zigzag(parent: u32, node: u32) -> u32 {
    let d = node.wrapping_sub(parent) as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

#[inline]
fn unzigzag(parent: u32, z: u32) -> u32 {
    parent.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

/// The pair a frame field decodes to.
#[inline]
pub(crate) fn pair(parent: u32, node: u32) -> EdgePair {
    EdgePair::new(NodeId(parent), NodeId(node))
}

/// Header of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Parent of the frame's first pair (`u32::MAX` for `NULL_NODE`).
    pub min_parent: u32,
    /// Smallest node in the frame.
    pub min_node: u32,
    /// Index of the frame's first payload word.
    pub word: u32,
    /// Pairs in the frame, `1..=FRAME_PAIRS`.
    pub count: u8,
    /// Bits per parent offset.
    pub w_p: u8,
    /// Bits per node code.
    pub w_n: u8,
    /// Node codes are `zigzag(node − parent)`, not `node − min_node`.
    pub zigzag: bool,
}

impl Frame {
    /// The encoder's header for `chunk` (sorted, non-empty; an
    /// unsorted chunk still packs and decodes back as given).
    fn fit(chunk: &[EdgePair]) -> Frame {
        let min_parent = chunk.first().map_or(0, |p| p.parent.0);
        let (mut lo, mut hi, mut zz, mut dp) = (u32::MAX, 0u32, 0u32, 0u32);
        for p in chunk {
            dp = dp.max(p.parent.0.wrapping_sub(min_parent));
            lo = lo.min(p.node.0);
            hi = hi.max(p.node.0);
            zz = zz.max(zigzag(p.parent.0, p.node.0));
        }
        let (w_off, w_zz) = (bit_width(hi.saturating_sub(lo)), bit_width(zz));
        Frame {
            min_parent,
            min_node: lo,
            word: 0,
            count: chunk.len() as u8,
            w_p: bit_width(dp),
            w_n: w_off.min(w_zz),
            zigzag: w_zz < w_off,
        }
    }

    /// Bits per pair.
    #[inline]
    fn width(&self) -> usize {
        self.w_p as usize + self.w_n as usize
    }

    /// Payload words.
    #[inline]
    fn words(&self) -> usize {
        (self.count as usize * self.width()).div_ceil(64)
    }

    /// Stored bytes: header plus payload.
    #[inline]
    fn stored_bytes(&self) -> usize {
        FRAME_HEADER_BYTES + 8 * self.words()
    }

    /// The packed field of `p`.
    fn field(&self, p: EdgePair) -> u64 {
        let code = if self.zigzag {
            zigzag(p.parent.0, p.node.0)
        } else {
            p.node.0.wrapping_sub(self.min_node)
        };
        (p.parent.0.wrapping_sub(self.min_parent)) as u64 | (code as u64) << self.w_p
    }

    /// Parent of pair `i` — one load, no decode.
    #[inline]
    pub(crate) fn parent(&self, words: &[u64], i: usize) -> u32 {
        let v = bits_at(words, self.word as usize * 64 + i * self.width());
        self.min_parent
            .wrapping_add((v & mask(self.w_p as u32)) as u32)
    }

    /// Pair `i`, `None` past the frame.
    #[inline]
    pub(crate) fn pair(&self, words: &[u64], i: usize) -> Option<EdgePair> {
        let v = bits_at(words, self.word as usize * 64 + i * self.width());
        let parent = self
            .min_parent
            .wrapping_add((v & mask(self.w_p as u32)) as u32);
        let code = ((v >> self.w_p) & mask(self.w_n as u32)) as u32;
        let node = if self.zigzag {
            unzigzag(parent, code)
        } else {
            self.min_node.wrapping_add(code)
        };
        (i < self.count as usize).then(|| pair(parent, node))
    }

    /// Appends `emit(parent, node)` of every pair to `out`: one loop
    /// per node mode, no branch per pair.
    #[inline]
    pub(crate) fn unpack_into<T>(
        &self,
        words: &[u64],
        out: &mut Vec<T>,
        emit: impl Fn(u32, u32) -> T,
    ) {
        let (w, base) = (self.width(), self.word as usize * 64);
        let (pm, nm, shift) = (mask(self.w_p as u32), mask(self.w_n as u32), self.w_p);
        let fields = (0..self.count as usize).map(|i| bits_at(words, base + i * w));
        if self.zigzag {
            out.extend(fields.map(|v| {
                let parent = self.min_parent.wrapping_add((v & pm) as u32);
                emit(parent, unzigzag(parent, ((v >> shift) & nm) as u32))
            }));
        } else {
            out.extend(fields.map(|v| {
                let node = self.min_node.wrapping_add(((v >> shift) & nm) as u32);
                emit(self.min_parent.wrapping_add((v & pm) as u32), node)
            }));
        }
    }
}

/// Skip-index entry of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Smallest parent id in the block (`u32::MAX` for `NULL_NODE`).
    pub min_parent: u32,
    /// Largest parent id in the block.
    pub max_parent: u32,
    /// Number of pairs in the block.
    pub count: u32,
    /// Index of the block's first pair within the extent.
    pub first: u32,
    /// Index of the block's first frame.
    pub frame: u32,
    /// Stored bytes: frame headers plus payload words.
    pub len: u32,
}

/// A block-structured extent image: frame headers, the packed payload,
/// and the block skip index derived from them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockExtent {
    blocks: Vec<BlockHeader>,
    frames: Vec<Frame>,
    words: Vec<u64>,
}

impl BlockExtent {
    /// Encodes sorted, duplicate-free `pairs`.
    pub fn encode(pairs: &[EdgePair]) -> BlockExtent {
        let split = pairs.partition_point(|p| p.parent != NULL_NODE);
        let (inner, root) = pairs.split_at(split);
        let chunks = inner.chunks(FRAME_PAIRS).chain(root.chunks(FRAME_PAIRS));
        BlockExtent::pack(chunks.map(|c| (Frame::fit(c), c)).collect())
    }

    /// Packs each chunk under its frame header.
    fn pack(chunks: Vec<(Frame, &[EdgePair])>) -> BlockExtent {
        let mut frames = Vec::with_capacity(chunks.len());
        let mut words = vec![0u64; chunks.iter().map(|(f, _)| f.words()).sum()];
        let mut word = 0usize;
        for (mut f, chunk) in chunks {
            f.word = word as u32;
            for (i, p) in chunk.iter().enumerate() {
                put_bits(&mut words, word * 64 + i * f.width(), f.field(*p));
            }
            word += f.words();
            frames.push(f);
        }
        BlockExtent::assemble(frames, words)
    }

    /// Groups frames into blocks: a block takes frames while they fit
    /// one page.
    fn assemble(frames: Vec<Frame>, words: Vec<u64>) -> BlockExtent {
        let mut blocks: Vec<BlockHeader> = Vec::new();
        let mut first = 0u32;
        for (i, f) in frames.iter().enumerate() {
            let (count, len) = (f.count as u32, f.stored_bytes() as u32);
            let max_parent = f.parent(&words, (f.count as usize).saturating_sub(1));
            match blocks.last_mut() {
                Some(b) if (b.len + len) as usize <= BLOCK_TARGET_BYTES => {
                    b.max_parent = max_parent;
                    b.count += count;
                    b.len += len;
                }
                _ => blocks.push(BlockHeader {
                    min_parent: f.min_parent,
                    max_parent,
                    count,
                    first,
                    frame: i as u32,
                    len,
                }),
            }
            first = first.saturating_add(count);
        }
        blocks.shrink_to_fit();
        BlockExtent {
            blocks,
            frames,
            words,
        }
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The skip index.
    #[inline]
    pub fn headers(&self) -> &[BlockHeader] {
        &self.blocks
    }

    /// Stored bytes of block `k` (0 out of range).
    #[inline]
    pub fn block_bytes(&self, k: usize) -> usize {
        self.blocks.get(k).map_or(0, |b| b.len as usize)
    }

    /// Frame indices of block `k` (empty out of range).
    #[inline]
    pub fn block_frames(&self, k: usize) -> std::ops::Range<usize> {
        let start = self.blocks.get(k).map_or(0, |b| b.frame as usize);
        let end = self
            .blocks
            .get(k + 1)
            .map_or(self.frames.len(), |b| b.frame as usize);
        start..end.max(start)
    }

    /// The frame headers.
    #[inline]
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// The packed payload the frames index into.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Payload bytes (frame headers excluded).
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Total stored size: frame headers plus payload.
    pub fn encoded_bytes(&self) -> usize {
        self.frames.len() * FRAME_HEADER_BYTES + self.payload_bytes()
    }

    /// Bytes the image keeps resident: the packed payload and the
    /// in-memory frame and block headers.
    pub fn resident_bytes(&self) -> usize {
        self.payload_bytes()
            + self.frames.len() * std::mem::size_of::<Frame>()
            + self.blocks.len() * std::mem::size_of::<BlockHeader>()
    }

    /// Total pairs across all frames.
    pub fn num_pairs(&self) -> usize {
        self.frames.iter().map(|f| f.count as usize).sum()
    }

    /// Decodes the whole extent back to its pairs.
    pub fn decode(&self) -> Vec<EdgePair> {
        let mut out = Vec::with_capacity(self.num_pairs());
        self.decode_into(&mut out, pair);
        out
    }

    /// Appends `emit(parent, node)` of every pair, frame by frame.
    pub(crate) fn decode_into<T>(&self, out: &mut Vec<T>, emit: impl Fn(u32, u32) -> T + Copy) {
        for f in &self.frames {
            f.unpack_into(&self.words, out, emit);
        }
    }

    /// True when this image is exactly what [`BlockExtent::encode`]
    /// produces for some strictly increasing pair sequence — so image
    /// equality is pair-set equality. The gate for images that arrive
    /// from outside the process.
    pub fn check(&self) -> bool {
        self.scan().is_some()
    }

    /// [`BlockExtent::check`]'s one pass: decodes every pair without
    /// allocating, and returns the smallest and largest node
    /// (`(u32::MAX, 0)` when empty), `None` on any violation. Frames
    /// must close where the encoder closes them (only the last frame of
    /// the non-`NULL` and of the `NULL` run is short), `min_*` must be
    /// the real minima, widths minimal, the node mode the narrower one
    /// and padding bits zero; the pairs must strictly increase.
    pub(crate) fn scan(&self) -> Option<(u32, u32)> {
        let mut prev: Option<(u32, u32)> = None;
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        for (k, f) in self.frames.iter().enumerate() {
            let null = f.min_parent == u32::MAX;
            let next_null = self.frames.get(k + 1).map(|n| n.min_parent == u32::MAX);
            if (f.count as usize) < FRAME_PAIRS && next_null == Some(null) {
                return None;
            }
            let (mut p_lo, mut p_hi) = (u32::MAX, f.min_parent);
            let (mut n_lo, mut n_hi, mut zz) = (u32::MAX, 0u32, 0u32);
            for i in 0..f.count as usize {
                let v = bits_at(&self.words, f.word as usize * 64 + i * f.width());
                let parent = f.min_parent.checked_add((v & mask(f.w_p as u32)) as u32)?;
                let code = ((v >> f.w_p) & mask(f.w_n as u32)) as u32;
                let node = if f.zigzag {
                    unzigzag(parent, code)
                } else {
                    f.min_node.checked_add(code)?
                };
                if (parent == u32::MAX) != null || prev.is_some_and(|q| q >= (parent, node)) {
                    return None;
                }
                prev = Some((parent, node));
                (p_lo, p_hi) = (p_lo.min(parent), p_hi.max(parent));
                (n_lo, n_hi) = (n_lo.min(node), n_hi.max(node));
                zz = zz.max(zigzag(parent, node));
            }
            let (w_off, w_zz) = (bit_width(n_hi - n_lo), bit_width(zz));
            let used = f.count as usize * f.width();
            let tail = self
                .words
                .get((f.word as usize + f.words()).wrapping_sub(1));
            let padded = used.is_multiple_of(64) || tail.is_some_and(|w| w >> (used % 64) == 0);
            let canonical = (p_lo, n_lo) == (f.min_parent, f.min_node)
                && f.w_p == bit_width(p_hi - f.min_parent)
                && f.zigzag == (w_zz < w_off)
                && f.w_n == w_off.min(w_zz);
            if !(canonical && padded) {
                return None;
            }
            (lo, hi) = (lo.min(n_lo), hi.max(n_hi));
        }
        Some((lo, hi))
    }

    /// The image's 64-bit name: its frame and word counts, each frame
    /// header (as two words) and each payload word, folded in by an xor,
    /// an odd multiply and a xor-shift. Every step is a bijection of the
    /// running hash and the fields sit at fixed places, so two images
    /// that differ in one field always get different names.
    pub fn content_hash(&self) -> u64 {
        let fold = |h: u64, w: u64| {
            let h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h ^ (h >> 29)
        };
        let counts = self.frames.len() as u64 | (self.words.len() as u64) << 32;
        let headers = self.frames.iter().flat_map(|f| {
            let mode = [f.w_p, f.w_n, f.zigzag as u8, f.count, 0, 0, 0, 0];
            [
                f.min_parent as u64 | (f.min_node as u64) << 32,
                u64::from_le_bytes(mode),
            ]
        });
        headers
            .chain(self.words.iter().copied())
            .fold(fold(0x243f_6a88_85a3_08d3, counts), fold)
    }

    /// Length of the image [`BlockExtent::write_to`] appends.
    pub fn image_bytes(&self) -> usize {
        8 + self.encoded_bytes()
    }

    /// Appends the image (frame and word counts, frame headers, words)
    /// to `out` — the form `apex::persist` stores verbatim.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.reserve(self.image_bytes());
        out.extend_from_slice(&(self.frames.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u32).to_le_bytes());
        for f in &self.frames {
            out.extend_from_slice(&f.min_parent.to_le_bytes());
            out.extend_from_slice(&f.min_node.to_le_bytes());
            out.extend_from_slice(&[f.w_p, f.w_n, f.zigzag as u8, f.count]);
        }
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Deserializes an image written by [`BlockExtent::write_to`]. Both
    /// counts are bounded by `data.len()` before anything is sized from
    /// them, and a frame is refused unless `1 ≤ count ≤ FRAME_PAIRS`,
    /// both widths are ≤ 32 and they can hold `count` distinct pairs
    /// (`count ≤ 2^(w_p + w_n)`) — so a hostile image cannot make this,
    /// or a later decode, allocate more than a small multiple of its
    /// own length. Pair contents are not inspected here; see
    /// [`BlockExtent::check`].
    pub fn from_bytes(data: &[u8]) -> Option<BlockExtent> {
        let u32_at = |at: usize| -> Option<u32> {
            Some(u32::from_le_bytes(data.get(at..at + 4)?.try_into().ok()?))
        };
        let n = u32_at(0)? as usize;
        let n_words = u32_at(4)? as usize;
        let words_at = n.checked_mul(FRAME_HEADER_BYTES)?.checked_add(8)?;
        if words_at.checked_add(n_words.checked_mul(8)?)? != data.len() {
            return None;
        }
        let mut frames = Vec::with_capacity(n);
        let mut word = 0usize;
        for at in (8..words_at).step_by(FRAME_HEADER_BYTES) {
            let &[w_p, w_n, mode, count] = data.get(at + 8..at + 12)? else {
                return None;
            };
            let f = Frame {
                min_parent: u32_at(at)?,
                min_node: u32_at(at + 4)?,
                word: word as u32,
                count,
                w_p,
                w_n,
                zigzag: mode == 1,
            };
            let holds = f.width() >= 7 || count as usize <= 1 << f.width();
            if count == 0
                || count as usize > FRAME_PAIRS
                || w_p > 32
                || w_n > 32
                || mode > 1
                || !holds
            {
                return None;
            }
            word += f.words();
            frames.push(f);
        }
        if word != n_words {
            return None;
        }
        let words = data.get(words_at..)?.chunks_exact(8);
        let words = words.map(|c| u64::from_le_bytes(c.try_into().unwrap_or([0; 8])));
        Some(BlockExtent::assemble(frames, words.collect()))
    }
}

/// A sorted, distinct column of node ids held in the extent frames:
/// node `n` is packed as the pair `<0, n>`, so every frame's parent
/// field is zero bits wide and its node field is `n − min_node` at the
/// frame's width — the codec's offset mode, not a second codec. A
/// 128-node frame of nearby ids costs a few bits per node, and a decode
/// yields the nodes already sorted and distinct. `apex::Apex` keeps one
/// per label for whole-label seeds; it is never written to disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeColumn(BlockExtent);

impl NodeColumn {
    /// Packs strictly increasing `nodes`.
    pub fn from_sorted(nodes: &[NodeId]) -> NodeColumn {
        debug_assert!(nodes.is_sorted_by(|a, b| a < b), "not strictly increasing");
        let pairs: Vec<EdgePair> = nodes.iter().map(|&n| pair(0, n.0)).collect();
        NodeColumn(BlockExtent::encode(&pairs))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.0
            .headers()
            .last()
            .map_or(0, |h| h.first as usize + h.count as usize)
    }

    /// True when the column holds no node.
    pub fn is_empty(&self) -> bool {
        self.0.headers().is_empty()
    }

    /// Appends the nodes, ascending, to `out`: one branch-free loop per
    /// frame.
    pub fn decode_into(&self, out: &mut Vec<NodeId>) {
        out.reserve(self.len());
        self.0.decode_into(out, |_, n| NodeId(n));
    }

    /// The nodes as a fresh vector.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.decode_into(&mut out);
        out
    }

    /// Bytes the column keeps resident ([`BlockExtent::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        self.0.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgeset::EdgeSet;

    fn image(bx: &BlockExtent) -> Vec<u8> {
        let mut out = Vec::new();
        bx.write_to(&mut out);
        assert_eq!(out.len(), bx.image_bytes());
        out
    }

    fn pairs(raw: impl IntoIterator<Item = (u32, u32)>) -> Vec<EdgePair> {
        EdgeSet::from_raw(&raw.into_iter().collect::<Vec<_>>())
            .pairs()
            .to_vec()
    }

    fn roundtrip(pairs: &[EdgePair]) -> BlockExtent {
        let bx = BlockExtent::encode(pairs);
        assert_eq!(bx.decode(), pairs);
        assert_eq!(bx.num_pairs(), pairs.len());
        assert!(bx.check());
        let wire = BlockExtent::from_bytes(&image(&bx));
        assert_eq!(wire.as_ref(), Some(&bx));
        bx
    }

    /// Packs `pairs` cut at `sizes` under the encoder's headers after
    /// `edit` — images a correct framing accepts.
    fn forge(pairs: &[EdgePair], sizes: &[usize], edit: impl Fn(usize, &mut Frame)) -> BlockExtent {
        let mut rest = pairs;
        let mut chunks = Vec::new();
        for (k, &n) in sizes.iter().enumerate() {
            let (chunk, tail) = rest.split_at(n);
            let mut f = Frame::fit(chunk);
            edit(k, &mut f);
            chunks.push((f, chunk));
            rest = tail;
        }
        let bx = BlockExtent::pack(chunks);
        assert_eq!(BlockExtent::from_bytes(&image(&bx)).as_ref(), Some(&bx));
        bx
    }

    #[test]
    fn empty_extent_has_no_blocks() {
        let bx = roundtrip(&[]);
        assert_eq!((bx.num_blocks(), bx.frames().len()), (0, 0));
        assert_eq!(bx.encoded_bytes(), 0);
        assert_eq!(bx.scan(), Some((u32::MAX, 0)));
    }

    #[test]
    fn small_extent_roundtrips() {
        roundtrip(&pairs([(1, 2), (1, 9), (3, 4), (700, 701)]));
    }

    #[test]
    fn frame_boundaries_roundtrip() {
        for n in [1u32, 127, 128, 129, 3 * 128 + 5, 20_000] {
            let bx = roundtrip(&pairs((0..n).map(|i| (i / 3, i))));
            let sizes: Vec<usize> = bx.frames().iter().map(|f| f.count as usize).collect();
            assert!(
                sizes.iter().rev().skip(1).all(|&c| c == FRAME_PAIRS),
                "{n}: {sizes:?}"
            );
            assert_eq!(sizes.iter().sum::<usize>(), n as usize);
        }
    }

    #[test]
    fn root_pair_roundtrips() {
        let mut ps = pairs((0..200).map(|i| (i, i + 1)));
        ps.push(EdgePair::root(NodeId(0)));
        let bx = roundtrip(&ps);
        let root = bx.frames().last().copied().unwrap();
        assert_eq!(
            (root.min_parent, root.count, root.w_p, root.w_n),
            (u32::MAX, 1, 0, 0)
        );
        assert_eq!(
            bx.frames()[1].count,
            72,
            "the root pair does not join the short frame"
        );
        assert_eq!(bx.headers()[0].max_parent, u32::MAX);
        roundtrip(&[EdgePair::root(NodeId(7))]);
    }

    #[test]
    fn one_parent_with_consecutive_nodes_packs_no_parent_bits() {
        let bx = roundtrip(&pairs((0..128).map(|i| (9, 1000 + i))));
        let f = bx.frames()[0];
        assert_eq!((f.w_p, f.w_n, f.zigzag), (0, 7, false));
        assert_eq!(bx.payload_bytes(), 128 * 7 / 8);
    }

    #[test]
    fn children_below_their_parents_take_zigzag_codes() {
        // Nodes far apart but each close below its parent.
        let bx = roundtrip(&pairs(
            (0..128).map(|i| (i * 1000 + 5, i * 1000 + 5 - i % 4)),
        ));
        let f = bx.frames()[0];
        assert!(f.zigzag);
        assert_eq!(f.w_n, 3);
        // A tie picks offset mode.
        let bx = roundtrip(&pairs([(4, 4), (4, 5)]));
        assert!(!bx.frames()[0].zigzag);
    }

    #[test]
    fn sparse_ids_still_roundtrip() {
        let top = u32::MAX - 1;
        roundtrip(&pairs([
            (0, top),
            (5, 0),
            (1 << 20, 1 << 30),
            (top, 3),
            (top, top),
        ]));
        roundtrip(&pairs((0..300).map(|i| (top - 300 + i, i * 7))));
    }

    #[test]
    fn large_extent_splits_into_page_blocks() {
        let ps = pairs((0..60_000).map(|i| (i / 3, i)));
        let bx = roundtrip(&ps);
        assert!(bx.num_blocks() > 1, "60k pairs must span several blocks");
        let mut next = 0;
        for (k, h) in bx.headers().iter().enumerate() {
            assert!(h.len as usize <= BLOCK_TARGET_BYTES);
            assert_eq!(h.first, next);
            let frames = bx.block_frames(k);
            assert_eq!(h.min_parent, bx.frames()[frames.start].min_parent);
            assert_eq!(h.max_parent, ps[(h.first + h.count) as usize - 1].parent.0);
            if let Some(f) = bx.frames().get(frames.end) {
                assert!((h.len as usize) + f.stored_bytes() > BLOCK_TARGET_BYTES);
            }
            next += h.count;
        }
        assert_eq!(next as usize, ps.len());
        // Far below the raw 8 bytes per pair.
        assert!(bx.encoded_bytes() * 3 < ps.len() * 8);
    }

    #[test]
    fn a_node_column_packs_offsets_only_and_decodes_in_order() {
        for nodes in [
            vec![],
            vec![NodeId(0)],
            (0..1000u32)
                .map(|i| NodeId(3 * i + i % 2))
                .collect::<Vec<_>>(),
            vec![NodeId(5), NodeId(1 << 20), NodeId(i32::MAX as u32)],
        ] {
            let col = NodeColumn::from_sorted(&nodes);
            assert_eq!(col.to_vec(), nodes);
            assert_eq!((col.len(), col.is_empty()), (nodes.len(), nodes.is_empty()));
            assert!(col.0.check());
            assert!(col.0.frames().iter().all(|f| f.w_p == 0 && !f.zigzag));
        }
        // 128 ids at most 4 apart: 9 bits a node plus the headers.
        let dense: Vec<NodeId> = (0..12_800u32).map(|i| NodeId(4 * i)).collect();
        let col = NodeColumn::from_sorted(&dense);
        assert!(col.0.frames().iter().all(|f| f.w_n == 9));
        assert!(
            col.resident_bytes() < dense.len() * 2,
            "{}",
            col.resident_bytes()
        );
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let good = image(&BlockExtent::encode(&pairs([(1, 2), (3, 4)])));
        let mut wire = good.clone();
        wire.pop();
        assert_eq!(BlockExtent::from_bytes(&wire), None);
        assert_eq!(BlockExtent::from_bytes(&[]), None);
        let framed = |at: usize, v: u8| {
            let mut wire = good.clone();
            wire[at] = v;
            BlockExtent::from_bytes(&wire)
        };
        assert!(framed(0, 0xFF).is_none(), "frame count past the bytes");
        assert!(framed(4, 9).is_none(), "word count past the bytes");
        assert!(framed(8 + 11, 0).is_none(), "an empty frame");
        assert!(framed(8 + 11, 129).is_none(), "a frame over 128 pairs");
        assert!(framed(8 + 10, 2).is_none(), "no third node mode");
        assert!(framed(8 + 8, 33).is_none(), "a width over 32");
        // count > 2^(w_p + w_n): 2 pairs in 0 bits.
        let bx = forge(&pairs([(1, 2)]), &[1], |_, _| {});
        let mut wire = image(&bx);
        wire[8 + 11] = 2;
        assert_eq!(BlockExtent::from_bytes(&wire), None);
    }

    #[test]
    fn check_rejects_well_framed_images_of_no_pair_set() {
        let ps = pairs((0..200).map(|i| (i / 2, 3 * i + 10)));
        let encoded = BlockExtent::encode(&ps);
        assert!(forge(&ps, &[128, 72], |_, _| {}).check());
        assert_eq!(forge(&ps, &[128, 72], |_, _| {}), encoded);
        let refused = [
            (
                "a non-minimal width",
                forge(&ps, &[128, 72], |k, f| f.w_n += (k == 1) as u8),
            ),
            (
                "a min_node below the minimum",
                forge(&ps, &[128, 72], |_, f| f.min_node -= 1),
            ),
            ("the other node mode", {
                forge(&ps, &[128, 72], |k, f| {
                    let chunk = ps.iter().skip(128 * k).take(128);
                    let codes = chunk.map(|p| zigzag(p.parent.0, p.node.0));
                    f.zigzag = true;
                    f.w_n = bit_width(codes.max().unwrap());
                })
            }),
            (
                "a frame that closes early",
                forge(&ps, &[100, 100], |_, _| {}),
            ),
            (
                "a frame of the last pair",
                forge(&ps, &[128, 71, 1], |_, _| {}),
            ),
        ];
        for (what, bx) in refused {
            assert_eq!(bx.decode(), ps, "{what} decodes to the same pairs");
            assert!(!bx.check(), "{what}");
        }
        // Non-zero padding past the last pair's bits.
        let mut wire = image(&encoded);
        let last = wire.len() - 1;
        wire[last] |= 0x80;
        let bx = BlockExtent::from_bytes(&wire).expect("framing is valid");
        assert_eq!(bx.decode(), ps);
        assert!(!bx.check());
        // A min_parent that is not the first parent decodes other pairs.
        let bx = forge(&ps, &[128, 72], |_, f| {
            f.min_parent = f.min_parent.wrapping_sub(1)
        });
        assert!(!bx.check());
    }
}
