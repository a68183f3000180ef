//! Block-structured compressed extent encoding.
//!
//! Extents are stored as a sequence of *blocks*: runs of delta+varint
//! compressed `<parent, node>` pairs, each at most one page
//! ([`BLOCK_TARGET_BYTES`]) of encoded payload so a block maps onto a
//! page of the cost model. Every block carries a [`BlockHeader`] with
//! the parent range it covers (`min_parent ..= max_parent`) and the
//! pair count, forming a skip index: a semijoin whose probe ends fall
//! outside a block's parent range never decodes — or faults — that
//! block.
//!
//! ## Encoding
//!
//! Pairs are sorted by `(parent, node)`. Within a block the first pair
//! stores both components as raw LEB128 varints; every later pair
//! stores `dp = parent − prev_parent` and, when `dp == 0` (same
//! parent), `dn = node − prev_node` (strictly positive since extents
//! are duplicate-free), otherwise the node id raw:
//!
//! ```text
//! block payload := varint(parent₀) varint(node₀)
//!                  { varint(dp) (dp == 0 ? varint(node−prev) : varint(node)) }*
//! ```
//!
//! `NULL_NODE` parents (the root pair) encode as the raw `u32::MAX`
//! value and sort last, so delta encoding needs no special case. The
//! typical cost is 2–3 bytes per pair against 8 raw.

use xmlgraph::{NodeId, NULL_NODE};

use crate::edgeset::EdgePair;

/// Target encoded payload bytes per block — one page of the default
/// cost model, so "skip a block" means "skip a page".
pub const BLOCK_TARGET_BYTES: usize = crate::pages::DEFAULT_PAGE_SIZE;

/// Payload length at which the encoder closes a block before adding
/// the next pair: a pair encodes to at most 10 varint bytes, so closing
/// here keeps every payload within one page.
const CLOSE_AT: usize = BLOCK_TARGET_BYTES - 10;

/// Serialized bytes per [`BlockHeader`] in the on-disk format.
pub const HEADER_BYTES: usize = 16;

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
    /// Byte offset of the block's payload.
    pub offset: u32,
    /// Encoded payload length in bytes.
    pub len: u32,
}

/// A compressed, block-structured extent image: the skip index plus the
/// concatenated block payloads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockExtent {
    headers: Vec<BlockHeader>,
    bytes: Vec<u8>,
}

#[inline]
fn raw_parent(p: NodeId) -> u32 {
    p.0
}

pub(crate) fn push_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Writes `v` as a varint at `block[at..]`; returns the offset after it.
#[inline]
fn put_varint(block: &mut [u8; BLOCK_TARGET_BYTES], mut at: usize, mut v: u32) -> usize {
    while v >= 0x80 {
        if let Some(slot) = block.get_mut(at) {
            *slot = v as u8 | 0x80;
        }
        at += 1;
        v >>= 7;
    }
    if let Some(slot) = block.get_mut(at) {
        *slot = v as u8;
    }
    at + 1
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let mut v: u32 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 32 {
            return None;
        }
        v |= ((byte & 0x7f) as u32) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Strict [`read_varint`]: also rejects what [`push_varint`] never
/// writes — a padded (non-minimal) encoding, or a fifth byte with bits
/// past 2³².
fn read_canonical(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let mut v = 0u32;
    for i in 0..5 {
        let byte = *bytes.get(*pos)?;
        *pos += 1;
        v |= ((byte & 0x7f) as u32) << (7 * i);
        if byte & 0x80 == 0 {
            let padded = i > 0 && byte == 0;
            let overflows = i == 4 && byte > 0x0F;
            return (!padded && !overflows).then_some(v);
        }
    }
    None
}

impl BlockExtent {
    /// Encodes sorted, duplicate-free `pairs` into page-sized blocks.
    pub fn encode(pairs: &[EdgePair]) -> BlockExtent {
        let mut bx = BlockExtent {
            headers: Vec::new(),
            // Pairs typically encode to 2–3 bytes.
            bytes: Vec::with_capacity(pairs.len() * 3),
        };
        let mut block = [0u8; BLOCK_TARGET_BYTES];
        let mut rest = pairs;
        while let Some((head, tail)) = rest.split_first() {
            // The block's first pair stores both components raw.
            let mut len = put_varint(&mut block, 0, raw_parent(head.parent));
            len = put_varint(&mut block, len, head.node.0);
            let mut prev = *head;
            let mut count = 1usize;
            for p in tail {
                if len >= CLOSE_AT {
                    break;
                }
                let dp = raw_parent(p.parent).wrapping_sub(raw_parent(prev.parent));
                len = put_varint(&mut block, len, dp);
                let v = if dp == 0 {
                    p.node.0.wrapping_sub(prev.node.0)
                } else {
                    p.node.0
                };
                len = put_varint(&mut block, len, v);
                prev = *p;
                count += 1;
            }
            bx.headers.push(BlockHeader {
                min_parent: raw_parent(head.parent),
                max_parent: raw_parent(prev.parent),
                count: count as u32,
                first: (pairs.len() - rest.len()) as u32,
                offset: bx.bytes.len() as u32,
                len: len as u32,
            });
            bx.bytes.extend_from_slice(block.get(..len).unwrap_or(&[]));
            rest = rest.get(count..).unwrap_or(&[]);
        }
        // The image is what an index keeps resident: hold no slack.
        bx.bytes.shrink_to_fit();
        bx.headers.shrink_to_fit();
        bx
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.headers.len()
    }

    /// The skip index.
    #[inline]
    pub fn headers(&self) -> &[BlockHeader] {
        &self.headers
    }

    /// Header of block `k`.
    #[inline]
    pub fn header(&self, k: usize) -> &BlockHeader {
        &self.headers[k]
    }

    /// Encoded payload bytes of block `k`.
    #[inline]
    pub fn block_bytes(&self, k: usize) -> usize {
        self.headers[k].len as usize
    }

    /// Raw encoded payload of block `k`, `None` out of range — the
    /// byte window the succinct decode cursors run over.
    #[inline]
    pub fn block_payload(&self, k: usize) -> Option<&[u8]> {
        let h = self.headers.get(k)?;
        self.bytes
            .get(h.offset as usize..(h.offset + h.len) as usize)
    }

    /// Total encoded payload bytes (headers excluded).
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Total stored size: payload plus the serialized skip index.
    pub fn encoded_bytes(&self) -> usize {
        self.bytes.len() + self.headers.len() * HEADER_BYTES
    }

    /// Total pairs across all blocks.
    pub fn num_pairs(&self) -> usize {
        self.headers.iter().map(|h| h.count as usize).sum()
    }

    /// Decodes block `k`'s pairs into `out` (appended). Returns `None`
    /// on a corrupt payload.
    pub fn decode_block_into(&self, k: usize, out: &mut Vec<EdgePair>) -> Option<()> {
        let h = self.headers.get(k)?;
        let payload = self
            .bytes
            .get(h.offset as usize..(h.offset + h.len) as usize)?;
        let mut pos = 0usize;
        let mut parent = read_varint(payload, &mut pos)?;
        let mut node = read_varint(payload, &mut pos)?;
        out.push(decoded_pair(parent, node));
        for _ in 1..h.count {
            let dp = read_varint(payload, &mut pos)?;
            let v = read_varint(payload, &mut pos)?;
            parent = parent.wrapping_add(dp);
            node = if dp == 0 { node.wrapping_add(v) } else { v };
            out.push(decoded_pair(parent, node));
        }
        if pos == payload.len() {
            Some(())
        } else {
            None
        }
    }

    /// Decodes the whole extent back to its sorted pairs.
    pub fn decode(&self) -> Option<Vec<EdgePair>> {
        let mut out = Vec::with_capacity(self.num_pairs());
        for k in 0..self.headers.len() {
            self.decode_block_into(k, &mut out)?;
        }
        Some(out)
    }

    /// True when this image is exactly what [`BlockExtent::encode`]
    /// produces for some strictly increasing pair sequence: every block
    /// decodes to `count` pairs in `len` bytes, pairs increase within
    /// and across blocks, headers carry their blocks' first and last
    /// parents, and varints and block boundaries are the encoder's. One
    /// pass, no allocation. The gate for images that arrive from
    /// outside the process; it also makes image equality coincide with
    /// pair-set equality.
    pub fn check(&self) -> bool {
        (0..self.headers.len())
            .try_fold(None, |prev, k| self.check_block(k, prev).map(Some))
            .is_some()
    }

    /// Checks block `k` given the last raw `(parent, node)` of block
    /// `k - 1`; returns this block's last pair, `None` on any violation.
    fn check_block(&self, k: usize, prev: Option<(u32, u32)>) -> Option<(u32, u32)> {
        let h = self.headers.get(k)?;
        let payload = self.block_payload(k)?;
        let mut pos = 0usize;
        let mut parent = read_canonical(payload, &mut pos)?;
        let mut node = read_canonical(payload, &mut pos)?;
        if h.min_parent != parent || prev.is_some_and(|q| q >= (parent, node)) {
            return None;
        }
        for _ in 1..h.count {
            if pos >= CLOSE_AT {
                return None; // the encoder would have closed the block here
            }
            let dp = read_canonical(payload, &mut pos)?;
            let v = read_canonical(payload, &mut pos)?;
            if dp == 0 {
                node = node.checked_add(v).filter(|_| v > 0)?;
            } else {
                (parent, node) = (parent.checked_add(dp)?, v);
            }
        }
        let last_block = k + 1 == self.headers.len();
        let closed_where_the_encoder_closes = last_block || pos >= CLOSE_AT;
        (pos == payload.len() && h.max_parent == parent && closed_where_the_encoder_closes)
            .then_some((parent, node))
    }

    /// Length of the image [`BlockExtent::write_to`] appends.
    pub fn image_bytes(&self) -> usize {
        8 + self.encoded_bytes()
    }

    /// Appends the image (block and payload counts, headers, payload)
    /// to `out` — the form `apex::persist` stores verbatim.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.reserve(self.image_bytes());
        out.extend_from_slice(&(self.headers.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.bytes.len() as u32).to_le_bytes());
        for h in &self.headers {
            out.extend_from_slice(&h.min_parent.to_le_bytes());
            out.extend_from_slice(&h.max_parent.to_le_bytes());
            out.extend_from_slice(&h.count.to_le_bytes());
            out.extend_from_slice(&h.len.to_le_bytes());
        }
        out.extend_from_slice(&self.bytes);
    }

    /// Deserializes an image written by [`BlockExtent::write_to`].
    /// `first`/`offset` fields are rebuilt from the counts and lengths.
    /// The header counts are bounded by `data.len()` before anything is
    /// sized from them (a pair encodes to at least two bytes), so a
    /// hostile image cannot make this — or a later decode — allocate
    /// more than a small multiple of its own length. Payload contents
    /// are not inspected here; see [`BlockExtent::check`].
    pub fn from_bytes(data: &[u8]) -> Option<BlockExtent> {
        let word = |at: usize| -> Option<u32> {
            Some(u32::from_le_bytes(data.get(at..at + 4)?.try_into().ok()?))
        };
        let n = word(0)? as usize;
        let payload_len = word(4)? as usize;
        let payload_at = n.checked_mul(HEADER_BYTES)?.checked_add(8)?;
        if payload_at.checked_add(payload_len)? != data.len() {
            return None;
        }
        let mut headers = Vec::with_capacity(n);
        let (mut first, mut offset) = (0u32, 0u32);
        for pos in (8..payload_at).step_by(HEADER_BYTES) {
            let h = BlockHeader {
                min_parent: word(pos)?,
                max_parent: word(pos + 4)?,
                count: word(pos + 8)?,
                len: word(pos + 12)?,
                first,
                offset,
            };
            if h.count == 0 || h.count.checked_mul(2)? > h.len {
                return None;
            }
            first = first.checked_add(h.count)?;
            offset = offset.checked_add(h.len)?;
            headers.push(h);
        }
        if offset as usize != payload_len {
            return None;
        }
        let bytes = data.get(payload_at..)?.to_vec();
        Some(BlockExtent { headers, bytes })
    }
}

#[inline]
pub(crate) fn decoded_pair(parent: u32, node: u32) -> EdgePair {
    let p = if parent == u32::MAX {
        NULL_NODE
    } else {
        NodeId(parent)
    };
    EdgePair::new(p, NodeId(node))
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

    fn roundtrip(pairs: &[(u32, u32)]) {
        let set = EdgeSet::from_raw(pairs);
        let bx = BlockExtent::encode(set.pairs());
        assert_eq!(bx.decode().as_deref(), Some(set.pairs()));
        let wire = BlockExtent::from_bytes(&image(&bx));
        assert_eq!(wire.as_ref(), Some(&bx));
    }

    #[test]
    fn empty_extent_has_no_blocks() {
        let bx = BlockExtent::encode(&[]);
        assert_eq!(bx.num_blocks(), 0);
        assert_eq!(bx.encoded_bytes(), 0);
        assert_eq!(bx.decode(), Some(vec![]));
        assert_eq!(BlockExtent::from_bytes(&image(&bx)), Some(bx));
    }

    #[test]
    fn small_extent_roundtrips() {
        roundtrip(&[(1, 2), (1, 9), (3, 4), (700, 701)]);
    }

    #[test]
    fn root_pair_roundtrips() {
        let set = EdgeSet::from_pairs(vec![EdgePair::root(NodeId(0))]);
        let bx = BlockExtent::encode(set.pairs());
        assert_eq!(bx.decode().as_deref(), Some(set.pairs()));
        assert_eq!(bx.header(0).min_parent, u32::MAX);
    }

    #[test]
    fn large_extent_splits_into_page_blocks() {
        let pairs: Vec<EdgePair> = (0..20_000u32)
            .map(|i| EdgePair::new(NodeId(i / 3), NodeId(i)))
            .collect();
        let bx = BlockExtent::encode(&pairs);
        assert!(bx.num_blocks() > 1, "20k pairs must span several blocks");
        for h in bx.headers() {
            assert!((h.len as usize) <= BLOCK_TARGET_BYTES);
            assert!(h.min_parent <= h.max_parent);
        }
        // Headers partition the pair sequence and cover all parents.
        assert_eq!(bx.num_pairs(), pairs.len());
        assert_eq!(bx.decode().as_deref(), Some(&pairs[..]));
        // Delta+varint beats the raw 8-byte layout comfortably here.
        assert!(bx.encoded_bytes() * 2 < pairs.len() * 8);
        let wire = BlockExtent::from_bytes(&image(&bx));
        assert_eq!(wire, Some(bx));
    }

    #[test]
    fn sparse_ids_still_roundtrip() {
        roundtrip(&[
            (0, u32::MAX - 1),
            (5, 0),
            (1 << 20, 1 << 30),
            (u32::MAX - 2, 3),
        ]);
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let set = EdgeSet::from_raw(&[(1, 2), (3, 4)]);
        let bx = BlockExtent::encode(set.pairs());
        assert!(bx.check());
        let good = image(&bx);
        let mut wire = good.clone();
        wire.pop();
        assert_eq!(BlockExtent::from_bytes(&wire), None);
        assert_eq!(BlockExtent::from_bytes(&[]), None);
        // Header counts the bytes cannot back: a block table longer than
        // the image, and a pair count no payload of that length holds.
        let mut wire = good.clone();
        wire[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(BlockExtent::from_bytes(&wire), None);
        let mut wire = good.clone();
        wire[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(BlockExtent::from_bytes(&wire), None);
    }

    #[test]
    fn check_rejects_well_framed_images_of_no_pair_set() {
        let set = EdgeSet::from_raw(&[(1, 2), (1, 9), (3, 4), (700, 701)]);
        let good = image(&BlockExtent::encode(set.pairs()));
        let payload_at = 8 + HEADER_BYTES;
        let tampered = |at: usize, byte: u8| {
            let mut wire = good.clone();
            wire[at] = byte;
            BlockExtent::from_bytes(&wire).map(|bx| bx.check())
        };
        // Unchanged bytes pass; each single-byte edit below keeps the
        // framing valid (from_bytes accepts) yet is no encoder output.
        assert_eq!(tampered(payload_at, good[payload_at]), Some(true));
        // min_parent / max_parent that are not the first / last parent.
        assert_eq!(tampered(8, 0), Some(false));
        assert_eq!(tampered(12, 9), Some(false));
        // A zero node delta under an unchanged parent: a duplicate pair.
        assert_eq!(tampered(payload_at + 3, 0), Some(false));
        // A continuation bit on the last byte: the block overruns `len`.
        assert_eq!(tampered(good.len() - 1, 0x80), Some(false));
        // A non-minimal varint decodes to the same pairs but is not
        // what `encode` writes.
        let mut wire = good.clone();
        wire[payload_at] = 0x81; // parent 1 as 0x81 0x00 …
        wire.insert(payload_at + 1, 0x00);
        wire[4..8].copy_from_slice(&((good.len() - payload_at + 1) as u32).to_le_bytes());
        wire[20..24].copy_from_slice(&((good.len() - payload_at + 1) as u32).to_le_bytes());
        let bx = BlockExtent::from_bytes(&wire).expect("framing is valid");
        assert_eq!(bx.decode().as_deref(), Some(set.pairs()));
        assert!(!bx.check());
    }
}
