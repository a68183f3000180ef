//! The one durable image of an [`Apex`] index.
//!
//! The paper's system keeps its indexes "on a local disk". Everything
//! this crate writes there — the file the shell's `save` makes and the
//! checkpoint `core::wal` commits — is this one format, written by one
//! encoder and read by one decoder. An extent is stored as the block
//! image it is held as in memory, so the bytes resident, persisted and
//! scanned by the kernels are the same bytes, and for every image the
//! decoder accepts `encode(decode(image)) == image`.
//!
//! Extents are named by content ([`SuccinctExtent::content_hash`]). An
//! image is a *base*, which stores every extent its index holds, or a
//! *delta* over one base, which stores only the extents that base lacks
//! and names the rest: a checkpoint after a refresh that changed a few
//! classes writes those classes' extents and the skeleton, not the
//! index. `encode_checkpoint` picks which: a delta only over a base
//! that is still at least half live.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "APEXIDX" | u8 version (= 6) | u64 body_len | u64 seq | u64 generation
//!   | u64 base (0 = none: a base image) | u64 pack_len
//! body (body_len bytes):
//!   pack (pack_len bytes): the extent images this file stores, back to back
//!   skeleton:
//!     u32 n_stored | (u64 hash, u32 image_len)*          the pack, in order
//!     u32 xroot
//!     u32 n_xnodes
//!       per node: u32 incoming(+1; 0 = none) | u64 extent hash
//!                 u32 n_edges | (u32 label, u32 target)*
//!     u32 n_hnodes
//!       per hnode: u32 remainder(+1; 0 = none)
//!                  u32 n_entries | (u32 label, u32 count, u8 new,
//!                                   u32 xnode(+1), u32 next(+1))*   by label
//!     u64 min_sup bits | u64 since_refresh | u64 total_recorded
//!     u32 n_paths | (u32 len, u32 label*)*                         the window
//! u64 fnv1a of the header and the skeleton
//! ```
//!
//! The checksum is layered: it covers the skeleton, which holds each
//! stored extent's hash, and each image must hash to the name it is
//! stored under. A pack holds each content once, in the order the node
//! arena first names it, and a delta's pack holds exactly the contents
//! its base lacks. The encoder compares contents, not only names, before
//! it shares one: two contents under one 64-bit name are never merged —
//! within an index that is an encode error, against a base it means a
//! new base. `seq` and `generation` pair a checkpoint with its WAL
//! segment; a bare index ([`save`]) is a base image with both 0 and an
//! empty monitor state, and either reader takes either file.
//!
//! The decoder verifies, then decodes: magic and version, then the
//! declared lengths against the bytes present, then the checksum — only
//! then is the skeleton interpreted, and an image is opened only after
//! its bytes hash to their name. Under a valid checksum it still trusts
//! nothing: each count is bounded by the bytes that remain before
//! anything is sized or looped from it, each id is range-checked before
//! it is minted (`xroot`, edge targets, `H_APEX` `xnode`/`remainder`
//! against `n_xnodes`; `next` against `n_hnodes`, and only forward, so
//! the tree is acyclic), entries must ascend by label, every extent
//! hash must name a stored image, and an image must be an encoder output
//! ([`apex_storage::BlockExtent::check`]). A delta decodes only against
//! its base image ([`PersistError::MissingBase`] without it). Older
//! formats — `APEXIDX` versions 1–5 and the `APEXSNAP` envelope that
//! used to wrap them — are refused by name
//! ([`PersistError::VersionMismatch`], [`PersistError::BadMagic`]),
//! never decoded. No input panics the decoder: the module denies
//! indexing and `unreachable!`, like the recovery path that calls it.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::collections::hash_map::{self, HashMap};
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use apex_storage::{BlockExtent, SuccinctExtent};
use xmlgraph::{LabelId, LabelPath};

use crate::graph::{GApex, XNodeId};
use crate::hashtree::{Entry, HNodeId, HashTree};
use crate::index::Apex;
use crate::monitor::MonitorState;

const MAGIC: &[u8; 7] = b"APEXIDX";

/// Current format version, written after the magic.
pub const FORMAT_VERSION: u8 = 6;

/// Magic, version, body length, seq, generation, base, pack length.
const HEADER_BYTES: usize = 7 + 1 + 8 * 5;
const CHECKSUM_BYTES: usize = 8;
const FNV_OFFSET: u64 = 0xcbf29ce484222325;

// The fewest bytes one record of each counted kind occupies: what a
// count is divided into before anything is sized from it.
const STORED_BYTES: usize = 8 + 4; // hash, image_len
const MIN_XNODE_BYTES: usize = 4 + 8 + 4; // incoming, extent hash, n_edges
const EDGE_BYTES: usize = 4 + 4;
const MIN_HNODE_BYTES: usize = 4 + 4;
const ENTRY_BYTES: usize = 4 + 4 + 1 + 4 + 4;
const MIN_PATH_BYTES: usize = 4;
const LABEL_BYTES: usize = 4;

/// Why an image was refused.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure (the file could not be read at all).
    Io(io::Error),
    /// Bad magic header (not an APEX image at all).
    BadMagic,
    /// Recognized magic, unsupported format version.
    VersionMismatch {
        /// The version byte found in the image.
        found: u8,
    },
    /// The image ends before its declared length, or a count inside it
    /// needs more bytes than follow; `offset` is how many bytes were
    /// consumed before that was seen.
    Truncated {
        /// Bytes consumed before the image ran out.
        offset: u64,
    },
    /// Checksum mismatch (corrupted file), or an extent image that does
    /// not hash to the name it is stored under.
    BadChecksum,
    /// Structurally invalid content under a valid checksum (e.g.
    /// out-of-range ids).
    Corrupt(&'static str),
    /// A delta image read without the base image it builds on (none
    /// given, or no such file beside it).
    MissingBase {
        /// The sequence of the base the delta names.
        seq: u64,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadMagic => write!(f, "not an APEX index file"),
            PersistError::VersionMismatch { found } => write!(
                f,
                "unsupported index format version {found} (this build reads version {FORMAT_VERSION})"
            ),
            PersistError::Truncated { offset } => {
                write!(f, "index file truncated after {offset} bytes")
            }
            PersistError::BadChecksum => write!(f, "checksum mismatch"),
            PersistError::Corrupt(what) => write!(f, "corrupt index file: {what}"),
            PersistError::MissingBase { seq } => {
                write!(f, "delta image without its base image (checkpoint {seq})")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// A verified, decoded image.
#[derive(Debug)]
pub struct SnapshotImage {
    /// Checkpoint sequence number (pairs with the WAL segment opened at
    /// the same rotation); 0 in a bare index file.
    pub seq: u64,
    /// Generation of the index at capture time.
    pub generation: u64,
    /// The checkpoint whose base image this delta image was read
    /// against; `None` for a base image.
    pub base: Option<u64>,
    /// The index.
    pub index: Apex,
    /// The captured monitor state.
    pub monitor: MonitorState,
}

/// What a delta image needs of the base image it builds on, as the
/// writer of both remembers it.
#[derive(Debug, Clone)]
pub(crate) struct Base {
    /// The base image's checkpoint sequence.
    pub(crate) seq: u64,
    /// The extents its pack stores, by name: a delta names one only
    /// after comparing it with the content it means.
    extents: HashMap<u64, Arc<SuccinctExtent>>,
    /// Bytes of its pack.
    pack_bytes: u64,
}

/// What an image's header says it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A base image.
    Base,
    /// A delta over the base image of checkpoint `base`.
    Delta {
        /// The base's checkpoint sequence.
        base: u64,
    },
}

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(seed, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

fn put32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn opt_plus1<T: Into<u32>>(v: Option<T>) -> u32 {
    v.map_or(0, |x| x.into() + 1)
}

impl From<XNodeId> for u32 {
    fn from(x: XNodeId) -> u32 {
        x.0
    }
}

impl From<HNodeId> for u32 {
    fn from(h: HNodeId) -> u32 {
        h.0
    }
}

/// An extent keyed by its name alone: a set of them finds the content
/// first stored under a name, at one pointer a name.
struct Named<'a>(&'a Arc<SuccinctExtent>);

impl Hash for Named<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.content_hash().hash(state);
    }
}

impl PartialEq for Named<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.content_hash() == other.0.content_hash()
    }
}

impl Eq for Named<'_> {}

fn name_collision() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "two extent contents share one content hash",
    )
}

/// Each extent of `apex` once, in the order the node arena first names
/// it — a pack's order. Two contents under one name cannot both be
/// named: an error, not a silent merge.
fn distinct_extents(apex: &Apex) -> io::Result<Vec<&Arc<SuccinctExtent>>> {
    let ga = apex.graph();
    let mut seen = HashMap::new();
    let mut out = Vec::new();
    for e in (0..ga.allocated() as u32).map(|i| &ga.node(XNodeId(i)).extent) {
        match seen.entry(Named(e)) {
            hash_map::Entry::Vacant(slot) => {
                slot.insert(());
                out.push(e);
            }
            hash_map::Entry::Occupied(first) if first.key().0 == e => {}
            hash_map::Entry::Occupied(_) => return Err(name_collision()),
        }
    }
    Ok(out)
}

fn image_bytes(e: &&Arc<SuccinctExtent>) -> u64 {
    e.image().image_bytes() as u64
}

/// Encodes a base image of `apex`.
pub(crate) fn encode(
    seq: u64,
    generation: u64,
    apex: &Apex,
    monitor: &MonitorState,
) -> io::Result<Vec<u8>> {
    let extents = distinct_extents(apex)?;
    Ok(encode_over(seq, generation, apex, monitor, 0, &extents))
}

/// Encodes a checkpoint: a delta over `base` while `base`'s pack and
/// the extents it lacks together hold at most twice the live extent
/// bytes — so a base is at least half live for as long as deltas are
/// read against it — and every name the two share means one content;
/// otherwise a new base, returned for the checkpoints after it.
pub(crate) fn encode_checkpoint(
    seq: u64,
    generation: u64,
    apex: &Apex,
    monitor: &MonitorState,
    base: Option<&Base>,
) -> io::Result<(Vec<u8>, Option<Base>)> {
    let extents = distinct_extents(apex)?;
    let live: u64 = extents.iter().map(image_bytes).sum();
    if let Some(b) = base {
        let mut lacks = Vec::new();
        let mut same = true;
        for &e in &extents {
            match b.extents.get(&e.content_hash()) {
                Some(held) => same &= held == e,
                None => lacks.push(e),
            }
        }
        if same && b.pack_bytes + lacks.iter().map(image_bytes).sum::<u64>() <= 2 * live {
            let image = encode_over(seq, generation, apex, monitor, b.seq, &lacks);
            return Ok((image, None));
        }
    }
    let image = encode_over(seq, generation, apex, monitor, 0, &extents);
    let next = Base {
        seq,
        extents: extents
            .iter()
            .map(|&e| (e.content_hash(), Arc::clone(e)))
            .collect(),
        pack_bytes: live,
    };
    Ok((image, Some(next)))
}

/// Encodes the image in one pass into one buffer: a delta over the
/// base image `base` (0 = none) that stores `stored`.
fn encode_over(
    seq: u64,
    generation: u64,
    apex: &Apex,
    monitor: &MonitorState,
    base: u64,
    stored: &[&Arc<SuccinctExtent>],
) -> Vec<u8> {
    let ga = apex.graph();
    let pack_len: u64 = stored.iter().map(image_bytes).sum();
    let skeleton =
        stored.len() * STORED_BYTES + ga.allocated() * (MIN_XNODE_BYTES + 2 * EDGE_BYTES);
    let mut out = Vec::with_capacity(HEADER_BYTES + pack_len as usize + skeleton + CHECKSUM_BYTES);
    out.extend_from_slice(MAGIC);
    out.push(FORMAT_VERSION);
    put64(&mut out, 0); // body_len, known once the body is written
    put64(&mut out, seq);
    put64(&mut out, generation);
    put64(&mut out, base);
    put64(&mut out, pack_len);
    for e in stored {
        e.image().write_to(&mut out);
    }
    let skeleton_at = out.len();
    put32(&mut out, stored.len() as u32);
    for e in stored {
        put64(&mut out, e.content_hash());
        put32(&mut out, e.image().image_bytes() as u32);
    }

    // G_APEX.
    put32(&mut out, apex.xroot().0);
    put32(&mut out, ga.allocated() as u32);
    for i in 0..ga.allocated() as u32 {
        let node = ga.node(XNodeId(i));
        put32(&mut out, node.incoming.map_or(0, |l| l.0 + 1));
        put64(&mut out, node.extent.content_hash());
        put32(&mut out, node.edges.len() as u32);
        for &(l, t) in &node.edges {
            put32(&mut out, l.0);
            put32(&mut out, t.0);
        }
    }

    // H_APEX.
    let ht = apex.hash_tree();
    put32(&mut out, ht.allocated() as u32);
    for i in 0..ht.allocated() as u32 {
        let hnode = ht.node(HNodeId(i));
        put32(&mut out, opt_plus1(hnode.remainder));
        let mut entries: Vec<(LabelId, Entry)> = hnode.entries_iter().collect();
        entries.sort_by_key(|(l, _)| *l); // deterministic output
        put32(&mut out, entries.len() as u32);
        for (label, e) in entries {
            put32(&mut out, label.0);
            put32(&mut out, e.count);
            out.push(e.new as u8);
            put32(&mut out, opt_plus1(e.xnode));
            put32(&mut out, opt_plus1(e.next));
        }
    }

    // Monitor state.
    put64(&mut out, monitor.min_sup.to_bits());
    put64(&mut out, monitor.since_refresh);
    put64(&mut out, monitor.total_recorded);
    put32(&mut out, monitor.window.len() as u32);
    for p in &monitor.window {
        put32(&mut out, p.labels().len() as u32);
        for l in p.labels() {
            put32(&mut out, l.0);
        }
    }

    let body_len = (out.len() - HEADER_BYTES) as u64;
    if let Some(slot) = out.get_mut(MAGIC.len() + 1..MAGIC.len() + 9) {
        slot.copy_from_slice(&body_len.to_le_bytes());
    }
    let (head, rest) = out.split_at(skeleton_at);
    let sum = fnv1a(
        fnv1a(FNV_OFFSET, head.get(..HEADER_BYTES).unwrap_or_default()),
        rest,
    );
    put64(&mut out, sum);
    out
}

/// Bounds-checked cursor; a failed read reports the offset it stopped
/// at.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let bytes = self
            .at
            .checked_add(n)
            .and_then(|end| self.buf.get(self.at..end))
            .ok_or(PersistError::Truncated {
                offset: self.at as u64,
            })?;
        self.at += n;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let offset = self.at as u64;
        let bytes = self.take(N)?;
        bytes
            .try_into()
            .map_err(|_| PersistError::Truncated { offset })
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        self.array().map(u8::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` count of records of at least `min_record` bytes each,
    /// refused unless that many fit in the bytes that remain — so
    /// nothing is ever sized or looped from a count the image cannot
    /// back.
    fn count(&mut self, min_record: usize) -> Result<usize, PersistError> {
        let offset = self.at as u64;
        let n = self.u32()? as usize;
        if n > self.buf.len().saturating_sub(self.at) / min_record {
            return Err(PersistError::Truncated { offset });
        }
        Ok(n)
    }

    /// A `u32` holding `id + 1` (0 = none), refused unless `id < limit`.
    fn opt_id(&mut self, limit: usize, what: &'static str) -> Result<Option<u32>, PersistError> {
        match self.u32()?.checked_sub(1) {
            Some(id) if id as usize >= limit => Err(PersistError::Corrupt(what)),
            id => Ok(id),
        }
    }
}

/// An image whose lengths and checksum held: its header fields, its
/// pack, and a reader at the start of its skeleton.
struct Verified<'a> {
    seq: u64,
    generation: u64,
    base: u64,
    pack: &'a [u8],
    skeleton: Reader<'a>,
}

/// Checks magic, version, the declared lengths against the bytes
/// present and the checksum over header and skeleton; interprets
/// nothing else.
fn verify(buf: &[u8]) -> Result<Verified<'_>, PersistError> {
    let mut r = Reader { buf, at: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u8()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch { found: version });
    }
    let body_len = r.u64()?;
    let seq = r.u64()?;
    let generation = r.u64()?;
    let base = r.u64()?;
    let pack_len = r.u64()?;

    let present = buf.len().checked_sub(HEADER_BYTES + CHECKSUM_BYTES);
    let Some(present) = present.filter(|&p| p as u64 >= body_len) else {
        return Err(PersistError::Truncated {
            offset: buf.len() as u64,
        });
    };
    if present as u64 > body_len {
        return Err(PersistError::Corrupt("bytes after the declared length"));
    }
    if pack_len > body_len {
        return Err(PersistError::Corrupt("extent pack longer than the body"));
    }
    let (signed, sum) = buf.split_at(HEADER_BYTES + present);
    let (head, body) = signed.split_at(HEADER_BYTES);
    let (pack, skeleton) = body.split_at(pack_len as usize);
    if fnv1a(fnv1a(FNV_OFFSET, head), skeleton).to_le_bytes() != sum {
        return Err(PersistError::BadChecksum);
    }
    Ok(Verified {
        seq,
        generation,
        base,
        pack,
        skeleton: Reader {
            buf: signed,
            at: HEADER_BYTES + pack.len(),
        },
    })
}

/// The pack's directory: each stored image's hash and bytes, in pack
/// order. The lengths must tile the pack exactly.
fn directory<'a>(r: &mut Reader<'_>, pack: &'a [u8]) -> Result<Vec<(u64, &'a [u8])>, PersistError> {
    let n = r.count(STORED_BYTES)?;
    let mut out = Vec::with_capacity(n);
    let mut at = 0usize;
    for _ in 0..n {
        let hash = r.u64()?;
        let end = at.checked_add(r.u32()? as usize);
        let bytes = end
            .and_then(|end| pack.get(at..end))
            .ok_or(PersistError::Corrupt("extent images overrun the pack"))?;
        out.push((hash, bytes));
        at += bytes.len();
    }
    if at != pack.len() {
        return Err(PersistError::Corrupt("extent images do not fill the pack"));
    }
    Ok(out)
}

/// Opens one stored image once it hashes to the name it is stored
/// under.
fn open_extent(bytes: &[u8], hash: u64) -> Result<Arc<SuccinctExtent>, PersistError> {
    const NOT_ENCODED: PersistError =
        PersistError::Corrupt("extent image is not an encoder output");
    let image = BlockExtent::from_bytes(bytes).ok_or(NOT_ENCODED)?;
    if image.content_hash() != hash {
        return Err(PersistError::BadChecksum);
    }
    SuccinctExtent::open(image).map(Arc::new).ok_or(NOT_ENCODED)
}

/// What the header at the start of `buf` says the image is — `None`
/// unless it is a header of this format. Nothing else is read or
/// verified.
pub(crate) fn kind_of(buf: &[u8]) -> Option<Kind> {
    let head = buf.get(..HEADER_BYTES)?;
    if head.get(..MAGIC.len()) != Some(MAGIC) || head.get(MAGIC.len()) != Some(&FORMAT_VERSION) {
        return None;
    }
    let field = head.get(HEADER_BYTES - 16..HEADER_BYTES - 8)?;
    Some(match u64::from_le_bytes(field.try_into().ok()?) {
        0 => Kind::Base,
        base => Kind::Delta { base },
    })
}

/// [`kind_of`] the image file at `path`, reading its header alone.
pub(crate) fn kind_of_file(path: &Path) -> io::Result<Option<Kind>> {
    let mut head = Vec::with_capacity(HEADER_BYTES);
    File::open(path)?
        .take(HEADER_BYTES as u64)
        .read_to_end(&mut head)?;
    Ok(kind_of(&head))
}

/// Verifies and decodes one image; a delta image decodes only against
/// `base`, the bytes of the base image it names (a file and its base:
/// [`crate::recover::load_snapshot`]).
pub fn decode(buf: &[u8], base: Option<&[u8]>) -> Result<SnapshotImage, PersistError> {
    let Verified {
        seq,
        generation,
        base: base_seq,
        pack,
        skeleton: mut r,
    } = verify(buf)?;
    let own = directory(&mut r, pack)?;

    // What the node records may name: the base's images, then this
    // image's own — which must all be contents the base lacks.
    let mut named: HashMap<u64, (&[u8], bool)> = HashMap::new();
    if base_seq != 0 {
        let b = verify(base.ok_or(PersistError::MissingBase { seq: base_seq })?)?;
        if b.base != 0 || b.seq != base_seq {
            return Err(PersistError::Corrupt("the base image is not the one named"));
        }
        let mut skeleton = b.skeleton;
        for (hash, bytes) in directory(&mut skeleton, b.pack)? {
            named.insert(hash, (bytes, false));
        }
    }
    for &(hash, bytes) in &own {
        if named.insert(hash, (bytes, true)).is_some() {
            return Err(PersistError::Corrupt("an extent stored twice"));
        }
    }

    // G_APEX.
    let xroot = r.u32()? as usize;
    let n_xnodes = r.count(MIN_XNODE_BYTES)?;
    if xroot >= n_xnodes {
        return Err(PersistError::Corrupt("xroot out of range"));
    }
    let mut ga = GApex::new();
    let mut opened: HashMap<u64, Arc<SuccinctExtent>> = HashMap::with_capacity(own.len());
    let mut first_use = Vec::with_capacity(own.len());
    for _ in 0..n_xnodes {
        let x = ga.new_node(r.u32()?.checked_sub(1).map(LabelId));
        let hash = r.u64()?;
        let extent = match opened.get(&hash) {
            Some(e) => Arc::clone(e),
            None => {
                let &(bytes, stored_here) = named.get(&hash).ok_or(PersistError::Corrupt(
                    "an extent hash names no stored image",
                ))?;
                let e = open_extent(bytes, hash)?;
                if stored_here {
                    first_use.push(hash);
                }
                opened.insert(hash, Arc::clone(&e));
                e
            }
        };
        let n_edges = r.count(EDGE_BYTES)?;
        let mut edges = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            let label = LabelId(r.u32()?);
            let target = r.u32()?;
            if target as usize >= n_xnodes {
                return Err(PersistError::Corrupt("edge target out of range"));
            }
            edges.push((label, XNodeId(target)));
        }
        let node = ga.node_mut(x);
        node.extent = extent;
        node.edges = edges;
    }
    if !first_use.iter().eq(own.iter().map(|(h, _)| h)) {
        return Err(PersistError::Corrupt(
            "the pack is not the extents first named, in order",
        ));
    }

    // H_APEX.
    let n_hnodes = r.count(MIN_HNODE_BYTES)?;
    if n_hnodes == 0 {
        return Err(PersistError::Corrupt("hash tree has no head"));
    }
    let mut ht = HashTree::with_nodes(n_hnodes);
    for i in 0..n_hnodes as u32 {
        let remainder = r.opt_id(n_xnodes, "remainder out of range")?;
        ht.set_remainder_raw(HNodeId(i), remainder.map(XNodeId));
        let mut prev = None;
        for _ in 0..r.count(ENTRY_BYTES)? {
            let label = LabelId(r.u32()?);
            if prev.is_some_and(|p| p >= label) {
                return Err(PersistError::Corrupt("hnode entries not in label order"));
            }
            prev = Some(label);
            let count = r.u32()?;
            let new = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(PersistError::Corrupt("entry flag is not 0 or 1")),
            };
            let xnode = r.opt_id(n_xnodes, "entry xnode out of range")?;
            let next = r.opt_id(n_hnodes, "hnode link out of range")?;
            // Children are allocated after their parents and `compact`
            // numbers breadth-first, so a link that is not forward is
            // not a writer's — and a cycle would never end a walk.
            if next.is_some_and(|n| n <= i) {
                return Err(PersistError::Corrupt("hnode link does not point forward"));
            }
            let entry = Entry {
                count,
                new,
                xnode: xnode.map(XNodeId),
                next: next.map(HNodeId),
            };
            ht.insert_entry_raw(HNodeId(i), label, entry);
        }
    }

    // Monitor state.
    let min_sup = f64::from_bits(r.u64()?);
    let since_refresh = r.u64()?;
    let total_recorded = r.u64()?;
    let n_paths = r.count(MIN_PATH_BYTES)?;
    let mut window = Vec::with_capacity(n_paths);
    for _ in 0..n_paths {
        let labels = (0..r.count(LABEL_BYTES)?).map(|_| r.u32().map(LabelId));
        window.push(LabelPath::new(labels.collect::<Result<_, _>>()?));
    }
    if r.at != r.buf.len() {
        return Err(PersistError::Corrupt("bytes after the monitor state"));
    }

    Ok(SnapshotImage {
        seq,
        generation,
        base: (base_seq != 0).then_some(base_seq),
        index: Apex::from_parts(ga, ht, XNodeId(xroot as u32)),
        monitor: MonitorState {
            window,
            min_sup,
            since_refresh,
            total_recorded,
        },
    })
}

/// Writes `apex` to `w` as a bare index image: a base image with `seq`
/// and `generation` 0 and an empty monitor state.
pub fn save<W: Write>(apex: &Apex, w: &mut W) -> io::Result<()> {
    w.write_all(&encode(0, 0, apex, &MonitorState::default())?)
}

/// Reads an index from `r` — a [`save`]d file or a base checkpoint,
/// whose index it returns. A delta checkpoint needs its base beside it:
/// read it with [`crate::recover::load_snapshot`].
pub fn load<R: Read>(r: &mut R) -> Result<Apex, PersistError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    Ok(decode(&buf, None)?.index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    fn sample() -> (xmlgraph::XmlGraph, Apex) {
        let g = moviedb();
        let mut idx = Apex::build_initial(&g);
        let wl = Workload::parse(&g, &["actor.name", "director.movie", "@movie.movie"]).unwrap();
        idx.refine(&g, &wl, 0.1);
        (g, idx)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (g, idx) = sample();
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        let loaded = load(&mut buf.as_slice()).unwrap();

        assert_eq!(idx.stats(), loaded.stats());
        assert_eq!(idx.required_paths(&g), loaded.required_paths(&g));
        for p in [
            "actor.name",
            "director.movie",
            "name",
            "movie.title",
            "title",
        ] {
            let path = LabelPath::parse(&g, p).unwrap();
            let a = idx.lookup(path.labels());
            let b = loaded.lookup(path.labels());
            assert_eq!(a.matched_len, b.matched_len, "{p}");
            let ea = a.xnode.map(|x| idx.extent(x).to_vec());
            let eb = b.xnode.map(|x| loaded.extent(x).to_vec());
            assert_eq!(ea, eb, "{p}");
        }
    }

    #[test]
    fn loaded_index_can_be_refined_further() {
        let (g, idx) = sample();
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        let mut loaded = load(&mut buf.as_slice()).unwrap();
        let wl = Workload::parse(&g, &["movie.title"]).unwrap();
        loaded.refine(&g, &wl, 0.5);
        assert!(loaded
            .required_paths(&g)
            .contains(&"movie.title".to_string()));
    }

    fn state(g: &xmlgraph::XmlGraph) -> MonitorState {
        MonitorState {
            window: vec![LabelPath::parse(g, "actor.name").unwrap(); 3],
            min_sup: 0.25,
            since_refresh: 3,
            total_recorded: 11,
        }
    }

    /// Rewrites the checksum over the header and the skeleton.
    fn reseal(buf: &mut [u8]) {
        let body = buf.len() - CHECKSUM_BYTES;
        let pack = u64::from_le_bytes(buf[HEADER_BYTES - 8..HEADER_BYTES].try_into().unwrap());
        let sum = fnv1a(
            fnv1a(FNV_OFFSET, &buf[..HEADER_BYTES]),
            &buf[HEADER_BYTES + pack as usize..body],
        );
        buf[body..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn a_delta_stores_only_what_its_base_lacks_and_reads_back_through_it() {
        let (g, idx) = sample();
        let st = state(&g);
        let (base_img, base) = encode_checkpoint(1, 4, &idx, &st, None).unwrap();
        let base = base.expect("no base given: a base image");
        assert_eq!(
            base_img,
            encode(1, 4, &idx, &st).unwrap(),
            "a base is the bare image"
        );
        assert_eq!(kind_of(&base_img), Some(Kind::Base));

        // Nothing changed: the delta stores no extent at all.
        let (same, none) = encode_checkpoint(2, 4, &idx, &st, Some(&base)).unwrap();
        assert!(none.is_none(), "an unchanged index is a delta");
        assert_eq!(kind_of(&same), Some(Kind::Delta { base: 1 }));
        assert_eq!(u64::from_le_bytes(same[40..48].try_into().unwrap()), 0);
        assert!(same.len() < base_img.len());

        // A drifted refine: the delta stores the new extents only.
        let mut drifted = idx.clone();
        drifted.refine(
            &g,
            &Workload::parse(&g, &["movie.title", "title"]).unwrap(),
            0.5,
        );
        let (delta, none) = encode_checkpoint(3, 5, &drifted, &st, Some(&base)).unwrap();
        assert!(none.is_none());
        let full = encode(3, 5, &drifted, &st).unwrap();
        assert!(
            delta.len() < full.len(),
            "{} vs {}",
            delta.len(),
            full.len()
        );

        assert!(matches!(
            decode(&delta, None),
            Err(PersistError::MissingBase { seq: 1 })
        ));
        let img = decode(&delta, Some(&base_img)).expect("delta over its base");
        assert_eq!((img.seq, img.generation, img.base), (3, 5, Some(1)));
        crate::update::extent_equivalent(&g, &drifted, &img.index).expect("same index");
        assert_eq!(encode(3, 5, &img.index, &img.monitor).unwrap(), full);
        // Unchanged extents are shared, not copied, between the images
        // a reader holds.
        let again = decode(&same, Some(&base_img)).unwrap();
        assert_eq!(
            encode(2, 4, &again.index, &again.monitor).unwrap(),
            encode(2, 4, &idx, &st).unwrap()
        );

        // Only the base it names will do: not another base, not a delta.
        let other = encode(9, 4, &idx, &st).unwrap();
        assert!(matches!(
            decode(&delta, Some(&other)),
            Err(PersistError::Corrupt(_))
        ));
        assert!(matches!(
            decode(&delta, Some(&same)),
            Err(PersistError::Corrupt(_))
        ));
        // Any prefix of a delta is refused as truncated.
        for cut in 0..delta.len() {
            assert!(matches!(
                decode(&delta[..cut], Some(&base_img)),
                Err(PersistError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn a_base_is_rewritten_once_less_than_half_of_it_is_live() {
        let (g, idx) = sample();
        let st = state(&g);
        let (_, base) = encode_checkpoint(1, 0, &idx, &st, None).unwrap();
        let base = base.unwrap();
        let live = base.pack_bytes;
        // A base none of whose extents is live any more: a delta over it
        // stores the whole index, so it may be at most as large again.
        let dead = |pack_bytes| Base {
            seq: 4,
            extents: HashMap::new(),
            pack_bytes,
        };
        assert!(encode_checkpoint(5, 0, &idx, &st, Some(&dead(live)))
            .unwrap()
            .1
            .is_none());
        let (_, next) = encode_checkpoint(5, 0, &idx, &st, Some(&dead(live + 1))).unwrap();
        assert_eq!(next.map(|b| (b.seq, b.pack_bytes)), Some((5, live)));
    }

    #[test]
    fn a_name_two_contents_share_is_never_merged() {
        let (g, idx) = sample();
        let st = state(&g);
        let ga = idx.graph();
        let (a, b) = (&ga.node(XNodeId(0)).extent, &ga.node(XNodeId(1)).extent);
        assert_ne!(a, b);
        // A base that holds other content under a live extent's name
        // (a collision, forced): no delta may name it, so the
        // checkpoint is a new base.
        let (_, base) = encode_checkpoint(1, 0, &idx, &st, None).unwrap();
        let mut base = base.unwrap();
        assert!(encode_checkpoint(2, 0, &idx, &st, Some(&base))
            .unwrap()
            .1
            .is_none());
        base.extents.insert(a.content_hash(), Arc::clone(b));
        let (image, next) = encode_checkpoint(2, 0, &idx, &st, Some(&base)).unwrap();
        assert_eq!(kind_of(&image), Some(Kind::Base));
        assert_eq!(next.map(|b| b.seq), Some(2));
    }

    #[test]
    fn a_pack_out_of_first_use_order_is_refused() {
        let (g, idx) = sample();
        let good = encode(1, 0, &idx, &state(&g)).unwrap();
        // Swap the extent hashes of the first two nodes with different
        // extents: every name still resolves, but not in pack order.
        let ga = idx.graph();
        let (a, b) = (ga.node(XNodeId(0)), ga.node(XNodeId(1)));
        assert_ne!(a.extent.content_hash(), b.extent.content_hash());
        let pack = u64::from_le_bytes(good[40..48].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(good[48 + pack..52 + pack].try_into().unwrap()) as usize;
        let node0 = 48 + pack + 4 + STORED_BYTES * stored + 8;
        let node1 = node0 + MIN_XNODE_BYTES + EDGE_BYTES * a.edges.len();
        let mut bad = good.clone();
        bad[node0 + 4..node0 + 12].copy_from_slice(&b.extent.content_hash().to_le_bytes());
        bad[node1 + 4..node1 + 12].copy_from_slice(&a.extent.content_hash().to_le_bytes());
        assert!(matches!(decode(&bad, None), Err(PersistError::BadChecksum)));
        reseal(&mut bad);
        assert!(matches!(decode(&bad, None), Err(PersistError::Corrupt(_))));
        // An image that does not hash to its name is a checksum failure:
        // here the first frame's `min_node` of the first stored image.
        let mut flipped = good.clone();
        flipped[HEADER_BYTES + 8 + 4] ^= 1;
        assert!(matches!(
            decode(&flipped, None),
            Err(PersistError::BadChecksum)
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = b"NOTANIDX".to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            load(&mut buf.as_slice()),
            Err(PersistError::BadMagic)
        ));
    }

    #[test]
    fn old_version_reports_version_mismatch_not_garbage() {
        // A v1 image began "APEXIDX1": same 7-byte magic, version byte
        // 0x31. It must be named a version problem, never decoded.
        let mut buf = b"APEXIDX1".to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            load(&mut buf.as_slice()),
            Err(PersistError::VersionMismatch { found: 0x31 })
        ));
    }

    #[test]
    fn future_version_rejected() {
        let (_, idx) = sample();
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        buf[7] = FORMAT_VERSION + 1;
        match load(&mut buf.as_slice()) {
            Err(PersistError::VersionMismatch { found }) => {
                assert_eq!(found, FORMAT_VERSION + 1)
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_reports_offset_at_every_cut() {
        // Any prefix of a valid image — a checkpoint here, so the
        // monitor tail is cut too — must fail cleanly: Truncated at an
        // offset no later than the cut, never a panic. (A prefix of a
        // valid image has a valid magic and version.)
        let (g, idx) = sample();
        let state = MonitorState {
            window: vec![LabelPath::parse(&g, "actor.name").unwrap(); 3],
            min_sup: 0.25,
            since_refresh: 3,
            total_recorded: 11,
        };
        let buf = encode(7, 2, &idx, &state).unwrap();
        for cut in 0..buf.len() {
            match decode(&buf[..cut], None) {
                Err(PersistError::Truncated { offset }) => {
                    assert!(offset <= cut as u64, "offset {offset} past cut {cut}")
                }
                Err(other) => panic!("cut {cut}: unexpected error {other:?}"),
                Ok(_) => panic!("cut {cut}: truncated image must not load"),
            }
        }
    }

    #[test]
    fn corruption_detected() {
        let (_, idx) = sample();
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        // Flip one byte in the middle.
        let mid = buf.len() / 2;
        buf[mid] ^= 0xFF;
        match load(&mut buf.as_slice()) {
            Err(_) => {}
            Ok(_) => panic!("corrupted file must not load"),
        }
    }

    #[test]
    fn truncation_detected() {
        let (_, idx) = sample();
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(load(&mut buf.as_slice()).is_err());
    }
}
