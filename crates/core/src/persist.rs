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
//! Format (little-endian):
//!
//! ```text
//! magic "APEXIDX" | u8 version (= 5) | u64 body_len | u64 seq | u64 generation
//! body (body_len bytes):
//!   u32 xroot
//!   u32 n_xnodes
//!     per node: u32 incoming(+1; 0 = none)
//!               u32 image_len | BlockExtent::write_to image
//!               u32 n_edges  | (u32 label, u32 target)*
//!   u32 n_hnodes
//!     per hnode: u32 remainder(+1; 0 = none)
//!                u32 n_entries | (u32 label, u32 count, u8 new,
//!                                 u32 xnode(+1), u32 next(+1))*   by label
//!   u64 min_sup bits | u64 since_refresh | u64 total_recorded
//!   u32 n_paths | (u32 len, u32 label*)*                           the window
//! u64 fnv1a of everything above
//! ```
//!
//! `seq` and `generation` pair a checkpoint with its WAL segment; a
//! bare index ([`save`]) is the same image with both 0 and an empty
//! monitor state, and either reader takes either file.
//!
//! The decoder verifies, then decodes: magic and version, then the
//! declared length against the bytes present, then the checksum over
//! every byte before it — only then is anything interpreted. Under a
//! valid checksum it still trusts nothing: each count is bounded by the
//! bytes that remain before anything is sized or looped from it, each
//! id is range-checked before it is minted (`xroot`, edge targets,
//! `H_APEX` `xnode`/`remainder` against `n_xnodes`; `next` against
//! `n_hnodes`, and only forward, so the tree is acyclic), entries must
//! ascend by label, and an extent image must be an encoder output
//! ([`BlockExtent::check`]). Older formats — `APEXIDX` versions 1–4 and
//! the `APEXSNAP` envelope that used to wrap them — are refused by name
//! ([`PersistError::VersionMismatch`], [`PersistError::BadMagic`]),
//! never decoded. No input panics the decoder (`core::recover` is a
//! `panic-reachability` root).

use std::io::{self, Read, Write};

use apex_storage::{BlockExtent, SuccinctExtent};
use xmlgraph::{LabelId, LabelPath};

use crate::graph::{GApex, XNodeId};
use crate::hashtree::{Entry, HNodeId, HashTree};
use crate::index::Apex;
use crate::monitor::MonitorState;

const MAGIC: &[u8; 7] = b"APEXIDX";

/// Current format version, written after the magic.
pub const FORMAT_VERSION: u8 = 5;

/// Magic, version, body length, seq, generation.
const HEADER_BYTES: usize = 7 + 1 + 8 + 8 + 8;
const CHECKSUM_BYTES: usize = 8;

// The fewest bytes one record of each counted kind occupies: what a
// count is divided into before anything is sized from it.
const MIN_XNODE_BYTES: usize = 4 + 4 + 8 + 4; // incoming, image_len, empty image, n_edges
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
    /// Checksum mismatch (corrupted file).
    BadChecksum,
    /// Structurally invalid content under a valid checksum (e.g.
    /// out-of-range ids).
    Corrupt(&'static str),
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
    /// The index.
    pub index: Apex,
    /// The captured monitor state.
    pub monitor: MonitorState,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
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

/// Encodes the image in one pass into one buffer.
pub(crate) fn encode(seq: u64, generation: u64, apex: &Apex, monitor: &MonitorState) -> Vec<u8> {
    let ga = apex.graph();
    let xnodes = (0..ga.allocated() as u32).map(|i| ga.node(XNodeId(i)));
    // The extents are nearly all of it: size the buffer once.
    let extents: usize = xnodes
        .clone()
        .map(|n| MIN_XNODE_BYTES + n.extent.image().image_bytes() + n.edges.len() * EDGE_BYTES)
        .sum();
    let mut out = Vec::with_capacity(HEADER_BYTES + extents + CHECKSUM_BYTES);
    out.extend_from_slice(MAGIC);
    out.push(FORMAT_VERSION);
    put64(&mut out, 0); // body_len, known once the body is written
    put64(&mut out, seq);
    put64(&mut out, generation);

    // G_APEX.
    put32(&mut out, apex.xroot().0);
    put32(&mut out, ga.allocated() as u32);
    for node in xnodes {
        put32(&mut out, node.incoming.map_or(0, |l| l.0 + 1));
        let image = node.extent.image();
        put32(&mut out, image.image_bytes() as u32);
        image.write_to(&mut out);
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
    let sum = fnv1a(&out);
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

/// Verifies and decodes one image.
pub(crate) fn decode(buf: &[u8]) -> Result<SnapshotImage, PersistError> {
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

    // Verify before decoding: the declared length against the bytes
    // present, then the checksum over every byte before it.
    let present = buf.len().checked_sub(HEADER_BYTES + CHECKSUM_BYTES);
    let Some(present) = present.filter(|&p| p as u64 >= body_len) else {
        return Err(PersistError::Truncated {
            offset: buf.len() as u64,
        });
    };
    if present as u64 > body_len {
        return Err(PersistError::Corrupt("bytes after the declared length"));
    }
    let (signed, sum) = buf.split_at(HEADER_BYTES + present);
    if fnv1a(signed).to_le_bytes() != sum {
        return Err(PersistError::BadChecksum);
    }
    let mut r = Reader {
        buf: signed,
        at: HEADER_BYTES,
    };

    // G_APEX.
    let xroot = r.u32()? as usize;
    let n_xnodes = r.count(MIN_XNODE_BYTES)?;
    if xroot >= n_xnodes {
        return Err(PersistError::Corrupt("xroot out of range"));
    }
    let mut ga = GApex::new();
    for _ in 0..n_xnodes {
        let x = ga.new_node(r.u32()?.checked_sub(1).map(LabelId));
        let image_len = r.u32()? as usize;
        let extent = BlockExtent::from_bytes(r.take(image_len)?)
            .and_then(SuccinctExtent::open)
            .ok_or(PersistError::Corrupt(
                "extent image is not an encoder output",
            ))?;
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
    if r.at != signed.len() {
        return Err(PersistError::Corrupt("bytes after the monitor state"));
    }

    Ok(SnapshotImage {
        seq,
        generation,
        index: Apex::from_parts(ga, ht, XNodeId(xroot as u32)),
        monitor: MonitorState {
            window,
            min_sup,
            since_refresh,
            total_recorded,
        },
    })
}

/// Writes `apex` to `w` as a bare index image: `seq` and `generation`
/// 0, empty monitor state.
pub fn save<W: Write>(apex: &Apex, w: &mut W) -> io::Result<()> {
    w.write_all(&encode(0, 0, apex, &MonitorState::default()))
}

/// Reads an index from `r` — a [`save`]d file or a checkpoint, whose
/// index it returns.
pub fn load<R: Read>(r: &mut R) -> Result<Apex, PersistError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    Ok(decode(&buf)?.index)
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
        let buf = encode(7, 2, &idx, &state);
        for cut in 0..buf.len() {
            match decode(&buf[..cut]) {
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
