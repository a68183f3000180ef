//! Binary persistence for [`Apex`] indexes.
//!
//! The paper's system keeps its indexes "on a local disk"; this module
//! provides the corresponding save/load path: a versioned, checksummed,
//! dependency-free binary format for the full index state (`G_APEX`
//! nodes with extents and edges, the `H_APEX` entry tree, `xroot`).
//! An extent is written as the block image it is held as in memory, so
//! the bytes resident, persisted and scanned by the kernels are the
//! same bytes and `save ∘ load ∘ save` is the identity.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "APEXIDX" | u8 version (= 3) | u32 xroot
//! u32 n_xnodes
//!   per node: u32 incoming(+1; 0 = none)
//!             u32 image_len | BlockExtent::to_bytes image
//!             u32 n_edges  | (u32 label, u32 target)*
//! u32 n_hnodes
//!   per hnode: u32 remainder(+1; 0 = none)
//!              u32 n_entries | (u32 label, u32 count, u8 new,
//!                               u32 xnode(+1), u32 next(+1))*
//! u64 fnv1a checksum of everything above
//! ```
//!
//! One format, one reader: images of version 2 (raw pairs) and 1 (magic
//! `APEXIDX1`) load as [`PersistError::VersionMismatch`]. A truncated
//! stream reports the offset it died at ([`PersistError::Truncated`]);
//! an extent image that is not an encoder output for strictly
//! increasing pairs ([`BlockExtent::check`]) is
//! [`PersistError::Corrupt`] even under a valid checksum. No input
//! panics the loader (`core::recover` is a `panic-reachability` root).

use std::io::{self, Read, Write};

use apex_storage::{BlockExtent, SuccinctExtent};
use xmlgraph::LabelId;

use crate::graph::{GApex, XNodeId};
use crate::hashtree::{Entry, HNodeId, HashTree};
use crate::index::Apex;

const MAGIC: &[u8; 7] = b"APEXIDX";

/// Current format version, written after the magic.
pub const FORMAT_VERSION: u8 = 3;

/// Errors from loading a persisted index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic header (not an APEX image at all).
    BadMagic,
    /// Recognized magic, unsupported format version.
    VersionMismatch {
        /// The version byte found in the image.
        found: u8,
    },
    /// The stream ended early; `offset` is how many bytes decoded
    /// cleanly before the end.
    Truncated {
        /// Bytes consumed before the stream ran out.
        offset: u64,
    },
    /// Checksum mismatch (corrupted file).
    BadChecksum,
    /// Structurally invalid content (e.g. out-of-range ids).
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

/// Incrementally updated FNV-1a hasher for the trailing checksum.
/// Shared with `core::recover`, whose snapshot envelope hashes each
/// section (and the section table) the same way.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte slice (the snapshot section hash).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// Writer wrapper that checksums everything it emits.
struct Sink<'a, W: Write> {
    w: &'a mut W,
    hash: Fnv,
}

impl<W: Write> Sink<'_, W> {
    fn bytes(&mut self, b: &[u8]) -> io::Result<()> {
        self.hash.update(b);
        self.w.write_all(b)
    }
    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.bytes(&[v])
    }
    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }
}

/// Reader wrapper that checksums everything it consumes and tracks the
/// byte offset, so a truncated stream reports where it died.
struct Source<'a, R: Read> {
    r: &'a mut R,
    hash: Fnv,
    offset: u64,
}

impl<R: Read> Source<'_, R> {
    fn bytes(&mut self, buf: &mut [u8]) -> Result<(), PersistError> {
        if let Err(e) = self.r.read_exact(buf) {
            return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
                PersistError::Truncated {
                    offset: self.offset,
                }
            } else {
                PersistError::Io(e)
            });
        }
        self.offset += buf.len() as u64;
        self.hash.update(buf);
        Ok(())
    }
    /// A `u32`-length-prefixed blob; the buffer grows with the bytes
    /// that arrive, never from the (possibly hostile) length itself.
    fn blob(&mut self) -> Result<Vec<u8>, PersistError> {
        let len = self.u32()? as u64;
        let mut buf = Vec::new();
        (&mut *self.r).take(len).read_to_end(&mut buf)?;
        if (buf.len() as u64) < len {
            return Err(PersistError::Truncated {
                offset: self.offset,
            });
        }
        self.offset += len;
        self.hash.update(&buf);
        Ok(buf)
    }
    fn u8(&mut self) -> Result<u8, PersistError> {
        let mut b = [0u8; 1];
        self.bytes(&mut b)?;
        Ok(u8::from_le_bytes(b))
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        let mut b = [0u8; 4];
        self.bytes(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
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

/// Serializes `apex` to `w`.
pub fn save<W: Write>(apex: &Apex, w: &mut W) -> io::Result<()> {
    let mut s = Sink {
        w,
        hash: Fnv::new(),
    };
    s.bytes(MAGIC)?;
    s.u8(FORMAT_VERSION)?;
    s.u32(apex.xroot().0)?;

    // G_APEX.
    let ga = apex.graph();
    s.u32(ga.allocated() as u32)?;
    for i in 0..ga.allocated() as u32 {
        let node = ga.node(XNodeId(i));
        s.u32(node.incoming.map_or(0, |l| l.0 + 1))?;
        let image = node.extent.image().to_bytes();
        s.u32(image.len() as u32)?;
        s.bytes(&image)?;
        s.u32(node.edges.len() as u32)?;
        for &(l, t) in &node.edges {
            s.u32(l.0)?;
            s.u32(t.0)?;
        }
    }

    // H_APEX.
    let ht = apex.hash_tree();
    let n_hnodes = ht.allocated();
    s.u32(n_hnodes as u32)?;
    for i in 0..n_hnodes as u32 {
        let hnode = ht.node(HNodeId(i));
        s.u32(opt_plus1(hnode.remainder))?;
        let mut entries: Vec<(LabelId, Entry)> = hnode.entries_iter().collect();
        entries.sort_by_key(|(l, _)| *l); // deterministic output
        s.u32(entries.len() as u32)?;
        for (label, e) in entries {
            s.u32(label.0)?;
            s.u32(e.count)?;
            s.u8(e.new as u8)?;
            s.u32(opt_plus1(e.xnode))?;
            s.u32(opt_plus1(e.next))?;
        }
    }

    let checksum = s.hash.finish();
    s.w.write_all(&checksum.to_le_bytes())
}

/// Deserializes an index from `r`.
pub fn load<R: Read>(r: &mut R) -> Result<Apex, PersistError> {
    let mut s = Source {
        r,
        hash: Fnv::new(),
        offset: 0,
    };
    let mut magic = [0u8; 7];
    s.bytes(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = s.u8()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::VersionMismatch { found: version });
    }
    let xroot = XNodeId(s.u32()?);

    // G_APEX.
    let n_xnodes = s.u32()? as usize;
    if n_xnodes > (1 << 28) {
        return Err(PersistError::Corrupt("implausible node count"));
    }
    let mut ga = GApex::new();
    for _ in 0..n_xnodes {
        let incoming = match s.u32()? {
            0 => None,
            v => Some(LabelId(v - 1)),
        };
        let x = ga.new_node(incoming);
        let image = BlockExtent::from_bytes(&s.blob()?)
            .filter(BlockExtent::check)
            .ok_or(PersistError::Corrupt(
                "extent image is not an encoder output",
            ))?;
        ga.node_mut(x).extent = SuccinctExtent::build(image);
        let n_edges = s.u32()? as usize;
        for _ in 0..n_edges {
            let l = LabelId(s.u32()?);
            let t = XNodeId(s.u32()?);
            ga.node_mut(x).edges.push((l, t));
        }
    }
    if xroot.0 as usize >= n_xnodes {
        return Err(PersistError::Corrupt("xroot out of range"));
    }
    for i in 0..n_xnodes as u32 {
        for &(_, t) in &ga.node(XNodeId(i)).edges {
            if t.0 as usize >= n_xnodes {
                return Err(PersistError::Corrupt("edge target out of range"));
            }
        }
    }

    // H_APEX.
    let n_hnodes = s.u32()? as usize;
    if n_hnodes == 0 || n_hnodes > (1 << 28) {
        return Err(PersistError::Corrupt("implausible hash-tree size"));
    }
    let mut ht = HashTree::with_nodes(n_hnodes);
    for i in 0..n_hnodes as u32 {
        let remainder = match s.u32()? {
            0 => None,
            v => Some(XNodeId(v - 1)),
        };
        ht.set_remainder_raw(HNodeId(i), remainder);
        let n_entries = s.u32()? as usize;
        for _ in 0..n_entries {
            let label = LabelId(s.u32()?);
            let count = s.u32()?;
            let new = s.u8()? != 0;
            let xnode = match s.u32()? {
                0 => None,
                v => Some(XNodeId(v - 1)),
            };
            let next = match s.u32()? {
                0 => None,
                v => {
                    let h = HNodeId(v - 1);
                    if (h.0 as usize) >= n_hnodes {
                        return Err(PersistError::Corrupt("hnode link out of range"));
                    }
                    Some(h)
                }
            };
            ht.insert_entry_raw(
                HNodeId(i),
                label,
                Entry {
                    count,
                    new,
                    xnode,
                    next,
                },
            );
        }
    }

    let computed = s.hash.finish();
    let mut tail = [0u8; 8];
    s.bytes(&mut tail)?;
    if u64::from_le_bytes(tail) != computed {
        return Err(PersistError::BadChecksum);
    }

    Ok(Apex::from_parts(ga, ht, xroot))
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
        // Any prefix of a valid image must fail cleanly: Truncated with
        // the exact offset where the bytes ran out (or BadMagic /
        // VersionMismatch for cuts inside the header) — never a panic.
        let (_, idx) = sample();
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        let step = (buf.len() / 97).max(1);
        for cut in (0..buf.len()).step_by(step) {
            match load(&mut &buf[..cut]) {
                Err(PersistError::Truncated { offset }) => {
                    assert!(offset <= cut as u64, "offset {offset} past cut {cut}")
                }
                Err(PersistError::BadMagic | PersistError::VersionMismatch { .. }) => {
                    assert!(cut < 8, "header errors only for header cuts (cut={cut})")
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
