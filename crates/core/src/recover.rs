//! Crash recovery: verified snapshots + WAL tail replay.
//!
//! A durability directory (see [`crate::wal`]) holds numbered WAL
//! segments and snapshot checkpoints. [`recover`] rebuilds the serving
//! state from it:
//!
//! 1. **Repair** — stale `snap-*.apex.tmp` files (an interrupted
//!    checkpoint that never reached its rename) are removed; they were
//!    never committed, so deleting them is always safe.
//! 2. **Snapshot selection** — committed snapshots are tried newest
//!    first; each must *verify* before it is served: envelope intact,
//!    version supported, every section hash and the root hash over the
//!    section table matching, and the embedded index image passing
//!    `persist::load`'s own checksum. A snapshot that fails is rejected
//!    with a named [`SnapshotReject`] reason and recovery falls back to
//!    the previous one (paying for it with a longer replay). No
//!    snapshot at all falls back to [`Apex::build_initial`] — a pure
//!    replay of the full log, which is also the harness's from-scratch
//!    oracle (`use_snapshots: false`).
//! 3. **Replay** — WAL segments are scanned in sequence order. Every
//!    complete frame is decoded (and counted toward
//!    [`crate::wal::Stats::balanced`]); frames in segments at or after
//!    the chosen snapshot's sequence are *applied*: a `Query` record
//!    re-records into the monitor, a `Swap` record re-runs the drain
//!    and — for a non-empty window — the deterministic refine, bumping
//!    the generation exactly as the live publish did. A torn final
//!    frame is detected by its length/CRC framing, truncated (and
//!    physically repaired when `repair` is set), never decoded.
//!
//! The recovered index is extent-equivalent to the live index at the
//! crash point because the log captures the full record/drain sequence
//! in serialization order and `Apex::refine` is a deterministic
//! function of (index, window, minSup) — the update-equivalence
//! property tests/crash_recovery.rs re-proves at hundreds of seeded
//! crash points.
//!
//! Snapshot envelope (little-endian):
//!
//! ```text
//! magic "APEXSNAP" | u32 version (= 1) | u64 seq | u64 generation
//! u32 n_sections
//!   per section: u32 tag | u64 len | u64 fnv1a(payload)
//! u64 root hash = fnv1a(section table bytes)
//! section payloads, in table order
//!     tag 1 = index image (persist::save bytes, own internal checksum)
//!     tag 2 = monitor window (u32 n, then per path u32 len + u32 labels)
//!     tag 3 = monitor meta (u64 min_sup bits, u64 since_refresh,
//!             u64 total_recorded)
//! ```
//!
//! The two-level hash (per-section + root over the table) is the
//! Merkle-style integrity scheme: a bit flip anywhere is caught by its
//! section hash, a spliced/reordered table by the root hash, and a
//! truncated file by the declared lengths — each with a distinct named
//! rejection.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use apex_storage::Cost;
use xmlgraph::{LabelId, LabelPath, XmlGraph};

use crate::index::Apex;
use crate::monitor::{MonitorState, RefreshPolicy, WorkloadMonitor};
use crate::persist::{self, PersistError};
use crate::wal::{self, list_segments, list_snapshots, CrashPlan, Record, WalError};

const SNAP_MAGIC: &[u8; 8] = b"APEXSNAP";

/// Snapshot envelope version.
pub const SNAP_VERSION: u32 = 1;

const SEC_INDEX: u32 = 1;
const SEC_WINDOW: u32 = 2;
const SEC_META: u32 = 3;

/// Largest snapshot envelope recovery will buffer (1 GiB) — a sanity
/// cap so a corrupt length cannot drive allocation.
const MAX_SECTION: u64 = 1 << 30;

/// Why a snapshot was refused — the named reasons the golden corruption
/// tests assert on.
#[derive(Debug)]
pub enum SnapshotReject {
    /// File could not be read at all.
    Unreadable(io::Error),
    /// The envelope ended early at this byte offset.
    Truncated {
        /// Bytes consumed before the envelope ran out.
        offset: u64,
    },
    /// Not a snapshot file.
    BadMagic,
    /// Recognized magic, unsupported envelope version.
    Version {
        /// The version found in the envelope.
        found: u32,
    },
    /// Structurally implausible envelope (bad counts/lengths).
    BadEnvelope(&'static str),
    /// The root hash over the section table does not match.
    RootHash,
    /// One section's content hash does not match.
    SectionHash {
        /// The tag of the failing section.
        tag: u32,
    },
    /// The embedded index image failed `persist::load`.
    Index(PersistError),
    /// The monitor window section failed to decode.
    Window(&'static str),
}

impl std::fmt::Display for SnapshotReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotReject::Unreadable(e) => write!(f, "unreadable: {e}"),
            SnapshotReject::Truncated { offset } => {
                write!(f, "truncated after {offset} bytes")
            }
            SnapshotReject::BadMagic => write!(f, "bad magic"),
            SnapshotReject::Version { found } => {
                write!(f, "unsupported envelope version {found}")
            }
            SnapshotReject::BadEnvelope(what) => write!(f, "bad envelope: {what}"),
            SnapshotReject::RootHash => write!(f, "root hash mismatch"),
            SnapshotReject::SectionHash { tag } => {
                write!(f, "section {tag} hash mismatch")
            }
            SnapshotReject::Index(e) => write!(f, "index section rejected: {e}"),
            SnapshotReject::Window(what) => write!(f, "window section rejected: {what}"),
        }
    }
}

/// A verified, decoded snapshot.
#[derive(Debug)]
pub struct SnapshotImage {
    /// Checkpoint sequence number (pairs with the WAL segment opened at
    /// the same rotation).
    pub seq: u64,
    /// Generation of the index at capture time.
    pub generation: u64,
    /// The index.
    pub index: Apex,
    /// The captured monitor state.
    pub monitor: MonitorState,
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

/// Encodes a snapshot envelope from the serving state. The caller must
/// have captured `state` and rotated the WAL (`Wal::begin_checkpoint`)
/// under the same monitor lock so `seq` and the state agree.
pub fn encode_snapshot(
    seq: u64,
    generation: u64,
    index: &Apex,
    state: &MonitorState,
) -> io::Result<Vec<u8>> {
    let mut index_bytes = Vec::new();
    persist::save(index, &mut index_bytes)?;
    envelope(seq, generation, &index_bytes, state)
}

/// The envelope around an already serialized index image.
fn envelope(
    seq: u64,
    generation: u64,
    index_bytes: &[u8],
    state: &MonitorState,
) -> io::Result<Vec<u8>> {
    let mut window_bytes = Vec::new();
    window_bytes.extend_from_slice(&(state.window.len() as u32).to_le_bytes());
    for p in &state.window {
        window_bytes.extend_from_slice(&(p.labels().len() as u32).to_le_bytes());
        for l in p.labels() {
            window_bytes.extend_from_slice(&l.0.to_le_bytes());
        }
    }

    let mut meta_bytes = Vec::new();
    meta_bytes.extend_from_slice(&state.min_sup.to_bits().to_le_bytes());
    meta_bytes.extend_from_slice(&state.since_refresh.to_le_bytes());
    meta_bytes.extend_from_slice(&state.total_recorded.to_le_bytes());

    let sections: [(u32, &[u8]); 3] = [
        (SEC_INDEX, index_bytes),
        (SEC_WINDOW, &window_bytes),
        (SEC_META, &meta_bytes),
    ];

    let mut table = Vec::new();
    for (tag, payload) in &sections {
        table.extend_from_slice(&tag.to_le_bytes());
        table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        table.extend_from_slice(&persist::fnv1a(payload).to_le_bytes());
    }
    let root = persist::fnv1a(&table);

    let mut out = Vec::new();
    out.extend_from_slice(SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    out.write_all(&table)?;
    out.extend_from_slice(&root.to_le_bytes());
    for (_, payload) in &sections {
        out.extend_from_slice(payload);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decode / verify
// ---------------------------------------------------------------------------

/// Byte cursor that reports the offset it died at — arbitrary input
/// must never panic this module (`core::recover` is a
/// `panic-reachability` root).
struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotReject> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(SnapshotReject::BadEnvelope("length overflow"))?;
        let Some(bytes) = self.buf.get(self.at..end) else {
            return Err(SnapshotReject::Truncated {
                offset: self.at as u64,
            });
        };
        self.at = end;
        Ok(bytes)
    }

    fn u32(&mut self) -> Result<u32, SnapshotReject> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    fn u64(&mut self) -> Result<u64, SnapshotReject> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

/// Verifies and decodes one snapshot envelope from bytes.
pub fn decode_snapshot(buf: &[u8]) -> Result<SnapshotImage, SnapshotReject> {
    let mut cur = Cur { buf, at: 0 };
    let magic = cur.take(SNAP_MAGIC.len())?;
    if magic != SNAP_MAGIC {
        return Err(SnapshotReject::BadMagic);
    }
    let version = cur.u32()?;
    if version != SNAP_VERSION {
        return Err(SnapshotReject::Version { found: version });
    }
    let seq = cur.u64()?;
    let generation = cur.u64()?;
    let n_sections = cur.u32()?;
    if n_sections == 0 || n_sections > 16 {
        return Err(SnapshotReject::BadEnvelope("implausible section count"));
    }

    let table_start = cur.at;
    let mut sections: Vec<(u32, u64, u64)> = Vec::with_capacity(n_sections as usize);
    for _ in 0..n_sections {
        let tag = cur.u32()?;
        let len = cur.u64()?;
        let hash = cur.u64()?;
        if len > MAX_SECTION {
            return Err(SnapshotReject::BadEnvelope("implausible section length"));
        }
        sections.push((tag, len, hash));
    }
    let table_bytes = buf
        .get(table_start..cur.at)
        .ok_or(SnapshotReject::BadEnvelope("table span"))?;
    let root = cur.u64()?;
    if persist::fnv1a(table_bytes) != root {
        return Err(SnapshotReject::RootHash);
    }

    let mut index = None;
    let mut window = None;
    let mut meta = None;
    for &(tag, len, hash) in &sections {
        let payload = cur.take(len as usize)?;
        if persist::fnv1a(payload) != hash {
            return Err(SnapshotReject::SectionHash { tag });
        }
        match tag {
            SEC_INDEX => {
                index = Some(persist::load(&mut &payload[..]).map_err(SnapshotReject::Index)?)
            }
            SEC_WINDOW => window = Some(decode_window(payload)?),
            SEC_META => meta = Some(decode_meta(payload)?),
            _ => {} // unknown-but-verified sections are skippable (forward compat)
        }
    }
    let Some(index) = index else {
        return Err(SnapshotReject::BadEnvelope("missing index section"));
    };
    let Some(window) = window else {
        return Err(SnapshotReject::BadEnvelope("missing window section"));
    };
    let Some((min_sup, since_refresh, total_recorded)) = meta else {
        return Err(SnapshotReject::BadEnvelope("missing meta section"));
    };
    Ok(SnapshotImage {
        seq,
        generation,
        index,
        monitor: MonitorState {
            window,
            min_sup,
            since_refresh,
            total_recorded,
        },
    })
}

fn decode_window(payload: &[u8]) -> Result<Vec<LabelPath>, SnapshotReject> {
    let mut cur = Cur {
        buf: payload,
        at: 0,
    };
    let n = cur.u32().map_err(|_| SnapshotReject::Window("count"))?;
    if n as usize > payload.len() {
        return Err(SnapshotReject::Window("implausible path count"));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let len = cur
            .u32()
            .map_err(|_| SnapshotReject::Window("path length"))?;
        if len as usize > payload.len() {
            return Err(SnapshotReject::Window("implausible path length"));
        }
        let mut labels = Vec::with_capacity(len as usize);
        for _ in 0..len {
            labels.push(LabelId(
                cur.u32().map_err(|_| SnapshotReject::Window("label"))?,
            ));
        }
        out.push(LabelPath::new(labels));
    }
    if cur.at != payload.len() {
        return Err(SnapshotReject::Window("trailing bytes"));
    }
    Ok(out)
}

fn decode_meta(payload: &[u8]) -> Result<(f64, u64, u64), SnapshotReject> {
    let mut cur = Cur {
        buf: payload,
        at: 0,
    };
    let bits = cur
        .u64()
        .map_err(|_| SnapshotReject::Window("meta min_sup"))?;
    let since = cur
        .u64()
        .map_err(|_| SnapshotReject::Window("meta since"))?;
    let total = cur
        .u64()
        .map_err(|_| SnapshotReject::Window("meta total"))?;
    if cur.at != payload.len() {
        return Err(SnapshotReject::Window("meta trailing bytes"));
    }
    Ok((f64::from_bits(bits), since, total))
}

/// Reads and verifies one snapshot file.
pub fn load_snapshot(path: &Path) -> Result<SnapshotImage, SnapshotReject> {
    let buf = fs::read(path).map_err(SnapshotReject::Unreadable)?;
    decode_snapshot(&buf)
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Errors that abort recovery (snapshot problems never do — they demote
/// to the previous snapshot; only real I/O failures and a fired crash
/// plan stop the pass).
#[derive(Debug)]
pub enum RecoverError {
    /// Real I/O failure reading the durability directory.
    Io(io::Error),
    /// The [`CrashPlan`] fired mid-recovery (harness mode): the
    /// simulated process died again; re-run recovery to converge.
    Crashed,
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery io error: {e}"),
            RecoverError::Crashed => write!(f, "crash plan fired during recovery"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

impl From<WalError> for RecoverError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(e) => RecoverError::Io(e),
            WalError::Crashed | WalError::Wedged => RecoverError::Crashed,
        }
    }
}

/// Recovery configuration. Capacity/policy/min_sup configure the
/// rebuilt monitor (min_sup is the *starting* threshold; snapshot meta
/// and replayed `Swap` records override it as the history did).
#[derive(Debug, Clone)]
pub struct RecoverOptions {
    /// Monitor window capacity.
    pub capacity: usize,
    /// Initial support threshold.
    pub min_sup: f64,
    /// Refresh policy for the rebuilt monitor.
    pub policy: RefreshPolicy,
    /// `false` = ignore snapshots and replay the full log from
    /// [`Apex::build_initial`] — the harness's from-scratch oracle.
    pub use_snapshots: bool,
    /// Physically repair the directory: truncate torn segment tails,
    /// remove stale checkpoint temp files.
    pub repair: bool,
    /// Fault injection for crash-during-recovery testing.
    pub plan: CrashPlan,
}

impl Default for RecoverOptions {
    fn default() -> Self {
        RecoverOptions {
            capacity: 256,
            min_sup: 0.1,
            policy: RefreshPolicy::Manual,
            use_snapshots: true,
            repair: true,
            plan: CrashPlan::none(),
        }
    }
}

/// What one recovery pass did — the accounting half of
/// [`crate::wal::Stats::balanced`].
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Sequence of the snapshot served, `None` = from-scratch build.
    pub snapshot_seq: Option<u64>,
    /// Snapshots rejected (newest first), with the named reason.
    pub rejected: Vec<(u64, SnapshotReject)>,
    /// WAL segments scanned.
    pub segments_scanned: u64,
    /// Complete frames decoded across all segments (snapshot-covered
    /// ones included — this is the `replayed` term of the balance).
    pub replayed: u64,
    /// Records applied (those in segments at/after the snapshot).
    pub applied: u64,
    /// `Swap` records that re-ran a refine (non-empty window).
    pub applied_swaps: u64,
    /// Query records skipped because a label exceeded the graph's
    /// label space (a log from a different dataset).
    pub skipped_queries: u64,
    /// Segments that ended in a torn frame.
    pub truncated_segments: u64,
    /// Torn bytes discarded across all segments.
    pub truncated_bytes: u64,
    /// Stale checkpoint temp files removed.
    pub repaired_tmps: u64,
    /// Total WAL bytes on disk before repair.
    pub wal_bytes: u64,
    /// Logical read cost of the pass (pages, via the storage page
    /// model) — what `bench recovery` reports as replay I/O.
    pub cost: Cost,
}

/// The rebuilt serving state.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered index.
    pub index: Apex,
    /// The recovered monitor (no WAL attached yet — attach the *new*
    /// life's WAL after opening it, so replay is never re-logged).
    pub monitor: WorkloadMonitor,
    /// Generation at the crash point (count of published swaps).
    pub generation: u64,
    /// Accounting.
    pub report: RecoveryReport,
}

/// Recovers the serving state from a durability directory. An empty or
/// missing directory yields a fresh `build_initial` state at
/// generation 0 — first boot and recovery are the same code path.
pub fn recover(dir: &Path, g: &XmlGraph, opts: &RecoverOptions) -> Result<Recovered, RecoverError> {
    let mut report = RecoveryReport::default();

    if opts.repair {
        report.repaired_tmps = wal::remove_stale_tmps(dir, &opts.plan)? as u64;
    }

    // Newest verifying snapshot wins; every newer reject is recorded.
    let mut base: Option<SnapshotImage> = None;
    if opts.use_snapshots {
        let mut snaps = list_snapshots(dir)?;
        snaps.reverse();
        for (seq, path) in snaps {
            match load_snapshot(&path) {
                Ok(img) => {
                    base = Some(img);
                    break;
                }
                Err(why) => report.rejected.push((seq, why)),
            }
        }
    }

    let mut monitor = WorkloadMonitor::new(opts.capacity.max(1), opts.min_sup, opts.policy);
    let (mut index, mut generation, apply_from) = match base {
        Some(img) => {
            monitor.restore_state(&img.monitor);
            report.snapshot_seq = Some(img.seq);
            (img.index, img.generation, img.seq)
        }
        None => (Apex::build_initial(g), 0, 0),
    };

    for (seq, path) in list_segments(dir)? {
        let scan = wal::read_segment(&path, &mut report.cost)?;
        report.segments_scanned += 1;
        report.replayed += scan.records.len() as u64;
        report.wal_bytes += scan.consumed + scan.torn_bytes;
        if scan.torn_bytes > 0 {
            report.truncated_segments += 1;
            report.truncated_bytes += scan.torn_bytes;
            if opts.repair {
                wal::repair_tail(&path, scan.consumed, &opts.plan)?;
            }
        }
        if seq < apply_from {
            continue; // covered by the snapshot; counted, not applied
        }
        for rec in &scan.records {
            match rec {
                Record::Query(p) => {
                    if p.labels().iter().any(|l| l.0 as usize >= g.label_count()) {
                        report.skipped_queries += 1;
                        continue;
                    }
                    monitor.record(p.clone());
                    report.applied += 1;
                }
                Record::Swap { min_sup, window: _ } => {
                    monitor.set_min_sup(*min_sup);
                    let (wl, min_sup) = monitor.drain_for_refresh();
                    if !wl.is_empty() {
                        index.refine(g, &wl, min_sup);
                        generation += 1;
                        report.applied_swaps += 1;
                    }
                    report.applied += 1;
                }
            }
        }
    }

    Ok(Recovered {
        index,
        monitor,
        generation,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{DurabilityConfig, Wal};
    use std::path::PathBuf;
    use std::sync::Arc;
    use xmlgraph::builder::moviedb;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("apex-rec-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn path(g: &XmlGraph, s: &str) -> LabelPath {
        LabelPath::parse(g, s).unwrap()
    }

    fn opts() -> RecoverOptions {
        RecoverOptions {
            capacity: 64,
            min_sup: 0.2,
            ..RecoverOptions::default()
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let g = moviedb();
        let mut idx = Apex::build_initial(&g);
        let wl = crate::Workload::parse(&g, &["actor.name", "actor.name"]).unwrap();
        idx.refine(&g, &wl, 0.2);
        let state = MonitorState {
            window: vec![path(&g, "actor.name"), path(&g, "movie.title")],
            min_sup: 0.25,
            since_refresh: 2,
            total_recorded: 9,
        };
        let bytes = encode_snapshot(7, 3, &idx, &state).unwrap();
        let img = decode_snapshot(&bytes).unwrap();
        assert_eq!(img.seq, 7);
        assert_eq!(img.generation, 3);
        assert_eq!(img.monitor, state);
        assert!(crate::update::extent_equivalent(&g, &idx, &img.index).is_ok());
    }

    #[test]
    fn empty_dir_is_first_boot() {
        let g = moviedb();
        let dir = tmpdir("empty");
        let rec = recover(&dir, &g, &opts()).unwrap();
        assert_eq!(rec.generation, 0);
        assert_eq!(rec.report.replayed, 0);
        assert!(rec.report.snapshot_seq.is_none());
        let scratch = Apex::build_initial(&g);
        assert!(crate::update::extent_equivalent(&g, &rec.index, &scratch).is_ok());
    }

    #[test]
    fn replay_reconverges_without_snapshot() {
        let g = moviedb();
        let dir = tmpdir("replay");
        let mut live = Apex::build_initial(&g);
        {
            let wal =
                Arc::new(Wal::open(&dir, DurabilityConfig::default(), CrashPlan::none()).unwrap());
            let mut m = WorkloadMonitor::new(64, 0.2, RefreshPolicy::Manual);
            m.attach_wal(Arc::clone(&wal));
            for _ in 0..6 {
                m.record(path(&g, "actor.name"));
            }
            m.refresh(&g, &mut live);
            for _ in 0..6 {
                m.record(path(&g, "director.movie"));
            }
            m.refresh(&g, &mut live);
            wal.sync().unwrap();
            let st = wal.stats();
            assert_eq!(st.appended, 14); // 12 queries + 2 swaps
        }
        let rec = recover(&dir, &g, &opts()).unwrap();
        assert_eq!(rec.report.replayed, 14);
        assert_eq!(rec.report.applied_swaps, 2);
        assert_eq!(rec.generation, 2);
        assert!(crate::update::extent_equivalent(&g, &rec.index, &live).is_ok());
        assert!(crate::validate::check(&g, &rec.index).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_shortens_replay_and_matches_full_replay() {
        let g = moviedb();
        let dir = tmpdir("snap");
        let mut live = Apex::build_initial(&g);
        let wal =
            Arc::new(Wal::open(&dir, DurabilityConfig::default(), CrashPlan::none()).unwrap());
        let mut m = WorkloadMonitor::new(64, 0.2, RefreshPolicy::Manual);
        m.attach_wal(Arc::clone(&wal));
        for _ in 0..6 {
            m.record(path(&g, "actor.name"));
        }
        m.refresh(&g, &mut live);
        // Checkpoint the state so far (generation 1 after one refine).
        let token = wal.begin_checkpoint().unwrap();
        let image = encode_snapshot(token.seq(), 1, &live, &m.durable_state()).unwrap();
        wal.commit_checkpoint(token, &image).unwrap();
        // More traffic after the checkpoint.
        for _ in 0..6 {
            m.record(path(&g, "director.movie"));
        }
        m.refresh(&g, &mut live);
        wal.sync().unwrap();

        let rec = recover(&dir, &g, &opts()).unwrap();
        assert_eq!(rec.report.snapshot_seq, Some(1));
        assert_eq!(rec.report.applied, 7); // 6 queries + 1 swap after the checkpoint
        assert_eq!(rec.generation, 2);
        assert!(crate::update::extent_equivalent(&g, &rec.index, &live).is_ok());

        // The from-scratch oracle agrees.
        let oracle = recover(
            &dir,
            &g,
            &RecoverOptions {
                use_snapshots: false,
                ..opts()
            },
        )
        .unwrap();
        assert!(oracle.report.snapshot_seq.is_none());
        assert_eq!(oracle.generation, 2);
        assert!(crate::update::extent_equivalent(&g, &rec.index, &oracle.index).is_ok());
        assert_eq!(
            rec.monitor.durable_state(),
            oracle.monitor.durable_state(),
            "snapshot path and pure replay agree on monitor state"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The first bytes of an index image written by format version 2
    /// (raw pairs): magic, version, xroot 0, one node — incoming none,
    /// visited 0, one pair <NULL, 0>, no edges.
    const GOLDEN_V2_HEAD: [u8; 33] = [
        b'A', b'P', b'E', b'X', b'I', b'D', b'X', 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0,
        0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0,
    ];

    #[test]
    fn snapshot_of_an_older_index_format_is_rejected_by_name_and_replayed_around() {
        // The one reader names the old format instead of decoding it …
        assert!(matches!(
            persist::load(&mut GOLDEN_V2_HEAD.as_slice()),
            Err(PersistError::VersionMismatch { found: 2 })
        ));
        // … also inside a well-formed envelope (every hash verifies),
        // here checkpointed before any traffic.
        let g = moviedb();
        let dir = tmpdir("oldfmt");
        let mut live = Apex::build_initial(&g);
        let wal =
            Arc::new(Wal::open(&dir, DurabilityConfig::default(), CrashPlan::none()).unwrap());
        let mut m = WorkloadMonitor::new(64, 0.2, RefreshPolicy::Manual);
        m.attach_wal(Arc::clone(&wal));
        let token = wal.begin_checkpoint().unwrap();
        let seq = token.seq();
        let old = envelope(seq, 0, &GOLDEN_V2_HEAD, &m.durable_state()).unwrap();
        assert!(matches!(
            decode_snapshot(&old),
            Err(SnapshotReject::Index(PersistError::VersionMismatch {
                found: 2
            }))
        ));
        wal.commit_checkpoint(token, &old).unwrap();
        for _ in 0..6 {
            m.record(path(&g, "actor.name"));
        }
        m.refresh(&g, &mut live);
        wal.sync().unwrap();

        let rec = recover(&dir, &g, &opts()).unwrap();
        assert!(rec.report.snapshot_seq.is_none(), "fell back to a build");
        assert!(matches!(
            rec.report.rejected.as_slice(),
            [(s, SnapshotReject::Index(PersistError::VersionMismatch { found: 2 }))] if *s == seq
        ));
        assert_eq!(rec.generation, 1);
        assert!(crate::update::extent_equivalent(&g, &rec.index, &live).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_falls_back_with_named_reason() {
        let g = moviedb();
        let idx = Apex::build_initial(&g);
        let state = MonitorState {
            window: vec![path(&g, "actor.name")],
            min_sup: 0.2,
            since_refresh: 1,
            total_recorded: 1,
        };
        let good = encode_snapshot(3, 0, &idx, &state).unwrap();

        // Bit flip in a payload section → SectionHash.
        let mut flipped = good.clone();
        let n = flipped.len();
        flipped[n - 10] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&flipped),
            Err(SnapshotReject::SectionHash { .. })
        ));

        // Truncated tail → Truncated with offset.
        let cut = good.len() - 12;
        match decode_snapshot(&good[..cut]) {
            Err(SnapshotReject::Truncated { offset }) => assert!(offset <= cut as u64),
            other => panic!("expected Truncated, got {other:?}"),
        }

        // Wrong root hash (flip inside the table) → RootHash.
        let mut bad_root = good.clone();
        bad_root[SNAP_MAGIC.len() + 4 + 8 + 8 + 4 + 2] ^= 0xFF; // inside first table entry
        assert!(matches!(
            decode_snapshot(&bad_root),
            Err(SnapshotReject::RootHash)
        ));

        // Wrong version → Version { found }.
        let mut bad_ver = good;
        bad_ver[8] = 9;
        assert!(matches!(
            decode_snapshot(&bad_ver),
            Err(SnapshotReject::Version { found: 9 })
        ));
    }
}
