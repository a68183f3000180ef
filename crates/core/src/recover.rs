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
//!    first; each must *verify* before it is served. A snapshot is the
//!    one durable image of [`crate::persist`] — the same file the
//!    shell's `save` writes, with the checkpoint's `seq`, `generation`
//!    and monitor state filled in — and its decoder checks declared
//!    length and checksum before it decodes anything. A snapshot that
//!    fails is rejected with a named [`PersistError`] and recovery
//!    falls back to the previous one (paying for it with a longer
//!    replay). No snapshot at all falls back to
//!    [`Apex::build_initial`] — a pure replay of the full log, which is
//!    also the harness's from-scratch oracle (`use_snapshots: false`).
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

use std::fs;
use std::io;
use std::path::Path;

use apex_storage::Cost;
use xmlgraph::XmlGraph;

use crate::index::Apex;
use crate::monitor::{MonitorState, RefreshPolicy, WorkloadMonitor};
use crate::persist::{self, PersistError};
use crate::wal::{self, list_segments, list_snapshots, CrashPlan, Record, WalError};

pub use crate::persist::SnapshotImage;

/// Encodes a snapshot of the serving state. The caller must have
/// captured `state` and rotated the WAL (`Wal::begin_checkpoint`) under
/// the same monitor lock so `seq` and the state agree.
pub fn encode_snapshot(
    seq: u64,
    generation: u64,
    index: &Apex,
    state: &MonitorState,
) -> io::Result<Vec<u8>> {
    Ok(persist::encode(seq, generation, index, state))
}

/// Verifies and decodes one snapshot from bytes.
pub fn decode_snapshot(buf: &[u8]) -> Result<SnapshotImage, PersistError> {
    persist::decode(buf)
}

/// Reads and verifies one snapshot file.
pub fn load_snapshot(path: &Path) -> Result<SnapshotImage, PersistError> {
    persist::decode(&fs::read(path)?)
}

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
    pub rejected: Vec<(u64, PersistError)>,
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
    /// model): replay I/O.
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
    use crate::persist::FORMAT_VERSION;
    use crate::wal::{DurabilityConfig, Wal};
    use std::path::PathBuf;
    use std::sync::Arc;
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

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
        // Encoding what was decoded gives the bytes back.
        let again = encode_snapshot(img.seq, img.generation, &img.index, &img.monitor).unwrap();
        assert_eq!(again, bytes);

        // One format: `persist::load` reads a checkpoint, and a saved
        // file decodes as a snapshot at seq 0, generation 0 with an
        // empty monitor state.
        let loaded = persist::load(&mut bytes.as_slice()).unwrap();
        assert!(crate::update::extent_equivalent(&g, &idx, &loaded).is_ok());
        let mut bare = Vec::new();
        persist::save(&idx, &mut bare).unwrap();
        let img = decode_snapshot(&bare).unwrap();
        assert_eq!((img.seq, img.generation), (0, 0));
        assert_eq!(img.monitor, MonitorState::default());
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

    /// Format version 3 (block images, no header fields): magic,
    /// version, xroot 0, one node — incoming none, a 30-byte image of
    /// one block with a 6-byte payload.
    const GOLDEN_V3_HEAD: [u8; 32] = [
        b'A', b'P', b'E', b'X', b'I', b'D', b'X', 3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 30, 0, 0,
        0, 1, 0, 0, 0, 6, 0, 0, 0,
    ];

    /// Format version 4 (varint block images): magic, version, body
    /// length 90, seq 1, generation 0, then xroot 0 and one node —
    /// incoming none, a 30-byte image of one block with a 6-byte
    /// payload.
    const GOLDEN_V4_HEAD: [u8; 48] = [
        b'A', b'P', b'E', b'X', b'I', b'D', b'X', 4, 90, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 30, 0, 0, 0,
    ];

    /// The version-1 snapshot envelope that used to wrap an index
    /// image: magic, u32 version, seq 1, generation 0, three sections.
    const GOLDEN_SNAP_V1_HEAD: [u8; 32] = [
        b'A', b'P', b'E', b'X', b'S', b'N', b'A', b'P', 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 3, 0, 0, 0,
    ];

    #[test]
    fn snapshot_of_an_older_index_format_is_rejected_by_name_and_replayed_around() {
        type Expect = fn(&PersistError) -> bool;
        let heads: [(&[u8], Expect); 4] = [
            (&GOLDEN_V2_HEAD, |e| {
                matches!(e, PersistError::VersionMismatch { found: 2 })
            }),
            (&GOLDEN_V3_HEAD, |e| {
                matches!(e, PersistError::VersionMismatch { found: 3 })
            }),
            (&GOLDEN_V4_HEAD, |e| {
                matches!(e, PersistError::VersionMismatch { found: 4 })
            }),
            (&GOLDEN_SNAP_V1_HEAD, |e| {
                matches!(e, PersistError::BadMagic)
            }),
        ];
        let g = moviedb();
        for (i, (old, named)) in heads.into_iter().enumerate() {
            // The one reader names the old format instead of decoding it …
            let why = persist::load(&mut &old[..]).expect_err("old format");
            assert!(named(&why), "head {i}: {why}");
            // … and so does recovery when it is the newest file of a
            // durability directory, here checkpointed before any traffic.
            let dir = tmpdir(&format!("oldfmt{i}"));
            let mut live = Apex::build_initial(&g);
            let wal =
                Arc::new(Wal::open(&dir, DurabilityConfig::default(), CrashPlan::none()).unwrap());
            let mut m = WorkloadMonitor::new(64, 0.2, RefreshPolicy::Manual);
            m.attach_wal(Arc::clone(&wal));
            let token = wal.begin_checkpoint().unwrap();
            let seq = token.seq();
            wal.commit_checkpoint(token, old).unwrap();
            for _ in 0..6 {
                m.record(path(&g, "actor.name"));
            }
            m.refresh(&g, &mut live);
            wal.sync().unwrap();

            let rec = recover(&dir, &g, &opts()).unwrap();
            assert!(rec.report.snapshot_seq.is_none(), "fell back to a build");
            assert!(matches!(
                rec.report.rejected.as_slice(),
                [(s, why)] if *s == seq && named(why)
            ));
            assert_eq!(rec.generation, 1);
            assert!(crate::update::extent_equivalent(&g, &rec.index, &live).is_ok());
            fs::remove_dir_all(&dir).unwrap();
        }
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
        let tampered = |at: usize, mask: u8| {
            let mut bad = good.clone();
            bad[at] ^= mask;
            decode_snapshot(&bad)
        };

        // A bit flip anywhere past the length word — body, header
        // fields (seq here), the checksum itself — is BadChecksum.
        for at in [good.len() - 10, 16, good.len() - 1] {
            assert!(matches!(tampered(at, 0x01), Err(PersistError::BadChecksum)));
        }

        // Truncated tail → Truncated with offset.
        let cut = good.len() - 12;
        match decode_snapshot(&good[..cut]) {
            Err(PersistError::Truncated { offset }) => assert!(offset <= cut as u64),
            other => panic!("expected Truncated, got {other:?}"),
        }

        // A declared length the file does not have: longer is
        // Truncated, shorter leaves bytes after the image.
        assert!(matches!(
            tampered(10, 0x01),
            Err(PersistError::Truncated { .. })
        ));
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(
            decode_snapshot(&long),
            Err(PersistError::Corrupt(_))
        ));

        // Wrong version → VersionMismatch { found }; wrong magic.
        assert!(matches!(
            tampered(7, FORMAT_VERSION ^ 9),
            Err(PersistError::VersionMismatch { found: 9 })
        ));
        assert!(matches!(tampered(0, 0x01), Err(PersistError::BadMagic)));
    }
}
