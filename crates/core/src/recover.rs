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
//!    one durable image of [`crate::persist`] — the same format the
//!    shell's `save` writes, with the checkpoint's `seq`, `generation`
//!    and monitor state filled in — either a base or a delta read
//!    against the base snapshot it names, and its decoder checks
//!    declared lengths and checksums before it decodes anything. A
//!    snapshot that fails (or whose base does) is rejected with a named
//!    [`PersistError`] and recovery falls back to the previous one
//!    (paying for it with a longer replay). No snapshot at all falls back to
//!    [`Apex::build_initial`] — a pure replay of the full log, which is
//!    also the harness's from-scratch oracle (`use_snapshots: false`).
//!    A point whose log was pruned is never served: a snapshot older
//!    than the log's first segment is not tried, and with no snapshot
//!    and no whole log recovery stops with [`RecoverError::LogPruned`]
//!    rather than rebuild a state that diverged.
//! 3. **Replay** — the live WAL segments are scanned in sequence order,
//!    after the retired ones (`wal-NNNNNN.old`) from the chosen point on
//!    when it is older than the live log. Every complete frame is
//!    decoded (and a live one counted toward
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
//! Which snapshots and how much log a directory keeps is decided here
//! too ([`commit_snapshot`]), so that `retain` recovery points share no
//! snapshot file: one corrupt base costs one point, not every delta.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::fs;
use std::io;
use std::path::Path;

use apex_storage::Cost;
use xmlgraph::XmlGraph;

use crate::index::Apex;
use crate::monitor::{MonitorState, RefreshPolicy, WorkloadMonitor};
use crate::persist::{self, Kind, PersistError};
use crate::wal::{
    self, list_retired, list_segments, list_snapshots, CheckpointToken, CrashPlan, Record,
    Retention, Wal, WalError,
};

pub use crate::persist::SnapshotImage;

/// Encodes a base snapshot of the serving state. The caller must have
/// captured `state` and rotated the WAL (`Wal::begin_checkpoint`) under
/// the same monitor lock so `seq` and the state agree.
pub fn encode_snapshot(
    seq: u64,
    generation: u64,
    index: &Apex,
    state: &MonitorState,
) -> io::Result<Vec<u8>> {
    persist::encode(seq, generation, index, state)
}

/// Phase two of a checkpoint of `index` and `state`, captured with
/// `token`'s rotation: encodes a delta over the last base image this
/// `wal` committed — while that base is still on disk and at least
/// half live (see [`crate::persist`]) — or a new base, commits it
/// through `wal`, and prunes the directory to its
/// [`crate::wal::DurabilityConfig::retain`] recovery points (the rule
/// is `retention`'s). Checkpoints through one `wal` commit one at a
/// time.
pub fn commit_snapshot(
    wal: &Wal,
    token: CheckpointToken,
    generation: u64,
    index: &Apex,
    state: &MonitorState,
) -> Result<u64, WalError> {
    let mut base = wal.base_image();
    let on_disk = base
        .as_ref()
        .filter(|b| wal::snapshot_path(wal.dir(), b.seq).exists());
    let (image, next) = persist::encode_checkpoint(token.seq(), generation, index, state, on_disk)?;
    let seq = wal.commit_checkpoint(token, &image)?;
    if next.is_some() {
        *base = next;
    }
    let retain = wal.config().retain;
    if retain > 0 {
        wal.prune(&retention(wal.dir(), retain)?)?;
    }
    Ok(seq)
}

/// What pruning keeps so that `retain` recovery points share no
/// snapshot file. A recovery point is a snapshot — read with the base
/// it stands on when it is a delta — and the log after it, or, with no
/// snapshot, the whole log replayed over [`Apex::build_initial`]. The
/// newest `retain` snapshots are points; while they stand on fewer than
/// `retain` bases, the newest snapshot on each next older base is one
/// too, and with too few bases the whole log is kept. A point's log
/// stays; the part behind the newest `retain` snapshots is retired.
/// Headers are read, not verified: a header that lies belongs to a
/// snapshot that fails its checksum, and costs that point alone.
fn retention(dir: &Path, retain: usize) -> io::Result<Retention> {
    let snaps = list_snapshots(dir)?
        .into_iter()
        .map(|(seq, path)| Ok((seq, persist::kind_of_file(&path)?)))
        .collect::<io::Result<Vec<_>>>()?;
    let is_base = |seq: u64| snaps.contains(&(seq, Some(Kind::Base)));
    let live_from = snaps.len().saturating_sub(retain);
    let (mut snapshots, mut bases, mut log_from) = (Vec::new(), Vec::new(), 0);
    for (i, &(seq, kind)) in snaps.iter().enumerate().rev() {
        let stands_on = match kind {
            Some(Kind::Base) => Some(seq),
            Some(Kind::Delta { base }) if is_base(base) => Some(base),
            _ => None,
        };
        let new_base = stands_on.filter(|b| !bases.contains(b));
        if i < live_from && (new_base.is_none() || bases.len() >= retain) {
            continue;
        }
        snapshots.push(seq);
        log_from = seq;
        if let Some(b) = new_base {
            bases.push(b);
            snapshots.push(b);
        }
    }
    Ok(Retention {
        snapshots,
        live_from: snaps.get(live_from).map_or(0, |&(seq, _)| seq),
        log_from: if bases.len() < retain { 0 } else { log_from },
    })
}

/// Reads and verifies one snapshot file — a delta against the base
/// image it names, read from the same directory.
pub fn load_snapshot(path: &Path) -> Result<SnapshotImage, PersistError> {
    let buf = fs::read(path)?;
    let Some(Kind::Delta { base: seq }) = persist::kind_of(&buf) else {
        return persist::decode(&buf, None);
    };
    let dir = path.parent().unwrap_or(Path::new("."));
    let base =
        fs::read(wal::snapshot_path(dir, seq)).map_err(|_| PersistError::MissingBase { seq })?;
    persist::decode(&buf, Some(&base))
}

/// Errors that abort recovery (snapshot problems never do — they demote
/// to the previous snapshot; only real I/O failures, a fired crash plan
/// and a log with no point left to replay from stop the pass).
#[derive(Debug)]
pub enum RecoverError {
    /// Real I/O failure reading the durability directory.
    Io(io::Error),
    /// The [`CrashPlan`] fired mid-recovery (harness mode): the
    /// simulated process died again; re-run recovery to converge.
    Crashed,
    /// No snapshot the log reaches back to could be served, and the log
    /// no longer starts at the first checkpoint: any state rebuilt from
    /// it would differ from the one that was served.
    LogPruned {
        /// The oldest segment on disk.
        first: u64,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "recovery io error: {e}"),
            RecoverError::Crashed => write!(f, "crash plan fired during recovery"),
            RecoverError::LogPruned { first } => write!(
                f,
                "no snapshot could be served and the log before segment {first} was pruned"
            ),
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
    /// Complete frames decoded across the live segments
    /// (snapshot-covered ones included — this is the `replayed` term of
    /// the balance; frames of retired segments are the writer's
    /// `pruned`).
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
    // The log, retired or live, starts at its first segment: a snapshot
    // older than that cannot be replayed forward and is not tried.
    let live = list_segments(dir)?;
    let retired = list_retired(dir)?;
    let first_log = retired.first().or(live.first()).map(|(s, _)| *s);
    let mut base: Option<SnapshotImage> = None;
    if opts.use_snapshots {
        for (seq, path) in list_snapshots(dir)?.into_iter().rev() {
            if first_log.is_some_and(|first| seq < first) {
                break;
            }
            match load_snapshot(&path) {
                Ok(img) => {
                    base = Some(img);
                    break;
                }
                Err(why) => report.rejected.push((seq, why)),
            }
        }
    }
    let apply_from = base.as_ref().map_or(0, |img| img.seq);
    if let Some(first) = first_log.filter(|&first| first > apply_from) {
        return Err(RecoverError::LogPruned { first });
    }

    let mut monitor = WorkloadMonitor::new(opts.capacity.max(1), opts.min_sup, opts.policy);
    let (mut index, mut generation) = match base {
        Some(img) => {
            monitor.restore_state(&img.monitor);
            report.snapshot_seq = Some(img.seq);
            (img.index, img.generation)
        }
        None => (Apex::build_initial(g), 0),
    };

    // Retired segments are read only from a point older than the live
    // log; their records are the writer's `pruned`, so they are applied
    // but not counted as replayed.
    let retired = retired.into_iter().filter(|&(seq, _)| seq >= apply_from);
    let segments = retired
        .map(|s| (s, false))
        .chain(live.into_iter().map(|s| (s, true)));
    for ((seq, path), in_live_log) in segments {
        let scan = wal::read_segment(&path, &mut report.cost)?;
        report.segments_scanned += 1;
        if in_live_log {
            report.replayed += scan.records.len() as u64;
        }
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
        let img = persist::decode(&bytes, None).unwrap();
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
        let img = persist::decode(&bare, None).unwrap();
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

    /// Format version 5 (whole-image checksum, extents inline in the
    /// node records): magic, version, body length 88, seq 1,
    /// generation 0, then xroot 0 and one node — incoming none, a
    /// 28-byte image of one frame.
    const GOLDEN_V5_HEAD: [u8; 48] = [
        b'A', b'P', b'E', b'X', b'I', b'D', b'X', 5, 88, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 28, 0, 0, 0,
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
        let heads: [(&[u8], Expect); 5] = [
            (&GOLDEN_V2_HEAD, |e| {
                matches!(e, PersistError::VersionMismatch { found: 2 })
            }),
            (&GOLDEN_V3_HEAD, |e| {
                matches!(e, PersistError::VersionMismatch { found: 3 })
            }),
            (&GOLDEN_V4_HEAD, |e| {
                matches!(e, PersistError::VersionMismatch { found: 4 })
            }),
            (&GOLDEN_V5_HEAD, |e| {
                matches!(e, PersistError::VersionMismatch { found: 5 })
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

    /// One serving epoch through the durable path: four recorded
    /// queries, a refresh, a checkpoint. Returns the checkpoint's seq.
    fn epoch(
        g: &XmlGraph,
        wal: &Wal,
        m: &mut WorkloadMonitor,
        live: &mut Apex,
        gen: &mut u64,
    ) -> u64 {
        for _ in 0..4 {
            m.record(path(g, "actor.name"));
        }
        m.refresh(g, live);
        *gen += 1;
        let token = wal.begin_checkpoint().unwrap();
        commit_snapshot(wal, token, *gen, live, &m.durable_state()).unwrap()
    }

    fn seqs(files: Vec<(u64, PathBuf)>) -> Vec<u64> {
        files.into_iter().map(|(s, _)| s).collect()
    }

    /// Flips one skeleton bit of snapshot `seq`; returns its bytes.
    fn corrupt(dir: &Path, seq: u64) -> Vec<u8> {
        let file = wal::snapshot_path(dir, seq);
        let good = fs::read(&file).unwrap();
        let mut bad = good.clone();
        let n = bad.len();
        bad[n - 9] ^= 1;
        fs::write(&file, bad).unwrap();
        good
    }

    #[test]
    fn retention_keeps_points_that_share_no_snapshot_file() {
        let g = moviedb();
        let dir = tmpdir("retain");
        let cfg = DurabilityConfig {
            group_commit: 1,
            checkpoint_every: 0,
            retain: 2,
        };
        let kinds = || -> Vec<Option<Kind>> {
            let snaps = list_snapshots(&dir).unwrap();
            snaps
                .iter()
                .map(|(_, p)| persist::kind_of_file(p).unwrap())
                .collect()
        };

        // First life: a base, then deltas over it, each smaller. The
        // newest two stand on one base, so the whole log stays — the
        // part behind them retired, which a recovery that needs no
        // fallback does not read.
        let wal = Arc::new(Wal::open(&dir, cfg, CrashPlan::none()).unwrap());
        let (mut live, mut gen) = (Apex::build_initial(&g), 0);
        let mut m = WorkloadMonitor::new(64, 0.2, RefreshPolicy::Manual);
        m.attach_wal(Arc::clone(&wal));
        let b1 = epoch(&g, &wal, &mut m, &mut live, &mut gen);
        let d2 = epoch(&g, &wal, &mut m, &mut live, &mut gen);
        let d3 = epoch(&g, &wal, &mut m, &mut live, &mut gen);
        let delta = Some(Kind::Delta { base: b1 });
        assert_eq!(kinds(), vec![Some(Kind::Base), delta, delta]);
        let len = |seq| fs::metadata(wal::snapshot_path(&dir, seq)).unwrap().len();
        assert!(len(d3) < len(b1), "{} vs {}", len(d3), len(b1));
        assert_eq!(seqs(list_snapshots(&dir).unwrap()), vec![b1, d2, d3]);
        assert_eq!(
            seqs(list_retired(&dir).unwrap()),
            (0..d2).collect::<Vec<_>>()
        );
        assert_eq!(seqs(list_segments(&dir).unwrap()), vec![d2, d3]);
        let clean = recover(&dir, &g, &opts()).unwrap();
        assert_eq!(clean.report.snapshot_seq, Some(d3));
        assert_eq!(clean.report.segments_scanned, 2);
        assert!(wal.stats().after_recovery(clean.report.replayed).balanced());

        // A corrupt base refuses itself and both deltas; the whole log
        // rebuilds the state, and the books still balance.
        let good = corrupt(&dir, b1);
        let rec = recover(&dir, &g, &opts()).unwrap();
        assert_eq!(rec.report.snapshot_seq, None);
        let rejected: Vec<u64> = rec.report.rejected.iter().map(|(s, _)| *s).collect();
        assert_eq!(rejected, vec![d3, d2, b1]);
        assert_eq!(rec.generation, gen);
        assert!(crate::update::extent_equivalent(&g, &rec.index, &live).is_ok());
        assert!(wal.stats().after_recovery(rec.report.replayed).balanced());
        fs::write(wal::snapshot_path(&dir, b1), good).unwrap();
        drop((m, wal));

        // Second life: its writer starts a new base. Two bases make two
        // points; the older is the newest snapshot on the first base,
        // and only the log after it stays.
        let rec = recover(&dir, &g, &opts()).unwrap();
        let (mut live, mut gen, mut m) = (rec.index, rec.generation, rec.monitor);
        let wal = Arc::new(Wal::open(&dir, cfg, CrashPlan::none()).unwrap());
        m.attach_wal(Arc::clone(&wal));
        let b5 = epoch(&g, &wal, &mut m, &mut live, &mut gen);
        let d6 = epoch(&g, &wal, &mut m, &mut live, &mut gen);
        assert_eq!(seqs(list_snapshots(&dir).unwrap()), vec![b1, d3, b5, d6]);
        assert_eq!(
            seqs(list_retired(&dir).unwrap()),
            (d3..b5).collect::<Vec<_>>()
        );
        assert_eq!(seqs(list_segments(&dir).unwrap()), vec![b5, d6]);
        let good = corrupt(&dir, b5);
        let rec = recover(&dir, &g, &opts()).unwrap();
        assert_eq!(rec.report.snapshot_seq, Some(d3));
        assert_eq!(rec.generation, gen);
        assert!(crate::update::extent_equivalent(&g, &rec.index, &live).is_ok());

        // Without its base a delta is refused by name; with no point
        // left, recovery says so instead of replaying a pruned log.
        fs::remove_file(wal::snapshot_path(&dir, b1)).unwrap();
        assert!(matches!(
            load_snapshot(&wal::snapshot_path(&dir, d3)),
            Err(PersistError::MissingBase { seq }) if seq == b1
        ));
        assert!(matches!(
            recover(&dir, &g, &opts()),
            Err(RecoverError::LogPruned { first }) if first == d3
        ));
        fs::write(wal::snapshot_path(&dir, b5), good).unwrap();

        // A writer whose base is gone writes a base again.
        fs::remove_file(wal::snapshot_path(&dir, b5)).unwrap();
        let seq = epoch(&g, &wal, &mut m, &mut live, &mut gen);
        let kind = persist::kind_of_file(&wal::snapshot_path(&dir, seq)).unwrap();
        assert_eq!(kind, Some(Kind::Base));
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
        let tampered = |at: usize, mask: u8| {
            let mut bad = good.clone();
            bad[at] ^= mask;
            persist::decode(&bad, None)
        };

        // A bit flip anywhere past the length word — body, header
        // fields (seq here), the checksum itself — is BadChecksum.
        for at in [good.len() - 10, 16, good.len() - 1] {
            assert!(matches!(tampered(at, 0x01), Err(PersistError::BadChecksum)));
        }

        // Truncated tail → Truncated with offset.
        let cut = good.len() - 12;
        match persist::decode(&good[..cut], None) {
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
            persist::decode(&long, None),
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
