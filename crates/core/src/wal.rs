//! Write-ahead logging for the adaptive serving state.
//!
//! The paper's adapt loop is purely in-memory: every recorded query,
//! every `updateAPEX` refinement, and every `Refresher` swap is lost on
//! a process kill, and `persist::save` is a full blocking rewrite. This
//! module makes the serving state durable the standard way — *log the
//! intent, checkpoint the state, replay the tail*:
//!
//! * [`Record`] — the two workload deltas that determine the index
//!   deterministically: a recorded query ([`Record::Query`]) and a
//!   refinement event ([`Record::Swap`], one per monitor drain). The
//!   update-equivalence property (tests/update_equivalence.rs) is what
//!   makes this log *sufficient*: replaying the recorded queries into a
//!   fresh monitor and re-running the refine at each logged swap point
//!   reconverges on an index extent-equivalent to the live one.
//! * [`Wal`] — an appender over length-prefixed, CRC-framed records in
//!   numbered segment files (`wal-NNNNNN.log`), fsync'd on a
//!   configurable group-commit interval. Checkpoints rotate to a fresh
//!   segment and write a verified snapshot (see [`crate::recover`](mod@crate::recover)) —
//!   a base image, or a delta over the last base this writer
//!   committed — through a temp-file + atomic-rename protocol.
//!   Pruning carries out the retention [`crate::recover`](mod@crate::recover) decides: it
//!   deletes what no recovery point needs and retires segments only a
//!   fallback needs to `wal-NNNNNN.old`.
//! * [`CrashPlan`] — deterministic fault injection threaded through
//!   every byte the writer emits and every rename/fsync/truncate it
//!   performs. A plan "kills the process" at a seeded byte offset or at
//!   the n-th occurrence of a named [`CrashSite`]: the operation stops
//!   exactly where a `kill -9` would leave the disk, and every later
//!   operation on the same plan refuses to run. The crash-recovery
//!   harness (tests/crash_recovery.rs) drives hundreds of these points
//!   and proves recovery converges from each of them.
//! * [`Stats`] — the accounting contract. Every record the writer
//!   accepts must be accounted for by recovery:
//!   `appended == pruned + replayed + truncated_tail`
//!   ([`Stats::balanced`]); with pruning disabled (the harness default)
//!   this is exactly *appended = replayed + truncated tail*.
//!
//! Crash model: a process kill preserves every byte already handed to
//! `write(2)` and loses everything after; fsync sites exist so plans
//! can also die *inside* a flush. Frames are self-delimiting
//! (`u32 len | u32 crc32(payload) | payload`), so a torn tail is
//! detected by length or CRC and truncated on recovery, never decoded
//! as garbage.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use apex_storage::rank::{self, Guard, Rank};
use apex_storage::{Cost, PageModel};
use xmlgraph::{LabelId, LabelPath};

use crate::persist::Base;

/// Frames larger than this are treated as corruption, not allocated.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// One logged workload delta.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A query recorded into the workload monitor.
    Query(LabelPath),
    /// A monitor drain (the start of one refine cycle): the threshold
    /// the refine ran at and the drained window length (cross-checked
    /// on replay). Replaying a `Swap` re-runs the refine on the
    /// replayed window, which reconverges by update-equivalence.
    Swap {
        /// `minSup` the drain handed to the refine.
        min_sup: f64,
        /// Length of the drained window when the swap was logged.
        window: u32,
    },
}

const TAG_QUERY: u8 = 1;
const TAG_SWAP: u8 = 2;

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table generated at compile time — no dependencies.
// ---------------------------------------------------------------------------

#[expect(
    clippy::indexing_slicing,
    reason = "`i < 256` is the loop condition over a 256-entry table"
)]
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = ((c ^ b as u32) & 0xFF) as usize;
        // The table is 256 entries and the index is masked to 8 bits.
        let entry = CRC32.get(idx).copied().unwrap_or(0);
        c = entry ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Record encode / decode
// ---------------------------------------------------------------------------

impl Record {
    /// Encodes the payload (no frame header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Record::Query(path) => put_query(&mut out, path),
            Record::Swap { min_sup, window } => {
                out.push(TAG_SWAP);
                out.extend_from_slice(&min_sup.to_bits().to_le_bytes());
                out.extend_from_slice(&window.to_le_bytes());
            }
        }
        out
    }

    /// Encodes the full frame: `u32 len | u32 crc | payload`.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(&mut out, |o| o.extend_from_slice(&self.encode_payload()));
        out
    }

    /// Decodes one payload; `None` on any structural problem.
    pub fn decode_payload(payload: &[u8]) -> Option<Record> {
        let (&tag, rest) = payload.split_first()?;
        match tag {
            TAG_QUERY => {
                let (len_bytes, mut rest) = split_arr::<4>(rest)?;
                let n = u32::from_le_bytes(len_bytes) as usize;
                if rest.len() != n * 4 {
                    return None;
                }
                let mut labels = Vec::with_capacity(n);
                for _ in 0..n {
                    let (b, r) = split_arr::<4>(rest)?;
                    labels.push(LabelId(u32::from_le_bytes(b)));
                    rest = r;
                }
                Some(Record::Query(LabelPath::new(labels)))
            }
            TAG_SWAP => {
                let (ms, rest) = split_arr::<8>(rest)?;
                let (w, rest) = split_arr::<4>(rest)?;
                if !rest.is_empty() {
                    return None;
                }
                Some(Record::Swap {
                    min_sup: f64::from_bits(u64::from_le_bytes(ms)),
                    window: u32::from_le_bytes(w),
                })
            }
            _ => None,
        }
    }
}

/// A query's payload from the path alone: the hot record is logged
/// without a [`Record`] built for it.
fn put_query(out: &mut Vec<u8>, path: &LabelPath) {
    out.push(TAG_QUERY);
    out.extend_from_slice(&(path.labels().len() as u32).to_le_bytes());
    for l in path.labels() {
        out.extend_from_slice(&l.0.to_le_bytes());
    }
}

/// Rebuilds `out` as one frame around the payload `put` appends.
fn frame_into(out: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&[0; 8]);
    put(out);
    let payload = out.get(8..).unwrap_or_default();
    let head = (payload.len() as u32).to_le_bytes().into_iter();
    let head = head.chain(crc32(payload).to_le_bytes());
    out.iter_mut().zip(head).for_each(|(d, s)| *d = s);
}

fn split_arr<const N: usize>(b: &[u8]) -> Option<([u8; N], &[u8])> {
    if b.len() < N {
        return None;
    }
    let (head, rest) = b.split_at(N);
    let mut arr = [0u8; N];
    arr.copy_from_slice(head);
    Some((arr, rest))
}

/// Result of scanning a byte buffer for frames: the decoded prefix and
/// what the scan stopped on.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameScan {
    /// Records decoded, in log order — always a prefix of what was
    /// appended (CRC framing rejects anything torn or corrupted).
    pub records: Vec<Record>,
    /// Bytes consumed by complete, valid frames.
    pub consumed: u64,
    /// Trailing bytes discarded (torn frame, corrupt frame, garbage).
    pub torn_bytes: u64,
}

/// Decodes every complete valid frame from `buf`, stopping at the first
/// torn or corrupt frame. Never panics on arbitrary input; the decoded
/// sequence is always a prefix of the originally appended records.
pub fn decode_frames(buf: &[u8]) -> FrameScan {
    let mut records = Vec::new();
    let mut at = 0usize;
    while buf.len() - at >= 8 {
        let Some((len_b, _)) = buf.get(at..).and_then(split_arr::<4>) else {
            break;
        };
        let len = u32::from_le_bytes(len_b);
        if len > MAX_PAYLOAD {
            break;
        }
        let Some((crc_b, _)) = buf.get(at + 4..).and_then(split_arr::<4>) else {
            break;
        };
        let want = u32::from_le_bytes(crc_b);
        let Some(payload) = buf.get(at + 8..at + 8 + len as usize) else {
            break; // torn tail: frame extends past the durable bytes
        };
        if crc32(payload) != want {
            break;
        }
        let Some(rec) = Record::decode_payload(payload) else {
            break;
        };
        records.push(rec);
        at += 8 + len as usize;
    }
    FrameScan {
        records,
        consumed: at as u64,
        torn_bytes: (buf.len() - at) as u64,
    }
}

// ---------------------------------------------------------------------------
// Crash-point fault injection
// ---------------------------------------------------------------------------

/// Named non-byte crash points in the write/checkpoint/recovery paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// Inside an fsync (the flush was requested but never completed).
    Fsync,
    /// After the snapshot temp file is fully written, before the rename.
    BeforeRename,
    /// Immediately after the atomic rename, before directory sync /
    /// pruning.
    AfterRename,
    /// Recovery repair: before removing a stale snapshot temp file.
    BeforeTmpRemove,
    /// Recovery repair: before truncating the torn tail of the last
    /// segment.
    BeforeTruncate,
    /// Recovery repair: after the truncate, before anything else.
    AfterTruncate,
    /// Before pruning superseded snapshots / segments.
    BeforePrune,
}

impl CrashSite {
    /// All sites, for harness enumeration.
    pub const ALL: [CrashSite; 7] = [
        CrashSite::Fsync,
        CrashSite::BeforeRename,
        CrashSite::AfterRename,
        CrashSite::BeforeTmpRemove,
        CrashSite::BeforeTruncate,
        CrashSite::AfterTruncate,
        CrashSite::BeforePrune,
    ];

    fn idx(self) -> usize {
        match self {
            CrashSite::Fsync => 0,
            CrashSite::BeforeRename => 1,
            CrashSite::AfterRename => 2,
            CrashSite::BeforeTmpRemove => 3,
            CrashSite::BeforeTruncate => 4,
            CrashSite::AfterTruncate => 5,
            CrashSite::BeforePrune => 6,
        }
    }
}

/// The simulated kill: the plan decided the process dies here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crashed;

#[derive(Debug)]
struct PlanInner {
    /// Bytes the plan still allows to be written (byte-offset mode).
    budget: Mutex<Option<u64>>,
    /// Die at the n-th occurrence of this site (site mode).
    site: Option<(CrashSite, u64)>,
    /// Occurrence counters per site.
    seen: Mutex<[u64; 7]>,
    dead: AtomicBool,
}

/// Deterministic, seed-driven crash-point injector shared by a [`Wal`]
/// (and optionally a recovery pass). `CrashPlan::none()` never fires
/// and is free. Once a plan fires it is *dead*: every subsequent
/// charge or site check refuses, exactly like a killed process.
#[derive(Debug, Clone, Default)]
pub struct CrashPlan {
    inner: Option<Arc<PlanInner>>,
}

impl CrashPlan {
    /// A plan that never fires (production mode).
    pub fn none() -> CrashPlan {
        CrashPlan { inner: None }
    }

    /// Dies once `n` more logical bytes have been written through the
    /// plan (WAL frames and snapshot images both charge here). The
    /// fatal write lands a prefix on disk, exactly like a mid-write
    /// kill.
    pub fn after_bytes(n: u64) -> CrashPlan {
        CrashPlan {
            inner: Some(Arc::new(PlanInner {
                budget: Mutex::new(Some(n)),
                site: None,
                seen: Mutex::new([0; 7]),
                dead: AtomicBool::new(false),
            })),
        }
    }

    /// Dies at the `nth` (1-based) occurrence of `site`.
    pub fn at_site(site: CrashSite, nth: u64) -> CrashPlan {
        CrashPlan {
            inner: Some(Arc::new(PlanInner {
                budget: Mutex::new(None),
                site: Some((site, nth.max(1))),
                seen: Mutex::new([0; 7]),
                dead: AtomicBool::new(false),
            })),
        }
    }

    /// True once the plan has fired; the simulated process is dead.
    pub fn is_dead(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|p| p.dead.load(Ordering::Acquire))
    }

    /// Asks to write `want` bytes. Returns how many may be written; a
    /// return smaller than `want` means the plan fired mid-write (the
    /// caller writes the prefix, then dies). Errors immediately if the
    /// plan already fired.
    fn charge(&self, want: usize) -> Result<usize, Crashed> {
        let Some(p) = &self.inner else {
            return Ok(want);
        };
        if p.dead.load(Ordering::Acquire) {
            return Err(Crashed);
        }
        let mut budget = rank::lock(&p.budget, Rank::CrashPlan);
        match budget.as_mut() {
            None => Ok(want),
            Some(b) => {
                if *b >= want as u64 {
                    *b -= want as u64;
                    Ok(want)
                } else {
                    let allowed = *b as usize;
                    *b = 0;
                    p.dead.store(true, Ordering::Release);
                    Ok(allowed)
                }
            }
        }
    }

    /// Passes a named site; dies here if the plan targets it.
    fn site(&self, s: CrashSite) -> Result<(), Crashed> {
        let Some(p) = &self.inner else {
            return Ok(());
        };
        if p.dead.load(Ordering::Acquire) {
            return Err(Crashed);
        }
        let mut seen = rank::lock(&p.seen, Rank::CrashPlan);
        if let Some(slot) = seen.get_mut(s.idx()) {
            *slot += 1;
            if let Some((target, nth)) = p.site {
                if target == s && *slot == nth {
                    p.dead.store(true, Ordering::Release);
                    return Err(Crashed);
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Errors and stats
// ---------------------------------------------------------------------------

/// Errors from the write path.
#[derive(Debug)]
pub enum WalError {
    /// Real I/O failure.
    Io(std::io::Error),
    /// The [`CrashPlan`] fired: the simulated process is dead and the
    /// log must not be touched again through this handle.
    Crashed,
    /// A previous failure wedged this writer; appends are refused so a
    /// half-written tail is never extended.
    Wedged,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Crashed => write!(f, "crash plan fired (simulated kill)"),
            WalError::Wedged => write!(f, "wal wedged by a previous failure"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<Crashed> for WalError {
    fn from(_: Crashed) -> Self {
        WalError::Crashed
    }
}

/// Durability accounting. Writer-side counters are maintained by
/// [`Wal`]; `replayed` is filled in from a [`crate::recover()`] pass via
/// [`Stats::after_recovery`]. The contract every crash-harness run
/// asserts: `appended == pruned + replayed + truncated_tail` — with
/// pruning disabled (`retain == 0`, the harness default) this is the
/// literal *appended = replayed + truncated tail* balance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Records handed to [`Wal::append`] (including one that died
    /// mid-write).
    pub appended: u64,
    /// Frame bytes fully written.
    pub bytes_appended: u64,
    /// Records whose frame never fully reached disk (at most one per
    /// life: the one the process died inside).
    pub truncated_tail: u64,
    /// fsync calls completed.
    pub fsyncs: u64,
    /// Checkpoints committed (snapshot renamed into place).
    pub checkpoints: u64,
    /// Records whose segments left the live log at a prune: deleted, or
    /// retired to `wal-NNNNNN.old`, which recovery reads only to fall
    /// back behind the live log and never counts as replayed.
    pub pruned: u64,
    /// Complete frames read back by recovery (applied or
    /// snapshot-covered). Zero until [`Stats::after_recovery`].
    pub replayed: u64,
}

impl Stats {
    /// Folds a recovery report's replay count into the writer's stats.
    pub fn after_recovery(mut self, replayed: u64) -> Stats {
        self.replayed = replayed;
        self
    }

    /// The accounting invariant: every accepted record is either
    /// pruned by a committed checkpoint, read back by recovery, or was
    /// the torn tail.
    pub fn balanced(&self) -> bool {
        self.appended == self.pruned + self.replayed + self.truncated_tail
    }
}

/// Write-path configuration.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Records per fsync, N (≤ 1 = 1); the append that fills a batch
    /// fsyncs it, holding no lock. N = 1: no append returns `Ok` before
    /// an fsync that *started after its frame was written* completes
    /// (ack ⇒ durable); appenders arriving during one fsync share the
    /// next. N > 1: the filling append returns after its batch's fsync,
    /// the N − 1 before it at once; a full batch never overtakes an
    /// in-flight fsync (it waits, then leads), so at most 2N − 2
    /// acknowledged records are not yet durable (N − 1 with one appender).
    pub group_commit: usize,
    /// Checkpoint after this many published swaps (0 = only the final
    /// shutdown checkpoint).
    pub checkpoint_every: u64,
    /// Recovery points to keep that share no snapshot file (a base and
    /// the deltas over it count once; see
    /// [`crate::recover::commit_snapshot`]): the newest `retain`
    /// snapshots with the bases they stand on, older ones — and the log
    /// back to them — until `retain` bases are covered, and the whole
    /// log while fewer bases exist. Everything else is pruned. 0 = keep
    /// everything (the crash-harness setting, where the balance
    /// equation is exact).
    pub retain: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            group_commit: 16,
            checkpoint_every: 4,
            retain: 2,
        }
    }
}

// ---------------------------------------------------------------------------
// Directory layout helpers
// ---------------------------------------------------------------------------

/// `wal-NNNNNN.log` for segment `seq`.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.log"))
}

/// `snap-NNNNNN.apex` for checkpoint `seq`.
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:06}.apex"))
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

fn list_with(dir: &Path, prefix: &str, suffix: &str) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_seq(name, prefix, suffix) {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Segment files in `dir`, ascending by sequence number.
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    list_with(dir, "wal-", ".log")
}

/// `wal-NNNNNN.old` for segment `seq` once pruning retired it from the
/// live log.
fn retired_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:06}.old"))
}

/// Retired segment files in `dir`, ascending by sequence number.
pub fn list_retired(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    list_with(dir, "wal-", ".old")
}

/// Committed snapshot files in `dir`, ascending by sequence number.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    list_with(dir, "snap-", ".apex")
}

/// Stale snapshot temp files (an interrupted checkpoint's leftovers).
pub fn list_stale_tmps(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = list_with(dir, "snap-", ".apex.tmp")?
        .into_iter()
        .map(|(_, p)| p)
        .collect();
    out.sort();
    Ok(out)
}

/// Reads one segment fully and scans its frames, charging the read
/// volume to `cost` as logical page I/O (the recovery bench reports
/// replay cost in the same units as query evaluation).
pub fn read_segment(path: &Path, cost: &mut Cost) -> std::io::Result<FrameScan> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    let model = PageModel::default();
    cost.pages_read += model.pages_for_bytes(buf.len());
    Ok(decode_frames(&buf))
}

// ---------------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct WalInner {
    seg: Arc<File>,
    seg_seq: u64,
    /// Every frame is encoded into, and written from, this buffer.
    frame: Vec<u8>,
    /// Record counts: frames completely written; the batch boundary (a
    /// batch is full once `written − covered` reaches N); frames a
    /// *completed* fsync covers. `leader`: an fsync is in flight.
    written: u64,
    covered: u64,
    durable: u64,
    leader: bool,
    wedged: bool,
    stats: Stats,
}

/// Append-side handle over a durability directory. Shared via `Arc`
/// between the [`crate::WorkloadMonitor`] (which logs queries and
/// swaps as part of recording them) and the
/// [`crate::serve::Refresher`] (which checkpoints after swaps).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    cfg: DurabilityConfig,
    plan: CrashPlan,
    inner: Mutex<WalInner>,
    /// Signalled when a leader's fsync ends, either way.
    flushed: Condvar,
    /// The last base snapshot committed through this writer.
    base: Mutex<Option<Base>>,
}

/// The fsync a batch-filling [`Wal::log_query`] still owes, split off
/// so the caller can first release the lock that ordered the write.
/// Dropping it waits for, or leads, the fsync covering the record; a
/// failure wedges the log.
#[derive(Debug)]
pub struct Commit(Arc<Wal>, u64);

impl Drop for Commit {
    fn drop(&mut self) {
        let _ = self.0.settle(self.1);
    }
}

/// Proof that a checkpoint's segment rotation happened; carries the
/// checkpoint sequence number the snapshot must be encoded under.
#[derive(Debug)]
pub struct CheckpointToken {
    seq: u64,
}

impl CheckpointToken {
    /// The sequence number of this checkpoint (segment + snapshot).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl Wal {
    /// Opens `dir` for appending: creates it if missing and starts a
    /// fresh segment *after* every existing file, so a torn tail from
    /// a previous life is never extended.
    pub fn open(dir: &Path, cfg: DurabilityConfig, plan: CrashPlan) -> std::io::Result<Wal> {
        fs::create_dir_all(dir)?;
        let newest = [
            list_segments(dir)?,
            list_retired(dir)?,
            list_snapshots(dir)?,
        ]
        .iter()
        .filter_map(|files| files.last().map(|(s, _)| *s))
        .max();
        let seq = newest.map_or(0, |s| s + 1);
        let seg = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(dir, seq))?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            cfg,
            plan,
            inner: Mutex::new(WalInner {
                seg: Arc::new(seg),
                seg_seq: seq,
                frame: Vec::new(),
                written: 0,
                covered: 0,
                durable: 0,
                leader: false,
                wedged: false,
                stats: Stats::default(),
            }),
            flushed: Condvar::new(),
            base: Mutex::new(None),
        })
    }

    fn lock(&self) -> Guard<'_, WalInner> {
        // Appends are single frames; a panicking appender leaves the
        // wedged flag set before anything torn can be extended.
        rank::lock(&self.inner, Rank::WalLog)
    }

    /// The last base snapshot committed through this writer, which the
    /// next delta checkpoint may build on. A checkpoint holds it from
    /// encode to commit.
    pub(crate) fn base_image(&self) -> Guard<'_, Option<Base>> {
        rank::lock(&self.base, Rank::WalBase)
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The write-path configuration.
    pub fn config(&self) -> DurabilityConfig {
        self.cfg
    }

    /// Writer-side accounting so far.
    pub fn stats(&self) -> Stats {
        self.lock().stats.clone()
    }

    /// True once an append failed or the crash plan fired; later
    /// appends are refused.
    pub fn is_wedged(&self) -> bool {
        self.lock().wedged || self.plan.is_dead()
    }

    /// Appends one record ([`DurabilityConfig::group_commit`] states
    /// what `Ok` promises): writes the frame under the log lock; an
    /// append that fills a batch then waits for, or leads, its fsync
    /// with the lock released. A failed fsync wedges every appender.
    pub fn append(&self, rec: &Record) -> Result<(), WalError> {
        let payload = rec.encode_payload();
        match self.write_frame(|out| out.extend_from_slice(&payload))? {
            Some(me) => self.settle(me),
            None => Ok(()),
        }
    }

    /// Writes one frame; `Some(n)` when record `n` filled a batch and
    /// the caller owes [`Wal::settle`] for it.
    fn write_frame(&self, put: impl FnOnce(&mut Vec<u8>)) -> Result<Option<u64>, WalError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.wedged {
            return Err(WalError::Wedged);
        }
        if self.plan.is_dead() {
            inner.wedged = true;
            return Err(WalError::Crashed);
        }
        frame_into(&mut inner.frame, put);
        inner.stats.appended += 1;
        if let Err(e) = self.put(&inner.seg, &inner.frame) {
            // Died before or inside the frame, or an I/O error left an
            // unknown prefix on disk: the record is the torn tail.
            inner.stats.truncated_tail += 1;
            inner.wedged = true;
            return Err(e);
        }
        inner.stats.bytes_appended += inner.frame.len() as u64;
        inner.written += 1;
        let full = inner.written - inner.covered >= self.cfg.group_commit.max(1) as u64;
        Ok(full.then_some(inner.written))
    }

    /// Hands `frame` to `write(2)` — or, dying, the prefix the plan allows.
    fn put(&self, mut seg: &File, frame: &[u8]) -> Result<(), WalError> {
        let allowed = self.plan.charge(frame.len())?;
        seg.write_all(frame.get(..allowed).unwrap_or(frame))?;
        if allowed < frame.len() {
            return Err(WalError::Crashed);
        }
        Ok(())
    }

    /// Returns once record `me` is durable: waits out an in-flight
    /// leader, then leads the next fsync if that one did not cover `me`
    /// (moving the boundary by whole batches: contention stretches none).
    fn settle(&self, me: u64) -> Result<(), WalError> {
        let inner = self.idle()?;
        if inner.durable >= me {
            return Ok(());
        }
        let n = self.cfg.group_commit.max(1) as u64;
        let boundary = inner.written - (inner.written - inner.covered) % n;
        self.lead(inner, boundary)
    }

    /// Locks the log once no fsync is in flight; `Wedged` if one failed.
    fn idle(&self) -> Result<Guard<'_, WalInner>, WalError> {
        let mut inner = self.lock();
        while inner.leader {
            inner = rank::wait(&self.flushed, inner);
        }
        (!inner.wedged).then_some(inner).ok_or(WalError::Wedged)
    }

    /// Leads one fsync with the log lock released: claims every frame
    /// written so far and moves the batch boundary to `covered`.
    fn lead(&self, mut inner: Guard<'_, WalInner>, covered: u64) -> Result<(), WalError> {
        let (seg, upto) = (Arc::clone(&inner.seg), inner.written);
        inner.covered = covered;
        inner.leader = true;
        drop(inner);
        let res = self.fsync(&seg);
        let mut inner = self.lock();
        inner.leader = false;
        self.flushed.notify_all();
        inner.wedged |= res.is_err();
        res?;
        inner.durable = upto;
        inner.stats.fsyncs += 1;
        Ok(())
    }

    fn fsync(&self, seg: &File) -> Result<(), WalError> {
        self.plan.site(CrashSite::Fsync)?;
        Ok(seg.sync_data()?)
    }

    /// Forces an fsync of the current segment (after any in flight).
    pub fn sync(&self) -> Result<(), WalError> {
        let inner = self.idle()?;
        let upto = inner.written;
        self.lead(inner, upto)
    }

    /// Logs a recorded query; errors are absorbed into the wedged
    /// state (serving never panics on a durability failure — the
    /// harness reads it back via [`Wal::is_wedged`] / [`Wal::stats`]).
    /// `Some` when the record filled a batch: the [`Commit`] owes its fsync.
    pub fn log_query(self: &Arc<Wal>, path: &LabelPath) -> Option<Commit> {
        let filled = self.write_frame(|out| put_query(out, path)).ok()??;
        Some(Commit(Arc::clone(self), filled))
    }

    /// Logs a monitor drain (one refine cycle's start).
    pub fn log_swap(&self, min_sup: f64, window: usize) {
        let _ = self.append(&Record::Swap {
            min_sup,
            window: window.min(u32::MAX as usize) as u32,
        });
    }

    /// Phase one of a checkpoint: fsyncs and rotates to a fresh
    /// segment. Must be called while the caller holds whatever lock
    /// serializes record/drain traffic (the monitor lock), so the
    /// rotation point is consistent with the captured monitor state.
    /// Waits out an in-flight leader, then flushes what that left while
    /// *holding* the log lock: nothing lands between flush and rotation.
    pub fn begin_checkpoint(&self) -> Result<CheckpointToken, WalError> {
        let mut inner = self.idle()?;
        if inner.written > inner.durable {
            let res = self.fsync(&inner.seg);
            inner.wedged |= res.is_err();
            res?;
            inner.durable = inner.written;
            inner.stats.fsyncs += 1;
        }
        let seq = inner.seg_seq + 1;
        let seg = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(&self.dir, seq))?;
        inner.seg = Arc::new(seg);
        inner.seg_seq = seq;
        inner.covered = inner.written;
        Ok(CheckpointToken { seq })
    }

    /// Phase two: writes the encoded snapshot image through the
    /// temp-file + atomic-rename protocol. Called *outside* the monitor
    /// lock — appends proceed concurrently into the rotated segment.
    /// Nothing is pruned here: [`crate::recover::commit_snapshot`]
    /// decides the retention and has this writer carry it out.
    pub fn commit_checkpoint(&self, token: CheckpointToken, image: &[u8]) -> Result<u64, WalError> {
        let final_path = snapshot_path(&self.dir, token.seq);
        let tmp_path = self.dir.join(format!("snap-{:06}.apex.tmp", token.seq));
        {
            let mut tmp = File::create(&tmp_path)?;
            // Chunked so a byte-budget plan can die mid-image.
            for chunk in image.chunks(4096) {
                let allowed = self.or_wedge(self.plan.charge(chunk.len()))?;
                let prefix = chunk.get(..allowed).unwrap_or(chunk);
                if let Err(e) = tmp.write_all(prefix) {
                    self.lock().wedged = true;
                    return Err(WalError::Io(e));
                }
                if allowed < chunk.len() {
                    self.lock().wedged = true;
                    return Err(WalError::Crashed);
                }
            }
            self.or_wedge(self.plan.site(CrashSite::Fsync))?;
            tmp.sync_data()?;
            self.lock().stats.fsyncs += 1;
        }
        self.or_wedge(self.plan.site(CrashSite::BeforeRename))?;
        fs::rename(&tmp_path, &final_path)?;
        self.or_wedge(self.plan.site(CrashSite::AfterRename))?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.lock().stats.checkpoints += 1;
        Ok(token.seq)
    }

    /// A fired plan wedges the writer before the error is returned.
    fn or_wedge<T>(&self, passed: Result<T, Crashed>) -> Result<T, WalError> {
        passed.map_err(|Crashed| {
            self.lock().wedged = true;
            WalError::Crashed
        })
    }

    /// Carries out one [`Retention`]: deletes the snapshots it drops,
    /// takes the segments before its live log out of it — retired to
    /// `wal-NNNNNN.old` from `log_from` on, deleted before — crediting
    /// their records to [`Stats::pruned`], and deletes retired segments
    /// before `log_from`. A segment `seq` holds the records logged after
    /// checkpoint `seq`.
    pub(crate) fn prune(&self, keep: &Retention) -> Result<(), WalError> {
        self.or_wedge(self.plan.site(CrashSite::BeforePrune))?;
        for (seq, path) in list_snapshots(&self.dir)? {
            if !keep.snapshots.contains(&seq) {
                fs::remove_file(path)?;
            }
        }
        let mut retired = 0u64;
        for (seq, path) in list_segments(&self.dir)? {
            if seq >= keep.live_from {
                break;
            }
            retired += read_segment(&path, &mut Cost::new())?.records.len() as u64;
            if seq >= keep.log_from {
                fs::rename(&path, retired_path(&self.dir, seq))?;
            } else {
                fs::remove_file(&path)?;
            }
        }
        for (seq, path) in list_retired(&self.dir)? {
            if seq < keep.log_from {
                fs::remove_file(path)?;
            }
        }
        self.lock().stats.pruned += retired;
        Ok(())
    }
}

/// What one prune keeps. [`crate::recover`] decides it — it alone reads
/// snapshot headers — and [`Wal::prune`] carries it out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Retention {
    /// Snapshots that stay; every other one is deleted.
    pub(crate) snapshots: Vec<u64>,
    /// The live log, which every recovery reads: segments from this
    /// sequence on.
    pub(crate) live_from: u64,
    /// Segments from this sequence up to the live log stay as retired
    /// segments, read only by a recovery that falls back behind the
    /// live log; older ones are deleted.
    pub(crate) log_from: u64,
}

// ---------------------------------------------------------------------------
// Recovery repair helpers (called by crate::recover; they live here so
// every byte/site that touches the log flows through one CrashPlan).
// ---------------------------------------------------------------------------

/// Removes stale snapshot temp files left by an interrupted
/// checkpoint.
pub fn remove_stale_tmps(dir: &Path, plan: &CrashPlan) -> Result<usize, WalError> {
    let tmps = list_stale_tmps(dir)?;
    let mut removed = 0;
    for p in tmps {
        plan.site(CrashSite::BeforeTmpRemove)?;
        fs::remove_file(&p)?;
        removed += 1;
    }
    Ok(removed)
}

/// Physically truncates the torn tail of `path` down to `keep` bytes.
pub fn repair_tail(path: &Path, keep: u64, plan: &CrashPlan) -> Result<(), WalError> {
    plan.site(CrashSite::BeforeTruncate)?;
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(keep)?;
    f.sync_data()?;
    plan.site(CrashSite::AfterTruncate)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("apex-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn qpath(ids: &[u32]) -> LabelPath {
        LabelPath::new(ids.iter().map(|&i| LabelId(i)).collect())
    }

    #[test]
    fn frames_roundtrip() {
        let recs = vec![
            Record::Query(qpath(&[1, 2, 3])),
            Record::Swap {
                min_sup: 0.125,
                window: 7,
            },
            Record::Query(qpath(&[0])),
        ];
        let mut buf = Vec::new();
        for r in &recs {
            buf.extend_from_slice(&r.encode_frame());
        }
        let scan = decode_frames(&buf);
        assert_eq!(scan.records, recs);
        assert_eq!(scan.consumed, buf.len() as u64);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_decoded() {
        let recs = vec![Record::Query(qpath(&[5, 6])), Record::Query(qpath(&[7]))];
        let mut buf = Vec::new();
        for r in &recs {
            buf.extend_from_slice(&r.encode_frame());
        }
        for cut in 0..buf.len() {
            let scan = decode_frames(&buf[..cut]);
            assert!(scan.records.len() <= recs.len());
            assert_eq!(scan.records, recs[..scan.records.len()]);
        }
        // Flip every byte in turn: decode stays a prefix.
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            let scan = decode_frames(&bad);
            for (k, r) in scan.records.iter().enumerate() {
                if scan.consumed == buf.len() as u64 && scan.records.len() == recs.len() {
                    continue; // flip landed in slack that kept both frames valid (impossible: no slack)
                }
                assert_eq!(Some(r), recs.get(k), "flip at {i} broke prefix property");
            }
        }
    }

    #[test]
    fn writer_appends_and_reads_back() {
        let dir = tmpdir("rw");
        let wal =
            Arc::new(Wal::open(&dir, DurabilityConfig::default(), CrashPlan::none()).unwrap());
        wal.log_query(&qpath(&[1, 2]));
        wal.log_swap(0.25, 1);
        wal.sync().unwrap();
        let st = wal.stats();
        assert_eq!(st.appended, 2);
        assert_eq!(st.truncated_tail, 0);
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1);
        let mut cost = Cost::new();
        let scan = read_segment(&segs[0].1, &mut cost).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(cost.pages_read > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_budget_plan_tears_exactly_one_record() {
        let dir = tmpdir("tear");
        let probe = Record::Query(qpath(&[1, 2, 3])).encode_frame().len();
        let plan = CrashPlan::after_bytes(probe as u64 + 3); // dies 3 bytes into record 2
        let wal = Wal::open(&dir, DurabilityConfig::default(), plan.clone()).unwrap();
        assert!(wal.append(&Record::Query(qpath(&[1, 2, 3]))).is_ok());
        let err = wal.append(&Record::Query(qpath(&[4, 5, 6]))).unwrap_err();
        assert!(matches!(err, WalError::Crashed));
        assert!(plan.is_dead());
        assert!(wal.is_wedged());
        // Third append refuses without touching the file.
        assert!(matches!(
            wal.append(&Record::Query(qpath(&[7]))).unwrap_err(),
            WalError::Wedged
        ));
        let st = wal.stats();
        assert_eq!(st.appended, 2);
        assert_eq!(st.truncated_tail, 1);
        let segs = list_segments(&dir).unwrap();
        let mut cost = Cost::new();
        let scan = read_segment(&segs[0].1, &mut cost).unwrap();
        assert_eq!(scan.records.len(), 1, "only the complete frame survives");
        assert_eq!(scan.torn_bytes, 3);
        assert_eq!(st.appended, scan.records.len() as u64 + st.truncated_tail);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn site_plan_dies_at_fsync() {
        let dir = tmpdir("fsync");
        let cfg = DurabilityConfig {
            group_commit: 1,
            ..DurabilityConfig::default()
        };
        let wal = Wal::open(&dir, cfg, CrashPlan::at_site(CrashSite::Fsync, 2)).unwrap();
        assert!(wal.append(&Record::Query(qpath(&[1]))).is_ok());
        let err = wal.append(&Record::Query(qpath(&[2]))).unwrap_err();
        assert!(matches!(err, WalError::Crashed));
        // Both frames hit write(2) before the fatal fsync: both durable.
        let segs = list_segments(&dir).unwrap();
        let mut cost = Cost::new();
        assert_eq!(
            read_segment(&segs[0].1, &mut cost).unwrap().records.len(),
            2
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    fn open_n(tag: &str, group_commit: usize, plan: CrashPlan) -> (PathBuf, Wal) {
        let dir = tmpdir(tag);
        let cfg = DurabilityConfig {
            group_commit,
            retain: 0,
            ..DurabilityConfig::default()
        };
        let wal = Wal::open(&dir, cfg, plan).unwrap();
        (dir, wal)
    }

    /// Every complete frame in every segment of `dir`, sorted.
    fn logged(dir: &Path) -> Vec<Vec<LabelId>> {
        let mut all = Vec::new();
        for (_, seg) in list_segments(dir).unwrap() {
            for rec in read_segment(&seg, &mut Cost::new()).unwrap().records {
                match rec {
                    Record::Query(p) => all.push(p.labels().to_vec()),
                    other => panic!("only queries were appended, found {other:?}"),
                }
            }
        }
        all.sort();
        all
    }

    /// `threads × per` distinct records, as `logged` returns them.
    fn expected(threads: u32, per: u32) -> Vec<Vec<LabelId>> {
        let mut all: Vec<Vec<LabelId>> = (0..threads)
            .flat_map(|t| (0..per).map(move |i| vec![LabelId(t), LabelId(i)]))
            .collect();
        all.sort();
        all
    }

    #[test]
    fn group_commit_n1_ack_means_durable_under_eight_appenders() {
        let (dir, wal) = open_n("gc-n1", 1, CrashPlan::none());
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let (wal, start) = (&wal, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..200u32 {
                        let before = wal.stats().appended;
                        wal.append(&Record::Query(qpath(&[t, i]))).unwrap();
                        // This record's number is above `before`, and an
                        // fsync begun after its write has completed.
                        assert!(wal.lock().durable > before, "acknowledged before durable");
                    }
                });
            }
        });
        let st = wal.stats();
        assert_eq!(st.appended, 1600);
        assert!(st.fsyncs > 0 && st.fsyncs <= st.appended, "{st:?}");
        assert_eq!(wal.lock().durable, 1600);
        assert_eq!(logged(&dir), expected(8, 200));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_n32_two_appenders_one_fsync_per_batch() {
        use std::sync::atomic::AtomicU64;
        const N: u64 = 32;
        let (dir, wal) = open_n("gc-n32", N as usize, CrashPlan::none());
        let start = std::sync::Barrier::new(3);
        let (acked, done) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for t in 0..2u32 {
                let (wal, start, acked, done) = (&wal, &start, &acked, &done);
                s.spawn(move || {
                    start.wait();
                    for i in 0..1600u32 {
                        wal.append(&Record::Query(qpath(&[t, i]))).unwrap();
                        acked.fetch_add(1, Ordering::SeqCst);
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Sampler. `acked` is read first: `durable` only grows, so
            // the difference can only be understated by the delay.
            start.wait();
            while done.load(Ordering::SeqCst) < 2 {
                let acked = acked.load(Ordering::SeqCst);
                let (written, durable) = {
                    let inner = wal.lock();
                    (inner.written, inner.durable)
                };
                assert!(
                    acked.saturating_sub(durable) <= 2 * N - 2,
                    "{acked} acknowledged, {durable} durable"
                );
                // Plus the one record each appender may have in flight.
                assert!(
                    written - durable <= 2 * N,
                    "{written} written, {durable} durable"
                );
                std::thread::yield_now();
            }
        });
        let st = wal.stats();
        assert_eq!(st.appended, 3200);
        assert!(st.fsyncs.abs_diff(st.appended / N) <= 1, "{st:?}");
        assert_eq!(logged(&dir), expected(2, 1600));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_appenders_race_checkpoints_and_the_books_balance() {
        let (dir, wal) = open_n("gc-ckpt", 4, CrashPlan::none());
        let start = std::sync::Barrier::new(5);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (wal, start) = (&wal, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..200u32 {
                        wal.append(&Record::Query(qpath(&[t, i]))).unwrap();
                    }
                });
            }
            start.wait();
            for _ in 0..12 {
                let token = wal.begin_checkpoint().unwrap();
                wal.commit_checkpoint(token, b"not read back").unwrap();
            }
        });
        wal.sync().unwrap();
        let st = wal.stats();
        assert_eq!((st.appended, st.checkpoints), (800, 12));
        // A log fsync always covers a record no earlier one did: a
        // checkpoint that waited out a leader does not flush again.
        assert!(st.fsyncs <= st.appended + st.checkpoints + 1, "{st:?}");
        assert_eq!(list_segments(&dir).unwrap().len(), 13);
        // Every record once, whichever side of a rotation it fell on.
        assert_eq!(logged(&dir), expected(4, 200));
        let opts = crate::recover::RecoverOptions {
            use_snapshots: false,
            ..Default::default()
        };
        let g = xmlgraph::builder::moviedb();
        let rec = crate::recover::recover(&dir, &g, &opts).unwrap();
        assert_eq!(rec.report.replayed, 800);
        assert!(st.after_recovery(rec.report.replayed).balanced());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_fsync_death_wedges_every_appender() {
        let plan = CrashPlan::at_site(CrashSite::Fsync, 40);
        let (dir, wal) = open_n("gc-die", 1, plan.clone());
        let start = std::sync::Barrier::new(2);
        let errs: Vec<WalError> = std::thread::scope(|s| {
            let spawn = |t: u32| {
                let (wal, start) = (&wal, &start);
                s.spawn(move || {
                    start.wait();
                    // Ends only by error: a follower left waiting on the
                    // dead leader would hang the test.
                    (0u32..)
                        .find_map(|i| wal.append(&Record::Query(qpath(&[t, i]))).err())
                        .unwrap()
                })
            };
            let (a, b) = (spawn(0), spawn(1));
            vec![a.join().unwrap(), b.join().unwrap()]
        });
        assert!(
            errs.iter().any(|e| matches!(e, WalError::Crashed)),
            "{errs:?}"
        );
        assert!(
            errs.iter()
                .all(|e| matches!(e, WalError::Crashed | WalError::Wedged)),
            "{errs:?}"
        );
        assert!(plan.is_dead() && wal.is_wedged());
        assert!(wal.append(&Record::Query(qpath(&[9]))).is_err());
        assert!(wal.sync().is_err() && wal.begin_checkpoint().is_err());
        // 39 fsyncs completed; every frame that reached write(2) is in
        // the log, acknowledged or not, and the books balance.
        let st = wal.stats();
        assert_eq!(st.fsyncs, 39);
        let replayed = logged(&dir).len() as u64;
        assert!(st.clone().after_recovery(replayed).balanced(), "{st:?}");
        assert!(wal.lock().durable <= replayed);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_never_extends_an_old_segment() {
        let dir = tmpdir("reopen");
        {
            let wal =
                Arc::new(Wal::open(&dir, DurabilityConfig::default(), CrashPlan::none()).unwrap());
            wal.log_query(&qpath(&[1]));
        }
        let wal2 =
            Arc::new(Wal::open(&dir, DurabilityConfig::default(), CrashPlan::none()).unwrap());
        wal2.log_query(&qpath(&[2]));
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].0 + 1, segs[1].0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
