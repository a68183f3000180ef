//! Crash-point fault-injection suite — the proof behind the durable
//! write path (`core::wal` + `core::recover`).
//!
//! A deterministic, single-threaded *life* replays the serving loop's
//! semantics (record → drain → refine → checkpoint) against a WAL
//! directory whose writer carries a [`CrashPlan`]: a seeded fault
//! budget that kills the simulated process after N charged bytes (mid
//! frame, mid checkpoint image) or at a named site (mid-fsync, between
//! temp-file write and rename, during recovery's own repair). After
//! the death, [`recover`] rebuilds the state and must agree with a
//! from-scratch oracle — the same directory replayed from
//! `Apex::build_initial` with snapshots ignored — on extents,
//! generation, and monitor state, while `wal::Stats` balances:
//!
//! ```text
//! appended == pruned + replayed + truncated_tail   (retain-all ⇒ pruned = 0)
//! ```
//!
//! The byte-offset sweeps alone kill at 270 distinct seeded points
//! (3 workload seeds × 90 offsets spanning the whole life's write
//! traffic: appends, checkpoint images, renames), plus 45 over a life
//! that prunes to two recovery points; the site tests add every named
//! [`CrashSite`] on top, including crash-during-recovery.
//!
//! Reuse: `run_life` + `verify_crash_point` are the harness later PRs
//! (sharding, replication) can copy — any subsystem that claims
//! durability should die at every offset of its write path and prove
//! convergence the same way.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use apex::persist::PersistError;
use apex::recover::{commit_snapshot, load_snapshot, recover, RecoverOptions};
use apex::wal::{CrashPlan, CrashSite, DurabilityConfig, Stats, Wal, WalError};
use apex::{extent_equivalent, Apex, MonitorState, RefreshPolicy, WorkloadMonitor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlgraph::builder::moviedb;
use xmlgraph::{LabelPath, NodeId, XmlGraph};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "apex-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Random label paths that exist in `g` (random walks), same idiom as
/// the update-equivalence suite, so replayed queries exercise extents.
fn random_walk_paths(
    g: &XmlGraph,
    rng: &mut SmallRng,
    count: usize,
    max_len: usize,
) -> Vec<LabelPath> {
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 20 {
        attempts += 1;
        let mut cur = NodeId(rng.gen_range(0..g.node_count() as u32));
        let mut labels = Vec::new();
        let len = rng.gen_range(1..=max_len);
        for _ in 0..len {
            let edges = g.out_edges(cur);
            if edges.is_empty() {
                break;
            }
            let e = &edges[rng.gen_range(0..edges.len())];
            labels.push(e.label);
            cur = e.to;
        }
        if !labels.is_empty() {
            out.push(LabelPath::new(labels));
        }
    }
    assert!(!out.is_empty(), "walk generation produced no paths");
    out
}

const CAPACITY: usize = 64;
const MIN_SUP: f64 = 0.25;

struct LifeConfig {
    queries: usize,
    refresh_every: usize,
    /// Checkpoint after this many published swaps (0 = never).
    checkpoint_swaps: u64,
    /// [`DurabilityConfig::retain`] (0 = keep everything).
    retain: usize,
}

impl Default for LifeConfig {
    fn default() -> LifeConfig {
        LifeConfig {
            queries: 150,
            refresh_every: 10,
            checkpoint_swaps: 2,
            retain: 0,
        }
    }
}

/// What the life left behind when it completed — or died.
struct LifeOutcome {
    stats: Stats,
    /// The life's [`DurabilityConfig::retain`].
    retain: usize,
    wedged: bool,
    /// Live in-memory state at the end (meaningful for comparison only
    /// when `!wedged`: a wedged life's memory is ahead of its log).
    index: Apex,
    generation: u64,
    state: MonitorState,
}

/// Retaining 0 keeps everything: pruned = 0, the literal balance.
fn wal_config(retain: usize) -> DurabilityConfig {
    DurabilityConfig {
        group_commit: 4,
        checkpoint_every: 2,
        retain,
    }
}

/// One checkpoint through the two-phase protocol, exactly as the
/// durable refresher does it (single-threaded here, so the
/// begin-under-the-monitor-lock requirement is trivially met): a base
/// image first, then deltas over it.
fn checkpoint(
    wal: &Wal,
    generation: u64,
    index: &Apex,
    monitor: &WorkloadMonitor,
) -> Result<u64, WalError> {
    let token = wal.begin_checkpoint()?;
    commit_snapshot(wal, token, generation, index, &monitor.durable_state())
}

/// Drives the scripted serve-update-refresh workload against `dir`
/// until completion or simulated death (the plan firing wedges the
/// writer; every later operation refuses, like a killed process).
fn run_life(g: &XmlGraph, dir: &Path, seed: u64, plan: CrashPlan, cfg: &LifeConfig) -> LifeOutcome {
    let wal = Arc::new(Wal::open(dir, wal_config(cfg.retain), plan).expect("open wal"));
    let mut monitor = WorkloadMonitor::new(CAPACITY, MIN_SUP, RefreshPolicy::Manual);
    monitor.attach_wal(Arc::clone(&wal));
    let mut index = Apex::build_initial(g);
    let mut generation = 0u64;
    let mut swaps_since = 0u64;
    let mut rng = SmallRng::seed_from_u64(seed);
    let pool = random_walk_paths(g, &mut rng, 10, 3);

    'life: for i in 0..cfg.queries {
        // Drift-weighted pick: the hot region slides across the pool.
        let hot = (i * pool.len()) / cfg.queries.max(1);
        let pick = if rng.gen_range(0..100) < 70 {
            hot % pool.len()
        } else {
            rng.gen_range(0..pool.len())
        };
        monitor.record(pool[pick].clone());
        if wal.is_wedged() {
            break 'life; // the append died: process is gone
        }
        if (i + 1) % cfg.refresh_every == 0 {
            let (wl, min_sup) = monitor.drain_for_refresh();
            if wal.is_wedged() {
                break 'life; // died logging the swap; the refine never "published"
            }
            if !wl.is_empty() {
                index.refine(g, &wl, min_sup);
                generation += 1;
                swaps_since += 1;
            }
            if cfg.checkpoint_swaps > 0 && swaps_since >= cfg.checkpoint_swaps {
                swaps_since = 0;
                if checkpoint(&wal, generation, &index, &monitor).is_err() {
                    break 'life; // died mid-checkpoint (tmp write, fsync or rename)
                }
            }
        }
    }
    let _ = wal.sync();
    LifeOutcome {
        stats: wal.stats(),
        retain: cfg.retain,
        wedged: wal.is_wedged(),
        index,
        generation,
        state: monitor.durable_state(),
    }
}

fn norm_opts() -> RecoverOptions {
    RecoverOptions {
        capacity: CAPACITY,
        min_sup: MIN_SUP,
        ..RecoverOptions::default()
    }
}

fn oracle_opts() -> RecoverOptions {
    RecoverOptions {
        use_snapshots: false,
        ..norm_opts()
    }
}

/// The full acceptance check for one crash point: recovery never
/// panics, agrees with the from-scratch oracle on extents, generation
/// and monitor state, and the writer/recovery stats balance.
fn verify_crash_point(g: &XmlGraph, dir: &Path, life: &LifeOutcome, what: &str) {
    let rec =
        recover(dir, g, &norm_opts()).unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    let oracle = recover(dir, g, &oracle_opts())
        .unwrap_or_else(|e| panic!("{what}: oracle recovery failed: {e}"));
    assert!(
        oracle.report.snapshot_seq.is_none(),
        "{what}: oracle must ignore snapshots"
    );
    if let Err(why) = extent_equivalent(g, &rec.index, &oracle.index) {
        panic!("{what}: recovered index diverged from oracle: {why}");
    }
    assert_eq!(rec.generation, oracle.generation, "{what}: generation");
    assert_eq!(
        rec.monitor.durable_state(),
        oracle.monitor.durable_state(),
        "{what}: monitor state"
    );
    let v = apex::validate::check(g, &rec.index);
    assert!(v.is_empty(), "{what}: recovered index invalid: {v:#?}");

    // Stats balance: every attempted append is accounted for — pruned
    // from the live log, replayed from a complete frame, or discarded
    // as the torn tail.
    let merged = life.stats.clone().after_recovery(rec.report.replayed);
    if life.retain == 0 {
        assert_eq!(merged.pruned, 0, "{what}: retain-all must never prune");
    }
    assert!(
        merged.balanced(),
        "{what}: stats do not balance: {merged:?}"
    );
    assert_eq!(
        life.stats.appended,
        life.stats.pruned + rec.report.replayed + life.stats.truncated_tail,
        "{what}: appended == pruned + replayed + truncated_tail"
    );

    // A life that completed (the plan never fired) must recover to
    // exactly its final in-memory state — durability loses nothing on
    // a clean stop.
    if !life.wedged {
        if let Err(why) = extent_equivalent(g, &rec.index, &life.index) {
            panic!("{what}: clean life's recovery diverged from live state: {why}");
        }
        assert_eq!(rec.generation, life.generation, "{what}: clean generation");
        assert_eq!(
            rec.monitor.durable_state(),
            life.state,
            "{what}: clean monitor state"
        );
    }
}

/// Total bytes the plan would charge over a clean life: appended frame
/// bytes plus every checkpoint image (the temp-file writes charge too).
fn clean_life_charged_bytes(g: &XmlGraph, seed: u64, cfg: &LifeConfig) -> u64 {
    let dir = tmpdir(&format!("baseline-{seed}"));
    let life = run_life(g, &dir, seed, CrashPlan::none(), cfg);
    assert!(!life.wedged, "baseline must complete");
    let mut total = life.stats.bytes_appended;
    let mut deltas = 0;
    for (_, p) in apex::wal::list_snapshots(&dir).expect("list") {
        total += fs::metadata(&p).map(|m| m.len()).unwrap_or(0);
        deltas += load_snapshot(&p).expect("clean snapshot").base.is_some() as usize;
    }
    // The sweep kills inside delta checkpoints too.
    assert!(
        deltas > 0,
        "seed {seed}: the life wrote no delta checkpoint"
    );
    fs::remove_dir_all(&dir).expect("cleanup");
    assert!(total > 0, "baseline life wrote nothing");
    total
}

/// The headline sweep: kill the life at `points` byte offsets spread
/// over its entire write traffic (stagger by i % 3 so cuts land at
/// different positions inside frames), recover, verify.
fn byte_offset_sweep(seed: u64, points: u64) {
    byte_offset_sweep_with(seed, points, &LifeConfig::default());
}

fn byte_offset_sweep_with(seed: u64, points: u64, cfg: &LifeConfig) {
    let g = moviedb();
    let total = clean_life_charged_bytes(&g, seed, cfg);
    let mut killed = 0u64;
    for i in 0..points {
        let offset = (i * total) / points + (i % 3);
        let dir = tmpdir(&format!("sweep-{seed}-{i}"));
        let life = run_life(&g, &dir, seed, CrashPlan::after_bytes(offset), cfg);
        if life.wedged {
            killed += 1;
        }
        verify_crash_point(&g, &dir, &life, &format!("seed {seed} offset {offset}"));
        fs::remove_dir_all(&dir).expect("cleanup");
    }
    assert!(
        killed >= points * 8 / 10,
        "sweep must actually kill most runs ({killed}/{points} died)"
    );
}

// Three seed families × 90 offsets = 270 distinct seeded crash points
// across append / checkpoint-image / rename traffic.

#[test]
fn byte_offset_sweep_seed_a() {
    byte_offset_sweep(0xC4A5_0001, 90);
}

#[test]
fn byte_offset_sweep_seed_b() {
    byte_offset_sweep(0xC4A5_0002, 90);
}

#[test]
fn byte_offset_sweep_seed_c() {
    byte_offset_sweep(0xC4A5_0003, 90);
}

/// The same sweep over a life that prunes to two recovery points: a
/// checkpoint after every swap, so deltas pile onto one base and the
/// log behind the newest two is retired.
#[test]
fn byte_offset_sweep_retaining_two_points() {
    let cfg = LifeConfig {
        checkpoint_swaps: 1,
        retain: 2,
        ..LifeConfig::default()
    };
    byte_offset_sweep_with(0xC4A5_0004, 45, &cfg);
}

/// Named-site kills: mid-fsync, between temp write and rename, after
/// rename, before prune — the n-th occurrence of each, so the same
/// site is exercised at different phases of the life.
#[test]
fn site_crashes_cover_fsync_and_checkpoint_phases() {
    let g = moviedb();
    let cfg = LifeConfig::default();
    for site in CrashSite::ALL {
        for nth in 0..3u64 {
            let dir = tmpdir(&format!("site-{site:?}-{nth}"));
            let life = run_life(&g, &dir, 0x517E, CrashPlan::at_site(site, nth), &cfg);
            verify_crash_point(&g, &dir, &life, &format!("site {site:?} nth {nth}"));
            fs::remove_dir_all(&dir).expect("cleanup");
        }
    }
}

/// Crashing *during recovery's own repair* (tmp removal, tail
/// truncation) must leave a directory a second recovery handles — and
/// that second recovery converges to the same state.
#[test]
fn crash_during_recovery_repair_is_itself_recoverable() {
    let g = moviedb();
    let cfg = LifeConfig::default();
    for site in [
        CrashSite::BeforeTmpRemove,
        CrashSite::BeforeTruncate,
        CrashSite::AfterTruncate,
    ] {
        let dir = tmpdir(&format!("recrash-{site:?}"));
        // A life killed mid-frame leaves a torn tail; add a stale
        // checkpoint temp file on top so both repair paths have work.
        let life = run_life(&g, &dir, 0xDEAD_0001, CrashPlan::after_bytes(900), &cfg);
        assert!(life.wedged, "budget must kill this life");
        fs::write(dir.join("snap-000099.apex.tmp"), b"half-written junk").expect("tmp");

        let crashing = RecoverOptions {
            plan: CrashPlan::at_site(site, 0),
            ..norm_opts()
        };
        // The repairing recovery may die at the injected site — that is
        // the point — but it must never panic, and dying is the only
        // alternative to finishing.
        let first = recover(&dir, &g, &crashing);
        if let Err(e) = &first {
            assert!(
                matches!(e, apex::RecoverError::Crashed),
                "only the plan may stop recovery: {e}"
            );
        }
        // The next (clean) recovery converges regardless of where the
        // previous one died.
        verify_crash_point(&g, &dir, &life, &format!("re-crash at {site:?}"));
        // And repair is complete now: nothing left to truncate or remove.
        let again = recover(&dir, &g, &norm_opts()).expect("repaired recovery");
        assert_eq!(again.report.truncated_bytes, 0, "tail already repaired");
        assert_eq!(again.report.repaired_tmps, 0, "tmps already removed");
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Golden snapshot corruption: a bit flip in the body, a truncated
/// tail, a clobbered header field, wrong magic. Recovery must reject the
/// bad snapshot with the *named* reason, fall back to the previous
/// generation, replay the longer tail, and still converge.
#[test]
fn corrupted_snapshots_fall_back_to_previous_generation() {
    let g = moviedb();
    let cfg = LifeConfig::default();

    type Corrupt = fn(&mut Vec<u8>);
    type Expect = fn(&PersistError) -> bool;
    let cases: [(&str, Corrupt, Expect); 4] = [
        (
            "bit flip in the body",
            |b| {
                let n = b.len();
                b[n - 40] ^= 0x10;
            },
            |r| matches!(r, PersistError::BadChecksum),
        ),
        (
            "truncated tail",
            |b| {
                let n = b.len();
                b.truncate(n - 33);
            },
            |r| matches!(r, PersistError::Truncated { .. }),
        ),
        (
            "clobbered header field (generation)",
            |b| b[7 + 1 + 8 + 8 + 5] ^= 0xFF,
            |r| matches!(r, PersistError::BadChecksum),
        ),
        (
            "wrong magic",
            |b| b[0] = b'Z',
            |r| matches!(r, PersistError::BadMagic),
        ),
    ];

    for (what, corrupt, expected) in cases {
        let dir = tmpdir(&format!("golden-{}", what.len()));
        let life = run_life(&g, &dir, 0x601D, CrashPlan::none(), &cfg);
        assert!(!life.wedged);
        let snaps = apex::wal::list_snapshots(&dir).expect("list");
        assert!(
            snaps.len() >= 2,
            "life must leave at least two snapshots to fall back through"
        );
        let (newest_seq, newest) = snaps.last().expect("newest").clone();
        let (prev_seq, _) = snaps[snaps.len() - 2];

        let clean = recover(&dir, &g, &norm_opts()).expect("clean recover");
        assert_eq!(clean.report.snapshot_seq, Some(newest_seq));

        let mut bytes = fs::read(&newest).expect("read snapshot");
        corrupt(&mut bytes);
        fs::write(&newest, &bytes).expect("write corrupted");

        let rec = recover(&dir, &g, &norm_opts()).expect("recover past corruption");
        // Named rejection of exactly the newest snapshot.
        assert_eq!(rec.report.rejected.len(), 1, "{what}: one rejection");
        let (rej_seq, why) = &rec.report.rejected[0];
        assert_eq!(*rej_seq, newest_seq, "{what}");
        assert!(expected(why), "{what}: wrong reject reason: {why}");
        // Fallback to the previous generation + a longer replay.
        assert_eq!(rec.report.snapshot_seq, Some(prev_seq), "{what}");
        assert!(
            rec.report.applied > clean.report.applied,
            "{what}: fallback must replay a longer tail ({} vs {})",
            rec.report.applied,
            clean.report.applied
        );
        // ... and converge to the same state regardless.
        if let Err(why) = extent_equivalent(&g, &rec.index, &clean.index) {
            panic!("{what}: fallback diverged: {why}");
        }
        assert_eq!(rec.generation, clean.generation, "{what}");
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// A delta is only as good as its base. A clean life checkpoints a
/// base and then deltas over it; corrupting that base refuses every
/// snapshot from it on, each by the base's named reason, and recovery
/// falls back past them all — and still converges.
#[test]
fn a_corrupt_base_refuses_every_delta_on_it() {
    let g = moviedb();
    let cfg = LifeConfig {
        checkpoint_swaps: 1,
        ..LifeConfig::default()
    };
    let dir = tmpdir("bad-base");
    let life = run_life(&g, &dir, 0x601D, CrashPlan::none(), &cfg);
    assert!(!life.wedged);
    let snaps = apex::wal::list_snapshots(&dir).expect("list");
    let (newest_seq, newest) = snaps.last().expect("newest").clone();
    let base = load_snapshot(&newest)
        .expect("newest snapshot loads")
        .base
        .expect("the newest checkpoint is a delta");
    let clean = recover(&dir, &g, &norm_opts()).expect("clean recover");
    assert_eq!(clean.report.snapshot_seq, Some(newest_seq));

    let base_path = apex::wal::snapshot_path(&dir, base);
    let mut bytes = fs::read(&base_path).expect("read base");
    let n = bytes.len();
    bytes[n - 40] ^= 0x10;
    fs::write(&base_path, &bytes).expect("write corrupted base");

    let rec = recover(&dir, &g, &norm_opts()).expect("recover past the bad base");
    let rejected: Vec<u64> = rec.report.rejected.iter().map(|(s, _)| *s).collect();
    let from_base: Vec<u64> = snaps
        .iter()
        .rev()
        .map(|(s, _)| *s)
        .filter(|&s| s >= base)
        .collect();
    assert!(from_base.len() >= 2, "at least one delta over the base");
    assert_eq!(rejected, from_base);
    assert!(rec
        .report
        .rejected
        .iter()
        .all(|(_, why)| matches!(why, PersistError::BadChecksum)));
    assert!(rec.report.snapshot_seq.is_none_or(|s| s < base));
    if let Err(why) = extent_equivalent(&g, &rec.index, &clean.index) {
        panic!("fallback past the base diverged: {why}");
    }
    assert_eq!(rec.generation, clean.generation);
    assert_eq!(rec.monitor.durable_state(), clean.monitor.durable_state());
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// The same corruption under pruning to two recovery points. Every
/// retained snapshot stands on the one base, so the two points are
/// those snapshots and the whole log: its older part is retired, read
/// by no recovery that does not need it, and replayed when the base
/// is corrupt — to the clean life's state, with the books balanced.
#[test]
fn a_corrupt_base_under_retain_two_falls_back_to_the_whole_log() {
    let g = moviedb();
    let cfg = LifeConfig {
        checkpoint_swaps: 1,
        retain: 2,
        ..LifeConfig::default()
    };
    let dir = tmpdir("bad-base-retain");
    let life = run_life(&g, &dir, 0x601D, CrashPlan::none(), &cfg);
    assert!(!life.wedged);
    assert!(life.stats.pruned > 0, "the life retired part of its log");
    let snaps = apex::wal::list_snapshots(&dir).expect("list");
    let (newest_seq, newest) = snaps.last().expect("newest").clone();
    let base = load_snapshot(&newest)
        .expect("newest snapshot loads")
        .base
        .expect("the newest checkpoint is a delta");
    assert_eq!(snaps.len(), 3, "two retained deltas and their base");
    assert_eq!(snaps[0].0, base);
    let live_log = apex::wal::list_segments(&dir).expect("list").len() as u64;
    assert!(!apex::wal::list_retired(&dir).expect("list").is_empty());
    let clean = recover(&dir, &g, &norm_opts()).expect("clean recover");
    assert_eq!(clean.report.snapshot_seq, Some(newest_seq));
    assert_eq!(
        clean.report.segments_scanned, live_log,
        "no retired segment read"
    );

    let base_path = apex::wal::snapshot_path(&dir, base);
    let mut bytes = fs::read(&base_path).expect("read base");
    let n = bytes.len();
    bytes[n - 40] ^= 0x10;
    fs::write(&base_path, &bytes).expect("write corrupted base");

    let rec = recover(&dir, &g, &norm_opts()).expect("recover past the bad base");
    assert_eq!(rec.report.rejected.len(), 3);
    assert_eq!(rec.report.snapshot_seq, None);
    if let Err(why) = extent_equivalent(&g, &rec.index, &life.index) {
        panic!("fallback to the whole log diverged: {why}");
    }
    assert_eq!(rec.generation, life.generation);
    assert_eq!(rec.monitor.durable_state(), life.state);
    let merged = life.stats.clone().after_recovery(rec.report.replayed);
    assert!(merged.balanced(), "{merged:?}");
    fs::remove_dir_all(&dir).expect("cleanup");
}

/// Clean shutdown through the real concurrent refresher: the final
/// checkpoint means recovery applies zero records from the log.
#[test]
fn clean_shutdown_needs_no_replay() {
    use apex::{IndexCell, Refresher};
    use std::sync::Mutex;

    let g = Arc::new(moviedb());
    let dir = tmpdir("clean");
    let wal = Arc::new(Wal::open(&dir, wal_config(0), CrashPlan::none()).expect("open"));
    let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
        CAPACITY,
        MIN_SUP,
        RefreshPolicy::Manual,
    )));
    monitor.lock().unwrap().attach_wal(Arc::clone(&wal));
    let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
    let refresher = Refresher::spawn_durable(
        Arc::clone(&g),
        Arc::clone(&cell),
        Arc::clone(&monitor),
        Arc::clone(&wal),
    )
    .expect("spawn");

    let mut rng = SmallRng::seed_from_u64(0xC1EA);
    let pool = random_walk_paths(&g, &mut rng, 8, 3);
    for round in 0..3 {
        for i in 0..20 {
            let p = pool[(round * 7 + i) % pool.len()].clone();
            monitor.lock().unwrap().record(p);
        }
        refresher.request_refresh();
        refresher.wait_idle();
    }
    let stats = refresher.shutdown();
    assert!(stats.refreshes >= 1);
    assert!(stats.checkpoints >= 1, "shutdown must checkpoint");
    assert_eq!(stats.checkpoint_errors, 0);

    let rec = recover(&dir, &g, &norm_opts()).expect("recover");
    assert_eq!(
        rec.report.applied, 0,
        "clean shutdown must replay zero records"
    );
    assert_eq!(rec.generation, cell.generation());
    if let Err(why) = extent_equivalent(&g, &rec.index, cell.snapshot().index()) {
        panic!("clean shutdown recovery diverged: {why}");
    }
    // The full log still balances even though none of it was applied.
    let merged = wal.stats().clone().after_recovery(rec.report.replayed);
    assert!(merged.balanced(), "{merged:?}");
    fs::remove_dir_all(&dir).expect("cleanup");
}
