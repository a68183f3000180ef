//! Concurrent adaptive serving — the index as a long-lived artifact.
//!
//! The paper's Figure 4 loop (monitor the workload, re-extract, run
//! `updateAPEX`) is described as an offline activity: "whenever query
//! workloads change". A served index cannot stop the world to adapt;
//! DescribeX and the path-summary literature treat the summary as a
//! continuously *served* structure, and this module does the same for
//! APEX:
//!
//! * [`IndexCell`] — a versioned snapshot cell. Query workers read an
//!   immutable [`Snapshot`] (an `Arc`'d [`Apex`] plus a monotonically
//!   increasing generation) and keep using it for as long as they like;
//!   publishing a new index is one `Arc` swap under a short mutex, so
//!   readers never observe a half-rebuilt index and never block on a
//!   rebuild.
//! * [`Refresher`] — a background thread that drains the
//!   [`WorkloadMonitor`], runs extraction + `updateAPEX`
//!   ([`Apex::refine`]) on a **private copy** of the current snapshot,
//!   and atomically publishes the result. A refresh-in-flight guard
//!   coalesces redundant requests: any number of
//!   [`Refresher::request_refresh`] calls arriving while a rebuild is
//!   pending fold into a single cycle (the rebuild that runs sees the
//!   freshest window anyway, so nothing is lost).
//!
//! Lifecycle:
//!
//! ```text
//! workers ──record──> WorkloadMonitor ──drain──> refine on private copy
//!    ^                                                   │
//!    └────────── IndexCell::snapshot() <──publish────────┘
//! ```
//!
//! Shutdown is graceful: [`Refresher::shutdown`] lets an in-flight
//! rebuild finish, runs one final cycle if a request is still queued
//! (no recorded work is dropped), then joins the thread and returns the
//! accumulated [`ServeStats`].
//!
//! # Durability
//!
//! A refresher spawned with [`Refresher::spawn_durable`] also owns the
//! checkpoint half of the write path in [`crate::wal`]: after every
//! `checkpoint_every`-th published swap (see
//! [`crate::wal::DurabilityConfig`]) — and once more on shutdown, so a
//! clean stop never needs replay — it captures the monitor state and
//! rotates the log *under the monitor lock* ([`Wal::begin_checkpoint`]),
//! then encodes and commits the verified snapshot outside any lock
//! ([`crate::recover::commit_snapshot`]): a delta holding only the
//! extents the last base snapshot lacks. A refresh's private copy
//! shares every extent with the published index (`XNode::extent` is an
//! `Arc`), so a generation costs, in memory and on disk, what it
//! changed. [`IndexCell::with_generation`] is the
//! matching boot path: [`crate::recover::recover`] hands back an index
//! at the generation it had reached, and the cell resumes counting from
//! there.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apex_storage::rank::{self, Guard, Rank};
use xmlgraph::XmlGraph;

use crate::index::Apex;
use crate::monitor::WorkloadMonitor;
use crate::planstats::PlanStats;
use crate::wal::{Wal, WalError};
use crate::workload::Workload;

/// One published index version: the immutable unit query workers hold.
#[derive(Debug)]
pub struct Snapshot {
    generation: u64,
    index: Apex,
    stats: PlanStats,
}

impl Snapshot {
    /// The version number (0 = the initially installed index; strictly
    /// increasing by 1 per publish).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The index of this version.
    #[inline]
    pub fn index(&self) -> &Apex {
        &self.index
    }

    /// Planning statistics assembled when this version was published —
    /// same generation stamp, same lifetime, so a planner reading them
    /// never mixes statistics of one generation with the extents of
    /// another.
    #[inline]
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }
}

/// Versioned snapshot cell: one `Arc<Snapshot>` swapped atomically
/// under a short mutex, with a lock-free generation mirror for cheap
/// staleness checks.
///
/// Readers call [`IndexCell::snapshot`] (an `Arc` clone) and evaluate
/// against the returned version for as long as they like; a concurrent
/// [`IndexCell::publish`] never invalidates what a reader holds. The
/// generation is monotonic, so `snapshot().generation()` values observed
/// by any single reader never decrease.
#[derive(Debug)]
pub struct IndexCell {
    current: Mutex<Arc<Snapshot>>,
    generation: AtomicU64,
}

impl IndexCell {
    /// Installs `index` as generation 0.
    pub fn new(index: Apex) -> IndexCell {
        let stats = PlanStats::assemble(&index);
        IndexCell {
            current: Mutex::new(Arc::new(Snapshot {
                generation: 0,
                index,
                stats,
            })),
            generation: AtomicU64::new(0),
        }
    }

    /// Installs a recovered index at the generation it had already
    /// reached — the boot-from-[`crate::recover::recover`] constructor,
    /// so generations stay monotonic across a crash/restart boundary.
    pub fn with_generation(index: Apex, generation: u64) -> IndexCell {
        let stats = PlanStats::assemble(&index).with_generation(generation);
        IndexCell {
            current: Mutex::new(Arc::new(Snapshot {
                generation,
                index,
                stats,
            })),
            generation: AtomicU64::new(generation),
        }
    }

    fn lock(&self) -> Guard<'_, Arc<Snapshot>> {
        // The cell content is a single Arc, replaced atomically; a
        // panicking publisher cannot leave it half-written.
        rank::lock(&self.current, Rank::Snapshot)
    }

    /// The current version (an `Arc` clone; never blocks on a rebuild).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.lock())
    }

    /// The current generation without taking the snapshot — what query
    /// workers poll between queries to decide whether to re-arm their
    /// processor against a fresh version.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Number of swaps since construction (generation 0 is not a swap).
    #[inline]
    pub fn swaps(&self) -> u64 {
        self.generation()
    }

    /// Atomically publishes `index` as the next generation; returns the
    /// generation it received. Planning statistics are assembled from
    /// the new index (outside the swap lock) and published with it.
    pub fn publish(&self, index: Apex) -> u64 {
        let stats = PlanStats::assemble(&index);
        self.publish_with(index, stats)
    }

    /// Like [`IndexCell::publish`], but folds the drained workload
    /// window's path supports into the statistics — the refresher's
    /// publish path, so the planner sees the same frequencies that drove
    /// the refinement it plans against.
    pub fn publish_with_workload(&self, index: Apex, wl: &Workload) -> u64 {
        let stats = PlanStats::assemble(&index).with_workload(wl);
        self.publish_with(index, stats)
    }

    fn publish_with(&self, index: Apex, stats: PlanStats) -> u64 {
        let mut cur = self.lock();
        let generation = cur.generation + 1;
        *cur = Arc::new(Snapshot {
            generation,
            index,
            stats: stats.with_generation(generation),
        });
        self.generation.store(generation, Ordering::Release);
        generation
    }
}

/// One completed background refresh.
#[derive(Debug, Clone)]
pub struct RefreshRecord {
    /// The generation the refresh published.
    pub generation: u64,
    /// `updateAPEX` worklist steps of the rebuild.
    pub steps: usize,
    /// Queries in the drained workload window.
    pub window: usize,
    /// Wall time from drain to publish (the swap latency a client would
    /// measure between requesting a refresh and seeing the generation).
    pub wall: Duration,
}

/// Counters accumulated by a [`Refresher`] over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Rebuild cycles that published a generation.
    pub refreshes: u64,
    /// Requests folded into an already-scheduled cycle by the
    /// refresh-in-flight guard.
    pub coalesced: u64,
    /// Cycles skipped because the drained window was empty.
    pub empty_windows: u64,
    /// Snapshot checkpoints committed (durable refreshers only;
    /// includes the final shutdown checkpoint).
    pub checkpoints: u64,
    /// Checkpoint attempts that failed — serving continues, durability
    /// degrades to a longer replay on the next recovery.
    pub checkpoint_errors: u64,
    /// Per-refresh details, in publish order.
    pub records: Vec<RefreshRecord>,
}

impl ServeStats {
    /// Total wall time spent rebuilding.
    pub fn swap_total(&self) -> Duration {
        self.records.iter().map(|r| r.wall).sum()
    }

    /// Longest single rebuild.
    pub fn swap_max(&self) -> Duration {
        self.records
            .iter()
            .map(|r| r.wall)
            .max()
            .unwrap_or_default()
    }
}

#[derive(Debug, Default)]
struct RefreshState {
    /// A rebuild request is queued (at most one, however many arrive).
    pending: bool,
    /// The worker is between drain and publish.
    in_flight: bool,
    /// Graceful-shutdown flag; the worker drains `pending` first.
    shutdown: bool,
    stats: ServeStats,
}

#[derive(Debug)]
struct RefreshShared {
    state: Mutex<RefreshState>,
    cv: Condvar,
}

impl RefreshShared {
    fn lock(&self) -> Guard<'_, RefreshState> {
        // State transitions are single-field writes; a panicking worker
        // cannot leave them torn, so poison recovery is sound.
        rank::lock(&self.state, Rank::RefreshState)
    }
}

/// Background refresher thread: drains the monitor, refines a private
/// copy, publishes through the [`IndexCell`].
#[derive(Debug)]
pub struct Refresher {
    shared: Arc<RefreshShared>,
    handle: Option<JoinHandle<()>>,
}

impl Refresher {
    /// Spawns the refresher over a shared graph, cell and monitor.
    ///
    /// The thread sleeps until [`Refresher::request_refresh`] (or
    /// shutdown) signals it; it never polls.
    pub fn spawn(
        g: Arc<XmlGraph>,
        cell: Arc<IndexCell>,
        monitor: Arc<Mutex<WorkloadMonitor>>,
    ) -> io::Result<Refresher> {
        Refresher::spawn_inner(g, cell, monitor, None)
    }

    /// Like [`Refresher::spawn`], but the refresher also checkpoints
    /// through `wal`: a snapshot after every
    /// `DurabilityConfig::checkpoint_every`-th published swap, plus a
    /// final one on shutdown so a clean stop recovers with zero records
    /// applied from the log. The same `wal` should be attached to the
    /// monitor (`WorkloadMonitor::attach_wal`) so the records the
    /// checkpoints cover are actually being logged.
    pub fn spawn_durable(
        g: Arc<XmlGraph>,
        cell: Arc<IndexCell>,
        monitor: Arc<Mutex<WorkloadMonitor>>,
        wal: Arc<Wal>,
    ) -> io::Result<Refresher> {
        Refresher::spawn_inner(g, cell, monitor, Some(wal))
    }

    fn spawn_inner(
        g: Arc<XmlGraph>,
        cell: Arc<IndexCell>,
        monitor: Arc<Mutex<WorkloadMonitor>>,
        wal: Option<Arc<Wal>>,
    ) -> io::Result<Refresher> {
        let shared = Arc::new(RefreshShared {
            state: Mutex::new(RefreshState::default()),
            cv: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("apex-refresher".into())
            .spawn(move || refresh_loop(&g, &cell, &monitor, &worker_shared, wal.as_deref()))?;
        Ok(Refresher {
            shared,
            handle: Some(handle),
        })
    }

    /// Requests a rebuild. Returns `true` if this call scheduled a new
    /// cycle, `false` if it coalesced into one already queued (the
    /// queued cycle will drain a window at least as fresh as this
    /// request's, so folding loses nothing).
    pub fn request_refresh(&self) -> bool {
        let mut st = self.shared.lock();
        if st.shutdown {
            return false;
        }
        if st.pending {
            st.stats.coalesced += 1;
            return false;
        }
        st.pending = true;
        self.shared.cv.notify_all();
        true
    }

    /// Blocks until no rebuild is queued or in flight. Used by phased
    /// drivers (and tests) to step deterministically without sleeping.
    pub fn wait_idle(&self) {
        let mut st = self.shared.lock();
        while st.pending || st.in_flight {
            st = rank::wait(&self.shared.cv, st);
        }
    }

    /// Generations published so far.
    pub fn refreshes(&self) -> u64 {
        self.shared.lock().stats.refreshes
    }

    /// True while a rebuild is queued or running — the signal drain
    /// sequencers poll to overlap their own teardown with the final
    /// refresh cycle instead of blocking in [`Refresher::shutdown`].
    pub fn is_busy(&self) -> bool {
        let st = self.shared.lock();
        st.pending || st.in_flight
    }

    /// Drain hook: signals shutdown without joining. The worker finishes
    /// its in-flight cycle, runs one final cycle if a request is still
    /// queued, then exits; later [`Refresher::request_refresh`] calls
    /// are refused (`false`). Callers that share the refresher across
    /// threads (the network server's drain path) call this first so the
    /// refresher winds down concurrently with connection teardown, then
    /// join through [`Refresher::shutdown`] (or `Drop`).
    pub fn begin_shutdown(&self) {
        let mut st = self.shared.lock();
        st.shutdown = true;
        self.shared.cv.notify_all();
    }

    /// Graceful shutdown: lets the in-flight cycle finish, runs one
    /// final cycle if a request is queued, joins the thread, and returns
    /// the accumulated stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.signal_shutdown_and_join();
        std::mem::take(&mut self.shared.lock().stats)
    }

    fn signal_shutdown_and_join(&mut self) {
        self.begin_shutdown();
        if let Some(handle) = self.handle.take() {
            if let Err(e) = handle.join() {
                std::panic::resume_unwind(e);
            }
        }
    }
}

impl Drop for Refresher {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.signal_shutdown_and_join();
        }
    }
}

/// Captures the serving state and commits one verified snapshot
/// checkpoint through `wal`. Returns the checkpoint sequence.
///
/// The monitor state capture and the log rotation
/// ([`Wal::begin_checkpoint`]) happen under the *same* monitor lock, so
/// the snapshot covers exactly the records in segments before the new
/// sequence — nothing is double-applied or lost on replay. The
/// expensive part (encoding the image — a delta holding the extents
/// the last base lacks, see [`crate::recover::commit_snapshot`] —
/// writing and fsyncing the file) runs after the lock is released;
/// recorded traffic is never stalled behind a checkpoint.
pub fn write_checkpoint(
    cell: &IndexCell,
    monitor: &Mutex<WorkloadMonitor>,
    wal: &Wal,
) -> Result<u64, WalError> {
    let (token, state) = {
        let m = rank::lock(monitor, Rank::Monitor);
        let token = wal.begin_checkpoint()?;
        (token, m.durable_state())
    };
    // Only the refresher (or a single-threaded driver) publishes, and it
    // is the one checkpointing — the snapshot read here is the one the
    // captured monitor state was serving against.
    let snap = cell.snapshot();
    crate::recover::commit_snapshot(wal, token, snap.generation(), snap.index(), &state)
}

/// Ends the refresher's cycle if its thread unwinds: `wait_idle` callers
/// wake instead of waiting on a cycle that will never finish, and the
/// panic surfaces where [`Refresher::shutdown`] joins the thread.
struct EndCycleOnUnwind<'a>(&'a RefreshShared);

impl Drop for EndCycleOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut st = self.0.lock();
            st.pending = false;
            st.in_flight = false;
            st.shutdown = true;
            self.0.cv.notify_all();
        }
    }
}

fn refresh_loop(
    g: &XmlGraph,
    cell: &IndexCell,
    monitor: &Mutex<WorkloadMonitor>,
    shared: &RefreshShared,
    wal: Option<&Wal>,
) {
    let _unwind = EndCycleOnUnwind(shared);
    let checkpoint_every = wal.map(|w| w.config().checkpoint_every).unwrap_or(0);
    let mut swaps_since_checkpoint: u64 = 0;
    loop {
        // Wait for a request (or shutdown), then claim it.
        {
            let mut st = shared.lock();
            let claimed = loop {
                if st.pending {
                    st.pending = false;
                    st.in_flight = true;
                    break true;
                }
                if st.shutdown {
                    break false;
                }
                st = rank::wait(&shared.cv, st);
            };
            if !claimed {
                break; // fall through to the final shutdown checkpoint
            }
        }

        // Rebuild on a private copy — queries keep being answered (and
        // recorded) against the published snapshot the whole time.
        let started = Instant::now();
        let (workload, min_sup) = {
            let mut m = rank::lock(monitor, Rank::Monitor);
            m.drain_for_refresh()
        };
        let record = if workload.is_empty() {
            None
        } else {
            let snapshot = cell.snapshot();
            let mut index = snapshot.index().clone();
            let steps = index.refine(g, &workload, min_sup);
            let generation = cell.publish_with_workload(index, &workload);
            Some(RefreshRecord {
                generation,
                steps,
                window: workload.len(),
                wall: started.elapsed(),
            })
        };

        // Checkpoint cadence: every `checkpoint_every`-th published
        // swap. Still inside `in_flight`, so `wait_idle` returners see
        // the checkpoint durable too.
        let mut checkpoint = None;
        if record.is_some() {
            swaps_since_checkpoint += 1;
            if let Some(w) = wal {
                if checkpoint_every > 0 && swaps_since_checkpoint >= checkpoint_every {
                    checkpoint = Some(write_checkpoint(cell, monitor, w).is_ok());
                    swaps_since_checkpoint = 0;
                }
            }
        }

        let mut st = shared.lock();
        match record {
            Some(r) => {
                st.stats.refreshes += 1;
                st.stats.records.push(r);
            }
            None => st.stats.empty_windows += 1,
        }
        match checkpoint {
            Some(true) => st.stats.checkpoints += 1,
            Some(false) => st.stats.checkpoint_errors += 1,
            None => {}
        }
        st.in_flight = false;
        shared.cv.notify_all();
    }

    // Final checkpoint: a clean shutdown leaves the directory in a
    // state recovery serves without applying a single log record.
    if let Some(w) = wal {
        let ok = write_checkpoint(cell, monitor, w).is_ok();
        let mut st = shared.lock();
        if ok {
            st.stats.checkpoints += 1;
        } else {
            st.stats.checkpoint_errors += 1;
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::monitor::RefreshPolicy;
    use crate::workload::Workload;
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    fn path(g: &XmlGraph, s: &str) -> LabelPath {
        LabelPath::parse(g, s).unwrap()
    }

    #[test]
    fn snapshots_are_immutable_and_generations_monotonic() {
        let g = moviedb();
        let cell = IndexCell::new(Apex::build_initial(&g));
        let before = cell.snapshot();
        assert_eq!(before.generation(), 0);
        let nodes0 = before.index().stats().nodes;

        let mut refined = before.index().clone();
        let wl = Workload::parse(&g, &["actor.name"]).unwrap();
        refined.refine(&g, &wl, 0.1);
        assert_eq!(cell.publish(refined), 1);
        assert_eq!(cell.generation(), 1);
        assert_eq!(cell.swaps(), 1);

        // The old snapshot is untouched by the swap.
        assert_eq!(before.generation(), 0);
        assert_eq!(before.index().stats().nodes, nodes0);
        let after = cell.snapshot();
        assert_eq!(after.generation(), 1);
        assert!(after.index().stats().nodes > nodes0);
    }

    #[test]
    fn refresher_drains_monitor_and_publishes() {
        let g = Arc::new(moviedb());
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            100,
            0.1,
            RefreshPolicy::Manual,
        )));
        for _ in 0..8 {
            monitor.lock().unwrap().record(path(&g, "actor.name"));
        }
        let refresher = Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), Arc::clone(&monitor))
            .expect("spawn");
        assert!(refresher.request_refresh());
        refresher.wait_idle();
        let snap = cell.snapshot();
        assert_eq!(snap.generation(), 1);
        assert!(snap
            .index()
            .required_paths(&g)
            .contains(&"actor.name".to_string()));
        assert_eq!(monitor.lock().unwrap().since_refresh(), 0);
        let stats = refresher.shutdown();
        assert_eq!(stats.refreshes, 1);
        assert_eq!(stats.records.len(), 1);
        assert_eq!(stats.records[0].generation, 1);
        assert!(stats.records[0].steps > 0);
        assert_eq!(stats.records[0].window, 8);
    }

    #[test]
    fn empty_window_cycles_do_not_publish() {
        let g = Arc::new(moviedb());
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            10,
            0.1,
            RefreshPolicy::Manual,
        )));
        let refresher =
            Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), monitor).expect("spawn");
        refresher.request_refresh();
        refresher.wait_idle();
        assert_eq!(cell.generation(), 0);
        let stats = refresher.shutdown();
        assert_eq!(stats.refreshes, 0);
        assert_eq!(stats.empty_windows, 1);
    }

    #[test]
    fn shutdown_drains_a_queued_request() {
        let g = Arc::new(moviedb());
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            100,
            0.1,
            RefreshPolicy::Manual,
        )));
        for _ in 0..4 {
            monitor.lock().unwrap().record(path(&g, "movie.title"));
        }
        let refresher =
            Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), monitor).expect("spawn");
        refresher.request_refresh();
        // Shut down immediately: the queued cycle must still run.
        let stats = refresher.shutdown();
        assert_eq!(stats.refreshes, 1);
        assert_eq!(cell.generation(), 1);
        assert!(cell
            .snapshot()
            .index()
            .required_paths(&g)
            .contains(&"movie.title".to_string()));
    }

    #[test]
    fn redundant_requests_coalesce() {
        let g = Arc::new(moviedb());
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            100,
            0.1,
            RefreshPolicy::Manual,
        )));
        for _ in 0..4 {
            monitor.lock().unwrap().record(path(&g, "actor.name"));
        }
        let refresher =
            Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), monitor).expect("spawn");
        // Many requests in a burst: the guard folds the surplus. At
        // least one cycle runs; at most two can (one per distinct
        // pending claim), and the coalesced counter accounts for the
        // rest exactly.
        let mut scheduled = 0u64;
        for _ in 0..50 {
            if refresher.request_refresh() {
                scheduled += 1;
            }
        }
        refresher.wait_idle();
        let stats = refresher.shutdown();
        assert_eq!(scheduled, stats.refreshes + stats.empty_windows);
        assert_eq!(scheduled + stats.coalesced, 50);
        assert!(stats.refreshes >= 1);
        assert!(cell.generation() >= 1);
    }

    #[test]
    fn begin_shutdown_refuses_later_requests_but_drains_queued_work() {
        let g = Arc::new(moviedb());
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            100,
            0.1,
            RefreshPolicy::Manual,
        )));
        for _ in 0..4 {
            monitor.lock().unwrap().record(path(&g, "actor.name"));
        }
        let refresher =
            Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), monitor).expect("spawn");
        assert!(refresher.request_refresh());
        refresher.begin_shutdown();
        // The queued cycle still runs; new requests are refused.
        assert!(!refresher.request_refresh());
        let stats = refresher.shutdown();
        assert_eq!(stats.refreshes, 1);
        assert_eq!(cell.generation(), 1);
    }

    #[test]
    fn shutdown_with_refresh_in_flight_joins_and_publishes_nothing_after() {
        // Satellite coverage: shut down while a rebuild may be mid-cycle.
        // Whatever the interleaving (the refresh finished already, is in
        // flight, or is still queued), shutdown must (a) return promptly
        // with the thread joined, (b) publish nothing afterwards, and
        // (c) leave ServeStats consistent with the cell's generation.
        for lap in 0..8u64 {
            let g = Arc::new(moviedb());
            let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
            let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
                100,
                0.1,
                RefreshPolicy::Manual,
            )));
            for i in 0..6 {
                let p = if (i + lap) % 2 == 0 {
                    "actor.name"
                } else {
                    "movie.title"
                };
                monitor.lock().unwrap().record(path(&g, p));
            }
            let refresher =
                Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), Arc::clone(&monitor))
                    .expect("spawn");
            refresher.request_refresh();
            // Vary the race window: sometimes shut down immediately
            // (refresh likely still queued/in flight), sometimes after
            // the cycle is provably done.
            if lap % 2 == 1 {
                refresher.wait_idle();
                assert!(!refresher.is_busy());
            }
            let started = Instant::now();
            let stats = refresher.shutdown();
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "shutdown must join promptly"
            );
            // No swap is published after shutdown returns: the worker is
            // joined, so the generation is final.
            let generation_at_return = cell.generation();
            assert_eq!(
                generation_at_return, stats.refreshes,
                "every publish is accounted as a refresh"
            );
            assert_eq!(stats.records.len(), stats.refreshes as usize);
            for (i, r) in stats.records.iter().enumerate() {
                assert_eq!(r.generation, i as u64 + 1, "publishes are dense from 1");
                assert!(r.window > 0, "published cycles drained a window");
            }
            assert_eq!(cell.snapshot().generation(), generation_at_return);
            assert_eq!(cell.generation(), generation_at_return, "no late publish");
            // The drained window was non-empty, so exactly one cycle ran.
            assert_eq!(stats.refreshes, 1);
            assert_eq!(monitor.lock().unwrap().since_refresh(), 0);
        }
    }

    #[test]
    fn snapshot_stats_track_the_published_generation() {
        let g = moviedb();
        let cell = IndexCell::new(Apex::build_initial(&g));
        let s0 = cell.snapshot();
        assert_eq!(s0.stats().generation(), 0);
        assert_eq!(
            s0.stats().len(),
            s0.index().graph().reachable(s0.index().xroot()).len()
        );
        let mut refined = s0.index().clone();
        let wl = Workload::parse(&g, &["actor.name"]).unwrap();
        refined.refine(&g, &wl, 0.1);
        cell.publish_with_workload(refined, &wl);
        let s1 = cell.snapshot();
        assert_eq!(s1.stats().generation(), 1);
        assert_eq!(
            s1.stats().len(),
            s1.index().graph().reachable(s1.index().xroot()).len()
        );
        assert!(s1.stats().len() > s0.stats().len());
        let an = LabelPath::parse(&g, "actor.name").unwrap();
        assert!((s1.stats().path_support(&an) - 1.0).abs() < 1e-9);
        // The refresher path publishes workload-bearing stats too.
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            100,
            0.1,
            crate::monitor::RefreshPolicy::Manual,
        )));
        monitor.lock().unwrap().record(an.clone());
        let cell = Arc::new(cell);
        let refresher =
            Refresher::spawn(Arc::new(moviedb()), Arc::clone(&cell), monitor).expect("spawn");
        refresher.request_refresh();
        refresher.wait_idle();
        let s2 = cell.snapshot();
        assert_eq!(s2.stats().generation(), s2.generation());
        assert_eq!(s2.stats().workload_paths(), 1);
        drop(refresher);
    }

    #[test]
    fn durable_refresher_checkpoints_and_clean_shutdown_needs_no_replay() {
        use crate::recover::{recover, RecoverOptions};
        use crate::wal::{CrashPlan, DurabilityConfig, Wal};
        let g = Arc::new(moviedb());
        let dir = std::env::temp_dir().join(format!("apex-serve-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Arc::new(
            Wal::open(
                &dir,
                DurabilityConfig {
                    group_commit: 1,
                    checkpoint_every: 1,
                    retain: 0,
                },
                CrashPlan::none(),
            )
            .expect("open wal"),
        );
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            100,
            0.1,
            RefreshPolicy::Manual,
        )));
        monitor.lock().unwrap().attach_wal(Arc::clone(&wal));
        for _ in 0..6 {
            monitor.lock().unwrap().record(path(&g, "actor.name"));
        }
        let refresher = Refresher::spawn_durable(
            Arc::clone(&g),
            Arc::clone(&cell),
            Arc::clone(&monitor),
            Arc::clone(&wal),
        )
        .expect("spawn");
        refresher.request_refresh();
        refresher.wait_idle();
        let stats = refresher.shutdown();
        assert_eq!(stats.refreshes, 1);
        // One cadence checkpoint (checkpoint_every = 1) + the final
        // shutdown checkpoint.
        assert_eq!(stats.checkpoints, 2);
        assert_eq!(stats.checkpoint_errors, 0);

        // Clean shutdown ⇒ recovery applies zero records from the log.
        let rec = recover(&dir, &g, &RecoverOptions::default()).expect("recover");
        assert_eq!(rec.report.applied, 0, "clean shutdown must not need replay");
        assert_eq!(rec.generation, 1);
        assert!(crate::update::extent_equivalent(&g, &rec.index, cell.snapshot().index()).is_ok());
        // The shutdown checkpoint changed nothing since the cadence one:
        // a delta over it that stores no extent.
        let snaps = crate::wal::list_snapshots(&dir).unwrap();
        let [(base, first), (_, last)] = &snaps[..] else {
            panic!("two checkpoints: {snaps:?}")
        };
        let delta = crate::recover::load_snapshot(last).unwrap();
        assert_eq!(delta.base, Some(*base));
        let len = |p: &std::path::Path| std::fs::metadata(p).unwrap().len();
        assert!(len(last) < len(first), "{} vs {}", len(last), len(first));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queries_can_read_while_a_publish_happens() {
        // A reader holding a snapshot across a publish sees consistent
        // data; a reader arriving after sees the new generation.
        let g = moviedb();
        let cell = IndexCell::new(Apex::build_initial(&g));
        let held = cell.snapshot();
        let held_stats = held.index().stats();
        let mut refined = held.index().clone();
        let wl = Workload::parse(&g, &["director.movie"]).unwrap();
        refined.refine(&g, &wl, 0.1);
        cell.publish(refined);
        // Old snapshot still answers exactly as before.
        assert_eq!(held.index().stats(), held_stats);
        let p = LabelPath::parse(&g, "director.movie").unwrap();
        assert_eq!(held.index().lookup(p.labels()).matched_len, 1);
        assert_eq!(cell.snapshot().index().lookup(p.labels()).matched_len, 2);
    }
}
