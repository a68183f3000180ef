//! The serving bridge between the wire protocol and the query layer.
//!
//! An [`Engine`] owns shared handles to everything one query needs —
//! graph, data table, [`IndexCell`], workload monitor, optional
//! refresher — and exposes a single [`Engine::execute`], the serving
//! step of APEX's adaptive loop: snapshot the cell, evaluate through
//! the shared operators against that snapshot (extents read the
//! engine's buffer pool under their content names, node records under
//! the snapshot's generation), record the query into the monitor, and
//! nudge the refresher when the policy says a refine is due. It is the
//! only place that step exists: the socket server, the shard runtimes
//! and the CLI's `serve` replay all call it. Workers on different threads
//! share one `Engine` through the server's `Arc`; every handle inside
//! is `Sync` or internally locked.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::sync::{Arc, Mutex};
use std::time::Instant;

use apex::{IndexCell, Refresher, WorkloadMonitor};
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::recordable_path;
use apex_query::{Query, QueryProcessor};
use apex_storage::rank::{self, Rank};
use apex_storage::{gallop_lower_bound_u32, BufferHandle, DataTable};
use xmlgraph::XmlGraph;

use crate::wire::{Status, MAX_ROW_SAMPLE};

/// What one execution produced, before the server stamps transport
/// fields (request id, service time) onto the wire response.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Disposition: `Ok`, `DeadlineExceeded` (interrupted at a
    /// checkpoint) or `ParseError`. Admission sheds never reach here.
    pub status: Status,
    /// The generation that served (or refused) the query.
    pub generation: u64,
    /// Total result rows (0 on parse errors; partial on interrupts).
    pub total_rows: u32,
    /// Prefix sample of result node ids, ≤ [`MAX_ROW_SAMPLE`].
    pub rows: Vec<u32>,
    /// Pages read by this query (logical cost model).
    pub pages_read: u64,
    /// Join work charged to this query (logical cost model).
    pub join_work: u64,
    /// Digest of the cost-based plan that served the query (0 when no
    /// planner ran — parse errors, unplanned query shapes).
    pub plan_digest: u64,
}

/// Shared query-serving state behind the TCP server.
#[derive(Debug, Clone)]
pub struct Engine {
    g: Arc<XmlGraph>,
    table: Arc<DataTable>,
    cell: Arc<IndexCell>,
    monitor: Arc<Mutex<WorkloadMonitor>>,
    refresher: Option<Arc<Refresher>>,
    /// When true, the refresher outlives this engine's server (replicas
    /// of one shard share it), so `begin_drain` leaves it running.
    refresher_shared: bool,
    buf: BufferHandle,
    /// Shard-local serving: this engine's shard id, stamped into every
    /// response's generation vector.
    shard_tag: Option<u16>,
    /// Shard-local serving: sorted node ids this shard owns. Query
    /// results are filtered to this set, so the union over a cluster's
    /// shards is exactly the single-process result, disjointly.
    owned: Option<Arc<Vec<u32>>>,
}

impl Engine {
    /// Builds an engine over shared serving state. The cross-query
    /// buffer pool is unbounded and owned by the engine.
    pub fn new(
        g: Arc<XmlGraph>,
        table: Arc<DataTable>,
        cell: Arc<IndexCell>,
        monitor: Arc<Mutex<WorkloadMonitor>>,
    ) -> Engine {
        Engine {
            g,
            table,
            cell,
            monitor,
            refresher: None,
            refresher_shared: false,
            buf: BufferHandle::unbounded(),
            shard_tag: None,
            owned: None,
        }
    }

    /// Attaches the background refresher so recorded workload drift
    /// triggers snapshot swaps under live traffic. Without one, queries
    /// are still recorded but nothing rebuilds.
    pub fn with_refresher(mut self, refresher: Arc<Refresher>) -> Engine {
        self.refresher = Some(refresher);
        self.refresher_shared = false;
        self
    }

    /// Attaches a refresher that this engine's server does *not* own:
    /// draining the server leaves it running. Replicated shards use
    /// this — every replica of a shard nudges the same refresher, and
    /// one replica draining for a rolling swap must not stop the
    /// shard's adaptation (the shard runtime shuts it down last).
    pub fn with_shared_refresher(mut self, refresher: Arc<Refresher>) -> Engine {
        self.refresher = Some(refresher);
        self.refresher_shared = true;
        self
    }

    /// Tags this engine as serving shard `shard` of a cluster: the
    /// server stamps `(shard, generation)` into every response's
    /// generation vector so a scatter-gather router can enforce the
    /// no-mixed-generations invariant.
    pub fn with_shard_tag(mut self, shard: u16) -> Engine {
        self.shard_tag = Some(shard);
        self
    }

    /// Restricts results to the shard's owned node set (`owned` must be
    /// sorted ascending). Evaluation still runs over the full graph —
    /// the filter is what makes per-shard results disjoint, so the
    /// router's merge of every shard's rows reproduces the
    /// single-process answer exactly.
    pub fn with_owned_nodes(mut self, owned: Arc<Vec<u32>>) -> Engine {
        self.owned = Some(owned);
        self
    }

    /// The shard id stamped into responses, when shard-tagged.
    pub fn shard_tag(&self) -> Option<u16> {
        self.shard_tag
    }

    /// The current published generation.
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// Drain hook: stops the attached refresher accepting new rebuild
    /// requests (its in-flight cycle still completes). The owner of the
    /// `Refresher` joins it after the server has drained. A *shared*
    /// refresher ([`Engine::with_shared_refresher`]) is left running —
    /// sibling replicas still depend on it.
    pub fn begin_drain(&self) {
        if self.refresher_shared {
            return;
        }
        if let Some(r) = &self.refresher {
            r.begin_shutdown();
        }
    }

    /// Parses and executes one query against the current snapshot.
    ///
    /// `deadline` arms mid-execution checkpoints: evaluation that
    /// crosses it stops early and reports `DeadlineExceeded` with the
    /// partial rows collected so far. Expiry *before* execution is the
    /// server's dequeue check, not this method's concern.
    pub fn execute(&self, query_text: &str, deadline: Option<Instant>) -> ExecOutcome {
        let snap = self.cell.snapshot();
        let generation = snap.generation();
        let q = match Query::parse(&self.g, query_text) {
            Ok(q) => q,
            Err(_) => {
                return ExecOutcome {
                    status: Status::ParseError,
                    generation,
                    total_rows: 0,
                    rows: Vec::new(),
                    pages_read: 0,
                    join_work: 0,
                    plan_digest: 0,
                }
            }
        };
        let mut p = ApexProcessor::with_buffer_tagged(
            &self.g,
            snap.index(),
            &self.table,
            self.buf.clone(),
            generation,
        );
        if let Some(d) = deadline {
            p = p.with_deadline(d);
        }
        let out = p.eval(&q);

        // Record the query and nudge the refresher: monitoring is part
        // of serving, so every served workload steers the index. Plan
        // feedback (predicted vs actual per operator) rides the same
        // lock.
        //
        // Durability (log-before-ack): with a WAL attached, `record`
        // writes the query's frame under this same monitor lock — the
        // log order is the monitor's serialization order, which is what
        // replay reapplies. A group-commit fsync the record owes comes
        // back as a `Commit`, dropped once the guard is gone: this
        // request alone waits for (or leads) the flush, still before
        // `execute` returns and so before the server writes the response.
        let path = recordable_path(&q);
        if path.is_some() || out.plan.is_some() {
            let mut commit = None;
            let due = {
                let mut m = rank::lock(&self.monitor, Rank::Monitor);
                if let Some(rep) = &out.plan {
                    m.record_plan(rep.feedback());
                }
                if let Some(path) = path {
                    commit = m.record(path);
                    m.refresh_due(&self.g, snap.index())
                } else {
                    false
                }
            };
            drop(commit);
            if due {
                if let Some(r) = &self.refresher {
                    r.request_refresh();
                }
            }
        }

        let status = if out.interrupted {
            Status::DeadlineExceeded
        } else {
            Status::Ok
        };
        let mut nodes = out.nodes;
        if let Some(owned) = &self.owned {
            filter_owned(&mut nodes, owned);
        }
        ExecOutcome {
            status,
            generation,
            total_rows: nodes.len().min(u32::MAX as usize) as u32,
            rows: nodes.iter().take(MAX_ROW_SAMPLE).map(|n| n.0).collect(),
            pages_read: out.cost.pages_read,
            join_work: out.cost.join_work,
            plan_digest: out.plan.as_ref().map_or(0, |r| r.digest),
        }
    }
}

/// Retains exactly the nodes in `owned` (both inputs sorted ascending
/// by node id — document order). An answer is a few rows against a
/// shard's whole owned list, so each row gallops from the previous
/// row's position: O(|answer| · log gap), not O(|owned|).
fn filter_owned(nodes: &mut Vec<xmlgraph::NodeId>, owned: &[u32]) {
    let mut oi = 0usize;
    let mut work = 0usize;
    nodes.retain(|n| {
        oi = gallop_lower_bound_u32(owned, oi, n.0, &mut work);
        owned.get(oi) == Some(&n.0)
    });
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use apex::{Apex, RefreshPolicy};
    use apex_storage::PageModel;
    use xmlgraph::builder::moviedb;

    fn engine() -> Engine {
        let g = Arc::new(moviedb());
        let table = Arc::new(DataTable::build(&g, PageModel::default()));
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            100,
            0.3,
            RefreshPolicy::Manual,
        )));
        Engine::new(g, table, cell, monitor)
    }

    #[test]
    fn executes_and_reports_cost() {
        let e = engine();
        let out = e.execute("//actor/name", None);
        assert_eq!(out.status, Status::Ok);
        assert!(out.total_rows > 0);
        assert_eq!(out.rows.len() as u32, out.total_rows.min(64));
        assert!(out.pages_read > 0, "extent scans must charge pages");
        assert_eq!(out.generation, 0);
        assert_ne!(out.plan_digest, 0, "path queries carry a plan digest");
    }

    #[test]
    fn plan_feedback_reaches_the_monitor() {
        let e = engine();
        e.execute("//director/movie/title", None);
        let m = e.monitor.lock().expect("monitor");
        let fb = m.plan_feedback();
        assert!(
            fb.plans() > 0 && fb.actual_total() > 0,
            "executed plans must report predicted-vs-actual cost"
        );
    }

    #[test]
    fn parse_errors_are_a_status_not_a_panic() {
        let e = engine();
        let out = e.execute("actor/name", None); // missing leading //
        assert_eq!(out.status, Status::ParseError);
        assert_eq!(out.total_rows, 0);
        let out = e.execute("//no_such_label_anywhere", None);
        // Unknown labels parse to an error too (labels are interned).
        assert_eq!(out.status, Status::ParseError);
    }

    #[test]
    fn expired_deadline_interrupts_mid_execution() {
        let e = engine();
        // A deadline already in the past trips the first checkpoint.
        let out = e.execute("//actor/name", Some(Instant::now()));
        assert_eq!(out.status, Status::DeadlineExceeded);
    }

    #[test]
    fn owned_filter_partitions_results_disjointly() {
        let full = engine().execute("//actor/name", None);
        assert_eq!(full.status, Status::Ok);
        // Split the id space in two by parity; the halves must tile the
        // full result exactly.
        let g = Arc::new(moviedb());
        let evens: Vec<u32> = (0..g.node_count() as u32).filter(|n| n % 2 == 0).collect();
        let odds: Vec<u32> = (0..g.node_count() as u32).filter(|n| n % 2 == 1).collect();
        let e0 = engine().with_owned_nodes(Arc::new(evens));
        let e1 = engine().with_owned_nodes(Arc::new(odds));
        let a = e0.execute("//actor/name", None);
        let b = e1.execute("//actor/name", None);
        assert_eq!(a.total_rows + b.total_rows, full.total_rows);
        let mut union: Vec<u32> = a.rows.iter().chain(b.rows.iter()).copied().collect();
        union.sort_unstable();
        assert_eq!(union, full.rows, "shard halves must tile the full rows");
    }

    #[test]
    fn shard_tag_is_exposed() {
        let e = engine().with_shard_tag(3);
        assert_eq!(e.shard_tag(), Some(3));
        assert_eq!(engine().shard_tag(), None);
    }

    #[test]
    fn queries_are_recorded_into_the_monitor() {
        let e = engine();
        let before = e.monitor.lock().expect("monitor").total_recorded();
        e.execute("//actor/name", None);
        e.execute("//movie/title", None);
        let after = e.monitor.lock().expect("monitor").total_recorded();
        assert_eq!(after - before, 2);
    }

    #[test]
    fn serves_at_any_generation() {
        // 2^24 is where a generation times a 2^40-byte layout stride
        // leaves u64: node-record pages are named by generation and page,
        // never by one product of the two.
        let g = Arc::new(moviedb());
        let table = Arc::new(DataTable::build(&g, PageModel::default()));
        for generation in [1 << 24, u64::MAX] {
            let index = Apex::build_initial(&g);
            let cell = Arc::new(IndexCell::with_generation(index, generation));
            let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
                100,
                0.3,
                RefreshPolicy::Manual,
            )));
            let e = Engine::new(Arc::clone(&g), Arc::clone(&table), cell, monitor);
            for q in ["//movie//name", "//actor/name"] {
                let out = e.execute(q, None);
                assert_eq!(out.status, Status::Ok, "{q}");
                assert_eq!(out.generation, generation);
                assert!(out.total_rows > 0, "{q}");
            }
        }
    }

    #[test]
    fn execute_serves_across_generations() {
        let g = Arc::new(moviedb());
        let table = Arc::new(DataTable::build(&g, PageModel::default()));
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            100,
            0.3,
            RefreshPolicy::EveryN(10),
        )));
        let refresher = Arc::new(
            Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), Arc::clone(&monitor))
                .expect("spawn refresher"),
        );
        let e = Engine::new(Arc::clone(&g), table, Arc::clone(&cell), monitor)
            .with_refresher(Arc::clone(&refresher));

        // One phase: every answer comes from the generation current at
        // the phase's entry or a later one, and never goes back. A swap
        // may land mid-phase, so compare against the entry, not the
        // live cell, which can already be ahead.
        let phase = |queries: &[&str]| {
            let mut last = cell.generation();
            for q in queries {
                let out = e.execute(q, None);
                assert_eq!(out.status, Status::Ok, "{q}");
                assert!(
                    out.generation >= last,
                    "{q}: gen {} after {last}",
                    out.generation
                );
                last = out.generation;
            }
        };

        // Phase 1: a hot actor.name workload. The EveryN(10) policy
        // requests a refresh on the 10th recorded query; wait_idle
        // between phases makes the generation advance deterministic.
        phase(&["//actor/name"; 12]);
        refresher.wait_idle();
        assert!(cell.generation() >= 1, "phase 1 must publish");
        let required = cell.snapshot().index().required_paths(&g);
        assert!(required.contains(&"actor.name".to_string()), "{required:?}");

        // Phase 2: the workload shifts to director.movie.
        phase(&["//director/movie"; 12]);
        refresher.wait_idle();
        let g2 = cell.generation();
        assert!(g2 >= 2, "phase 2 must publish again (gen {g2})");

        // Phase 3: a mixed workload whose own 10 recorded queries re-arm
        // the policy, so a further swap may land while it runs.
        let mixed = [
            "//actor/name",
            "//movie/title",
            "//name",
            "//title",
            "//movie",
        ];
        phase(&[mixed, mixed].concat());

        drop(e); // releases the engine's refresher handle
        let stats = Arc::into_inner(refresher)
            .expect("sole refresher owner")
            .shutdown();
        assert!(stats.refreshes >= 2);
        assert_eq!(stats.refreshes, cell.generation());
        // The published index went through one refine per swap, each
        // over another window, and holds no garbage in either arena.
        let violations = apex::validate::check(&g, cell.snapshot().index());
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
