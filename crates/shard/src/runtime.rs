//! One shard's serving state: a full APEX runtime plus its owned slice.
//!
//! Every shard holds the complete graph and its own adaptively-refined
//! index, and answers any query — but filters results to the node set
//! the [`ShardMap`] assigns it. That makes per-shard
//! answers disjoint by construction, so a router's union of them is
//! exactly the single-process answer (the equivalence the suite's
//! `shard_laws` and `shard_equivalence` tests pin down).
//!
//! Replicas of a shard are *listeners*, not copies: every replica's
//! [`Engine`] shares this one runtime's index cell, monitor and
//! refresher, so all replicas always serve the same generation and the
//! shard's adaptation survives any single replica draining for a
//! rolling swap. The refresher is shut down by the runtime, last.

use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use apex::{
    Apex, CrashPlan, DurabilityConfig, IndexCell, RefreshPolicy, Refresher, ServeStats, Wal,
    WorkloadMonitor,
};
use apex_net::{Engine, ExecOutcome};
use apex_storage::{DataTable, PageModel};
use xmlgraph::XmlGraph;

use crate::map::ShardMap;

/// Knobs for one shard's runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Workload-monitor window capacity.
    pub monitor_capacity: usize,
    /// APEX `minSup` threshold driving refinement.
    pub min_sup: f64,
    /// When the monitor declares a refresh due.
    pub policy: RefreshPolicy,
    /// When set, the shard logs its workload to a WAL in this directory
    /// and the refresher checkpoints through it (log-before-ack, same
    /// as the single-process durable path).
    pub wal_dir: Option<PathBuf>,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            monitor_capacity: 256,
            min_sup: 0.3,
            policy: RefreshPolicy::Manual,
            wal_dir: None,
        }
    }
}

/// A live shard: index cell, monitor, shared refresher, owned node set.
#[derive(Debug)]
pub struct ShardRuntime {
    shard: u16,
    cell: Arc<IndexCell>,
    refresher: Arc<Refresher>,
    engine: Engine,
}

impl ShardRuntime {
    /// Builds shard `shard` of `map` over the (shared) graph and spawns
    /// its refresher. Each shard builds its own index and data table —
    /// shards adapt independently to the slice of the workload whose
    /// answers they own.
    pub fn start(
        shard: u16,
        map: &ShardMap,
        g: Arc<XmlGraph>,
        cfg: &RuntimeConfig,
    ) -> io::Result<ShardRuntime> {
        let owned = Arc::new(map.owned_nodes(&g, shard));
        let table = Arc::new(DataTable::build(&g, PageModel::default()));
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let mut monitor = WorkloadMonitor::new(cfg.monitor_capacity, cfg.min_sup, cfg.policy);
        let wal = match &cfg.wal_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                let wal = Arc::new(Wal::open(
                    dir,
                    DurabilityConfig::default(),
                    CrashPlan::none(),
                )?);
                monitor.attach_wal(Arc::clone(&wal));
                Some(wal)
            }
            None => None,
        };
        let monitor = Arc::new(Mutex::new(monitor));
        let refresher = Arc::new(match wal {
            Some(wal) => Refresher::spawn_durable(
                Arc::clone(&g),
                Arc::clone(&cell),
                Arc::clone(&monitor),
                wal,
            )?,
            None => Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), Arc::clone(&monitor))?,
        });
        let engine = Engine::new(g, table, Arc::clone(&cell), monitor)
            .with_shared_refresher(Arc::clone(&refresher))
            .with_shard_tag(shard)
            .with_owned_nodes(owned);
        Ok(ShardRuntime {
            shard,
            cell,
            refresher,
            engine,
        })
    }

    /// This shard's id in the map.
    pub fn shard(&self) -> u16 {
        self.shard
    }

    /// The engine replicas serve through. Clones share all state — a
    /// new listener on this shard is `Server::start(rt.engine(), …)`.
    pub fn engine(&self) -> Engine {
        self.engine.clone()
    }

    /// The currently published index generation.
    pub fn generation(&self) -> u64 {
        self.cell.generation()
    }

    /// Runs one refresh cycle synchronously: request, then wait until
    /// the refresher is idle again. Deterministic tests step shards
    /// with this instead of sleeping; the generation advances iff the
    /// monitor's window had recorded traffic.
    pub fn step_refresh(&self) {
        self.refresher.request_refresh();
        self.refresher.wait_idle();
    }

    /// Evaluates one query in-process through this shard's engine —
    /// exactly what a replica would serve, minus the socket. The law
    /// tests compare the union of these across shards to a
    /// single-process run.
    pub fn eval_local(&self, query: &str) -> ExecOutcome {
        self.engine.execute(query, None)
    }

    /// Stops the refresher and returns its stats. Call after every
    /// replica server of this shard has been drained *and dropped*;
    /// while an engine clone is still alive the refresher handle is
    /// shared, so this falls back to signalling shutdown without
    /// joining.
    pub fn shutdown(self) -> ServeStats {
        let ShardRuntime {
            refresher, engine, ..
        } = self;
        drop(engine); // releases the engine's shared-refresher handle
        match Arc::try_unwrap(refresher) {
            Ok(r) => r.shutdown(),
            Err(r) => {
                // A replica still holds the engine; don't block — the
                // refresher thread exits when the last handle drops.
                r.begin_shutdown();
                ServeStats::default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_net::Status;
    use xmlgraph::builder::moviedb;

    #[test]
    fn shard_runtimes_tile_the_single_process_answer() {
        let g = Arc::new(moviedb());
        let map = ShardMap::new(3);
        let cfg = RuntimeConfig::default();
        let runtimes: Vec<ShardRuntime> = (0..3)
            .map(|s| ShardRuntime::start(s, &map, Arc::clone(&g), &cfg).expect("start"))
            .collect();

        // Single-process baseline: shard the same graph 1-way.
        let solo_map = ShardMap::new(1);
        let solo = ShardRuntime::start(0, &solo_map, Arc::clone(&g), &cfg).expect("solo");
        for q in ["//actor/name", "//movie/title", "//director/movie/title"] {
            let full = solo.eval_local(q);
            assert_eq!(full.status, Status::Ok);
            let parts: Vec<_> = runtimes.iter().map(|rt| rt.eval_local(q)).collect();
            let total: u32 = parts.iter().map(|p| p.total_rows).sum();
            assert_eq!(total, full.total_rows, "{q}: shards must tile the total");
            let mut union: Vec<u32> = parts.iter().flat_map(|p| p.rows.iter().copied()).collect();
            union.sort_unstable();
            union.truncate(full.rows.len());
            assert_eq!(union, full.rows, "{q}: shard rows must tile the sample");
        }
        for rt in runtimes {
            rt.shutdown();
        }
        solo.shutdown();
    }

    #[test]
    fn step_refresh_advances_the_generation_under_traffic() {
        let g = Arc::new(moviedb());
        let map = ShardMap::new(2);
        let rt = ShardRuntime::start(0, &map, g, &RuntimeConfig::default()).expect("start");
        assert_eq!(rt.generation(), 0);
        rt.eval_local("//actor/name");
        rt.eval_local("//movie/title");
        rt.step_refresh();
        assert_eq!(rt.generation(), 1, "recorded traffic must publish a swap");
        let stats = rt.shutdown();
        assert_eq!(stats.refreshes, 1);
    }
}
