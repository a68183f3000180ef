//! The in-process cluster harness: `shards × replicas` real listeners.
//!
//! A [`ShardCluster`] owns one [`ShardRuntime`] per shard and runs
//! `replicas` independent TCP servers over each — the `net::server`
//! admission/drain machinery verbatim, just constructed with a
//! shard-tagged, owned-filtered engine. Replica swaps reuse the
//! server's graceful drain: every request a draining replica accepted
//! is answered (served or explicitly shed) before its listener dies,
//! and its final [`NetStats`] is retained so cluster-wide accounting
//! keeps balancing across swaps.
//!
//! [`rolling_swap`] is the rollout choreography the CLI and the bench
//! drive: for each replica in turn, stop routing to it, drain and
//! replace it, then point the router at the successor. With ≥ 2
//! replicas per shard the sibling absorbs the traffic, so a client of
//! the router sees zero sheds end to end.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

use apex::ServeStats;
use apex_net::{NetStats, Server, ServerConfig};
use xmlgraph::XmlGraph;

use crate::map::ShardMap;
use crate::router::Router;
use crate::runtime::{RuntimeConfig, ShardRuntime};

/// Shape and tuning of one cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Listeners per shard; rolling swaps need ≥ 2 for zero shed.
    pub replicas: usize,
    /// Worker threads per replica server.
    pub workers: usize,
    /// Per-replica admission queue capacity.
    pub queue_cap: usize,
    /// When set, shard `s` logs its workload durably under
    /// `wal_root/shard-s/`.
    pub wal_root: Option<PathBuf>,
    /// Per-shard runtime knobs (monitor window, `minSup`, policy).
    pub runtime: RuntimeConfig,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            replicas: 2,
            workers: 2,
            queue_cap: 64,
            wal_root: None,
            runtime: RuntimeConfig::default(),
        }
    }
}

/// Final accounting of a shut-down cluster.
#[derive(Debug)]
pub struct ClusterStats {
    /// Drain stats of the replicas live at shutdown, `[shard][replica]`.
    pub shard_nets: Vec<Vec<NetStats>>,
    /// Drain stats of replicas retired by earlier swaps, in swap order.
    pub retired: Vec<NetStats>,
    /// Per-shard refresher stats, by shard id.
    pub serve: Vec<ServeStats>,
}

impl ClusterStats {
    /// Field-wise total over live and retired replicas: the cluster's
    /// whole serving history, swaps included.
    pub fn net_total(&self) -> NetStats {
        let mut t = NetStats::default();
        for s in self.shard_nets.iter().flatten().chain(self.retired.iter()) {
            t.connections += s.connections;
            t.accepted += s.accepted;
            t.served += s.served;
            t.shed += s.shed;
            t.timed_out += s.timed_out;
            t.queue_hwm = t.queue_hwm.max(s.queue_hwm);
        }
        t
    }

    /// No-silent-drops across the whole cluster history.
    pub fn balanced(&self) -> bool {
        self.net_total().balanced()
    }
}

/// A running cluster: one runtime per shard, `replicas` servers each.
pub struct ShardCluster {
    map: ShardMap,
    cfg: ClusterConfig,
    runtimes: Vec<ShardRuntime>,
    servers: Vec<Vec<Server>>,
    retired: Vec<NetStats>,
}

impl ShardCluster {
    /// Partitions `g` by `map` and starts every runtime and replica
    /// listener (all on ephemeral loopback ports — read them back with
    /// [`ShardCluster::addrs`]).
    pub fn start(g: Arc<XmlGraph>, map: ShardMap, cfg: ClusterConfig) -> io::Result<ShardCluster> {
        let mut runtimes = Vec::with_capacity(map.shards() as usize);
        let mut servers = Vec::with_capacity(map.shards() as usize);
        for s in 0..map.shards() {
            let rt_cfg = RuntimeConfig {
                wal_dir: cfg
                    .wal_root
                    .as_ref()
                    .map(|root| root.join(format!("shard-{s}"))),
                ..cfg.runtime.clone()
            };
            let rt = ShardRuntime::start(s, &map, Arc::clone(&g), &rt_cfg)?;
            let mut reps = Vec::with_capacity(cfg.replicas.max(1));
            for _ in 0..cfg.replicas.max(1) {
                reps.push(Server::start(
                    rt.engine(),
                    Self::server_cfg(&cfg),
                    "127.0.0.1:0",
                )?);
            }
            runtimes.push(rt);
            servers.push(reps);
        }
        Ok(ShardCluster {
            map,
            cfg,
            runtimes,
            servers,
            retired: Vec::new(),
        })
    }

    fn server_cfg(cfg: &ClusterConfig) -> ServerConfig {
        ServerConfig {
            workers: cfg.workers.max(1),
            queue_cap: cfg.queue_cap,
            ..ServerConfig::default()
        }
    }

    /// The partitioner this cluster serves under.
    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Live replica addresses, `[shard][replica]` — the router's
    /// bootstrap topology.
    pub fn addrs(&self) -> Vec<Vec<SocketAddr>> {
        self.servers
            .iter()
            .map(|reps| reps.iter().map(|s| s.local_addr()).collect())
            .collect()
    }

    /// The runtime behind shard `shard`, for deterministic stepping.
    pub fn runtime(&self, shard: u16) -> Option<&ShardRuntime> {
        self.runtimes.get(shard as usize)
    }

    /// Current published generation of every shard, by shard id.
    pub fn generations(&self) -> Vec<u64> {
        self.runtimes.iter().map(|rt| rt.generation()).collect()
    }

    /// Drains replica `(shard, replica)` gracefully — every accepted
    /// request answered, final stats retained in the retired ledger —
    /// and starts a fresh listener over the same runtime on a new
    /// ephemeral port, returning its address. The shard's refresher
    /// keeps running throughout (it is shared, owned by the runtime).
    pub fn swap_replica(&mut self, shard: u16, replica: usize) -> io::Result<SocketAddr> {
        let rt = self.runtimes.get(shard as usize).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("no shard {shard}"))
        })?;
        let fresh = Server::start(rt.engine(), Self::server_cfg(&self.cfg), "127.0.0.1:0")?;
        let addr = fresh.local_addr();
        let slot = self
            .servers
            .get_mut(shard as usize)
            .and_then(|reps| reps.get_mut(replica))
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("no replica {replica} of shard {shard}"),
                )
            })?;
        let mut old = std::mem::replace(slot, fresh);
        self.retired.push(old.drain());
        Ok(addr)
    }

    /// Drains every replica, stops every runtime, returns the full
    /// accounting (live, retired and refresher stats).
    pub fn shutdown(self) -> ClusterStats {
        let ShardCluster {
            runtimes,
            servers,
            retired,
            ..
        } = self;
        let mut shard_nets = Vec::with_capacity(servers.len());
        for reps in servers {
            let mut row = Vec::with_capacity(reps.len());
            for mut server in reps {
                row.push(server.drain());
            }
            shard_nets.push(row);
        }
        let serve = runtimes.into_iter().map(|rt| rt.shutdown()).collect();
        ClusterStats {
            shard_nets,
            retired,
            serve,
        }
    }
}

/// What one rolling swap did.
#[derive(Debug, Clone, Default)]
pub struct RolloutReport {
    /// Replicas drained and replaced, in order of `(shard, replica)`.
    pub swapped: usize,
    /// Requests the retired replicas shed while draining (absorbed by
    /// sibling retries — a router client still sees zero sheds).
    pub drained_sheds: u64,
}

/// Replaces every replica of every shard, one at a time, while the
/// cluster serves: un-admit the replica at the router → gracefully
/// drain and restart it → hand the router the successor's address
/// (which readmits it). The sibling replica carries the shard while
/// its peer is out, so with `replicas ≥ 2` no router client observes
/// a shed — the zero-downtime invariant the rollout bench asserts.
pub fn rolling_swap(cluster: &mut ShardCluster, router: &Router) -> io::Result<RolloutReport> {
    let mut report = RolloutReport::default();
    let before: u64 = cluster.retired.iter().map(|s| s.shed).sum();
    for shard in 0..cluster.map.shards() {
        for replica in 0..cluster.cfg.replicas.max(1) {
            router.set_admit(shard, replica, false);
            let addr = cluster.swap_replica(shard, replica)?;
            router.set_replica_addr(shard, replica, addr);
            report.swapped += 1;
        }
    }
    let after: u64 = cluster.retired.iter().map(|s| s.shed).sum();
    report.drained_sheds = after - before;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_net::{Client, Status};
    use xmlgraph::builder::moviedb;

    #[test]
    fn cluster_serves_each_shard_over_real_sockets() {
        let g = Arc::new(moviedb());
        let map = ShardMap::new(2);
        let cluster = ShardCluster::start(g, map, ClusterConfig::default()).expect("start");
        let addrs = cluster.addrs();
        assert_eq!(addrs.len(), 2);
        assert!(addrs.iter().all(|reps| reps.len() == 2));
        // Both replicas of a shard serve the same filtered answer.
        let mut totals = Vec::new();
        for reps in &addrs {
            let mut per_replica = Vec::new();
            for addr in reps {
                let mut c = Client::connect(addr).expect("connect");
                let r = c.call("//actor/name", 0).expect("call");
                assert_eq!(r.status, Status::Ok);
                assert_eq!(r.gens.len(), 1, "shard replicas stamp one gens entry");
                per_replica.push(r.total_rows);
            }
            assert_eq!(per_replica[0], per_replica[1]);
            totals.push(per_replica[0]);
        }
        let stats = cluster.shutdown();
        assert!(stats.balanced(), "{:?}", stats.net_total());
        assert_eq!(stats.net_total().accepted, 4);
    }

    #[test]
    fn swap_replica_retires_cleanly_and_successor_serves() {
        let g = Arc::new(moviedb());
        let map = ShardMap::new(1);
        let mut cluster = ShardCluster::start(g, map, ClusterConfig::default()).expect("start");
        let old = cluster.addrs()[0][0];
        let mut c = Client::connect(old).expect("connect");
        assert_eq!(c.call("//movie/title", 0).expect("call").status, Status::Ok);
        drop(c);
        let fresh = cluster.swap_replica(0, 0).expect("swap");
        assert_ne!(fresh, old);
        let mut c = Client::connect(fresh).expect("connect successor");
        assert_eq!(c.call("//movie/title", 0).expect("call").status, Status::Ok);
        drop(c);
        let stats = cluster.shutdown();
        assert_eq!(stats.retired.len(), 1);
        assert_eq!(stats.retired[0].accepted, 1);
        assert!(stats.balanced());
    }

    /// A durable cluster gives every shard its own WAL directory under
    /// `wal_root`.
    #[test]
    fn wal_root_persists_the_shard_map() {
        let dir = std::env::temp_dir().join(format!("apex-cluster-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = Arc::new(moviedb());
        let map = ShardMap::with_seed(2, 0xFEED);
        let cfg = ClusterConfig {
            wal_root: Some(dir.clone()),
            ..ClusterConfig::default()
        };
        let cluster = ShardCluster::start(g, map, cfg).expect("start");
        assert!(dir.join("shard-0").is_dir(), "durable shard WAL dir");
        assert!(dir.join("shard-1").is_dir(), "durable shard WAL dir");
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
