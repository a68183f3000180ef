//! The surface a workload talks to — an in-process engine, a socket
//! server, or a router in front of shard servers — built over
//! [`Cell`]s, plus the closed-loop caller that drives it and checks
//! every answer.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use apex::Apex;
use apex_net::{Client, Engine, NetStats, Server, ServerConfig, Status};
use apex_shard::{Router, RouterConfig, RouterStats, ShardMap};
use apex_storage::{DataTable, PageModel};
use xmlgraph::XmlGraph;

use crate::cell::{Cell, Failure};
use crate::workload::{Spec, Surface};

/// What a caller saw for one query, whichever surface answered.
pub struct Reply {
    pub ok: bool,
    pub total_rows: u32,
    pub rows: Vec<u32>,
    pub server_us: u64,
    pub pages_read: u64,
    pub join_work: u64,
}

pub enum Caller {
    Local(Engine),
    Remote(Client),
}

impl Caller {
    pub fn call(&mut self, query: &str) -> Result<Reply, Failure> {
        Ok(match self {
            Caller::Local(engine) => {
                let out = engine.execute(query, None);
                Reply {
                    ok: out.status == Status::Ok,
                    total_rows: out.total_rows,
                    rows: out.rows,
                    server_us: 0,
                    pages_read: out.pages_read,
                    join_work: out.join_work,
                }
            }
            Caller::Remote(client) => {
                let r = client.call(query, 0)?;
                Reply {
                    ok: r.status == Status::Ok,
                    total_rows: r.total_rows,
                    rows: r.rows,
                    server_us: r.server_us,
                    pages_read: r.pages_read,
                    join_work: r.join_work,
                }
            }
        })
    }
}

/// First answer seen per query id. Every later answer — another
/// generation, another connection, another set-up — must equal it.
pub struct Answers(Vec<OnceLock<(u32, Vec<u32>)>>);

impl Answers {
    pub fn new(queries: usize) -> Answers {
        Answers((0..queries).map(|_| OnceLock::new()).collect())
    }

    /// True when `reply` is `Ok` and agrees with the first answer.
    pub fn check(&self, id: u32, reply: &Reply) -> bool {
        let first = self.0[id as usize].get_or_init(|| (reply.total_rows, reply.rows.clone()));
        reply.ok && first.0 == reply.total_rows && first.1 == reply.rows
    }

    pub fn get(&self, id: u32) -> Option<&(u32, Vec<u32>)> {
        self.0[id as usize].get()
    }
}

/// One closed-loop caller and what it measured.
pub struct ClientState {
    pub caller: Caller,
    pub lat_ns: Vec<u32>,
    pub attempted: u64,
    pub failed: u64,
}

impl ClientState {
    /// Sends `list` one query at a time. A transport error fails the
    /// op that hit it and every op left in the list.
    pub fn serve(&mut self, queries: &[String], list: &[u32], answers: &Answers, record: bool) {
        for (i, &id) in list.iter().enumerate() {
            self.attempted += 1;
            let t = Instant::now();
            let reply = self.caller.call(&queries[id as usize]);
            let ns = t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
            match reply {
                Ok(reply) => {
                    if record {
                        self.lat_ns.push(ns);
                    }
                    if !answers.check(id, &reply) {
                        if self.failed < 3 {
                            eprintln!(
                                "perf: {} answered ok={} rows={}, not its first answer",
                                queries[id as usize], reply.ok, reply.total_rows
                            );
                        }
                        self.failed += 1;
                    }
                }
                Err(e) => {
                    eprintln!("perf: transport error: {e}");
                    let rest = (list.len() - i - 1) as u64;
                    self.attempted += rest;
                    self.failed += 1 + rest;
                    return;
                }
            }
        }
    }
}

/// Final accounting of the surface, taken at drain.
pub struct Ledgers {
    pub servers: Vec<NetStats>,
    pub router: Option<RouterStats>,
}

impl Ledgers {
    /// Every request disposed exactly once at every hop, and — behind a
    /// router — every request a shard accepted either forwarded by the
    /// router or one of the `direct` the traced run sent past it.
    pub fn balanced(&self, direct: u64) -> bool {
        let servers_ok = self.servers.iter().all(NetStats::balanced);
        match &self.router {
            None => servers_ok,
            Some(r) => {
                let accepted: u64 = self.servers.iter().map(|s| s.accepted).sum();
                servers_ok && r.balanced() && r.hop_delivered() + direct == accepted
            }
        }
    }
}

pub struct Stack {
    pub cells: Vec<Cell>,
    servers: Vec<Server>,
    router: Option<Router>,
    front: Option<SocketAddr>,
    /// Wall time of `ShardMap::owned_nodes` over all shards.
    pub owned_nodes_ms: f64,
}

impl Stack {
    /// Composes the surface of `spec`. Cell 0 takes the graph's first
    /// table and index; further shards build their own, as
    /// `ShardRuntime::start` does.
    pub fn build(
        spec: &Spec,
        g: &Arc<XmlGraph>,
        table: Arc<DataTable>,
        apex0: Apex,
        root: &Path,
    ) -> Result<Stack, Failure> {
        let server_cfg = |workers| ServerConfig {
            workers,
            queue_cap: 64,
            ..ServerConfig::default()
        };
        let first = Cell::compose(Arc::clone(g), table, apex0, root.join("cell0"))?;
        match spec.surface {
            Surface::Solo => Ok(Stack {
                cells: vec![first],
                servers: Vec::new(),
                router: None,
                front: None,
                owned_nodes_ms: 0.0,
            }),
            Surface::Net { workers } => {
                let server = Server::start(first.engine(), server_cfg(workers), "127.0.0.1:0")?;
                Ok(Stack {
                    front: Some(server.local_addr()),
                    cells: vec![first],
                    servers: vec![server],
                    router: None,
                    owned_nodes_ms: 0.0,
                })
            }
            Surface::Routed { shards, workers } => {
                let map = ShardMap::new(shards);
                let mut cells = vec![first];
                for s in 1..shards {
                    let table = Arc::new(DataTable::build(g, PageModel::default()));
                    cells.push(Cell::compose(
                        Arc::clone(g),
                        table,
                        Apex::build_initial(g),
                        root.join(format!("cell{s}")),
                    )?);
                }
                let mut servers = Vec::new();
                let mut owned_nodes_ms = 0.0;
                for (s, cell) in cells.iter().enumerate() {
                    let t = Instant::now();
                    let owned = Arc::new(map.owned_nodes(g, s as u16));
                    owned_nodes_ms += t.elapsed().as_secs_f64() * 1e3;
                    let engine = cell
                        .engine()
                        .with_shard_tag(s as u16)
                        .with_owned_nodes(owned);
                    servers.push(Server::start(engine, server_cfg(workers), "127.0.0.1:0")?);
                }
                let replicas: Vec<Vec<SocketAddr>> =
                    servers.iter().map(|s| vec![s.local_addr()]).collect();
                let router = Router::start(map, &replicas, RouterConfig::default(), "127.0.0.1:0")?;
                Ok(Stack {
                    front: Some(router.local_addr()),
                    cells,
                    servers,
                    router: Some(router),
                    owned_nodes_ms,
                })
            }
        }
    }

    pub fn client(&self) -> Result<ClientState, Failure> {
        let caller = match self.front {
            None => Caller::Local(self.cells[0].engine()),
            Some(addr) => Caller::Remote(Client::connect(addr)?),
        };
        Ok(ClientState {
            caller,
            lat_ns: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    /// Where callers connect; `None` = in-process.
    pub fn front(&self) -> Option<SocketAddr> {
        self.front
    }

    /// Highest request-queue depth any server of the surface has seen.
    pub fn queue_hwm(&self) -> usize {
        self.servers
            .iter()
            .map(|s| s.stats().queue_hwm)
            .max()
            .unwrap_or(0)
    }

    pub fn router_stats(&self) -> Option<RouterStats> {
        self.router.as_ref().map(Router::stats)
    }

    /// Addresses of the shard listeners behind the router (empty
    /// elsewhere) — the traced run sends the same ops straight to them.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        match self.router {
            Some(_) => self.servers.iter().map(Server::local_addr).collect(),
            None => Vec::new(),
        }
    }

    /// Drains router then servers, stops every cell, removes the
    /// directories. Callers must be dropped first.
    pub fn teardown(self) -> Result<Ledgers, Failure> {
        let Stack {
            cells,
            mut servers,
            router,
            ..
        } = self;
        let router = router.map(|mut r| r.drain());
        let stats = servers.iter_mut().map(Server::drain).collect();
        // The servers' engines hold the refreshers the cells now stop.
        drop(servers);
        for cell in cells {
            cell.shutdown()?;
        }
        Ok(Ledgers {
            servers: stats,
            router,
        })
    }
}
