//! The scatter-gather router: one apex-net endpoint over many shards.
//!
//! The router speaks the `net::wire` protocol on **both** sides. A
//! client connects and sends ordinary requests; per request the router
//! fans the query out to one replica of every shard (pipelined sends,
//! then gathers in shard order), merges the per-shard answers, and
//! replies on the same connection — indistinguishable from a single
//! `net::Server`, except the response's generation vector carries one
//! `(shard, generation)` entry per shard.
//!
//! **Merge semantics.** Shard answers are disjoint by construction
//! (each shard filters to its owned nodes), so: row samples are
//! k-way-merged with the storage layer's [`merge_sorted_into`] kernel
//! and re-truncated; totals, pages and join work are summed; the
//! status is the worst across shards (`DeadlineExceeded` ≻
//! `ParseError` ≻ `Ok`). A shard that cannot produce a definitive
//! answer inside the bounded retry budget makes the whole query an
//! explicit `Overloaded` shed — a partial answer is never passed off
//! as complete.
//!
//! **Generation consistency.** The router pins, per shard, the highest
//! generation it has returned ([`Router::pinned_generations`]). A
//! reply older than the pin is counted as a `stale_retry` and re-asked
//! (preferring a different replica); only a reply at or above the pin
//! advances it and is returned. Per client the observed generation of
//! any shard is therefore non-decreasing, and within one response each
//! shard contributes exactly one generation — queries never mix two
//! generations of the same shard. The retry budget is bounded: if
//! every attempt comes back stale the best (highest-generation) reply
//! is returned rather than looping forever.
//!
//! **Routing and health.** Replica choice is deterministic:
//! connection-affine (`conn_id % replicas`) so caches stay warm, and
//! rotated on retry so failures and `Draining` sheds land on a
//! sibling. Unreachable replicas are marked down and routed around; a
//! background prober re-admits them once they accept connections
//! again. [`Router::set_admit`] / [`Router::set_replica_addr`] are the
//! rollout hooks: un-admit a replica, drain and swap it in the
//! cluster, then hand the router the successor's address (which bumps
//! the slot's epoch so cached connections are re-dialed).
//!
//! **Accounting.** The client-facing side mirrors `NetStats`
//! (`accepted == served + shed + timed_out`); each hop mirrors it per
//! shard: `forwarded == ok + parse_error + timed_out + shed +
//! io_error`, where `forwarded` counts sends on an established
//! connection and `io_error` the sends whose response never arrived.
//! [`RouterStats::balanced`] checks both, so no request is silently
//! dropped on either side of the router.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apex_net::wire::{DEFAULT_MAX_FRAME, MAX_ROW_SAMPLE};
use apex_net::{AwakeRead, Client, FrameReader, Message, Request, Response, ShardGen, Status};
use apex_storage::rank::{self, Rank};
use apex_storage::{merge_sorted_into, MergeScratch};

use crate::map::ShardMap;

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Per-frame payload cap on the client side.
    pub max_frame: usize,
    /// Client-side reader poll interval (drain latency bound).
    pub poll: Duration,
    /// Bound on one client-side response write.
    pub write_timeout: Duration,
    /// Bound on waiting for one shard reply; a gather that trips it
    /// counts as an `io_error` on that hop and retries elsewhere.
    pub gather_timeout: Duration,
    /// Per-shard attempt budget per request (first try included).
    pub retry_attempts: u32,
    /// Base backoff before re-asking a shard that shed; doubles per
    /// retry up to `backoff_cap`, jittered.
    pub backoff: Duration,
    /// Cap on one backoff sleep.
    pub backoff_cap: Duration,
    /// How often the health prober re-tests down replicas.
    pub probe_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            max_frame: DEFAULT_MAX_FRAME,
            poll: Duration::from_millis(20),
            write_timeout: Duration::from_secs(5),
            gather_timeout: Duration::from_secs(10),
            retry_attempts: 6,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            probe_interval: Duration::from_millis(50),
        }
    }
}

/// One shard hop's accounting (see the module docs for the balance
/// equation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardHopStats {
    /// Requests sent to a replica of this shard (per attempt).
    pub forwarded: u64,
    /// Replies with `Status::Ok`.
    pub ok: u64,
    /// Replies with `Status::ParseError`.
    pub parse_error: u64,
    /// Replies with `Status::DeadlineExceeded`.
    pub timed_out: u64,
    /// Replies with `Status::Overloaded` / `Status::Draining`.
    pub shed: u64,
    /// Sends whose reply never arrived (broken pipe, EOF, gather
    /// timeout); the replica is marked down and the attempt retried.
    pub io_error: u64,
    /// Shed replies absorbed by a backoff-and-retry.
    pub retried_sheds: u64,
    /// Replies below this shard's generation pin, re-asked.
    pub stale_retries: u64,
    /// Hop connections opened (first dials and re-dials alike).
    pub connects: u64,
}

impl ShardHopStats {
    /// Every forwarded request got exactly one outcome.
    pub fn balanced(&self) -> bool {
        self.forwarded == self.ok + self.parse_error + self.timed_out + self.shed + self.io_error
    }

    /// Replies actually delivered by the shard (any status) — on clean
    /// runs this equals the shard's servers' `accepted` total.
    pub fn delivered(&self) -> u64 {
        self.ok + self.parse_error + self.timed_out + self.shed
    }
}

/// Point-in-time router accounting: client side plus one hop per shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Client connections accepted.
    pub connections: u64,
    /// Client requests read (every one gets a merged response).
    pub accepted: u64,
    /// Merged responses with `Ok` / `ParseError`.
    pub served: u64,
    /// Merged responses shed (`Overloaded` — some shard was exhausted).
    pub shed: u64,
    /// Merged responses with `DeadlineExceeded`.
    pub timed_out: u64,
    /// Per-shard hop accounting, indexed by shard id.
    pub hops: Vec<ShardHopStats>,
}

impl RouterStats {
    /// No silent drops on either side of the router.
    pub fn balanced(&self) -> bool {
        self.accepted == self.served + self.shed + self.timed_out
            && self.hops.iter().all(ShardHopStats::balanced)
    }

    /// Total replies delivered across all hops.
    pub fn hop_delivered(&self) -> u64 {
        self.hops.iter().map(ShardHopStats::delivered).sum()
    }
}

impl std::fmt::Display for RouterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conns {}  accepted {}  served {}  shed {}  timed-out {}",
            self.connections, self.accepted, self.served, self.shed, self.timed_out
        )?;
        for (s, h) in self.hops.iter().enumerate() {
            write!(
                f,
                "\n  shard {s}: forwarded {}  ok {}  shed {}  io {}  retried {}  stale {}",
                h.forwarded, h.ok, h.shed, h.io_error, h.retried_sheds, h.stale_retries
            )?;
        }
        Ok(())
    }
}

/// One replica endpoint as the router sees it.
struct Slot {
    /// Where the replica listens; replaced by a rollout swap.
    addr: Mutex<SocketAddr>,
    /// Manually routable (rollouts un-admit a replica before draining
    /// it so no new traffic races the drain).
    admit: AtomicBool,
    /// Observed-unreachable; set on connect/IO failure, cleared by the
    /// prober or by a successful address swap.
    down: AtomicBool,
    /// Bumped on address change so cached connections re-dial.
    epoch: AtomicU64,
}

#[derive(Default)]
struct HopCounters {
    forwarded: AtomicU64,
    ok: AtomicU64,
    parse_error: AtomicU64,
    timed_out: AtomicU64,
    shed: AtomicU64,
    io_error: AtomicU64,
    retried_sheds: AtomicU64,
    stale_retries: AtomicU64,
    connects: AtomicU64,
}

impl HopCounters {
    fn snapshot(&self) -> ShardHopStats {
        ShardHopStats {
            forwarded: self.forwarded.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            parse_error: self.parse_error.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            io_error: self.io_error.load(Ordering::Relaxed),
            retried_sheds: self.retried_sheds.load(Ordering::Relaxed),
            stale_retries: self.stale_retries.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
        }
    }
}

struct RouterState {
    map: ShardMap,
    cfg: RouterConfig,
    /// `[shard][replica]` endpoints.
    slots: Vec<Vec<Slot>>,
    /// Highest generation returned per shard — the consistency pins.
    pins: Vec<AtomicU64>,
    hops: Vec<HopCounters>,
    connections: AtomicU64,
    accepted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
    closing: AtomicBool,
    /// Prober parking lot, notified at drain for a prompt exit.
    parked: Mutex<()>,
    wake: Condvar,
}

/// A cached hop connection, valid for one slot epoch.
struct CachedConn {
    epoch: u64,
    client: Client,
}

type ConnCache = Vec<Vec<Option<CachedConn>>>;

/// The running router. [`Router::drain`] is the intended exit; `Drop`
/// drains too.
pub struct Router {
    state: Arc<RouterState>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    prober: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds `addr` and starts routing over `replicas[shard][replica]`
    /// endpoints. `map` must equal the cluster's; the topology must
    /// cover every shard with at least one replica.
    pub fn start(
        map: ShardMap,
        replicas: &[Vec<SocketAddr>],
        cfg: RouterConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<Router> {
        if replicas.len() != map.shards() as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "topology must list every shard exactly once",
            ));
        }
        if replicas.iter().any(Vec::is_empty) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "every shard needs at least one replica",
            ));
        }
        let slots: Vec<Vec<Slot>> = replicas
            .iter()
            .map(|reps| {
                reps.iter()
                    .map(|&a| Slot {
                        addr: Mutex::new(a),
                        admit: AtomicBool::new(true),
                        down: AtomicBool::new(false),
                        epoch: AtomicU64::new(0),
                    })
                    .collect()
            })
            .collect();
        let n = slots.len();
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(RouterState {
            map,
            cfg,
            slots,
            pins: (0..n).map(|_| AtomicU64::new(0)).collect(),
            hops: (0..n).map(|_| HopCounters::default()).collect(),
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            closing: AtomicBool::new(false),
            parked: Mutex::new(()),
            wake: Condvar::new(),
        });
        let conns = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let s = Arc::clone(&state);
            let c = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("apex-shard-acceptor".into())
                .spawn(move || accept_loop(&listener, &s, &c))?
        };
        let prober = {
            let s = Arc::clone(&state);
            std::thread::Builder::new()
                .name("apex-shard-prober".into())
                .spawn(move || probe_loop(&s))?
        };
        Ok(Router {
            state,
            local_addr,
            acceptor: Some(acceptor),
            conns,
            prober: Some(prober),
        })
    }

    /// The bound client-facing address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The partitioner this router routes under.
    pub fn map(&self) -> ShardMap {
        self.state.map
    }

    /// Live accounting, both sides.
    pub fn stats(&self) -> RouterStats {
        RouterStats {
            connections: self.state.connections.load(Ordering::Relaxed),
            accepted: self.state.accepted.load(Ordering::Relaxed),
            served: self.state.served.load(Ordering::Relaxed),
            shed: self.state.shed.load(Ordering::Relaxed),
            timed_out: self.state.timed_out.load(Ordering::Relaxed),
            hops: self.state.hops.iter().map(HopCounters::snapshot).collect(),
        }
    }

    /// The per-shard generation pins: the highest generation any
    /// client has been shown, per shard. Monotonically non-decreasing.
    pub fn pinned_generations(&self) -> Vec<u64> {
        self.state
            .pins
            .iter()
            .map(|p| p.load(Ordering::SeqCst))
            .collect()
    }

    /// Manually includes/excludes a replica from routing. Rollouts
    /// un-admit the replica about to drain so no new query races it.
    pub fn set_admit(&self, shard: u16, replica: usize, admit: bool) {
        if let Some(slot) = self.slot(shard, replica) {
            slot.admit.store(admit, Ordering::SeqCst);
        }
    }

    /// Points a replica slot at its successor: swaps the address, bumps
    /// the epoch (cached connections re-dial), clears `down` and
    /// re-admits. The readmission step of a rolling swap.
    pub fn set_replica_addr(&self, shard: u16, replica: usize, addr: SocketAddr) {
        if let Some(slot) = self.slot(shard, replica) {
            {
                let mut a = rank::lock(&slot.addr, Rank::ShardAddr);
                *a = addr;
            }
            slot.epoch.fetch_add(1, Ordering::SeqCst);
            slot.down.store(false, Ordering::SeqCst);
            slot.admit.store(true, Ordering::SeqCst);
        }
    }

    fn slot(&self, shard: u16, replica: usize) -> Option<&Slot> {
        self.state
            .slots
            .get(usize::from(shard))
            .and_then(|reps| reps.get(replica))
    }

    /// Stops accepting, finishes in-flight merges, joins every thread,
    /// returns the final accounting. Draining twice is a no-op.
    pub fn drain(&mut self) -> RouterStats {
        self.drain_in_place();
        self.stats()
    }

    fn drain_in_place(&mut self) {
        self.state.closing.store(true, Ordering::SeqCst);
        self.state.wake.notify_all();
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            join_thread(h);
        }
        let conns = {
            let mut c = rank::lock(&self.conns, Rank::Conns);
            std::mem::take(&mut *c)
        };
        for h in conns {
            join_thread(h);
        }
        if let Some(h) = self.prober.take() {
            join_thread(h);
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if self.acceptor.is_some() || self.prober.is_some() {
            self.drain_in_place();
        }
    }
}

fn join_thread(h: JoinHandle<()>) {
    if let Err(e) = h.join() {
        std::panic::resume_unwind(e);
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<RouterState>,
    conns: &Mutex<Vec<JoinHandle<()>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                if state.closing.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if state.closing.load(Ordering::SeqCst) {
            return;
        }
        if stream.set_read_timeout(Some(state.cfg.poll)).is_err()
            || stream
                .set_write_timeout(Some(state.cfg.write_timeout))
                .is_err()
            || stream.set_nodelay(true).is_err()
        {
            continue;
        }
        let conn_id = state.connections.fetch_add(1, Ordering::Relaxed);
        let s = Arc::clone(state);
        let spawned = std::thread::Builder::new()
            .name("apex-shard-conn".into())
            .spawn(move || conn_loop(stream, conn_id as usize, &s));
        if let Ok(h) = spawned {
            let mut c = rank::lock(conns, Rank::Conns);
            c.push(h);
        }
    }
}

/// Periodically re-tests replicas marked down; a successful TCP
/// connect readmits them to the routing pool.
fn probe_loop(state: &Arc<RouterState>) {
    loop {
        {
            let guard = rank::lock(&state.parked, Rank::ProberPark);
            let _ = rank::wait_timeout(&state.wake, guard, state.cfg.probe_interval);
        }
        if state.closing.load(Ordering::SeqCst) {
            return;
        }
        for reps in &state.slots {
            for slot in reps {
                if !slot.down.load(Ordering::SeqCst) {
                    continue;
                }
                let addr = *rank::lock(&slot.addr, Rank::ShardAddr);
                if TcpStream::connect_timeout(&addr, Duration::from_millis(50)).is_ok() {
                    slot.down.store(false, Ordering::SeqCst);
                }
            }
        }
    }
}

fn conn_loop(stream: TcpStream, conn_id: usize, state: &Arc<RouterState>) {
    let mut frames = FrameReader::new(AwakeRead::new(stream), state.cfg.max_frame);
    let mut frame = Vec::new();
    let mut cache: ConnCache = state
        .slots
        .iter()
        .map(|reps| reps.iter().map(|_| None).collect())
        .collect();
    let mut scratch = MergeScratch::new();
    // Conn-local jitter seed: decorrelates backoff sleeps across
    // concurrent client connections.
    let mut jitter = 0x9E37_79B9_7F4A_7C15u64 ^ ((conn_id as u64) << 17) | 1;
    loop {
        let req = match frames.poll_message(&state.closing) {
            Some(Message::Request(req)) => req,
            Some(Message::Response(_)) | None => return,
        };
        state.accepted.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let mut resp = scatter_gather(state, &mut cache, conn_id, &req, &mut scratch, &mut jitter);
        resp.server_us = resp
            .server_us
            .max((start.elapsed().as_micros()).min(u128::from(u64::MAX)) as u64);
        match resp.status {
            Status::Ok | Status::ParseError => &state.served,
            Status::Overloaded | Status::Draining => &state.shed,
            Status::DeadlineExceeded => &state.timed_out,
        }
        .fetch_add(1, Ordering::Relaxed);
        if resp.encode_frame(&mut frame).is_err()
            || frames.get_ref().socket().write_all(&frame).is_err()
        {
            return; // undeliverable: never follow a torn frame with another
        }
    }
}

fn hop_add(state: &RouterState, shard: usize, pick: fn(&HopCounters) -> &AtomicU64) {
    if let Some(h) = state.hops.get(shard) {
        pick(h).fetch_add(1, Ordering::Relaxed);
    }
}

fn count_status(state: &RouterState, shard: usize, status: Status) {
    let pick: fn(&HopCounters) -> &AtomicU64 = match status {
        Status::Ok => |h| &h.ok,
        Status::ParseError => |h| &h.parse_error,
        Status::DeadlineExceeded => |h| &h.timed_out,
        Status::Overloaded | Status::Draining => |h| &h.shed,
    };
    hop_add(state, shard, pick);
}

fn mark_down(state: &RouterState, cache: &mut ConnCache, shard: usize, replica: usize) {
    if let Some(slot) = state.slots.get(shard).and_then(|reps| reps.get(replica)) {
        slot.down.store(true, Ordering::SeqCst);
    }
    if let Some(entry) = cache.get_mut(shard).and_then(|c| c.get_mut(replica)) {
        *entry = None;
    }
}

/// Deterministic replica choice: among admissible (admitted, not-down)
/// replicas, index by `rotation` — connection-affine on the first try,
/// rotated to a sibling on retries. Falls back to admitted-but-down
/// (the prober may lag a recovery), then to any replica.
fn pick_replica(state: &RouterState, shard: usize, rotation: usize) -> Option<usize> {
    let slots = state.slots.get(shard)?;
    let mut pool: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.admit.load(Ordering::SeqCst) && !s.down.load(Ordering::SeqCst))
        .map(|(i, _)| i)
        .collect();
    if pool.is_empty() {
        pool = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.admit.load(Ordering::SeqCst))
            .map(|(i, _)| i)
            .collect();
    }
    if pool.is_empty() {
        pool = (0..slots.len()).collect();
    }
    let n = pool.len();
    if n == 0 {
        return None;
    }
    pool.get(rotation % n).copied()
}

/// Returns a connected client for `(shard, replica)`, re-dialing when
/// the cached connection's epoch is stale. A failed dial marks the
/// replica down.
fn ensure_conn<'a>(
    state: &RouterState,
    cache: &'a mut ConnCache,
    shard: usize,
    replica: usize,
) -> Option<&'a mut Client> {
    let slot = state.slots.get(shard)?.get(replica)?;
    let epoch = slot.epoch.load(Ordering::SeqCst);
    let entry = cache.get_mut(shard)?.get_mut(replica)?;
    if entry.as_ref().is_some_and(|c| c.epoch != epoch) {
        *entry = None;
    }
    if entry.is_none() {
        let addr = *rank::lock(&slot.addr, Rank::ShardAddr);
        match Client::connect(addr) {
            Ok(client) => {
                let _ = client.set_read_timeout(Some(state.cfg.gather_timeout));
                if let Some(h) = state.hops.get(shard) {
                    h.connects.fetch_add(1, Ordering::Relaxed);
                }
                *entry = Some(CachedConn { epoch, client });
            }
            Err(_) => {
                slot.down.store(true, Ordering::SeqCst);
                return None;
            }
        }
    }
    entry.as_mut().map(|c| &mut c.client)
}

/// Sends the query to one replica of `shard` (probing siblings on
/// failure); returns the replica index and the hop request id.
fn send_to_shard(
    state: &RouterState,
    cache: &mut ConnCache,
    shard: usize,
    rotation: usize,
    req: &Request,
) -> Option<(usize, u64)> {
    let n_repl = state.slots.get(shard).map_or(0, Vec::len).max(1);
    for probe in 0..n_repl {
        let replica = pick_replica(state, shard, rotation + probe)?;
        let sent = match ensure_conn(state, cache, shard, replica) {
            Some(client) => {
                hop_add(state, shard, |h| &h.forwarded);
                client.send(&req.query, req.deadline_ms)
            }
            None => continue,
        };
        match sent {
            Ok(id) => return Some((replica, id)),
            Err(_) => {
                hop_add(state, shard, |h| &h.io_error);
                mark_down(state, cache, shard, replica);
            }
        }
    }
    None
}

/// Blocks for the reply to hop request `id` on the cached connection.
/// Any transport failure (EOF, broken pipe, gather timeout) marks the
/// replica down and counts `io_error` for the outstanding send.
fn recv_from(
    state: &RouterState,
    cache: &mut ConnCache,
    shard: usize,
    replica: usize,
    id: u64,
) -> Option<Response> {
    loop {
        let step = match cache
            .get_mut(shard)
            .and_then(|c| c.get_mut(replica))
            .and_then(|e| e.as_mut())
        {
            Some(entry) => entry.client.recv(),
            None => return None,
        };
        match step {
            Ok(Some(resp)) if resp.id == id => return Some(resp),
            Ok(Some(_)) => {} // stray reply from an abandoned exchange
            Ok(None) | Err(_) => {
                hop_add(state, shard, |h| &h.io_error);
                mark_down(state, cache, shard, replica);
                return None;
            }
        }
    }
}

/// The generation `resp` reports for `shard` (falling back to the
/// scalar generation for untagged single-process peers).
fn gen_of(resp: &Response, shard: usize) -> u64 {
    resp.gens
        .iter()
        .find(|g| usize::from(g.shard) == shard)
        .map_or(resp.generation, |g| g.generation)
}

/// Keeps the more useful of two fallback replies: definitive beats
/// shed; among equals, the higher generation.
fn pick_better(best: Option<Response>, cand: Response) -> Option<Response> {
    match best {
        None => Some(cand),
        Some(b) => {
            let cand_wins = (b.status.is_shed() && !cand.status.is_shed())
                || (b.status.is_shed() == cand.status.is_shed() && cand.generation >= b.generation);
            Some(if cand_wins { cand } else { b })
        }
    }
}

/// A sleep between `d/2` and `d` (capped) from a conn-local xorshift.
fn jittered(seed: &mut u64, d: Duration, cap: Duration) -> Duration {
    let mut x = *seed;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *seed = x;
    let d = d.min(cap);
    let half = d / 2;
    let span = half.as_micros().min(u128::from(u64::MAX)) as u64;
    let extra = if span == 0 { 0 } else { x % (span + 1) };
    half + Duration::from_micros(extra)
}

/// Gets one definitive, pin-consistent reply from `shard`, retrying
/// transport failures, sheds and stale generations within the attempt
/// budget. `first` is the phase-1 pipelined send, if one succeeded.
fn gather_shard(
    state: &RouterState,
    cache: &mut ConnCache,
    shard: usize,
    conn_id: usize,
    first: Option<(usize, u64)>,
    req: &Request,
    jitter: &mut u64,
) -> Option<Response> {
    let attempts = state.cfg.retry_attempts.max(1);
    let mut best: Option<Response> = None;
    let mut backoff = state.cfg.backoff;
    let mut pending = first;
    for attempt in 0..attempts {
        let got = match pending.take() {
            Some((replica, id)) => recv_from(state, cache, shard, replica, id),
            None => {
                // Retry rotation starts at the sibling of the affine
                // first choice, so failures don't re-land on the
                // replica that just failed or shed.
                match send_to_shard(state, cache, shard, conn_id + attempt as usize, req) {
                    Some((replica, id)) => recv_from(state, cache, shard, replica, id),
                    None => None,
                }
            }
        };
        let Some(resp) = got else {
            continue; // transport failure: the next attempt rotates
        };
        count_status(state, shard, resp.status);
        if resp.status.is_shed() {
            if attempt + 1 < attempts {
                hop_add(state, shard, |h| &h.retried_sheds);
                std::thread::sleep(jittered(jitter, backoff, state.cfg.backoff_cap));
                backoff = backoff.saturating_mul(2).min(state.cfg.backoff_cap);
            }
            best = pick_better(best, resp);
            continue;
        }
        let gen = gen_of(&resp, shard);
        let pin = state
            .pins
            .get(shard)
            .map_or(0, |p| p.load(Ordering::SeqCst));
        if gen < pin {
            // An older generation than this shard has already shown a
            // client: re-ask rather than let one query's shards mix
            // eras. Bounded — after the budget the best reply wins
            // (liveness over a perfect pin when every replica is
            // behind, which a real refresh resolves in one swap).
            hop_add(state, shard, |h| &h.stale_retries);
            best = pick_better(best, resp);
            continue;
        }
        if let Some(p) = state.pins.get(shard) {
            p.fetch_max(gen, Ordering::SeqCst);
        }
        return Some(resp);
    }
    best
}

/// An explicit whole-query refusal (some shard was exhausted).
fn overloaded(id: u64) -> Response {
    Response {
        id,
        status: Status::Overloaded,
        generation: 0,
        total_rows: 0,
        rows: Vec::new(),
        pages_read: 0,
        join_work: 0,
        server_us: 0,
        plan_digest: 0,
        gens: Vec::new(),
    }
}

/// Merges per-shard replies into the client's single response. See the
/// module docs for the exact semantics.
fn merge_responses(id: u64, finals: Vec<Option<Response>>, scratch: &mut MergeScratch) -> Response {
    let mut parts: Vec<(u16, Response)> = Vec::with_capacity(finals.len());
    for (s, f) in finals.into_iter().enumerate() {
        match f {
            Some(resp) if !resp.status.is_shed() => parts.push((s as u16, resp)),
            // No definitive answer from this shard inside the budget:
            // shed the whole query explicitly — never a partial union.
            _ => return overloaded(id),
        }
    }
    let mut status = Status::Ok;
    if parts
        .iter()
        .any(|(_, r)| r.status == Status::DeadlineExceeded)
    {
        status = Status::DeadlineExceeded;
    } else if parts.iter().any(|(_, r)| r.status == Status::ParseError) {
        status = Status::ParseError;
    }
    let lists: Vec<&[u32]> = parts.iter().map(|(_, r)| r.rows.as_slice()).collect();
    let mut rows: Vec<u32> = Vec::new();
    let mut work = 0usize;
    merge_sorted_into(&lists, scratch, &mut rows, &mut work);
    rows.truncate(MAX_ROW_SAMPLE);
    let mut out = overloaded(id);
    out.status = status;
    out.rows = rows;
    for (s, r) in &parts {
        out.total_rows = out.total_rows.saturating_add(r.total_rows);
        // Sums the shards' already-attributed wire counters into the merged response; no new I/O is charged here
        out.pages_read = out.pages_read.saturating_add(r.pages_read);
        out.join_work = out.join_work.saturating_add(r.join_work);
        out.server_us = out.server_us.max(r.server_us);
        out.plan_digest ^= r.plan_digest;
        out.generation = out.generation.max(gen_of(r, usize::from(*s)));
        out.gens.push(ShardGen {
            shard: *s,
            generation: gen_of(r, usize::from(*s)),
        });
    }
    out
}

/// One request end to end: pipelined scatter (send to every shard's
/// first-choice replica), then gather-with-retries in shard order, then
/// merge.
fn scatter_gather(
    state: &RouterState,
    cache: &mut ConnCache,
    conn_id: usize,
    req: &Request,
    scratch: &mut MergeScratch,
    jitter: &mut u64,
) -> Response {
    let n = state.slots.len();
    let mut pending: Vec<Option<(usize, u64)>> = Vec::with_capacity(n);
    for s in 0..n {
        pending.push(send_to_shard(state, cache, s, conn_id, req));
    }
    let mut finals: Vec<Option<Response>> = Vec::with_capacity(n);
    for (s, first) in pending.into_iter().enumerate() {
        finals.push(gather_shard(state, cache, s, conn_id, first, req, jitter));
    }
    merge_responses(req.id, finals, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{rolling_swap, ClusterConfig, ShardCluster};
    use crate::runtime::{RuntimeConfig, ShardRuntime};
    use apex_net::{Server, ServerConfig};
    use std::sync::Arc;
    use xmlgraph::builder::moviedb;

    fn start_router(cluster: &ShardCluster) -> Router {
        Router::start(
            cluster.map(),
            &cluster.addrs(),
            RouterConfig::default(),
            "127.0.0.1:0",
        )
        .expect("router")
    }

    #[test]
    fn merged_answers_equal_the_single_process_run() {
        let g = Arc::new(moviedb());
        let cluster =
            ShardCluster::start(Arc::clone(&g), ShardMap::new(3), ClusterConfig::default())
                .expect("cluster");
        let mut router = start_router(&cluster);
        let solo =
            ShardRuntime::start(0, &ShardMap::new(1), g, &RuntimeConfig::default()).expect("solo");

        let mut c = Client::connect(router.local_addr()).expect("connect");
        for q in ["//actor/name", "//movie/title", "//director/movie/title"] {
            let merged = c.call(q, 0).expect("call");
            let full = solo.eval_local(q);
            assert_eq!(merged.status, Status::Ok, "{q}");
            assert_eq!(merged.total_rows, full.total_rows, "{q}: totals");
            assert_eq!(merged.rows, full.rows, "{q}: row sample");
            assert!(merged.pages_read > 0);
            let mut shards: Vec<u16> = merged.gens.iter().map(|e| e.shard).collect();
            shards.sort_unstable();
            assert_eq!(shards, vec![0, 1, 2], "one gens entry per shard");
        }
        let bad = c.call("actor", 0).expect("call");
        assert_eq!(bad.status, Status::ParseError, "parse errors merge as-is");
        drop(c);

        let stats = router.drain();
        assert!(stats.balanced(), "{stats}");
        assert_eq!(stats.accepted, 4);
        assert_eq!(stats.served, 4);
        // Every hop delivered a reply for every request on this clean
        // run: cross-hop rollup matches the shard servers exactly.
        let cluster_stats = cluster.shutdown();
        assert_eq!(stats.hop_delivered(), cluster_stats.net_total().accepted);
        assert!(cluster_stats.balanced());
    }

    #[test]
    fn routes_around_a_dead_replica() {
        let g = Arc::new(moviedb());
        let mut cluster =
            ShardCluster::start(g, ShardMap::new(2), ClusterConfig::default()).expect("cluster");
        let mut router = start_router(&cluster);
        let mut c = Client::connect(router.local_addr()).expect("connect");
        assert_eq!(c.call("//actor/name", 0).expect("warm").status, Status::Ok);
        // Kill the first-choice replica of shard 0 behind the router's
        // back (swap it in the cluster but never tell the router).
        cluster.swap_replica(0, 0).expect("swap");
        for _ in 0..5 {
            let r = c.call("//actor/name", 0).expect("call");
            assert_eq!(r.status, Status::Ok, "sibling must absorb the traffic");
        }
        drop(c);
        let stats = router.drain();
        assert!(stats.balanced(), "{stats}");
        assert_eq!(stats.served, 6);
        assert_eq!(stats.shed, 0, "client never sees the dead replica");
        let h0 = stats.hops.first().copied().unwrap_or_default();
        assert!(
            h0.io_error >= 1,
            "the cached connection's death must be observed: {stats}"
        );
        cluster.shutdown();
    }

    #[test]
    fn rolling_swap_is_invisible_to_the_client() {
        // Closed-loop clients call through the router while every
        // replica is drained, replaced and readmitted under them. Each
        // makes at least MIN_CALLS calls and keeps calling until the
        // swap has returned, so the swap runs entirely under traffic.
        const QUERIES: [&str; 2] = ["//actor/name", "//movie/title"];
        const MIN_CALLS: u64 = 50;
        let g = Arc::new(moviedb());
        let mut cluster =
            ShardCluster::start(g, ShardMap::new(2), ClusterConfig::default()).expect("cluster");
        let mut router = start_router(&cluster);
        let addr = router.local_addr();
        let ready = std::sync::Barrier::new(QUERIES.len() + 1);
        let swapped = AtomicBool::new(false);
        let (report, calls) = std::thread::scope(|s| {
            let clients: Vec<_> = QUERIES
                .into_iter()
                .map(|q| {
                    let (ready, swapped) = (&ready, &swapped);
                    s.spawn(move || {
                        let mut c = Client::connect(addr).expect("connect");
                        assert_eq!(c.call(q, 0).expect("warm").status, Status::Ok);
                        ready.wait();
                        let mut calls = 1u64;
                        while calls <= MIN_CALLS || !swapped.load(Ordering::SeqCst) {
                            let r = c.call(q, 0).expect("no client-visible error");
                            assert_eq!(r.status, Status::Ok, "{q}: call {calls}");
                            calls += 1;
                        }
                        calls
                    })
                })
                .collect();
            ready.wait();
            let report = rolling_swap(&mut cluster, &router).expect("rollout");
            swapped.store(true, Ordering::SeqCst);
            let calls: u64 = clients
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .sum();
            (report, calls)
        });
        assert_eq!(report.swapped, 4, "2 shards × 2 replicas");
        let stats = router.drain();
        assert!(stats.balanced(), "{stats}");
        assert_eq!(stats.accepted, calls);
        assert_eq!(stats.shed, 0, "rollout must shed nothing client-side");
        let cluster_stats = cluster.shutdown();
        assert_eq!(
            cluster_stats.retired.len(),
            4,
            "every retired replica ledgered"
        );
        assert!(cluster_stats.balanced(), "{:?}", cluster_stats.net_total());
    }

    #[test]
    fn stale_generations_are_retried_and_pins_are_monotonic() {
        // Two *independent* runtimes posing as replicas of one shard —
        // the only way to fabricate generation skew in-process, since
        // real replicas share their shard's cell.
        let g = Arc::new(moviedb());
        let map = ShardMap::new(1);
        let cfg = RuntimeConfig::default();
        let behind = ShardRuntime::start(0, &map, Arc::clone(&g), &cfg).expect("behind");
        let ahead = ShardRuntime::start(0, &map, Arc::clone(&g), &cfg).expect("ahead");
        ahead.eval_local("//actor/name");
        ahead.eval_local("//movie/title");
        ahead.step_refresh();
        assert_eq!(ahead.generation(), 1);
        assert_eq!(behind.generation(), 0);
        let mut servers = [
            Server::start(behind.engine(), ServerConfig::default(), "127.0.0.1:0").expect("b"),
            Server::start(ahead.engine(), ServerConfig::default(), "127.0.0.1:0").expect("a"),
        ];
        let topo = vec![vec![servers[0].local_addr(), servers[1].local_addr()]];
        let mut router =
            Router::start(map, &topo, RouterConfig::default(), "127.0.0.1:0").expect("router");
        let mut c = Client::connect(router.local_addr()).expect("connect");

        // conn 0's affine pick is replica 0 (behind, gen 0): pin = 0.
        let r1 = c.call("//actor/name", 0).expect("r1");
        assert_eq!(gen_of(&r1, 0), 0);
        // Force the pin forward through the ahead replica.
        router.set_admit(0, 0, false);
        let r2 = c.call("//actor/name", 0).expect("r2");
        assert_eq!(gen_of(&r2, 0), 1);
        assert_eq!(router.pinned_generations(), vec![1]);
        // Readmit the stale replica: its gen-0 reply must be rejected
        // and re-asked until the ahead replica answers.
        router.set_admit(0, 0, true);
        let r3 = c.call("//actor/name", 0).expect("r3");
        assert_eq!(
            gen_of(&r3, 0),
            1,
            "a generation below the pin must never be returned"
        );
        drop(c);
        let stats = router.drain();
        assert!(stats.balanced(), "{stats}");
        let h0 = stats.hops.first().copied().unwrap_or_default();
        assert!(
            h0.stale_retries >= 1,
            "the stale reply was retried: {stats}"
        );
        for s in &mut servers {
            s.drain();
        }
        drop(servers);
        behind.shutdown();
        ahead.shutdown();
    }
}
