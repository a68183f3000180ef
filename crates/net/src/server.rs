//! The admission-controlled TCP server with graceful drain.
//!
//! Thread anatomy:
//!
//! * one **acceptor** blocks in `accept`, registers each connection and
//!   spawns its thread; at drain it is woken by a self-connection;
//! * one **thread per connection** reads request frames through a
//!   [`FrameReader`] over an [`AwakeRead`] (one `read` per frame or
//!   burst; while the peer keeps answering, the thread polls for the
//!   next frame instead of sleeping, so a closed-loop exchange costs no
//!   wake-up at all; on an idle connection it sleeps in `read`, whose
//!   short timeout polls the drain flag) and counts each well-formed
//!   frame as *accepted*. It *serves the request itself* when the peer
//!   is not pipelining (no further frame is buffered, so a hand-off
//!   would buy no parallelism), nothing is queued and an execution
//!   permit is free; otherwise it enqueues the request, or sheds it
//!   with an explicit [`Status::Overloaded`] / [`Status::Draining`]
//!   response — a refusal is always a response, never a silent drop;
//! * `workers` **pool executors** pop the bounded queue. A pop takes a
//!   permit too, so executions on connection threads and pool workers
//!   together never exceed `workers`. Both run the same `serve`: the
//!   deadline is enforced before executing and (through the engine's
//!   checkpoints) mid-execution, and the response goes out under the
//!   connection's writer lock — one reused frame buffer, one `write`
//!   (more only when the send buffer is full).
//!
//! Admission states for one request:
//!
//! ```text
//! frame read ──► accepted ──┬─ closing? ─────────────────────────► shed (Draining)
//!                           ├─ alone, queue empty, permit free ──► serve (this thread)
//!                           ├─ queue full? ──────────────────────► shed (Overloaded)
//!                           └─ enqueued ──► pop + permit ────────► serve (pool worker)
//!
//! serve ──┬─ deadline past? ─► timed_out
//!         └─ execute ─┬─ interrupted ─► timed_out
//!                     └─ done ────────► served
//! ```
//!
//! The accounting invariant — checked by [`NetStats::balanced`] and the
//! drain tests — is `accepted == served + shed + timed_out`: every
//! frame the server ever read gets exactly one disposition, drain
//! included. Malformed frames are protocol errors, not requests: the
//! connection is closed without touching the counters.
//!
//! Drain (`Server::drain`) runs: set `closing` → stop the refresher
//! taking new rebuilds → wake and join the acceptor → join connection
//! threads (each finishes the request it is serving, then notices
//! `closing` within one poll interval; partial frames are dropped
//! *un-accepted*) → close the queue → workers finish the queued backlog
//! deterministically (execute, or time out if the deadline passed —
//! queued work was accepted, so it is never discarded) → join workers →
//! snapshot [`NetStats`]. Joining the last worker drops the last handle
//! to each connection, so peers see EOF only after every accepted
//! request has been answered.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::collections::VecDeque;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apex_storage::rank::{self, Guard, Rank};

use crate::engine::Engine;
use crate::wire::{
    AwakeRead, FrameReader, Message, Request, Response, ShardGen, Status, DEFAULT_MAX_FRAME,
};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor threads popping the request queue, and the bound on
    /// concurrent executions (theirs plus the connection threads').
    pub workers: usize,
    /// Bounded request-queue capacity; admission sheds beyond it.
    pub queue_cap: usize,
    /// Deadline applied to requests that carry none (`deadline_ms` 0).
    pub default_deadline: Option<Duration>,
    /// Per-frame payload cap handed to the codec.
    pub max_frame: usize,
    /// Read-timeout poll interval: the latency bound on noticing drain.
    pub poll: Duration,
    /// Bound on one response write; a peer that stops reading forfeits
    /// its connection (dispositions still count) instead of wedging an
    /// executing thread — and with it, drain.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_cap: 64,
            default_deadline: None,
            max_frame: DEFAULT_MAX_FRAME,
            poll: Duration::from_millis(20),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Monotonic disposition counters; one set server-wide, one per
/// connection. Counters record *dispositions decided*, not delivery —
/// a response written to a peer that already vanished still counts.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
}

impl Counters {
    fn count(&self, status: Status) {
        match status {
            Status::Ok | Status::ParseError => &self.served,
            Status::Overloaded | Status::Draining => &self.shed,
            Status::DeadlineExceeded => &self.timed_out,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ConnStats {
        ConnStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of one connection's request accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Well-formed request frames read off this connection.
    pub accepted: u64,
    /// Requests answered `Ok` or `ParseError`.
    pub served: u64,
    /// Requests refused at admission (`Overloaded` / `Draining`).
    pub shed: u64,
    /// Requests whose deadline passed before or during execution.
    pub timed_out: u64,
}

/// Server-wide accounting, reported live and at drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections the acceptor handed to connection threads.
    pub connections: u64,
    /// Well-formed request frames read (every one gets a disposition).
    pub accepted: u64,
    /// Requests answered `Ok` or `ParseError`.
    pub served: u64,
    /// Requests refused at admission with an explicit shed response.
    pub shed: u64,
    /// Requests that crossed their deadline before or mid-execution.
    pub timed_out: u64,
    /// Highest queue depth observed; ≤ `queue_cap` by construction.
    pub queue_hwm: usize,
}

impl NetStats {
    /// The no-silent-drops invariant: every accepted request was
    /// disposed exactly once.
    pub fn balanced(&self) -> bool {
        self.accepted == self.served + self.shed + self.timed_out
    }
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conns {}  accepted {}  served {}  shed {}  timed-out {}  queue-hwm {}",
            self.connections, self.accepted, self.served, self.shed, self.timed_out, self.queue_hwm
        )
    }
}

/// Per-connection shared state: the socket (the connection thread
/// reads it, whoever serves a request writes it), the frame buffer
/// every response is encoded into — its lock is the writer lock — and
/// the counters. The registry keeps only the counters; when the
/// connection thread exits and the last queued job is disposed, the
/// final `Arc<Conn>` drops and the socket closes — so a drained peer
/// sees EOF only after its last response.
struct Conn {
    stream: TcpStream,
    frame: Mutex<Vec<u8>>,
    stats: Arc<Counters>,
}

impl Conn {
    /// Writes `resp` and records its disposition on both counter sets.
    /// Accounting never depends on delivery: the disposition stands even
    /// when the peer is gone. An undeliverable response ends the
    /// connection rather than blocking once more per response still owed.
    fn respond(&self, shared: &Shared, resp: &Response) {
        self.stats.count(resp.status);
        shared.counters.count(resp.status);
        let mut frame = rank::lock(&self.frame, Rank::ResponseFrame);
        if resp.encode_frame(&mut frame).is_err() {
            return;
        }
        if !self.deliver(&frame, shared.cfg.write_timeout) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
    }

    /// Sends `frame`, normally in one `write`. A refusal or a short
    /// count means the send buffer is full: either `timeout` ran out in
    /// a blocking `write`, or the connection's thread had the socket
    /// non-blocking for a moment (it polls for the next frame, see
    /// [`AwakeRead`]) — then the rest goes out blocking, and the frame
    /// as a whole still gets `timeout` and no more.
    fn deliver(&self, frame: &[u8], timeout: Duration) -> bool {
        let started = Instant::now();
        let mut rest = frame;
        loop {
            match (&self.stream).write(rest) {
                Ok(n) if n == rest.len() => return true,
                Ok(n) => rest = rest.get(n..).unwrap_or_default(),
                Err(e) if e.kind() == Interrupted => continue,
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {}
                Err(_) => return false,
            }
            if started.elapsed() >= timeout || self.stream.set_nonblocking(false).is_err() {
                return false;
            }
        }
    }
}

/// One admitted request on its way to `serve`.
struct Job {
    req: Request,
    conn: Arc<Conn>,
    deadline: Option<Instant>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
    hwm: usize,
    /// Execution permits out: requests being served right now, on
    /// connection threads and pool workers alike.
    running: usize,
}

/// Bounded Mutex+Condvar job queue with the execution permits beside
/// it. `admit` never blocks (admission control decides, it doesn't
/// wait); `pop` blocks until a job *and* a permit are there, or the
/// queue is closed *and* empty — closing drains the backlog, never
/// discards it.
struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
    workers: usize,
}

enum Admission {
    /// The caller holds a permit: `serve` the job (which returns it).
    Inline(Job),
    Enqueued,
    /// Shed: `Overloaded` from a full queue, `Draining` from a closed one.
    Refused(Job, Status),
}

impl JobQueue {
    fn new(cap: usize, workers: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            cap: cap.max(1),
            workers: workers.max(1),
        }
    }

    fn lock(&self) -> Guard<'_, QueueState> {
        rank::lock(&self.state, Rank::JobQueue)
    }

    /// Decides one accepted request. `pipelined`: the connection has a
    /// further frame buffered, so its thread should keep reading.
    fn admit(&self, job: Job, pipelined: bool) -> Admission {
        let mut st = self.lock();
        if st.closed {
            return Admission::Refused(job, Status::Draining);
        }
        if !pipelined && st.jobs.is_empty() && st.running < self.workers {
            st.running += 1;
            return Admission::Inline(job);
        }
        if st.jobs.len() >= self.cap {
            return Admission::Refused(job, Status::Overloaded);
        }
        st.jobs.push_back(job);
        st.hwm = st.hwm.max(st.jobs.len());
        self.cv.notify_one();
        Admission::Enqueued
    }

    fn pop(&self) -> Option<Job> {
        let mut st = self.lock();
        loop {
            if st.running < self.workers {
                if let Some(job) = st.jobs.pop_front() {
                    st.running += 1;
                    return Some(job);
                }
            }
            if st.closed && st.jobs.is_empty() {
                return None;
            }
            st = rank::wait(&self.cv, st);
        }
    }

    /// Returns a permit; a worker held back by the bound takes it over.
    fn release(&self) {
        let mut st = self.lock();
        st.running = st.running.saturating_sub(1);
        if !st.jobs.is_empty() {
            self.cv.notify_one();
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    fn hwm(&self) -> usize {
        self.lock().hwm
    }
}

struct Shared {
    cfg: ServerConfig,
    engine: Engine,
    queue: JobQueue,
    closing: AtomicBool,
    counters: Counters,
    connections: AtomicU64,
    conn_stats: Mutex<Vec<Arc<Counters>>>,
}

/// The running server. Dropping it without [`Server::drain`] still
/// joins every thread (via `Drop`), but `drain` is the intended exit:
/// it returns the final accounting.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr`, spawns the acceptor and the worker pool, and
    /// starts serving. Bind `"127.0.0.1:0"` for an ephemeral port and
    /// read it back with [`Server::local_addr`].
    pub fn start(
        engine: Engine,
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_cap, cfg.workers),
            cfg,
            engine,
            closing: AtomicBool::new(false),
            counters: Counters::default(),
            connections: AtomicU64::new(0),
            conn_stats: Mutex::new(Vec::new()),
        });

        let mut workers = Vec::with_capacity(shared.cfg.workers.max(1));
        for i in 0..shared.cfg.workers.max(1) {
            let s = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("apex-net-worker-{i}"))
                    .spawn(move || worker_loop(&s))?,
            );
        }

        let conns = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let s = Arc::clone(&shared);
            let c = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("apex-net-acceptor".into())
                .spawn(move || accept_loop(&listener, &s, &c))?
        };

        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            conns,
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live server-wide accounting.
    pub fn stats(&self) -> NetStats {
        NetStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            accepted: self.shared.counters.accepted.load(Ordering::Relaxed),
            served: self.shared.counters.served.load(Ordering::Relaxed),
            shed: self.shared.counters.shed.load(Ordering::Relaxed),
            timed_out: self.shared.counters.timed_out.load(Ordering::Relaxed),
            queue_hwm: self.shared.queue.hwm(),
        }
    }

    /// Per-connection accounting, in accept order. Closed connections
    /// keep their final counts; usable during serving and after drain.
    pub fn connection_stats(&self) -> Vec<ConnStats> {
        let conns = rank::lock(&self.shared.conn_stats, Rank::ConnStats);
        conns.iter().map(|c| c.snapshot()).collect()
    }

    /// Graceful drain: stop accepting, dispose of every accepted
    /// request (execute, shed, or time out — never discard), join all
    /// threads, and return the final accounting. See the module docs
    /// for the exact sequence. The server stays usable for
    /// [`Server::stats`] and [`Server::connection_stats`] afterwards;
    /// draining twice is a no-op.
    pub fn drain(&mut self) -> NetStats {
        self.drain_in_place();
        self.stats()
    }

    fn drain_in_place(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        self.shared.engine.begin_drain();
        // Wake the acceptor out of its blocking accept; the connection
        // is refused once `closing` is observed.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            join_thread(h);
        }
        // Connection threads exit within one poll interval; joining
        // them first guarantees nothing is pushed after the queue closes.
        let conns = {
            let mut c = rank::lock(&self.conns, Rank::Conns);
            std::mem::take(&mut *c)
        };
        for h in conns {
            join_thread(h);
        }
        self.shared.queue.close();
        for h in std::mem::take(&mut self.workers) {
            join_thread(h);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.workers.is_empty() {
            self.drain_in_place();
        }
    }
}

fn join_thread(h: JoinHandle<()>) {
    if let Err(e) = h.join() {
        std::panic::resume_unwind(e);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, conns: &Mutex<Vec<JoinHandle<()>>>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == Interrupted => continue,
            // Accept errors are transient (peer reset during the
            // handshake); give up only when asked to stop.
            Err(_) => {
                if shared.closing.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.closing.load(Ordering::SeqCst) {
            // The drain wake-up connection (or a late client): refuse
            // by closing without ever reading — nothing was accepted.
            return;
        }
        // Responses are small and whole: never hold one back for the
        // peer's delayed ACK.
        if stream.set_read_timeout(Some(shared.cfg.poll)).is_err()
            || stream
                .set_write_timeout(Some(shared.cfg.write_timeout))
                .is_err()
            || stream.set_nodelay(true).is_err()
        {
            continue;
        }
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let stats = Arc::new(Counters::default());
        {
            let mut cs = rank::lock(&shared.conn_stats, Rank::ConnStats);
            cs.push(Arc::clone(&stats));
        }
        let conn = Arc::new(Conn {
            stream,
            frame: Mutex::new(Vec::new()),
            stats,
        });
        let s = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("apex-net-conn".into())
            .spawn(move || conn_loop(&conn, &s));
        if let Ok(h) = spawned {
            let mut c = rank::lock(conns, Rank::Conns);
            c.push(h);
        }
    }
}

fn conn_loop(conn: &Arc<Conn>, shared: &Shared) {
    let mut frames = FrameReader::new(AwakeRead::new(&conn.stream), shared.cfg.max_frame);
    loop {
        let req = match frames.poll_message(&shared.closing) {
            Some(Message::Request(req)) => req,
            // A client sending us *responses* is a protocol error.
            Some(Message::Response(_)) | None => return,
        };
        let admitted = Instant::now();
        conn.stats.accepted.fetch_add(1, Ordering::Relaxed);
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        let deadline = if req.deadline_ms > 0 {
            admitted.checked_add(Duration::from_millis(u64::from(req.deadline_ms)))
        } else {
            shared
                .cfg
                .default_deadline
                .and_then(|d| admitted.checked_add(d))
        };
        if shared.closing.load(Ordering::SeqCst) {
            conn.respond(shared, &refusal(&req, Status::Draining, shared));
            continue;
        }
        let job = Job {
            req,
            conn: Arc::clone(conn),
            deadline,
        };
        // The queue lock is released before any response is written.
        match shared.queue.admit(job, frames.has_frame()) {
            Admission::Inline(job) => serve(shared, &job),
            Admission::Enqueued => {}
            Admission::Refused(job, status) => {
                conn.respond(shared, &refusal(&job.req, status, shared));
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        serve(shared, &job);
    }
}

/// The response's generation vector: shard-tagged engines stamp their
/// `(shard, generation)` entry so routers can audit consistency;
/// untagged single-process servers leave it empty.
fn shard_gens(engine: &Engine, generation: u64) -> Vec<ShardGen> {
    match engine.shard_tag() {
        Some(shard) => vec![ShardGen { shard, generation }],
        None => Vec::new(),
    }
}

/// A rows-free response for a request that never executed.
fn refusal(req: &Request, status: Status, shared: &Shared) -> Response {
    let generation = shared.engine.generation();
    Response {
        id: req.id,
        status,
        generation,
        total_rows: 0,
        rows: Vec::new(),
        pages_read: 0,
        join_work: 0,
        server_us: 0,
        plan_digest: 0,
        gens: shard_gens(&shared.engine, generation),
    }
}

/// Disposes of one admitted request on whichever thread took its
/// execution permit — a connection thread or a pool worker — and
/// returns the permit.
fn serve(shared: &Shared, job: &Job) {
    let start = Instant::now();
    // Deadline check before executing: queue wait may already have
    // spent the budget, so don't burn an execution on a dead request.
    let resp = if job.deadline.is_some_and(|d| start >= d) {
        refusal(&job.req, Status::DeadlineExceeded, shared)
    } else {
        let out = shared.engine.execute(&job.req.query, job.deadline);
        Response {
            id: job.req.id,
            status: out.status,
            generation: out.generation,
            total_rows: out.total_rows,
            rows: out.rows,
            pages_read: out.pages_read,
            join_work: out.join_work,
            server_us: (start.elapsed().as_micros()).min(u128::from(u64::MAX)) as u64,
            plan_digest: out.plan_digest,
            gens: shard_gens(&shared.engine, out.generation),
        }
    };
    job.conn.respond(shared, &resp);
    shared.queue.release();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use apex::{Apex, IndexCell, RefreshPolicy, WorkloadMonitor};
    use apex_storage::{DataTable, PageModel};
    use std::io::Read;
    use xmlgraph::builder::moviedb;

    fn test_engine() -> Engine {
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

    fn start(cfg: ServerConfig) -> Server {
        Server::start(test_engine(), cfg, "127.0.0.1:0").expect("bind")
    }

    #[test]
    fn serves_queries_over_a_real_socket() {
        let mut server = start(ServerConfig::default());
        let mut c = Client::connect(server.local_addr()).expect("connect");
        let ok = c.call("//actor/name", 0).expect("call");
        assert_eq!(ok.status, Status::Ok);
        assert!(ok.total_rows > 0);
        assert!(!ok.rows.is_empty());
        assert!(ok.pages_read > 0);
        let bad = c.call("actor", 0).expect("call");
        assert_eq!(bad.status, Status::ParseError);
        drop(c);
        let stats = server.drain();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.served, 2);
        assert_eq!(stats.connections, 1);
        assert!(stats.balanced(), "{stats}");
    }

    #[test]
    fn zero_default_deadline_times_every_request_out() {
        let mut server = start(ServerConfig {
            default_deadline: Some(Duration::ZERO),
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.local_addr()).expect("connect");
        let r = c.call("//actor/name", 0).expect("call");
        assert_eq!(r.status, Status::DeadlineExceeded);
        drop(c);
        let stats = server.drain();
        assert_eq!(stats.timed_out, 1);
        assert!(stats.balanced(), "{stats}");
    }

    #[test]
    fn overload_sheds_explicitly_and_balances() {
        // 1 worker, tiny queue, a pipelined burst: some requests must
        // come back Overloaded, none may vanish. Every third request
        // carries a 1 ms client deadline, so a queued one can also
        // expire: each disposition is counted exactly where it was
        // answered.
        let mut server = start(ServerConfig {
            workers: 1,
            queue_cap: 2,
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.local_addr()).expect("connect");
        const N: u64 = 200;
        for i in 0..N {
            c.send("//actor/name", u32::from(i % 3 == 0)).expect("send");
        }
        let mut got = 0u64;
        let (mut shed, mut expired) = (0u64, 0u64);
        while got < N {
            let r = c.recv().expect("recv").expect("open");
            match r.status {
                Status::Ok => {}
                Status::Overloaded => shed += 1,
                Status::DeadlineExceeded => expired += 1,
                other => panic!("request {}: unexpected {other:?}", r.id),
            }
            got += 1;
        }
        drop(c);
        let stats = server.drain();
        assert_eq!(stats.accepted, N);
        assert!(stats.balanced(), "{stats}");
        assert_eq!(stats.shed, shed);
        assert_eq!(stats.timed_out, expired);
        assert!(stats.queue_hwm <= 2, "hwm {} over cap", stats.queue_hwm);
        // The reader admits far faster than the single worker can
        // evaluate, and the client pipelines all N before reading any,
        // so the 2-slot queue must overflow.
        assert!(shed > 0, "burst of {N} through queue_cap=2 never shed");
    }

    #[test]
    fn drain_disposes_every_accepted_request() {
        let mut server = start(ServerConfig {
            workers: 1,
            queue_cap: 64,
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.local_addr()).expect("connect");
        const N: u64 = 50;
        for _ in 0..N {
            c.send("//actor/name", 0).expect("send");
        }
        // Wait until every frame is admitted, then drain with the
        // backlog still queued (the single worker lags the reader):
        // queued work must be answered, never discarded.
        while server.stats().accepted < N {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = server.drain();
        assert_eq!(stats.accepted, N);
        assert!(stats.balanced(), "{stats}");
        // Every disposition reached the wire too: responses first,
        // then a clean EOF once the server released the connection.
        let mut answered = 0u64;
        while let Some(r) = c.recv().expect("recv") {
            assert!(matches!(r.status, Status::Ok | Status::Overloaded));
            answered += 1;
        }
        assert_eq!(answered, N);
    }

    #[test]
    fn closed_loop_calls_never_touch_the_queue() {
        let mut server = start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.local_addr()).expect("connect");
        for _ in 0..50 {
            assert_eq!(c.call("//actor/name", 0).expect("call").status, Status::Ok);
        }
        drop(c);
        let stats = server.drain();
        assert_eq!(stats.served, 50);
        assert_eq!(stats.queue_hwm, 0, "served on the connection's thread");
        assert!(stats.balanced(), "{stats}");
    }

    #[test]
    fn a_response_survives_the_readers_non_blocking_moments() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let nap = Duration::from_millis(200);
        stream.set_write_timeout(Some(nap)).expect("timeout");
        let conn = Conn {
            stream,
            frame: Mutex::default(),
            stats: Arc::default(),
        };
        // Far more than the socket buffers hold, written while the
        // connection's thread has the socket non-blocking: the first
        // `write` comes back short, the rest must still arrive — whole,
        // in order — once the peer gets round to reading.
        let frame: Vec<u8> = (0..16usize << 20).map(|i| (i % 251) as u8).collect();
        conn.stream.set_nonblocking(true).expect("non-blocking");
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                std::thread::sleep(nap / 4);
                let mut got = vec![0u8; frame.len()];
                peer.read_exact(&mut got).expect("the whole frame");
                got
            });
            assert!(conn.deliver(&frame, Duration::from_secs(30)));
            assert!(reader.join().expect("reader") == frame);
        });
        // A peer that never reads still costs one write timeout, not
        // an instant failure and not one timeout per retry.
        conn.stream.set_nonblocking(true).expect("non-blocking");
        let t = Instant::now();
        assert!(!conn.deliver(&frame, nap));
        assert!(t.elapsed() >= nap, "gave up after {:?}", t.elapsed());
        assert!(t.elapsed() < 4 * nap, "gave up after {:?}", t.elapsed());
    }

    #[test]
    fn admission_never_grants_more_permits_than_workers() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let conn = Arc::new(Conn {
            stream,
            frame: Mutex::default(),
            stats: Arc::default(),
        });
        let job = |id| Job {
            req: Request {
                id,
                deadline_ms: 0,
                query: String::new(),
            },
            conn: Arc::clone(&conn),
            deadline: None,
        };
        let q = JobQueue::new(2, 1);
        // A peer with a further frame buffered is handed to the pool
        // even when a permit is free.
        assert!(matches!(q.admit(job(0), true), Admission::Enqueued));
        assert_eq!(q.pop().map(|j| j.req.id), Some(0), "pop takes the permit");
        // While that execution runs, a second connection's lone request
        // may not start beside it: it waits in the queue for the permit.
        assert!(matches!(q.admit(job(1), false), Admission::Enqueued));
        assert!(matches!(q.admit(job(2), false), Admission::Enqueued));
        assert!(matches!(
            q.admit(job(3), false),
            Admission::Refused(_, Status::Overloaded)
        ));
        {
            let st = q.lock();
            assert_eq!((st.running, st.jobs.len()), (1, 2));
        }
        q.release();
        assert_eq!(q.pop().map(|j| j.req.id), Some(1));
        // Something is still queued: arrivals line up behind it.
        q.release();
        assert!(matches!(q.admit(job(4), false), Admission::Enqueued));
        assert_eq!(q.pop().map(|j| j.req.id), Some(2));
        q.release();
        assert_eq!(q.pop().map(|j| j.req.id), Some(4));
        q.release();
        // Idle again: a lone request runs where it arrived.
        assert!(matches!(q.admit(job(5), false), Admission::Inline(_)));
        assert!(matches!(q.admit(job(6), false), Admission::Enqueued));
        assert_eq!(q.hwm(), 2);
        q.close();
        assert!(matches!(
            q.admit(job(7), false),
            Admission::Refused(_, Status::Draining)
        ));
    }

    #[test]
    fn two_closed_loop_connections_share_one_permit() {
        let mut server = start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let addr = server.local_addr();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    for _ in 0..200 {
                        assert_eq!(c.call("//actor/name", 0).expect("call").status, Status::Ok);
                    }
                });
            }
        });
        let stats = server.drain();
        assert_eq!(stats.served, 400);
        // Closed loop: each connection has at most one request anywhere.
        assert!(stats.queue_hwm <= 2, "{stats}");
        assert!(stats.balanced(), "{stats}");
    }

    #[test]
    fn a_burst_then_closed_loop_calls_answer_every_id_once() {
        let mut server = start(ServerConfig {
            workers: 2,
            queue_cap: 8,
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.local_addr()).expect("connect");
        let mut ids = Vec::new();
        for round in 0..3 {
            for _ in 0..100 {
                c.send("//actor/name", 0).expect("send");
            }
            for _ in 0..100 {
                let r = c.recv().expect("recv").expect("open");
                assert!(matches!(r.status, Status::Ok | Status::Overloaded));
                ids.push(r.id);
            }
            for _ in 0..20 {
                let r = c.call("//movie/title", 0).expect("call");
                assert_eq!(
                    r.status,
                    Status::Ok,
                    "round {round}: nothing else in flight"
                );
                ids.push(r.id);
            }
        }
        drop(c);
        ids.sort_unstable();
        assert_eq!(ids, (0..360).collect::<Vec<u64>>());
        let stats = server.drain();
        assert_eq!(stats.accepted, 360);
        assert!(stats.balanced(), "{stats}");
    }

    #[test]
    fn per_connection_stats_partition_the_totals() {
        let mut server = start(ServerConfig::default());
        let mut a = Client::connect(server.local_addr()).expect("connect");
        let mut b = Client::connect(server.local_addr()).expect("connect");
        for _ in 0..3 {
            a.call("//actor/name", 0).expect("a");
        }
        b.call("//movie/title", 0).expect("b");
        let per = server.connection_stats();
        assert_eq!(per.len(), 2);
        let total: u64 = per.iter().map(|c| c.accepted).sum();
        assert_eq!(total, 4);
        assert!(per.iter().any(|c| c.accepted == 3));
        assert!(per.iter().any(|c| c.accepted == 1));
        drop((a, b));
        let stats = server.drain();
        assert_eq!(stats.connections, 2);
        assert!(stats.balanced(), "{stats}");
    }

    #[test]
    fn drop_without_drain_still_joins_cleanly() {
        let server = start(ServerConfig::default());
        let mut c = Client::connect(server.local_addr()).expect("connect");
        c.call("//actor/name", 0).expect("call");
        drop(server); // Drop runs the drain path; must not hang or panic
    }
}
