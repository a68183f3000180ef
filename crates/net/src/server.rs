//! The admission-controlled TCP server with graceful drain.
//!
//! Thread anatomy:
//!
//! * one **acceptor** blocks in `accept`, registers each connection and
//!   spawns its reader; at drain it is woken by a self-connection;
//! * one **reader per connection** decodes request frames (with a
//!   short read timeout so it can poll the drain flag), counts each
//!   well-formed frame as *accepted*, and either enqueues it or sheds
//!   it with an explicit [`Status::Overloaded`] / [`Status::Draining`]
//!   response — a refusal is always a response, never a silent drop;
//! * `workers` **executors** pop the bounded queue, enforce the
//!   deadline at dequeue and (through the engine's checkpoints)
//!   mid-execution, and write the response through the connection's
//!   writer lock.
//!
//! Admission states for one request:
//!
//! ```text
//! frame read ──► accepted ──┬─ closing? ──────────► shed (Draining)
//!                           ├─ queue full? ───────► shed (Overloaded)
//!                           └─ enqueued ──► dequeue ─┬─ deadline past? ─► timed_out
//!                                                    └─ execute ─┬─ interrupted ─► timed_out
//!                                                                └─ done ───────► served
//! ```
//!
//! The accounting invariant — checked by [`NetStats::balanced`] and the
//! drain tests — is `accepted == served + shed + timed_out`: every
//! frame the server ever read gets exactly one disposition, drain
//! included. Malformed frames are protocol errors, not requests; the
//! reader closes the connection without touching the counters.
//!
//! Drain (`Server::drain`) runs: set `closing` → stop the refresher
//! taking new rebuilds → wake and join the acceptor → join readers
//! (each notices `closing` within one poll interval; partial frames
//! are dropped *un-accepted*) → close the queue → workers finish the
//! queued backlog deterministically (execute, or time out if the
//! deadline passed — queued work was accepted, so it is never
//! discarded) → join workers → snapshot [`NetStats`]. Joining the
//! last worker drops the last handle to each connection, so peers see
//! EOF only after every accepted request has been answered.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::Engine;
use crate::wire::{write_message, Message, Request, Response, ShardGen, Status, DEFAULT_MAX_FRAME};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor threads popping the request queue.
    pub workers: usize,
    /// Bounded request-queue capacity; admission sheds beyond it.
    pub queue_cap: usize,
    /// Deadline applied to requests that carry none (`deadline_ms` 0).
    pub default_deadline: Option<Duration>,
    /// Per-frame payload cap handed to the codec.
    pub max_frame: usize,
    /// Reader poll interval: the latency bound on noticing drain.
    pub poll: Duration,
    /// Bound on one response write; a peer that stops reading forfeits
    /// delivery (its dispositions still count) instead of wedging a
    /// worker — and with it, drain.
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
    /// Connections the acceptor handed to readers.
    pub connections: u64,
    /// Well-formed request frames read (every one gets a disposition).
    pub accepted: u64,
    /// Requests answered `Ok` or `ParseError`.
    pub served: u64,
    /// Requests refused at admission with an explicit shed response.
    pub shed: u64,
    /// Requests that crossed their deadline at dequeue or mid-query.
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

/// Per-connection shared state: the response path (writer half behind
/// a lock, shared by the admission path and the workers) plus counters.
/// The registry keeps only the counters; when the reader exits and the
/// last queued job is disposed, the final `Arc<Conn>` drops and the
/// socket closes — so a drained peer sees EOF only after its last
/// response.
struct Conn {
    writer: Mutex<TcpStream>,
    stats: Arc<Counters>,
}

impl Conn {
    /// Writes `resp` and records its disposition on both counter sets.
    /// Write failures are ignored: the disposition stands even when the
    /// peer is gone, so accounting never depends on delivery.
    fn respond(&self, server: &Counters, resp: &Response) {
        self.stats.count(resp.status);
        server.count(resp.status);
        let mut w = self.writer.lock().unwrap_or_else(|p| p.into_inner());
        let _ = write_message(&mut *w, &Message::Response(resp.clone()));
    }
}

/// One admitted request waiting for an executor.
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
}

/// Bounded Mutex+Condvar job queue. `try_push` never blocks (admission
/// control decides, it doesn't wait); `pop` blocks until a job arrives
/// or the queue is closed *and* empty — closing therefore drains the
/// backlog instead of discarding it.
struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
}

enum Admission {
    Enqueued,
    Full(Job),
    Closed(Job),
}

impl JobQueue {
    fn new(cap: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn try_push(&self, job: Job) -> Admission {
        let mut st = self.lock();
        if st.closed {
            return Admission::Closed(job);
        }
        if st.jobs.len() >= self.cap {
            return Admission::Full(job);
        }
        st.jobs.push_back(job);
        st.hwm = st.hwm.max(st.jobs.len());
        self.cv.notify_one();
        Admission::Enqueued
    }

    fn pop(&self) -> Option<Job> {
        let mut st = self.lock();
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
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
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
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
            queue: JobQueue::new(cfg.queue_cap),
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

        let readers = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let s = Arc::clone(&shared);
            let r = Arc::clone(&readers);
            std::thread::Builder::new()
                .name("apex-net-acceptor".into())
                .spawn(move || accept_loop(&listener, &s, &r))?
        };

        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            readers,
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
        let conns = self
            .shared
            .conn_stats
            .lock()
            .unwrap_or_else(|p| p.into_inner());
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
        // Readers exit within one poll interval; joining them first
        // guarantees nothing is pushed after the queue closes.
        let readers = {
            let mut r = self.readers.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *r)
        };
        for h in readers {
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

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, readers: &Mutex<Vec<JoinHandle<()>>>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
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
        // Timeouts are socket-wide, so they cover the writer clone too.
        if stream.set_read_timeout(Some(shared.cfg.poll)).is_err()
            || stream
                .set_write_timeout(Some(shared.cfg.write_timeout))
                .is_err()
        {
            continue;
        }
        let writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => continue,
        };
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let stats = Arc::new(Counters::default());
        {
            let mut cs = shared.conn_stats.lock().unwrap_or_else(|p| p.into_inner());
            cs.push(Arc::clone(&stats));
        }
        let conn = Arc::new(Conn {
            writer: Mutex::new(writer),
            stats,
        });
        let s = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("apex-net-conn".into())
            .spawn(move || reader_loop(stream, &conn, &s));
        if let Ok(h) = spawned {
            let mut r = readers.lock().unwrap_or_else(|p| p.into_inner());
            r.push(h);
        }
    }
}

/// Reads one message, tolerating read-timeout polls so `closing` is
/// observed within the stream's read timeout even on an idle
/// connection. `None` is a clean EOF, malformed or oversized input
/// (over `max_frame`), or drain — the reader exits either way, so they
/// collapse; protocol errors never touch counters. A partial frame
/// interrupted by drain is dropped *un-accepted*: callers count a
/// request only once its frame fully decodes. The router's client side
/// reads with this too.
pub fn read_polling(
    stream: &mut TcpStream,
    max_frame: usize,
    closing: &AtomicBool,
) -> Option<Message> {
    // A read timeout can split a frame, so accumulate raw bytes across
    // polls and decode only once the frame is complete.
    let mut buf: Vec<u8> = Vec::new();
    let mut need = 4usize; // length prefix first
    let mut have_len = false;
    loop {
        if buf.len() >= need {
            if !have_len {
                let head: [u8; 4] = buf.get(..4)?.try_into().ok()?;
                let len = u32::from_le_bytes(head) as usize;
                if len > max_frame {
                    return None; // oversized: close the connection
                }
                need = 4 + len;
                have_len = true;
                continue;
            }
            return Message::decode(buf.get(4..need)?).ok();
        }
        let mut chunk = [0u8; 4096];
        let want = (need - buf.len()).min(chunk.len());
        match io::Read::read(stream, chunk.get_mut(..want)?) {
            Ok(0) => return None, // EOF (mid-frame ⇒ truncated; same exit)
            Ok(n) => buf.extend_from_slice(chunk.get(..n)?),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if closing.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

fn reader_loop(mut stream: TcpStream, conn: &Arc<Conn>, shared: &Arc<Shared>) {
    loop {
        let req = match read_polling(&mut stream, shared.cfg.max_frame, &shared.closing) {
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
            conn.respond(&shared.counters, &shed(&req, Status::Draining, shared));
            continue;
        }
        let job = Job {
            req,
            conn: Arc::clone(conn),
            deadline,
        };
        match shared.queue.try_push(job) {
            Admission::Enqueued => {}
            Admission::Full(job) => {
                job.conn.respond(
                    &shared.counters,
                    &shed(&job.req, Status::Overloaded, shared),
                );
            }
            Admission::Closed(job) => {
                job.conn
                    .respond(&shared.counters, &shed(&job.req, Status::Draining, shared));
            }
        }
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

/// A rows-free refusal response.
fn shed(req: &Request, status: Status, shared: &Shared) -> Response {
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

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let start = Instant::now();
        // Deadline check at dequeue: queue wait already spent the
        // budget, so don't burn an execution on a dead request.
        if job.deadline.is_some_and(|d| start >= d) {
            let generation = shared.engine.generation();
            job.conn.respond(
                &shared.counters,
                &Response {
                    id: job.req.id,
                    status: Status::DeadlineExceeded,
                    generation,
                    total_rows: 0,
                    rows: Vec::new(),
                    pages_read: 0,
                    join_work: 0,
                    server_us: 0,
                    plan_digest: 0,
                    gens: shard_gens(&shared.engine, generation),
                },
            );
            continue;
        }
        let out = shared.engine.execute(&job.req.query, job.deadline);
        let server_us = (start.elapsed().as_micros()).min(u128::from(u64::MAX)) as u64;
        job.conn.respond(
            &shared.counters,
            &Response {
                id: job.req.id,
                status: out.status,
                generation: out.generation,
                total_rows: out.total_rows,
                rows: out.rows,
                pages_read: out.pages_read,
                join_work: out.join_work,
                server_us,
                plan_digest: out.plan_digest,
                gens: shard_gens(&shared.engine, out.generation),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use apex::{Apex, IndexCell, RefreshPolicy, WorkloadMonitor};
    use apex_storage::{DataTable, PageModel};
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
        // come back Overloaded, none may vanish.
        let mut server = start(ServerConfig {
            workers: 1,
            queue_cap: 2,
            ..ServerConfig::default()
        });
        let mut c = Client::connect(server.local_addr()).expect("connect");
        const N: u64 = 200;
        for _ in 0..N {
            c.send("//actor/name", 0).expect("send");
        }
        let mut got = 0u64;
        let mut shed = 0u64;
        while got < N {
            let r = c.recv().expect("recv").expect("open");
            if r.status == Status::Overloaded {
                shed += 1;
            } else {
                assert_eq!(r.status, Status::Ok);
            }
            got += 1;
        }
        drop(c);
        let stats = server.drain();
        assert_eq!(stats.accepted, N);
        assert!(stats.balanced(), "{stats}");
        assert_eq!(stats.shed, shed);
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
