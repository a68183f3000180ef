//! A small blocking client for the apex-net protocol.
//!
//! Two usage styles:
//!
//! * **closed loop** — [`Client::call`] sends one request and blocks
//!   for its response (one outstanding request at a time);
//! * **open loop / pipelined** — [`Client::send`] many requests, then
//!   [`Client::recv`] responses as they arrive; ids correlate them (a
//!   pipelined frame is handed to the server's worker pool, and pool
//!   workers race each other and the connection's own thread, so
//!   responses may be reordered; closed-loop calls never are).
//!
//! [`Client::call_retrying`] layers fault tolerance on the closed loop:
//! a broken connection is transparently re-dialed (the resolved peer
//! addresses are kept from `connect`), and an explicit shed response
//! (`Overloaded` / `Draining`) is retried after a jittered exponential
//! backoff, up to a bounded attempt budget. Every recovery action is
//! surfaced in [`ClientStats`] so load generators can report how much
//! resilience the run actually consumed.
//!
//! The load generator and the CLI both sit on this type, as do the
//! server's own end-to-end tests and the scatter-gather router's
//! per-replica connections.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::wire::{
    AwakeRead, FrameReader, Message, Request, Response, WireError, DEFAULT_MAX_FRAME,
};

/// Bounds for [`Client::call_retrying`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, the first call included (min 1).
    pub attempts: u32,
    /// Base backoff slept before retrying a shed response; doubles per
    /// retry up to `backoff_cap`. The actual sleep is jittered to
    /// between half and all of the current backoff.
    pub backoff: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
        }
    }
}

/// Monotonic counters for the client's recovery actions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Successful re-dials after a broken connection.
    pub reconnects: u64,
    /// Shed responses (`Overloaded` / `Draining`) absorbed by a
    /// backoff-and-retry instead of being returned to the caller.
    pub retried_sheds: u64,
    /// Calls that exhausted the attempt budget and returned the final
    /// shed response to the caller anyway.
    pub retry_give_ups: u64,
}

/// A blocking connection to an apex-net server.
pub struct Client {
    /// The socket behind its read buffer: one `read` per response, or
    /// per burst of them — polled for before sleeping in it while the
    /// server keeps answering ([`AwakeRead`]); requests are written
    /// straight through.
    conn: FrameReader<AwakeRead<TcpStream>>,
    /// The request frame, encoded in place and reused across sends.
    frame: Vec<u8>,
    next_id: u64,
    /// Resolved peer addresses, kept for reconnects.
    peers: Vec<SocketAddr>,
    stats: ClientStats,
    /// xorshift64 state for backoff jitter (no RNG dependency here).
    jitter: u64,
}

/// Dials the first reachable peer.
fn open(peers: &[SocketAddr]) -> Result<FrameReader<AwakeRead<TcpStream>>, WireError> {
    let mut last: Option<io::Error> = None;
    for addr in peers {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                return Ok(FrameReader::new(AwakeRead::new(stream), DEFAULT_MAX_FRAME));
            }
            Err(e) => last = Some(e),
        }
    }
    Err(match last {
        Some(e) => WireError::Io(e),
        None => WireError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "address resolved to no peers",
        )),
    })
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, WireError> {
        let peers: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let conn = open(&peers)?;
        let port = peers.first().map_or(0, |a| u64::from(a.port()));
        Ok(Client {
            conn,
            frame: Vec::new(),
            next_id: 0,
            peers,
            stats: ClientStats::default(),
            // Any nonzero seed works; mix the port so two clients of
            // different servers don't sleep in lockstep.
            jitter: 0x9E37_79B9_7F4A_7C15 ^ (port << 32) | 1,
        })
    }

    /// Drops the current connection — and whatever it had buffered —
    /// and dials the peers again. Request ids keep counting up, so
    /// responses never collide across the two connection lives.
    pub fn reconnect(&mut self) -> Result<(), WireError> {
        self.conn = open(&self.peers)?;
        self.stats.reconnects += 1;
        Ok(())
    }

    /// Recovery counters accumulated so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Bounds one blocking [`Client::recv`] (and therefore
    /// [`Client::call`]): `None` blocks forever (the default). A read
    /// that trips the timeout surfaces as [`WireError::Io`]; the late
    /// response is still on its way, so callers that give up on it
    /// should [`Client::reconnect`].
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), WireError> {
        self.conn.get_ref().socket().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request without waiting; returns its id.
    /// `deadline_ms` 0 means "no client deadline" (the server may still
    /// apply its configured default).
    pub fn send(&mut self, query: &str, deadline_ms: u32) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            id,
            deadline_ms,
            query: query.to_string(),
        };
        req.encode_frame(&mut self.frame)?;
        self.conn.get_ref().socket().write_all(&self.frame)?;
        Ok(id)
    }

    /// Receives the next response in arrival order. `Ok(None)` means
    /// the server closed the connection cleanly (drain finished).
    pub fn recv(&mut self) -> Result<Option<Response>, WireError> {
        match self.conn.read_message()? {
            None => Ok(None),
            Some(Message::Response(resp)) => Ok(Some(resp)),
            // A server sending *requests* is a protocol error.
            Some(Message::Request(_)) => Err(WireError::Malformed("server sent a request frame")),
        }
    }

    /// Closed-loop convenience: send one request, block for *its*
    /// response. Assumes no other requests are outstanding on this
    /// connection (stray earlier responses are skipped by id).
    pub fn call(&mut self, query: &str, deadline_ms: u32) -> Result<Response, WireError> {
        let id = self.send(query, deadline_ms)?;
        loop {
            match self.recv()? {
                None => return Err(WireError::ConnectionClosed),
                Some(resp) if resp.id == id => return Ok(resp),
                Some(_) => {}
            }
        }
    }

    /// [`Client::call`] with bounded fault tolerance: transport
    /// failures (broken pipe, truncated frame, clean close mid-call)
    /// trigger a reconnect and a resend; shed responses trigger a
    /// jittered-backoff retry. After `policy.attempts` total tries the
    /// last response or error is returned as-is — bounded, never an
    /// infinite loop. Protocol errors (`BadVersion`, `Malformed`, …)
    /// are returned immediately: retrying cannot fix a peer speaking a
    /// different protocol.
    pub fn call_retrying(
        &mut self,
        query: &str,
        deadline_ms: u32,
        policy: &RetryPolicy,
    ) -> Result<Response, WireError> {
        let attempts = policy.attempts.max(1);
        let mut backoff = policy.backoff;
        let mut result = self.call(query, deadline_ms);
        for _ in 1..attempts {
            match &result {
                Ok(resp) if resp.status.is_shed() => {
                    self.stats.retried_sheds += 1;
                    std::thread::sleep(self.jittered(backoff, policy.backoff_cap));
                    backoff = backoff.saturating_mul(2).min(policy.backoff_cap);
                }
                Ok(_) => return result,
                Err(WireError::Io(_) | WireError::ConnectionClosed | WireError::Truncated) => {
                    // A dead connection: re-dial before resending. A
                    // failed reconnect is terminal (the peers are gone).
                    self.reconnect()?;
                }
                Err(_) => return result,
            }
            result = self.call(query, deadline_ms);
        }
        if matches!(&result, Ok(resp) if resp.status.is_shed()) {
            self.stats.retry_give_ups += 1;
        }
        result
    }

    /// A sleep between `d/2` and `d` (capped), decorrelating retry
    /// storms across clients without an RNG dependency.
    fn jittered(&mut self, d: Duration, cap: Duration) -> Duration {
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        let d = d.min(cap);
        let half = d / 2;
        let span = half.as_micros().min(u128::from(u64::MAX)) as u64;
        let extra = if span == 0 { 0 } else { x % (span + 1) };
        half + Duration::from_micros(extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Status;
    use std::net::TcpListener;

    /// A scripted one-connection-at-a-time responder: for each accepted
    /// connection it answers `per_conn` requests with the scripted
    /// statuses (then drops the connection, mid-script or not).
    fn scripted_server(script: Vec<Vec<Option<Status>>>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for conn_script in script {
                let (stream, _) = match listener.accept() {
                    Ok(s) => s,
                    Err(_) => return,
                };
                let mut frames = FrameReader::new(&stream, DEFAULT_MAX_FRAME);
                let mut frame = Vec::new();
                for action in conn_script {
                    let req = match frames.read_message() {
                        Ok(Some(Message::Request(r))) => r,
                        _ => break,
                    };
                    let Some(status) = action else {
                        break; // scripted connection drop: no response
                    };
                    let resp = Response {
                        id: req.id,
                        status,
                        generation: 1,
                        total_rows: 0,
                        rows: vec![],
                        pages_read: 0,
                        join_work: 0,
                        server_us: 0,
                        plan_digest: 0,
                        gens: vec![],
                    };
                    resp.encode_frame(&mut frame).expect("encode");
                    if (&stream).write_all(&frame).is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn retries_sheds_with_backoff_until_served() {
        let addr = scripted_server(vec![vec![
            Some(Status::Overloaded),
            Some(Status::Draining),
            Some(Status::Ok),
        ]]);
        let mut c = Client::connect(addr).expect("connect");
        let resp = c
            .call_retrying("//a", 0, &RetryPolicy::default())
            .expect("call");
        assert_eq!(resp.status, Status::Ok);
        let stats = c.stats();
        assert_eq!(stats.retried_sheds, 2);
        assert_eq!(stats.retry_give_ups, 0);
        assert_eq!(stats.reconnects, 0);
    }

    #[test]
    fn bounded_attempts_surface_the_final_shed() {
        let addr = scripted_server(vec![vec![Some(Status::Overloaded); 8]]);
        let mut c = Client::connect(addr).expect("connect");
        let policy = RetryPolicy {
            attempts: 3,
            ..RetryPolicy::default()
        };
        let resp = c.call_retrying("//a", 0, &policy).expect("call");
        assert_eq!(resp.status, Status::Overloaded, "give-up returns the shed");
        let stats = c.stats();
        assert_eq!(stats.retried_sheds, 2, "attempts are bounded");
        assert_eq!(stats.retry_give_ups, 1);
    }

    #[test]
    fn reconnects_across_a_dropped_connection() {
        // First connection dies without answering; the second serves.
        let addr = scripted_server(vec![vec![None], vec![Some(Status::Ok)]]);
        let mut c = Client::connect(addr).expect("connect");
        let resp = c
            .call_retrying("//a", 0, &RetryPolicy::default())
            .expect("call");
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(c.stats().reconnects, 1);
    }

    #[test]
    fn plain_call_still_errors_through() {
        let addr = scripted_server(vec![vec![None]]);
        let mut c = Client::connect(addr).expect("connect");
        assert!(c.call("//a", 0).is_err(), "call has no retry semantics");
    }
}
