//! The framed binary wire protocol.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload
//! length followed by the payload. The payload starts with a versioned
//! two-byte header, then the body:
//!
//! | bytes | field | notes |
//! |---|---|---|
//! | 4 | frame length | payload bytes that follow; bounded by the peer's max-frame cap |
//! | 1 | protocol version | [`PROTOCOL_VERSION`]; anything else is rejected |
//! | 1 | kind | 0 = request, 1 = response |
//!
//! Request body (kind 0):
//!
//! | bytes | field |
//! |---|---|
//! | 8 | request id (echoed verbatim in the response) |
//! | 4 | deadline budget in ms (0 = no deadline) |
//! | 4 | query length `n` (≤ [`MAX_QUERY_BYTES`]) |
//! | n | query text, UTF-8, in the paper's `//a/b` notation |
//!
//! Response body (kind 1):
//!
//! | bytes | field |
//! |---|---|
//! | 8 | request id |
//! | 1 | status ([`Status`]) |
//! | 8 | index generation that served (or would have served) the query |
//! | 4 | total result rows |
//! | 4 | sampled row count `k` (≤ [`MAX_ROW_SAMPLE`], ≤ total) |
//! | 4k | sampled result node ids |
//! | 8 | pages read (cost summary) |
//! | 8 | join work (cost summary) |
//! | 8 | server-side service time in µs |
//! | 8 | plan digest (0 = no cost-based plan ran) |
//! | 2 | generation-vector entry count `g` (≤ [`MAX_GEN_ENTRIES`]) |
//! | 10g | per-shard entries: `u16` shard id + `u64` generation |
//!
//! The generation vector is what makes scatter-gather auditable: a
//! shard-local server stamps its own `(shard, generation)` entry, the
//! router merges the entries of every sub-response it combined, and a
//! client can therefore check that no response mixes two generations
//! of the same shard. Single-process servers leave it empty (protocol
//! version 2 introduced the field; version 1 peers are rejected).
//!
//! Decoding is total: every malformed input maps to a [`WireError`]
//! (truncated frame, oversized length prefix, unknown version or kind,
//! short or trailing body bytes, invalid UTF-8) and never panics — the
//! robustness suite and a proptest roundtrip in this module pin that.

use std::borrow::Borrow;
use std::fmt;
use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// The only protocol version this build speaks (2 = the generation
/// vector joined the response body).
pub const PROTOCOL_VERSION: u8 = 2;

/// Default cap on one frame's payload size (1 MiB).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Cap on the query text inside one request.
pub const MAX_QUERY_BYTES: usize = 1 << 16;

/// Cap on the result-row sample a response carries (the full count is
/// always reported; the ids are a prefix sample, like a `LIMIT`).
pub const MAX_ROW_SAMPLE: usize = 64;

/// Cap on the per-shard generation vector a response carries — far
/// above any real topology, low enough that a hostile count cannot
/// balloon an allocation.
pub const MAX_GEN_ENTRIES: usize = 1024;

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;

/// How the server disposed of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Executed to completion; rows and cost are authoritative.
    Ok,
    /// Shed at admission: the bounded request queue was full.
    Overloaded,
    /// The deadline passed — at dequeue, or at a mid-execution
    /// checkpoint (rows are then a partial sample, never complete).
    DeadlineExceeded,
    /// The query text did not parse; nothing executed.
    ParseError,
    /// Shed because the server is draining and no longer admits work.
    Draining,
}

impl Status {
    /// The wire byte.
    pub fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::DeadlineExceeded => 2,
            Status::ParseError => 3,
            Status::Draining => 4,
        }
    }

    /// Parses the wire byte.
    pub fn from_code(code: u8) -> Result<Status, WireError> {
        match code {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Overloaded),
            2 => Ok(Status::DeadlineExceeded),
            3 => Ok(Status::ParseError),
            4 => Ok(Status::Draining),
            _ => Err(WireError::Malformed("unknown status code")),
        }
    }

    /// True for the two admission-shed statuses (`Overloaded`,
    /// `Draining`) — the explicit refusals that replace silent drops.
    pub fn is_shed(self) -> bool {
        matches!(self, Status::Overloaded | Status::Draining)
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::DeadlineExceeded => "deadline-exceeded",
            Status::ParseError => "parse-error",
            Status::Draining => "draining",
        };
        f.write_str(s)
    }
}

/// One entry of a response's per-shard generation vector: which index
/// generation of shard `shard` contributed rows to the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardGen {
    /// Shard id, as assigned by the cluster's `ShardMap`.
    pub shard: u16,
    /// The shard's published index generation that served the query.
    pub generation: u64,
}

/// One query request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Deadline budget in milliseconds from server admission
    /// (0 = none; the server may still apply its configured default).
    pub deadline_ms: u32,
    /// The query in the paper's notation (`//a/b`, `//a//b`,
    /// `//a/b[text() = "v"]`).
    pub query: String,
}

/// One response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// Disposition.
    pub status: Status,
    /// The index generation that served the request — load generators
    /// watch this to observe snapshot swaps under live traffic.
    pub generation: u64,
    /// Total result rows the query produced.
    pub total_rows: u32,
    /// A prefix sample of result node ids (≤ [`MAX_ROW_SAMPLE`]).
    pub rows: Vec<u32>,
    /// Pages read, from the logical cost model.
    pub pages_read: u64,
    /// Join work, from the logical cost model.
    pub join_work: u64,
    /// Server-side service time in microseconds (queue wait excluded).
    pub server_us: u64,
    /// Digest of the cost-based plan that served the query (0 when no
    /// planner ran — sheds, parse errors). Load generators correlate
    /// this with tail latency to attribute slow requests to planning
    /// choices across generations.
    pub plan_digest: u64,
    /// Per-shard generation vector (≤ [`MAX_GEN_ENTRIES`] entries).
    /// Empty on single-process servers; a shard-local server stamps
    /// exactly one entry; a scatter-gather router stamps one entry per
    /// shard it merged. At most one entry per shard id — the "no mixed
    /// generations" consistency invariant.
    pub gens: Vec<ShardGen>,
}

/// Either message kind, as decoded off a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A request frame.
    Request(Request),
    /// A response frame.
    Response(Response),
}

/// Every way a frame can fail to travel or parse.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure.
    Io(io::Error),
    /// The stream ended inside a frame (mid-request disconnect).
    Truncated,
    /// The length prefix exceeds the configured frame cap.
    Oversized {
        /// The advertised payload length.
        len: u64,
        /// The cap it violated.
        max: usize,
    },
    /// The payload's version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The payload's kind byte is neither request nor response.
    BadKind(u8),
    /// The stream closed cleanly where a message was still expected.
    ConnectionClosed,
    /// A structurally invalid body (short fields, trailing bytes,
    /// invalid UTF-8, out-of-range counts).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Truncated => write!(f, "stream ended inside a frame"),
            WireError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::BadKind(k) => write!(f, "unknown message kind {k}"),
            WireError::ConnectionClosed => write!(f, "connection closed before a full message"),
            WireError::Malformed(why) => write!(f, "malformed body: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Bounds-checked little-endian reader over one payload.
struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, off: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.off.checked_add(n).ok_or(WireError::Malformed(what))?;
        let s = self
            .buf
            .get(self.off..end)
            .ok_or(WireError::Malformed(what))?;
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        let b = self.take(1, what)?;
        b.first().copied().ok_or(WireError::Malformed(what))
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b: [u8; 2] = self
            .take(2, what)?
            .try_into()
            .map_err(|_| WireError::Malformed(what))?;
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b: [u8; 4] = self
            .take(4, what)?
            .try_into()
            .map_err(|_| WireError::Malformed(what))?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b: [u8; 8] = self
            .take(8, what)?
            .try_into()
            .map_err(|_| WireError::Malformed(what))?;
        Ok(u64::from_le_bytes(b))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.off == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after body"))
        }
    }
}

impl Request {
    /// Encodes this request as one whole frame into `frame`.
    pub fn encode_frame(&self, frame: &mut Vec<u8>) -> Result<(), WireError> {
        encode_frame(frame, KIND_REQUEST, |out| self.encode_body(out))
    }

    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        if self.query.len() > MAX_QUERY_BYTES {
            return Err(WireError::Malformed("query text exceeds MAX_QUERY_BYTES"));
        }
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.deadline_ms.to_le_bytes());
        out.extend_from_slice(&(self.query.len() as u32).to_le_bytes());
        out.extend_from_slice(self.query.as_bytes());
        Ok(())
    }

    fn decode_body(cur: &mut Cursor<'_>) -> Result<Request, WireError> {
        let id = cur.u64("request id")?;
        let deadline_ms = cur.u32("deadline")?;
        let qlen = cur.u32("query length")? as usize;
        if qlen > MAX_QUERY_BYTES {
            return Err(WireError::Malformed("query text exceeds MAX_QUERY_BYTES"));
        }
        let bytes = cur.take(qlen, "query text")?;
        let query = std::str::from_utf8(bytes)
            .map_err(|_| WireError::Malformed("query text is not UTF-8"))?
            .to_string();
        Ok(Request {
            id,
            deadline_ms,
            query,
        })
    }
}

impl Response {
    /// Encodes this response as one whole frame into `frame`.
    pub fn encode_frame(&self, frame: &mut Vec<u8>) -> Result<(), WireError> {
        encode_frame(frame, KIND_RESPONSE, |out| self.encode_body(out))
    }

    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        if self.rows.len() > MAX_ROW_SAMPLE || self.rows.len() as u64 > self.total_rows as u64 {
            return Err(WireError::Malformed("row sample exceeds bounds"));
        }
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(self.status.code());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.total_rows.to_le_bytes());
        out.extend_from_slice(&(self.rows.len() as u32).to_le_bytes());
        for r in &self.rows {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&self.pages_read.to_le_bytes());
        out.extend_from_slice(&self.join_work.to_le_bytes());
        out.extend_from_slice(&self.server_us.to_le_bytes());
        out.extend_from_slice(&self.plan_digest.to_le_bytes());
        if self.gens.len() > MAX_GEN_ENTRIES {
            return Err(WireError::Malformed(
                "generation vector exceeds MAX_GEN_ENTRIES",
            ));
        }
        out.extend_from_slice(&(self.gens.len() as u16).to_le_bytes());
        for e in &self.gens {
            out.extend_from_slice(&e.shard.to_le_bytes());
            out.extend_from_slice(&e.generation.to_le_bytes());
        }
        Ok(())
    }

    fn decode_body(cur: &mut Cursor<'_>) -> Result<Response, WireError> {
        let id = cur.u64("response id")?;
        let status = Status::from_code(cur.u8("status")?)?;
        let generation = cur.u64("generation")?;
        let total_rows = cur.u32("total rows")?;
        let k = cur.u32("sample count")? as usize;
        if k > MAX_ROW_SAMPLE || k as u64 > total_rows as u64 {
            return Err(WireError::Malformed("row sample exceeds bounds"));
        }
        let mut rows = Vec::with_capacity(k);
        for _ in 0..k {
            rows.push(cur.u32("row id")?);
        }
        let pages_read = cur.u64("pages_read")?;
        let join_work = cur.u64("join_work")?;
        let server_us = cur.u64("server_us")?;
        let plan_digest = cur.u64("plan_digest")?;
        let gen_count = cur.u16("generation count")? as usize;
        if gen_count > MAX_GEN_ENTRIES {
            return Err(WireError::Malformed(
                "generation vector exceeds MAX_GEN_ENTRIES",
            ));
        }
        let mut gens = Vec::with_capacity(gen_count);
        for _ in 0..gen_count {
            gens.push(ShardGen {
                shard: cur.u16("gen shard id")?,
                generation: cur.u64("gen generation")?,
            });
        }
        Ok(Response {
            id,
            status,
            generation,
            total_rows,
            rows,
            pages_read,
            join_work,
            server_us,
            plan_digest,
            gens,
        })
    }
}

impl Message {
    /// Encodes the versioned payload (without the length prefix).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut out = vec![PROTOCOL_VERSION];
        match self {
            Message::Request(r) => {
                out.push(KIND_REQUEST);
                r.encode_body(&mut out)?;
            }
            Message::Response(r) => {
                out.push(KIND_RESPONSE);
                r.encode_body(&mut out)?;
            }
        }
        Ok(out)
    }

    /// Decodes one payload (a frame's contents, without the length
    /// prefix). Total: every non-conforming input maps to a
    /// [`WireError`].
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut cur = Cursor::new(payload);
        let version = cur.u8("version byte")?;
        if version != PROTOCOL_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = cur.u8("kind byte")?;
        let msg = match kind {
            KIND_REQUEST => Message::Request(Request::decode_body(&mut cur)?),
            KIND_RESPONSE => Message::Response(Response::decode_body(&mut cur)?),
            other => return Err(WireError::BadKind(other)),
        };
        cur.finish()?;
        Ok(msg)
    }
}

/// Bytes asked of the transport per `read` unless a larger frame is due.
const READ_CHUNK: usize = 8 << 10;

/// Frames `body` into `frame` (cleared first: callers reuse one buffer)
/// behind a length prefix patched in place — the payload is never copied.
fn encode_frame(
    frame: &mut Vec<u8>,
    kind: u8,
    body: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    frame.clear();
    frame.extend_from_slice(&[0, 0, 0, 0, PROTOCOL_VERSION, kind]);
    body(frame)?;
    let len = (frame.len() - 4) as u32;
    if let Some(prefix) = frame.first_chunk_mut::<4>() {
        *prefix = len.to_le_bytes();
    }
    Ok(())
}

/// The one frame reader: a transport plus a reused buffer. It yields
/// every complete frame it holds before it issues another `read` — one
/// per wake-up, for whatever the transport has — so a closed-loop
/// message costs one syscall and a pipelined burst one per chunk. It
/// never holds more than `max_frame + 4` bytes plus one chunk: a larger
/// length prefix is refused before room is made for its body.
pub struct FrameReader<R> {
    inner: R,
    /// Initialized storage; `buf[start..end]` is read, not yet yielded.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`; a frame over `max_frame` payload bytes is refused.
    pub fn new(inner: R, max_frame: usize) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_frame,
        }
    }

    /// The wrapped transport (to set socket options on).
    pub fn get_ref(&self) -> &R {
        &self.inner
    }

    /// Size of the front frame, prefix included, once that is buffered.
    fn front(&self) -> Result<Option<usize>, WireError> {
        let unread = self.buf.get(self.start..self.end);
        let Some(head) = unread.and_then(|b| b.first_chunk::<4>()) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(*head) as usize;
        if len > self.max_frame {
            return Err(WireError::Oversized {
                len: len as u64,
                max: self.max_frame,
            });
        }
        Ok(Some(4 + len))
    }

    /// True when a whole frame is buffered already: the peer sent it
    /// before the previous one was answered — it is pipelining.
    pub fn has_frame(&self) -> bool {
        matches!(self.front(), Ok(Some(n)) if self.end - self.start >= n)
    }

    /// Reads and decodes the next message. `Ok(None)` is a clean EOF at
    /// a frame boundary; EOF anywhere else is [`WireError::Truncated`].
    /// A transport error (a read timeout included) keeps the bytes read
    /// so far, so the next call resumes the same frame.
    pub fn read_message(&mut self) -> Result<Option<Message>, WireError> {
        loop {
            let need = self.front()?;
            let have = self.end - self.start;
            if let Some(n) = need.filter(|&n| have >= n) {
                let payload = self.buf.get(self.start + 4..self.start + n);
                let msg = Message::decode(payload.ok_or(WireError::Truncated)?);
                self.start += n;
                return msg.map(Some);
            }
            // A partial frame at most: move it to the front and make
            // room for the rest of it, or for one chunk.
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, have);
            }
            let want = need.map_or(READ_CHUNK, |n| (n - have).max(READ_CHUNK));
            if self.buf.len() < have + want {
                self.buf.resize(have + want, 0);
            }
            let room = self.buf.get_mut(have..).ok_or(WireError::Truncated)?;
            match self.inner.read(room) {
                Ok(0) if have == 0 => return Ok(None),
                Ok(0) => return Err(WireError::Truncated),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == Interrupted => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }

    /// [`FrameReader::read_message`] on a socket whose read timeout is
    /// a poll interval: a timeout re-checks `closing` and otherwise
    /// keeps waiting, so drain is noticed within one interval even on
    /// an idle connection. `None` is EOF, malformed or oversized input,
    /// a transport failure, or drain — the caller closes the connection
    /// either way. A partial frame cut off by drain is dropped: a
    /// request counts only once its frame fully decodes.
    pub fn poll_message(&mut self, closing: &AtomicBool) -> Option<Message> {
        let timeout = |e: &io::Error| matches!(e.kind(), WouldBlock | TimedOut);
        loop {
            match self.read_message() {
                Ok(msg) => return msg,
                Err(WireError::Io(e)) if timeout(&e) && !closing.load(Ordering::SeqCst) => {}
                Err(_) => return None,
            }
        }
    }
}

/// Polls of a warm socket before its reader goes to sleep in `read`.
const AWAKE_POLLS: usize = 32;

/// The socket under a [`FrameReader`]: a `read` that waits for a
/// closed-loop peer's next frame *awake*. A thread asleep in `read` is
/// woken wherever the scheduler last ran it, and when that is not the
/// CPU the peer's bytes arrive on, every message pays for waking an
/// idle CPU — on a 2-vCPU guest 22 µs each way, and whether a
/// connection pays it is decided by where its threads happened to
/// start, so the same traffic runs at 22 k or at 57 k requests a second.
/// So while the conversation is live — the last `read` returned bytes —
/// the next one first polls the socket non-blocking up to 32 times
/// (`AWAKE_POLLS`), yielding the CPU to any runnable thread between
/// polls; only then, and always on a connection that was idle
/// the last time, does it block in `read` (under the socket's read
/// timeout, as before). An idle connection is never polled, and a peer
/// that thinks for longer than the polls last costs them once per
/// message. The socket is blocking again whenever `read` returns;
/// another thread writing it *during* the polls must expect
/// `WouldBlock` or a short count (see `net::server`'s `Conn::deliver`).
pub struct AwakeRead<S> {
    sock: S,
    /// The last `read` returned bytes: the peer is likely to send more.
    warm: bool,
}

impl<S: Borrow<TcpStream>> AwakeRead<S> {
    /// Wraps `sock`, owned or borrowed; the first `read` blocks.
    pub fn new(sock: S) -> AwakeRead<S> {
        AwakeRead { sock, warm: false }
    }

    /// The socket (to write to, or to set options on).
    pub fn socket(&self) -> &TcpStream {
        self.sock.borrow()
    }

    fn poll(&self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        let mut sock = self.socket();
        sock.set_nonblocking(true)?;
        let mut polled = Ok(None);
        for _ in 0..AWAKE_POLLS {
            match sock.read(buf) {
                Err(e) if e.kind() == WouldBlock => std::thread::yield_now(),
                got => {
                    polled = got.map(Some);
                    break;
                }
            }
        }
        sock.set_nonblocking(false)?;
        polled
    }
}

impl<S: Borrow<TcpStream>> Read for AwakeRead<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let polled = if self.warm { self.poll(buf)? } else { None };
        let n = match polled {
            Some(n) => Ok(n),
            None => self.socket().read(buf),
        };
        self.warm = matches!(n, Ok(n) if n > 0);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Write;

    fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), WireError> {
        let mut frame = Vec::new();
        match msg {
            Message::Request(r) => r.encode_frame(&mut frame)?,
            Message::Response(r) => r.encode_frame(&mut frame)?,
        }
        Ok(w.write_all(&frame)?)
    }

    fn roundtrip(msg: &Message) -> Message {
        let payload = msg.encode().expect("encode");
        Message::decode(&payload).expect("decode")
    }

    #[test]
    fn request_roundtrip() {
        let m = Message::Request(Request {
            id: 42,
            deadline_ms: 250,
            query: "//actor/name".into(),
        });
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn response_roundtrip() {
        let m = Message::Response(Response {
            id: u64::MAX,
            status: Status::DeadlineExceeded,
            generation: 7,
            total_rows: 1000,
            rows: vec![1, 5, 9],
            pages_read: 123,
            join_work: 456,
            server_us: 789,
            plan_digest: 0xfeed_beef,
            gens: vec![
                ShardGen {
                    shard: 0,
                    generation: 7,
                },
                ShardGen {
                    shard: 2,
                    generation: 9,
                },
            ],
        });
        assert_eq!(roundtrip(&m), m);
    }

    #[test]
    fn stream_roundtrip_and_clean_eof() {
        let a = Message::Request(Request {
            id: 1,
            deadline_ms: 0,
            query: "//a".into(),
        });
        let b = Message::Response(Response {
            id: 1,
            status: Status::Ok,
            generation: 0,
            total_rows: 0,
            rows: vec![],
            pages_read: 0,
            join_work: 0,
            server_us: 0,
            plan_digest: 0,
            gens: vec![],
        });
        let mut wire = Vec::new();
        write_message(&mut wire, &a).expect("write a");
        write_message(&mut wire, &b).expect("write b");
        let mut r = FrameReader::new(&wire[..], DEFAULT_MAX_FRAME);
        assert_eq!(r.read_message().expect("a"), Some(a));
        assert_eq!(r.read_message().expect("b"), Some(b));
        assert_eq!(r.read_message().expect("eof"), None);
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_panic() {
        let m = Message::Request(Request {
            id: 9,
            deadline_ms: 0,
            query: "//actor/name".into(),
        });
        let mut wire = Vec::new();
        write_message(&mut wire, &m).expect("write");
        // Every proper prefix must fail cleanly (clean EOF only at 0).
        for cut in 1..wire.len() {
            let mut r = FrameReader::new(&wire[..cut], DEFAULT_MAX_FRAME);
            assert!(
                matches!(r.read_message(), Err(WireError::Truncated)),
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut r = FrameReader::new(&wire[..], DEFAULT_MAX_FRAME);
        assert!(matches!(r.read_message(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn unknown_version_and_kind_are_rejected() {
        let m = Message::Request(Request {
            id: 1,
            deadline_ms: 0,
            query: "//a".into(),
        });
        let mut payload = m.encode().expect("encode");
        payload[0] = 99;
        assert!(matches!(
            Message::decode(&payload),
            Err(WireError::BadVersion(99))
        ));
        payload[0] = PROTOCOL_VERSION;
        payload[1] = 7;
        assert!(matches!(
            Message::decode(&payload),
            Err(WireError::BadKind(7))
        ));
    }

    #[test]
    fn short_and_trailing_bodies_are_rejected() {
        let m = Message::Request(Request {
            id: 1,
            deadline_ms: 0,
            query: "//a/b".into(),
        });
        let payload = m.encode().expect("encode");
        for cut in 2..payload.len() {
            assert!(
                Message::decode(&payload[..cut]).is_err(),
                "short body at {cut}"
            );
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(matches!(
            Message::decode(&long),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_generation_vector_refuses_to_encode() {
        let m = Message::Response(Response {
            id: 1,
            status: Status::Ok,
            generation: 0,
            total_rows: 0,
            rows: vec![],
            pages_read: 0,
            join_work: 0,
            server_us: 0,
            plan_digest: 0,
            gens: vec![
                ShardGen {
                    shard: 0,
                    generation: 0,
                };
                MAX_GEN_ENTRIES + 1
            ],
        });
        assert!(matches!(m.encode(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn response_body_truncations_are_rejected() {
        let m = Message::Response(Response {
            id: 7,
            status: Status::Ok,
            generation: 3,
            total_rows: 2,
            rows: vec![4, 9],
            pages_read: 1,
            join_work: 2,
            server_us: 3,
            plan_digest: 4,
            gens: vec![
                ShardGen {
                    shard: 0,
                    generation: 3,
                },
                ShardGen {
                    shard: 1,
                    generation: 5,
                },
            ],
        });
        let payload = m.encode().expect("encode");
        for cut in 2..payload.len() {
            assert!(
                Message::decode(&payload[..cut]).is_err(),
                "short response body at {cut}"
            );
        }
    }

    #[test]
    fn invalid_utf8_query_is_rejected() {
        let m = Message::Request(Request {
            id: 1,
            deadline_ms: 0,
            query: "//ab".into(),
        });
        let mut payload = m.encode().expect("encode");
        let n = payload.len();
        payload[n - 1] = 0xFF; // orphan continuation byte
        assert!(matches!(
            Message::decode(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_query_text_refuses_to_encode() {
        let m = Message::Request(Request {
            id: 1,
            deadline_ms: 0,
            query: "x".repeat(MAX_QUERY_BYTES + 1),
        });
        assert!(matches!(m.encode(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder() {
        // A deterministic fuzz sweep: mutate a valid payload byte by
        // byte and decode; any result is fine, a panic is not.
        let m = Message::Response(Response {
            id: 3,
            status: Status::Ok,
            generation: 1,
            total_rows: 2,
            rows: vec![10, 20],
            pages_read: 5,
            join_work: 6,
            server_us: 7,
            plan_digest: 8,
            gens: vec![ShardGen {
                shard: 1,
                generation: 4,
            }],
        });
        let payload = m.encode().expect("encode");
        for i in 0..payload.len() {
            for bit in 0..8 {
                let mut mutated = payload.clone();
                mutated[i] ^= 1 << bit;
                let _ = Message::decode(&mutated);
            }
        }
    }

    /// An in-memory transport that plays back scripted reads: `Some`
    /// bytes (handed out as fast as the caller's buffer takes them, one
    /// step per `read`), `None` for a read timeout; EOF when the script
    /// ends. Counts the `read` calls it sees.
    struct Script {
        steps: std::collections::VecDeque<Option<Vec<u8>>>,
        reads: usize,
    }

    impl Script {
        fn new(steps: Vec<Option<Vec<u8>>>) -> Script {
            Script {
                steps: steps.into(),
                reads: 0,
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                None => Ok(0),
                Some(None) => Err(io::ErrorKind::WouldBlock.into()),
                Some(Some(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.steps.push_front(Some(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    fn request(id: u64, query_len: usize) -> Message {
        Message::Request(Request {
            id,
            deadline_ms: 0,
            query: "q".repeat(query_len),
        })
    }

    fn framed(messages: &[Message]) -> Vec<u8> {
        let mut wire = Vec::new();
        for m in messages {
            write_message(&mut wire, m).expect("write");
        }
        wire
    }

    fn drain_reader(r: &mut FrameReader<Script>, closing: &AtomicBool) -> Vec<Message> {
        std::iter::from_fn(|| r.poll_message(closing)).collect()
    }

    #[test]
    fn a_cut_and_a_timeout_at_every_offset_lose_nothing() {
        let sent = vec![
            request(1, 12),
            Message::Response(Response {
                id: 1,
                status: Status::Ok,
                generation: 2,
                total_rows: 3,
                rows: vec![7, 8, 9],
                pages_read: 4,
                join_work: 5,
                server_us: 6,
                plan_digest: 7,
                gens: vec![],
            }),
            request(2, 0),
            request(3, 40),
        ];
        let wire = framed(&sent);
        let open = AtomicBool::new(false);
        for cut in 1..wire.len() {
            let (a, b) = wire.split_at(cut);
            let script = Script::new(vec![Some(a.to_vec()), None, Some(b.to_vec())]);
            let mut r = FrameReader::new(script, DEFAULT_MAX_FRAME);
            assert_eq!(drain_reader(&mut r, &open), sent, "cut at {cut}");
        }
    }

    #[test]
    fn a_burst_is_yielded_whole_before_the_next_read() {
        let sent: Vec<Message> = (0..50).map(|i| request(i, 12)).collect();
        let mut r = FrameReader::new(Script::new(vec![Some(framed(&sent))]), DEFAULT_MAX_FRAME);
        let open = AtomicBool::new(false);
        for (i, m) in sent.iter().enumerate() {
            assert_eq!(r.poll_message(&open).as_ref(), Some(m));
            assert_eq!(r.get_ref().reads, 1, "frame {i} cost a read");
            assert_eq!(r.has_frame(), i + 1 < sent.len(), "frame {i}");
        }
        assert_eq!(r.poll_message(&open), None, "then EOF");
        assert_eq!(r.get_ref().reads, 2);
    }

    #[test]
    fn an_oversized_prefix_is_refused_before_its_body_is_buffered() {
        let max = 64;
        let mut wire = (10 * READ_CHUNK as u32).to_le_bytes().to_vec();
        wire.resize(4 + 10 * READ_CHUNK, 0xAB);
        let mut r = FrameReader::new(Script::new(vec![Some(wire)]), max);
        assert!(matches!(
            r.read_message(),
            Err(WireError::Oversized { max: 64, .. })
        ));
        assert_eq!(r.get_ref().reads, 1, "refused on the prefix alone");
        assert!(r.buf.len() <= READ_CHUNK, "held {} bytes", r.buf.len());
        assert_eq!(r.poll_message(&AtomicBool::new(false)), None);
    }

    #[test]
    fn buffered_bytes_stay_under_the_cap_plus_one_chunk() {
        // Frames from empty to the cap itself, fed by a transport that
        // always fills whatever room it is offered.
        let sizes = [0, 100, READ_CHUNK - 22, READ_CHUNK, 3 * READ_CHUNK, 60_000];
        let sent: Vec<Message> = (0..24).map(|i| request(i, sizes[i as usize % 6])).collect();
        let max = 2 + 16 + 60_000; // the largest frame's payload, exactly
        let mut r = FrameReader::new(Script::new(vec![Some(framed(&sent))]), max);
        let open = AtomicBool::new(false);
        for m in &sent {
            assert_eq!(r.poll_message(&open).as_ref(), Some(m));
            assert!(r.end <= r.buf.len());
            assert!(
                r.buf.len() <= max + 4 + READ_CHUNK,
                "held {} bytes",
                r.buf.len()
            );
        }
        assert_eq!(r.poll_message(&open), None);
    }

    #[test]
    fn closing_mid_frame_yields_none_and_counts_nothing() {
        let wire = framed(&[request(1, 12), request(2, 12)]);
        let cut = wire.len() - 5;
        // `closing` is only looked at when a read times out.
        let closing = AtomicBool::new(true);
        let script = Script::new(vec![
            Some(wire[..cut].to_vec()),
            None,
            Some(wire[cut..].to_vec()),
        ]);
        let mut r = FrameReader::new(script, DEFAULT_MAX_FRAME);
        let mut accepted = 0;
        while r.poll_message(&closing).is_some() {
            accepted += 1;
        }
        assert_eq!(accepted, 1, "the torn second frame is dropped un-accepted");
        assert_eq!(r.get_ref().reads, 2, "no read after drain was seen");
    }

    #[test]
    fn awake_read_polls_a_live_socket_and_sleeps_on_an_idle_one() {
        use std::net::TcpListener;
        use std::time::{Duration, Instant};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (sock, _) = listener.accept().expect("accept");
        let nap = Duration::from_millis(40);
        sock.set_read_timeout(Some(nap)).expect("timeout");
        let mut r = AwakeRead::new(&sock);
        let mut buf = [0u8; 8];
        // Whatever the reader last saw, a read that finds nothing ends
        // asleep in a blocking `read`: the read timeout bounds it, and
        // the socket is blocking again for whoever writes it next.
        let idle = |r: &mut AwakeRead<&TcpStream>, warm: bool| {
            assert_eq!(r.warm, warm);
            let t = Instant::now();
            let e = r.read(&mut [0u8; 8]).expect_err("nothing to read");
            assert!(matches!(e.kind(), WouldBlock | TimedOut), "{e}");
            assert!(t.elapsed() >= nap, "slept {:?}", t.elapsed());
            assert!(!r.warm);
        };
        idle(&mut r, false);
        for round in 0..3u8 {
            peer.write_all(&[round, round]).expect("write");
            // Cold the first time (a blocking read), warm after (polled).
            let n = r.read(&mut buf).expect("read");
            assert_eq!((n, buf[0]), (2, round));
            assert!(r.warm, "bytes arrived: the next read polls first");
        }
        idle(&mut r, true);
        idle(&mut r, false);
        drop(peer);
        assert_eq!(r.read(&mut buf).expect("eof"), 0);
        assert!(!r.warm);
    }

    fn query_strategy() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u8..128, 0..200).prop_map(|bytes| {
            bytes
                .into_iter()
                .map(|b| (b' ' + (b % 94)) as char)
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn request_codec_roundtrips(
            id in 0u64..=u64::MAX,
            deadline_ms in 0u32..=u32::MAX,
            query in query_strategy(),
        ) {
            let m = Message::Request(Request { id, deadline_ms, query: query.clone() });
            let payload = m.encode().expect("encode");
            prop_assert_eq!(Message::decode(&payload).expect("decode"), m);
        }

        #[test]
        fn response_codec_roundtrips(
            id in 0u64..=u64::MAX,
            code in 0u8..5,
            generation in 0u64..1_000_000,
            extra_rows in 0u32..10_000,
            rows in proptest::collection::vec(0u32..=u32::MAX, 0..MAX_ROW_SAMPLE),
            pages_read in 0u64..=u64::MAX,
            join_work in 0u64..=u64::MAX,
            server_us in 0u64..=u64::MAX,
            plan_digest in 0u64..=u64::MAX,
            gens in proptest::collection::vec((0u16..=u16::MAX, 0u64..=u64::MAX), 0..16),
        ) {
            let status = Status::from_code(code).expect("valid code range");
            let total_rows = rows.len() as u32 + extra_rows;
            let gens: Vec<ShardGen> = gens
                .iter()
                .map(|&(shard, generation)| ShardGen { shard, generation })
                .collect();
            let m = Message::Response(Response {
                id, status, generation, total_rows,
                rows: rows.clone(), pages_read, join_work, server_us, plan_digest,
                gens,
            });
            let payload = m.encode().expect("encode");
            prop_assert_eq!(Message::decode(&payload).expect("decode"), m);
        }

        #[test]
        fn random_payloads_never_panic(payload in proptest::collection::vec(0u8..=u8::MAX, 0..300)) {
            let _ = Message::decode(&payload);
        }
    }
}
