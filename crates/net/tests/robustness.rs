//! Wire-protocol robustness: hostile and broken peers must produce
//! clean errors or connection closes — never a panic, never a stuck
//! server, never an accounting hole. Each scenario attacks a live
//! server on a loopback socket, then proves the server still serves a
//! well-behaved client and drains balanced.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use apex::{Apex, IndexCell, RefreshPolicy, WorkloadMonitor};
use apex_net::{Client, Engine, FrameReader, Message, Request, Server, ServerConfig, Status};
use apex_storage::{DataTable, PageModel};
use xmlgraph::builder::moviedb;

fn start_server() -> Server {
    start_server_with(ServerConfig::default())
}

fn start_server_with(cfg: ServerConfig) -> Server {
    let g = Arc::new(moviedb());
    let table = Arc::new(DataTable::build(&g, PageModel::default()));
    let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
    let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
        100,
        0.3,
        RefreshPolicy::Manual,
    )));
    let engine = Engine::new(g, table, cell, monitor);
    Server::start(engine, cfg, "127.0.0.1:0").expect("bind")
}

/// One well-formed request frame, as raw bytes.
fn request_frame(id: u64, query: &str) -> Vec<u8> {
    let req = Request {
        id,
        deadline_ms: 0,
        query: query.into(),
    };
    let mut frame = Vec::new();
    req.encode_frame(&mut frame).expect("encode");
    frame
}

/// The server must close a misbehaving connection; reads on our side
/// then see EOF (or a reset, if the kernel turned unread bytes into an
/// RST). Either way it must happen promptly.
fn assert_closed(mut stream: TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = [0u8; 64];
    loop {
        match std::io::Read::read(&mut stream, &mut buf) {
            Ok(0) => return,   // clean close
            Ok(_) => continue, // drain any pending response bytes
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return,
            Err(e) => panic!("expected close, got {e}"),
        }
    }
}

/// After an attack, a fresh client must still be served correctly.
fn assert_still_serving(addr: SocketAddr) {
    let mut c = Client::connect(addr).expect("connect after attack");
    let r = c.call("//actor/name", 0).expect("call after attack");
    assert_eq!(r.status, Status::Ok);
    assert!(r.total_rows > 0);
}

#[test]
fn oversized_length_prefix_closes_the_connection() {
    let mut server = start_server();
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).expect("connect");
    // 512 MiB advertised payload: far over the 1 MiB cap.
    s.write_all(&(512u32 << 20).to_le_bytes()).expect("write");
    s.write_all(&[0u8; 32]).expect("write");
    assert_closed(s);
    assert_still_serving(addr);
    let stats = server.drain();
    // The garbage never became a request; only the probe client counts.
    assert_eq!(stats.accepted, 1);
    assert!(stats.balanced(), "{stats}");
}

#[test]
fn unknown_protocol_version_closes_the_connection() {
    let mut server = start_server();
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).expect("connect");
    // A structurally plausible frame with version byte 9.
    let payload = [9u8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    s.write_all(&(payload.len() as u32).to_le_bytes())
        .expect("write");
    s.write_all(&payload).expect("write");
    assert_closed(s);
    assert_still_serving(addr);
    let stats = server.drain();
    assert_eq!(stats.accepted, 1);
    assert!(stats.balanced(), "{stats}");
}

#[test]
fn garbage_body_closes_the_connection() {
    let mut server = start_server();
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).expect("connect");
    // Valid header, then a request body whose query length points past
    // the end of the frame.
    let mut payload = vec![1u8, 0]; // version 1, kind request
    payload.extend_from_slice(&7u64.to_le_bytes()); // id
    payload.extend_from_slice(&0u32.to_le_bytes()); // deadline
    payload.extend_from_slice(&10_000u32.to_le_bytes()); // query len: lies
    payload.extend_from_slice(b"//a");
    s.write_all(&(payload.len() as u32).to_le_bytes())
        .expect("write");
    s.write_all(&payload).expect("write");
    assert_closed(s);
    assert_still_serving(addr);
    let stats = server.drain();
    assert_eq!(stats.accepted, 1);
    assert!(stats.balanced(), "{stats}");
}

#[test]
fn mid_request_disconnect_is_dropped_unaccepted() {
    let mut server = start_server();
    let addr = server.local_addr();
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        // Announce a 100-byte frame, send 10, vanish.
        s.write_all(&100u32.to_le_bytes()).expect("write");
        s.write_all(&[1u8; 10]).expect("write");
        // Dropping the stream closes it mid-frame.
    }
    assert_still_serving(addr);
    let stats = server.drain();
    assert_eq!(stats.accepted, 1, "partial frame must not count");
    assert!(stats.balanced(), "{stats}");
}

#[test]
fn disconnect_before_reading_responses_never_wedges_the_server() {
    let mut server = start_server();
    let addr = server.local_addr();
    {
        let mut c = Client::connect(addr).expect("connect");
        for _ in 0..20 {
            c.send("//actor/name", 0).expect("send");
        }
        // Vanish without reading a single response.
    }
    assert_still_serving(addr);
    let stats = server.drain();
    // Dispositions count even though delivery failed mid-way.
    assert!(stats.balanced(), "{stats}");
    assert!(stats.accepted >= 1);
}

#[test]
fn interleaved_attacks_and_queries_balance() {
    let mut server = start_server();
    let addr = server.local_addr();
    let mut good = Client::connect(addr).expect("connect");
    for round in 0..5 {
        let r = good.call("//movie/title", 0).expect("good call");
        assert_eq!(r.status, Status::Ok, "round {round}");
        // One attacker per round, alternating flavors.
        let mut s = TcpStream::connect(addr).expect("attacker");
        if round % 2 == 0 {
            let _ = s.write_all(&u32::MAX.to_le_bytes());
        } else {
            let _ = s.write_all(&[0xAB; 7]); // torn header + partial body
        }
        drop(s);
    }
    drop(good);
    let stats = server.drain();
    assert_eq!(stats.accepted, 5);
    assert_eq!(stats.served, 5);
    assert!(stats.balanced(), "{stats}");
}

#[test]
fn slow_loris_frame_is_answered_while_others_are_served() {
    let poll = Duration::from_millis(2);
    let mut server = start_server_with(ServerConfig {
        poll,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut loris = TcpStream::connect(addr).expect("loris");
    loris.set_nodelay(true).expect("nodelay");
    let mut good = Client::connect(addr).expect("connect");
    // One byte per write, each gap several read timeouts long: every
    // byte is its own wake-up, and the frame spans dozens of polls.
    for byte in request_frame(77, "//actor/name") {
        loris.write_all(&[byte]).expect("drip");
        std::thread::sleep(3 * poll);
        let r = good
            .call("//movie/title", 0)
            .expect("served beside the loris");
        assert_eq!(r.status, Status::Ok);
    }
    let mut replies = FrameReader::new(loris, 1 << 20);
    match replies.read_message().expect("reply") {
        Some(Message::Response(r)) => {
            assert_eq!((r.id, r.status), (77, Status::Ok));
            assert!(r.total_rows > 0);
        }
        other => panic!("expected the loris's answer, got {other:?}"),
    }
    drop((replies, good));
    let stats = server.drain();
    assert_eq!(stats.connections, 2);
    assert!(stats.balanced(), "{stats}");
}

#[test]
fn a_burst_from_a_peer_that_never_reads_stays_bounded_and_drains() {
    let cfg = ServerConfig {
        workers: 2,
        queue_cap: 16,
        write_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let mut server = start_server_with(cfg.clone());
    let addr = server.local_addr();
    let mut flood = TcpStream::connect(addr).expect("flood");
    flood
        .set_write_timeout(Some(Duration::from_millis(100)))
        .expect("timeout");
    let burst: Vec<u8> = (0..10_000)
        .flat_map(|id| request_frame(id, "//actor/name"))
        .collect();
    // 10 000 frames in one write, then more of the same until the
    // kernel takes no more: by then the responses nobody reads have
    // filled both socket buffers and the server has stopped reading —
    // or has already given the connection up.
    let mut bursts = 0;
    while bursts < 200 && flood.write_all(&burst).is_ok() {
        bursts += 1;
    }
    assert!(bursts >= 1, "the first burst fits the socket buffers");
    // Others still get an answer — a refusal, if the flood's backlog
    // has the queue full at that moment.
    let mut other = Client::connect(addr).expect("connect beside the flood");
    let r = other.call("//movie/title", 0).expect("answered");
    assert!(matches!(r.status, Status::Ok | Status::Overloaded));
    drop(other);
    let t = Instant::now();
    let stats = server.drain();
    let took = t.elapsed();
    drop(flood);
    // One blocked write may run out its clock; after it the connection
    // is closed and everything still owed to it fails at once.
    assert!(
        took < cfg.write_timeout * 2,
        "drain took {took:?} against a {:?} write timeout",
        cfg.write_timeout
    );
    assert!(stats.accepted >= 10_000, "{stats}");
    assert!(
        stats.shed > 0,
        "a burst that size overflows 16 slots: {stats}"
    );
    assert!(stats.queue_hwm <= cfg.queue_cap, "{stats}");
    assert!(stats.balanced(), "{stats}");
}
