//! Durability across the wire: queries served over a real loopback
//! socket must be in the WAL by the time their response is read
//! (log-before-ack), and a recovery from that directory must rebuild
//! the same adapted index the server was serving.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::disallowed_methods
)]

use std::collections::BTreeSet;
use std::sync::{Arc, Barrier, Mutex};

use apex::recover::{recover, RecoverOptions};
use apex::wal::{list_segments, read_segment, CrashPlan, DurabilityConfig, Record, Wal};
use apex::{Apex, IndexCell, RefreshPolicy, Refresher, WorkloadMonitor};
use apex_net::{Client, Engine, Server, ServerConfig, Status};
use apex_storage::{DataTable, PageModel};
use xmlgraph::builder::moviedb;
use xmlgraph::LabelPath;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("apex-net-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn acked_queries_are_in_the_log_and_survive_recovery() {
    let dir = tmpdir("ack");
    let g = Arc::new(moviedb());
    let table = Arc::new(DataTable::build(&g, PageModel::default()));
    let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
    let wal = Arc::new(
        Wal::open(
            &dir,
            DurabilityConfig {
                group_commit: 1, // fsync every append: ack ⇒ durable
                checkpoint_every: 0,
                retain: 0,
            },
            CrashPlan::none(),
        )
        .expect("open wal"),
    );
    let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
        100,
        0.3,
        RefreshPolicy::EveryN(4),
    )));
    monitor.lock().unwrap().attach_wal(Arc::clone(&wal));
    let refresher = Arc::new(
        Refresher::spawn_durable(
            Arc::clone(&g),
            Arc::clone(&cell),
            Arc::clone(&monitor),
            Arc::clone(&wal),
        )
        .expect("spawn refresher"),
    );
    let engine = Engine::new(
        Arc::clone(&g),
        table,
        Arc::clone(&cell),
        Arc::clone(&monitor),
    )
    .with_refresher(Arc::clone(&refresher));
    let mut server = Server::start(engine, ServerConfig::default(), "127.0.0.1:0").expect("bind");

    let mut c = Client::connect(server.local_addr()).expect("connect");
    for i in 0..12u64 {
        let q = if i % 3 == 0 {
            "//movie/title"
        } else {
            "//actor/name"
        };
        let r = c.call(q, 0).expect("call");
        assert_eq!(r.status, Status::Ok);
        // Log-before-ack: the append for this query happened before the
        // response bytes were written, so it is visible here.
        assert!(wal.stats().appended > i, "query {i} acked but not logged");
    }
    drop(c);
    server.drain();
    drop(server); // releases the engine's clone of the refresher Arc

    // Wind the refresher down; its final checkpoint makes the stop clean.
    let refresher = Arc::into_inner(refresher).expect("sole refresher owner");
    let stats = refresher.shutdown();
    assert!(stats.checkpoints >= 1, "shutdown writes a final checkpoint");

    let st = wal.stats();
    assert!(st.appended >= 12, "12 queries plus any swaps: {st:?}");
    drop(wal);

    // Recovery rebuilds exactly what the server ended up serving, and a
    // clean shutdown needs no replayed records.
    let rec = recover(&dir, &g, &RecoverOptions::default()).expect("recover");
    assert_eq!(rec.report.applied, 0, "clean shutdown ⇒ empty replay tail");
    let live = cell.snapshot();
    assert_eq!(rec.generation, live.generation());
    assert!(apex::extent_equivalent(&g, &rec.index, live.index()).is_ok());

    // The oracle (pure replay of the socket workload, snapshots
    // ignored) converges to the same index: the log alone carries the
    // adaptation the remote clients drove.
    let oracle = recover(
        &dir,
        &g,
        &RecoverOptions {
            use_snapshots: false,
            ..RecoverOptions::default()
        },
    )
    .expect("oracle");
    assert_eq!(oracle.generation, live.generation());
    assert!(apex::extent_equivalent(&g, &oracle.index, live.index()).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every complete `Query` frame for `path` across the segments of `dir`.
fn logged(dir: &std::path::Path, path: &LabelPath) -> usize {
    let mut cost = apex_storage::Cost::new();
    let mut n = 0;
    for (_, seg) in list_segments(dir).expect("list segments") {
        let scan = read_segment(&seg, &mut cost).expect("read segment");
        n += scan
            .records
            .iter()
            .filter(|r| matches!(r, Record::Query(p) if p == path))
            .count();
    }
    n
}

/// Four closed-loop connections against `group_commit: 1`: the fsync
/// runs outside the monitor and log locks, led by one request while
/// the others write on, with the refresher rotating segments under
/// them — and still no response is readable before its query's frame
/// is in the log, while the answers span more than one generation.
#[test]
fn concurrent_acks_are_in_the_log_and_survive_recovery() {
    const PATHS: [(&str, &str); 4] = [
        ("//actor/name", "actor.name"),
        ("//movie/title", "movie.title"),
        ("//director/name", "director.name"),
        ("//director/movie/title", "director.movie.title"),
    ];
    let dir = tmpdir("concurrent");
    let g = Arc::new(moviedb());
    let table = Arc::new(DataTable::build(&g, PageModel::default()));
    let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
    let cfg = DurabilityConfig {
        group_commit: 1,
        checkpoint_every: 1, // every swap rotates the log under traffic
        retain: 0,
    };
    let wal = Arc::new(Wal::open(&dir, cfg, CrashPlan::none()).expect("open wal"));
    let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
        100,
        0.2,
        RefreshPolicy::EveryN(16),
    )));
    monitor.lock().unwrap().attach_wal(Arc::clone(&wal));
    let refresher = Arc::new(
        Refresher::spawn_durable(
            Arc::clone(&g),
            Arc::clone(&cell),
            Arc::clone(&monitor),
            Arc::clone(&wal),
        )
        .expect("spawn refresher"),
    );
    let engine = Engine::new(
        Arc::clone(&g),
        table,
        Arc::clone(&cell),
        Arc::clone(&monitor),
    )
    .with_refresher(Arc::clone(&refresher));
    let mut server = Server::start(engine, ServerConfig::default(), "127.0.0.1:0").expect("bind");

    let start = Barrier::new(PATHS.len());
    let generations: BTreeSet<u64> = std::thread::scope(|s| {
        let clients: Vec<_> = PATHS
            .into_iter()
            .map(|(query, dotted)| {
                let (addr, start, dir, g) = (server.local_addr(), &start, &dir, &g);
                s.spawn(move || {
                    let path = LabelPath::parse(g, dotted).expect("path");
                    let mut c = Client::connect(addr).expect("connect");
                    start.wait();
                    let mut seen = Vec::new();
                    for acked in 1..=30 {
                        let r = c.call(query, 0).expect("call");
                        assert_eq!(r.status, Status::Ok);
                        seen.push(r.generation);
                        let found = logged(dir, &path);
                        assert!(found >= acked, "{query}: {acked} acked, {found} logged");
                    }
                    seen
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    // The refresher swapped generations under the live socket traffic.
    assert!(generations.len() >= 2, "served on {generations:?} only");
    server.drain();
    drop(server);
    let stats = Arc::into_inner(refresher)
        .expect("sole refresher owner")
        .shutdown();
    assert!(stats.checkpoints >= 2, "swaps checkpointed under traffic");

    let st = wal.stats();
    assert!(st.appended >= 120, "120 queries plus the swaps: {st:?}");
    // Log fsyncs are shared, never repeated; each checkpoint adds the
    // one that seals its snapshot.
    assert!(st.fsyncs > 0 && st.fsyncs <= st.appended + st.checkpoints);
    drop(wal);

    let rec = recover(&dir, &g, &RecoverOptions::default()).expect("recover");
    assert_eq!(rec.report.applied, 0, "clean shutdown ⇒ empty replay tail");
    assert!(st.after_recovery(rec.report.replayed).balanced());
    let live = cell.snapshot();
    assert_eq!(rec.generation, live.generation());
    assert!(apex::extent_equivalent(&g, &rec.index, live.index()).is_ok());
    let oracle = RecoverOptions {
        use_snapshots: false,
        ..RecoverOptions::default()
    };
    let oracle = recover(&dir, &g, &oracle).expect("oracle");
    assert_eq!(oracle.generation, live.generation());
    assert!(apex::extent_equivalent(&g, &oracle.index, live.index()).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}
