//! `apex-cli` — an interactive shell over the APEX index.
//!
//! ```bash
//! apex-cli --file data.xml          # load an XML file
//! apex-cli --dataset Flix01         # or a generated Table 1 dataset
//! apex-cli --dataset ged --size 200 # or a custom-size family instance
//! apex-cli --dataset Flix01 --buffer-pages 64   # bounded LRU pool
//! apex-cli --dataset Flix01 listen 127.0.0.1:7431 --refresh-every 50
//! apex-cli --dataset Flix01 --wal-dir ./durable listen 127.0.0.1:7431
//! ```
//!
//! `--wal-dir <dir>` makes the session durable: startup recovers the
//! index from the newest verified snapshot in `<dir>` plus a replay of
//! the WAL tail ([`apex::recover()`]), every recorded query and refresh
//! swap is logged before it is acknowledged, the refresher (or the
//! shell, on `quit`) checkpoints back into the directory, and the next
//! start resumes at the generation this one reached. Works for both
//! the interactive shell and `listen`.
//!
//! `listen <addr>` serves queries over TCP (the apex-net protocol)
//! instead of opening the shell: remote clients connect with
//! `apex_net::Client` (`perf/`'s `net-point` and `net-drift` workloads
//! load a server built the same way), and with `--refresh-every N` the
//! background refresher keeps swapping refined index generations under
//! the live socket traffic. `--workers`,
//! `--queue-cap` and `--deadline-ms` tune the admission control. Type
//! `stop` (or EOF / `stats`) on stdin to drain gracefully / inspect.
//!
//! `rollout` demonstrates the sharded serving tier end to end: it
//! partitions the loaded graph over `--shards` shards × `--replicas`
//! replicas ([`apex_shard::ShardCluster`]), fronts them with a
//! scatter-gather [`apex_shard::Router`], drives `--requests` queries
//! from `--clients` concurrent clients, and — while that traffic is in
//! flight — drains, replaces and readmits every replica one at a time
//! ([`apex_shard::rolling_swap`]). It exits non-zero if any client saw
//! a shed response or any accounting ledger failed to balance: the
//! zero-downtime rollout invariant, checked from the outside.
//!
//! Commands inside the shell:
//!
//! ```text
//! > //actor/name                 evaluate a query (QTYPE1/2/3 syntax)
//! > explain //actor/name         show the plan without executing
//! > tune 0.005                   refine with the recorded workload
//! > workload                     show the recorded query window
//! > stats                        index statistics
//! > buffer                       cross-query buffer-pool state
//! > required                     current required paths
//! > labels                       label alphabet
//! > save out.idx / load out.idx  persist / restore the index
//! > serve 200                    replay the window through Engine::execute
//! > help, quit
//! ```
//!
//! Queries evaluate through the shared execution layer against one
//! buffer pool that lives for the whole session, so repeated queries
//! show buffer hits; `--buffer-pages N` bounds the pool (LRU) instead
//! of the default unbounded pool.

#![forbid(unsafe_code)]
// The shell talks to a terminal and owns the exit code.
#![allow(clippy::print_stdout, clippy::print_stderr, clippy::exit)]

use std::collections::BTreeSet;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use apex::{
    persist, recover, write_checkpoint, Apex, CrashPlan, DurabilityConfig, IndexCell,
    RecoverOptions, RefreshPolicy, Refresher, Wal, WorkloadMonitor,
};
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::QueryProcessor;
use apex_query::explain::explain_apex;
use apex_query::stats::percentile;
use apex_query::Query;
use apex_storage::bufmgr::BufferHandle;
use apex_storage::rank::{self, Rank};
use apex_storage::{DataTable, PageModel};
use xmlgraph::{LabelPath, XmlGraph};

mod repl;

use repl::{Command, ReplError};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let buffer_pages = match take_buffer_pages(&mut args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let refresh_every = match take_refresh_every(&mut args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let listen_cfg = match take_listen(&mut args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let wal_dir = match take_wal_dir(&mut args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let rollout_cfg = match take_rollout(&mut args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let g = match load_graph(&args) {
        Ok(g) => Arc::new(g),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: apex-cli --file <xml> | --dataset <Table1-name|play|flix|ged> \
                 [--size N] [--buffer-pages N] [--refresh-every N] [--wal-dir <dir>] \
                 [listen <addr> [--workers N] [--queue-cap N] [--deadline-ms N]] \
                 [rollout [--shards N] [--replicas N] [--requests N] [--clients N]]"
            );
            std::process::exit(2);
        }
    };
    println!(
        "loaded graph: {} nodes, {} edges, {} labels ({} IDREF)",
        g.node_count(),
        g.edge_count(),
        g.label_count(),
        g.idref_labels().len()
    );
    if let Some(cfg) = rollout_cfg {
        rollout(g, &cfg);
        return;
    }

    let table = Arc::new(DataTable::build(&g, PageModel::default()));
    let policy = match refresh_every {
        Some(n) => {
            println!("refresh policy: every {n} recorded queries");
            RefreshPolicy::EveryN(n)
        }
        None => RefreshPolicy::Manual,
    };

    // Durable mode: recover the index + monitor from the WAL directory
    // (first boot and crash recovery are the same code path), then open
    // the log for this life and attach it so every recorded query and
    // refresh swap is durable before it is acknowledged.
    let mut index;
    let mut monitor;
    let mut generation: u64 = 0;
    let wal: Option<Arc<Wal>> = match &wal_dir {
        Some(dir) => {
            let opts = RecoverOptions {
                capacity: 1000,
                min_sup: 0.1,
                policy,
                ..RecoverOptions::default()
            };
            let rec = match recover(Path::new(dir), &g, &opts) {
                Ok(rec) => rec,
                Err(e) => {
                    eprintln!("error: cannot recover from {dir}: {e}");
                    std::process::exit(1);
                }
            };
            for (seq, why) in &rec.report.rejected {
                eprintln!("warning: snapshot snap-{seq:06} rejected: {why}");
            }
            println!(
                "recovered gen {} from {dir}: snapshot {}, {} record(s) replayed ({} applied), \
                 {} torn byte(s) truncated",
                rec.generation,
                match rec.report.snapshot_seq {
                    Some(s) => format!("snap-{s:06}"),
                    None => "none".to_string(),
                },
                rec.report.replayed,
                rec.report.applied,
                rec.report.truncated_bytes,
            );
            index = rec.index;
            monitor = rec.monitor;
            generation = rec.generation;
            match Wal::open(
                Path::new(dir),
                DurabilityConfig::default(),
                CrashPlan::none(),
            ) {
                Ok(w) => {
                    let w = Arc::new(w);
                    monitor.attach_wal(Arc::clone(&w));
                    Some(w)
                }
                Err(e) => {
                    eprintln!("error: cannot open WAL in {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            index = Apex::build_initial(&g);
            monitor = WorkloadMonitor::new(1000, 0.1, policy);
            None
        }
    };
    if let Some(cfg) = listen_cfg {
        listen(g, table, index, monitor, generation, wal, &cfg);
        return;
    }
    // One buffer pool for the whole session: queries warm it, repeats
    // hit it. Processors are rebuilt per eval (tune/load swap the
    // index) but share this pool through cloned handles.
    let buf = match buffer_pages {
        Some(pages) => BufferHandle::with_capacity_pages(pages),
        None => BufferHandle::unbounded(),
    };
    match buffer_pages {
        Some(pages) => println!("buffer pool: {pages} pages (LRU)"),
        None => println!("buffer pool: unbounded"),
    }
    println!("APEX0 ready: {:?}", index.stats());
    println!("type `help` for commands");

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("apex> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        match repl::parse_command(&line) {
            Err(ReplError::Empty) => continue,
            Err(ReplError::Unknown(cmd)) => {
                println!("unknown command `{cmd}` — try `help`");
            }
            Ok(Command::Quit) => break,
            Ok(Command::Help) => println!("{}", repl::HELP),
            Ok(Command::Stats) => println!("{:?}", index.stats()),
            Ok(Command::Buffer) => {
                let s = buf.stats();
                println!("{s}");
                println!(
                    "  {} object(s) resident, capacity {}",
                    buf.objects(),
                    if buf.capacity_pages() == u64::MAX {
                        "unbounded".to_string()
                    } else {
                        format!("{} page(s)", buf.capacity_pages())
                    }
                );
            }
            Ok(Command::Labels) => {
                let mut names: Vec<&str> = g.labels().iter().map(|(_, s)| s).collect();
                names.sort_unstable();
                println!("{}", names.join(" "));
            }
            Ok(Command::Required) => {
                for p in index.required_paths(&g) {
                    println!("  {p}");
                }
            }
            Ok(Command::Workload) => {
                let wl = monitor.workload();
                println!(
                    "{} queries recorded since last tune",
                    monitor.since_refresh()
                );
                let mut rendered: Vec<String> = wl.iter().map(|p| p.render(&g)).collect();
                rendered.sort();
                rendered.dedup();
                for r in rendered.iter().take(30) {
                    println!("  {r}");
                }
            }
            Ok(Command::Tune(min_sup)) => {
                let windowed = monitor.workload().len();
                let steps = monitor.refresh_at(&g, &mut index, min_sup);
                if windowed > 0 {
                    generation += 1; // replay counts non-empty swaps the same way
                }
                println!("refined at minSup {min_sup} in {steps} update steps");
                println!("{:?}", index.stats());
            }
            Ok(Command::Save(path)) => match std::fs::File::create(&path) {
                // One `write_all` of the whole image: nothing to buffer,
                // and a failed write is reported, not dropped.
                Ok(mut f) => match persist::save(&index, &mut f) {
                    Ok(()) => println!("saved to {path}"),
                    Err(e) => println!("save failed: {e}"),
                },
                Err(e) => println!("cannot create {path}: {e}"),
            },
            // A saved file or any snapshot: a delta is read against the
            // base snapshot beside it.
            Ok(Command::Load(path)) => match recover::load_snapshot(Path::new(&path)) {
                Ok(img) => {
                    index = img.index;
                    println!("loaded {path}: {:?}", index.stats());
                }
                Err(e) => println!("load failed: {e}"),
            },
            Ok(Command::Explain(text)) => match Query::parse(&g, &text) {
                Ok(q) => {
                    print!(
                        "{}",
                        explain_apex(&index, &q).render_with_buffer(&g, &q, &buf.stats())
                    );
                    // Execute through the planner to close the loop:
                    // predicted vs actual per-operator cost plus the
                    // mispredict ratio.
                    let qp = ApexProcessor::with_buffer(&g, &index, &table, buf.clone());
                    if let Some(rep) = qp.eval(&q).plan {
                        print!("{}", rep.render());
                    }
                }
                Err(e) => println!("parse error: {e}"),
            },
            Ok(Command::Serve(n)) => {
                generation += serve(&g, &table, &mut index, &mut monitor, n);
            }
            Ok(Command::Eval(text)) => match Query::parse(&g, &text) {
                Ok(q) => {
                    if let Some(labels) = q.labels() {
                        monitor.record(LabelPath::new(labels.to_vec()));
                        if let Some(steps) = monitor.maybe_refresh(&g, &mut index) {
                            generation += 1; // policy refreshes only fire on non-empty windows
                            println!("auto-refreshed in {steps} update steps (policy)");
                        }
                    }
                    let before = buf.stats();
                    let qp = ApexProcessor::with_buffer(&g, &index, &table, buf.clone());
                    let started = std::time::Instant::now();
                    let res = qp.eval(&q);
                    let elapsed = started.elapsed();
                    for n in res.nodes.iter().take(20) {
                        let tag = g.label_str(g.tag(*n));
                        match g.value(*n) {
                            Some(v) => println!("  node {} <{}> \"{}\"", n.0, tag, v),
                            None => println!("  node {} <{}>", n.0, tag),
                        }
                    }
                    if res.nodes.len() > 20 {
                        println!("  … {} more", res.nodes.len() - 20);
                    }
                    println!(
                        "{} node(s) in {:.2} ms | {}",
                        res.nodes.len(),
                        apex_query::stats::millis(elapsed),
                        res.cost
                    );
                    println!("buffer: {}", buf.stats() - before);
                    let ops = res.cost.ops.render();
                    if !ops.is_empty() {
                        print!("{ops}");
                    }
                }
                Err(e) => println!("parse error: {e}"),
            },
        }
    }
    // Durable shells leave a clean directory behind: the final
    // checkpoint means the next start recovers without replaying a
    // single record.
    if let Some(w) = &wal {
        let cell = IndexCell::with_generation(index.clone(), generation);
        let m = Mutex::new(monitor.clone());
        match write_checkpoint(&cell, &m, w) {
            Ok(seq) => println!("final checkpoint snap-{seq:06} written"),
            Err(e) => eprintln!("warning: final checkpoint failed: {e}"),
        }
    }
    println!("bye");
}

/// Replays the recorded workload window (cycled to `n` queries) through
/// [`apex_net::Engine::execute`], the same serving step `listen` runs
/// per request: the index moves into an [`IndexCell`], a background
/// [`Refresher`] adapts it as the replay re-records the queries, and
/// the final snapshot + monitor state move back into the shell when the
/// run completes. The replay charges the engine's own buffer pool, not
/// the session's. Returns the number of generations the run published
/// (the shell's durable generation counter advances by the same amount
/// — matching what WAL replay will reconstruct).
fn serve(
    g: &Arc<XmlGraph>,
    table: &Arc<DataTable>,
    index: &mut Apex,
    monitor: &mut WorkloadMonitor,
    n: usize,
) -> u64 {
    let window: Vec<LabelPath> = monitor.workload().iter().cloned().collect();
    if window.is_empty() {
        println!("no recorded workload — run some queries first");
        return 0;
    }
    if matches!(monitor.policy(), RefreshPolicy::Manual) {
        println!("note: refresh policy is manual; start with --refresh-every N to see swaps");
    }
    let queries: Vec<String> = window
        .iter()
        .cycle()
        .take(n)
        .map(|p| {
            Query::PartialPath {
                labels: p.labels().to_vec(),
            }
            .render(g)
        })
        .collect();
    let cell = Arc::new(IndexCell::new(index.clone()));
    let shared_monitor = Arc::new(Mutex::new(monitor.clone()));
    let refresher = match Refresher::spawn(
        Arc::clone(g),
        Arc::clone(&cell),
        Arc::clone(&shared_monitor),
    ) {
        Ok(r) => Arc::new(r),
        Err(e) => {
            println!("cannot spawn refresher: {e}");
            return 0;
        }
    };
    let engine = apex_net::Engine::new(
        Arc::clone(g),
        Arc::clone(table),
        Arc::clone(&cell),
        Arc::clone(&shared_monitor),
    )
    .with_refresher(Arc::clone(&refresher));
    let mut latencies = Vec::with_capacity(queries.len());
    let mut generations = BTreeSet::new();
    let (mut ok, mut rows, mut pages, mut join_work) = (0usize, 0u64, 0u64, 0u64);
    for q in &queries {
        let started = std::time::Instant::now();
        let out = engine.execute(q, None);
        latencies.push(started.elapsed());
        generations.insert(out.generation);
        ok += usize::from(out.status == apex_net::Status::Ok);
        rows += u64::from(out.total_rows);
        pages += out.pages_read;
        join_work += out.join_work;
    }
    drop(engine); // releases the engine's refresher handle
    refresher.wait_idle();
    let Some(refresher) = Arc::into_inner(refresher) else {
        println!("refresher still shared after the replay");
        return 0;
    };
    let serve_stats = refresher.shutdown();
    latencies.sort_unstable();
    println!(
        "served {} queries ({ok} ok): {rows} result rows, pages={pages} join-work={join_work} \
         | execute p50={:.3} ms p99={:.3} ms",
        queries.len(),
        apex_query::stats::millis(percentile(&latencies, 0.50)),
        apex_query::stats::millis(percentile(&latencies, 0.99)),
    );
    println!(
        "generations: first {}, last {}, {} distinct",
        generations.first().copied().unwrap_or_default(),
        generations.last().copied().unwrap_or_default(),
        generations.len()
    );
    println!(
        "refreshes: {} published, {} coalesced, {} empty windows | swap wall total {:.2} ms, max {:.2} ms",
        serve_stats.refreshes,
        serve_stats.coalesced,
        serve_stats.empty_windows,
        apex_query::stats::millis(serve_stats.swap_total()),
        apex_query::stats::millis(serve_stats.swap_max()),
    );
    for r in &serve_stats.records {
        println!(
            "  swap -> gen {}: {} update steps over {} queries in {:.2} ms",
            r.generation,
            r.steps,
            r.window,
            apex_query::stats::millis(r.wall)
        );
    }
    // Adopt the final published index and the replay's monitor state.
    *index = cell.snapshot().index().clone();
    *monitor = rank::lock(&shared_monitor, Rank::Monitor).clone();
    println!("adopted gen {} as the session index", cell.generation());
    serve_stats.refreshes
}

/// `listen` subcommand configuration.
struct ListenConfig {
    addr: String,
    workers: usize,
    queue_cap: usize,
    deadline_ms: u64,
}

/// Serves queries over TCP instead of the interactive shell: the index
/// moves into an [`IndexCell`], the background [`Refresher`] adapts it
/// from the remote workload (snapshot swaps under live socket
/// traffic), and stdin controls the lifecycle — `stats` prints live
/// accounting, `stop`/`quit`/EOF drains gracefully.
///
/// With a WAL (durable mode) the cell resumes at the recovered
/// `generation`, the refresher checkpoints after swaps and flushes a
/// final checkpoint on drain, and every acknowledged query is already
/// in the log (the monitor logs under its own lock, before the
/// response is written).
fn listen(
    g: Arc<XmlGraph>,
    table: Arc<DataTable>,
    index: Apex,
    monitor: WorkloadMonitor,
    generation: u64,
    wal: Option<Arc<Wal>>,
    cfg: &ListenConfig,
) {
    let cell = Arc::new(IndexCell::with_generation(index, generation));
    let monitor = Arc::new(Mutex::new(monitor));
    let spawned = match &wal {
        Some(w) => Refresher::spawn_durable(
            Arc::clone(&g),
            Arc::clone(&cell),
            Arc::clone(&monitor),
            Arc::clone(w),
        ),
        None => Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), Arc::clone(&monitor)),
    };
    let refresher = match spawned {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("cannot spawn refresher: {e}");
            std::process::exit(1);
        }
    };
    let engine = apex_net::Engine::new(
        Arc::clone(&g),
        table,
        Arc::clone(&cell),
        Arc::clone(&monitor),
    )
    .with_refresher(Arc::clone(&refresher));
    let server_cfg = apex_net::ServerConfig {
        workers: cfg.workers,
        queue_cap: cfg.queue_cap,
        default_deadline: (cfg.deadline_ms > 0)
            .then(|| std::time::Duration::from_millis(cfg.deadline_ms)),
        ..apex_net::ServerConfig::default()
    };
    let mut server = match apex_net::Server::start(engine, server_cfg, cfg.addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    println!(
        "listening on {} ({} workers, queue cap {}) — `stats` for live counters, `stop` to drain",
        server.local_addr(),
        cfg.workers,
        cfg.queue_cap
    );
    let stdin = std::io::stdin();
    loop {
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF: drain
            Ok(_) => {}
        }
        match line.trim() {
            "stop" | "quit" | "q" => break,
            "stats" => {
                println!("{}", server.stats());
                println!("generation {} published", cell.generation());
            }
            "" => {}
            other => println!("unknown `{other}` — `stats` or `stop`"),
        }
    }
    println!("draining…");
    let net = server.drain();
    let per_conn = server_conn_lines(&server);
    for l in per_conn {
        println!("  {l}");
    }
    println!("{net}");
    if !net.balanced() {
        eprintln!("warning: accounting imbalance — a request was silently dropped");
    }
    drop(server); // releases the engine's refresher handle
    let serve_stats = match Arc::try_unwrap(refresher) {
        Ok(r) => r.shutdown(),
        Err(shared) => {
            // Something still holds the refresher; signal and let its
            // Drop join when the last handle goes away.
            shared.begin_shutdown();
            return;
        }
    };
    println!(
        "refresher: {} generation(s) published, {} coalesced | swap wall total {:.2} ms, max {:.2} ms",
        serve_stats.refreshes,
        serve_stats.coalesced,
        apex_query::stats::millis(serve_stats.swap_total()),
        apex_query::stats::millis(serve_stats.swap_max()),
    );
    if wal.is_some() {
        println!(
            "durability: {} checkpoint(s) written, {} failed — next start resumes at gen {}",
            serve_stats.checkpoints,
            serve_stats.checkpoint_errors,
            cell.generation()
        );
    }
}

/// Per-connection accounting lines for the drain report.
fn server_conn_lines(server: &apex_net::Server) -> Vec<String> {
    server
        .connection_stats()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            format!(
                "conn {i}: accepted {} served {} shed {} timed-out {}",
                c.accepted, c.served, c.shed, c.timed_out
            )
        })
        .collect()
}

/// `rollout` subcommand configuration.
struct RolloutConfig {
    shards: u16,
    replicas: usize,
    requests: usize,
    clients: usize,
}

/// Runs the sharded serving tier under live load and performs a full
/// rolling replica swap, asserting the zero-downtime invariant from a
/// client's point of view. Exits non-zero on any client-visible shed
/// or accounting imbalance.
fn rollout(g: Arc<XmlGraph>, cfg: &RolloutConfig) {
    use apex_net::RetryPolicy;
    use apex_shard::{rolling_swap, ClusterConfig, Router, RouterConfig, ShardCluster, ShardMap};

    // A dataset-independent workload: single-label partial-path queries
    // over the first few element labels of whatever graph was loaded.
    let queries: Vec<String> = g
        .labels()
        .iter()
        .map(|(_, s)| s)
        .filter(|s| !s.starts_with('@'))
        .take(4)
        .map(|s| format!("//{s}"))
        .collect();
    if queries.is_empty() {
        eprintln!("error: the loaded graph has no element labels to query");
        std::process::exit(1);
    }
    let map = ShardMap::new(cfg.shards);
    let cluster_cfg = ClusterConfig {
        replicas: cfg.replicas,
        ..ClusterConfig::default()
    };
    let mut cluster = match ShardCluster::start(Arc::clone(&g), map, cluster_cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot start cluster: {e}");
            std::process::exit(1);
        }
    };
    let mut router = match Router::start(
        map,
        &cluster.addrs(),
        RouterConfig::default(),
        "127.0.0.1:0",
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot start router: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "rollout: {} shard(s) × {} replica(s) behind {} | {} request(s) over {} client(s)",
        cfg.shards,
        cfg.replicas,
        router.local_addr(),
        cfg.requests,
        cfg.clients
    );
    println!("workload: {}", queries.join(" "));

    let addr = router.local_addr();
    let per_client = cfg.requests.div_ceil(cfg.clients.max(1));
    let policy = RetryPolicy::default();
    let mut ok = 0u64;
    let mut sheds = 0u64;
    let mut errors = 0u64;
    let mut report = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.clients.max(1));
        for c in 0..cfg.clients.max(1) {
            let queries = &queries;
            let policy = &policy;
            handles.push(scope.spawn(move || {
                let (mut ok, mut sheds, mut errors) = (0u64, 0u64, 0u64);
                let mut client = match apex_net::Client::connect(addr) {
                    Ok(cl) => cl,
                    Err(_) => return (0, 0, per_client as u64),
                };
                for i in 0..per_client {
                    let q = &queries[(c + i) % queries.len()];
                    match client.call_retrying(q, 0, policy) {
                        Ok(resp) if resp.status.is_shed() => sheds += 1,
                        Ok(_) => ok += 1,
                        Err(_) => errors += 1,
                    }
                }
                (ok, sheds, errors)
            }));
        }
        // Let the clients ramp, then replace every replica under load.
        std::thread::sleep(std::time::Duration::from_millis(10));
        report = Some(rolling_swap(&mut cluster, &router));
        for h in handles {
            match h.join() {
                Ok((o, s, e)) => {
                    ok += o;
                    sheds += s;
                    errors += e;
                }
                Err(_) => errors += 1,
            }
        }
    });
    let swap_failed = match report {
        Some(Ok(rep)) => {
            println!(
                "rolled out: {} replica(s) swapped, {} drain shed(s) absorbed by siblings",
                rep.swapped, rep.drained_sheds
            );
            false
        }
        Some(Err(e)) => {
            eprintln!("error: rolling swap failed: {e}");
            true
        }
        None => true,
    };
    let stats = router.drain();
    println!("clients: {ok} ok, {sheds} shed, {errors} error(s)");
    println!("router: {stats}");
    println!("pinned generations: {:?}", router.pinned_generations());
    drop(router);
    let cluster_stats = cluster.shutdown();
    println!("cluster: {}", cluster_stats.net_total());
    let clean =
        !swap_failed && sheds == 0 && errors == 0 && stats.balanced() && cluster_stats.balanced();
    if clean {
        println!("rollout clean: zero client-visible sheds, all ledgers balanced");
    } else {
        eprintln!(
            "rollout FAILED: sheds={sheds} errors={errors} router_balanced={} cluster_balanced={}",
            stats.balanced(),
            cluster_stats.balanced()
        );
        std::process::exit(1);
    }
}

/// Extracts `rollout` plus its tuning flags (`--shards N`,
/// `--replicas N`, `--requests N`, `--clients N`) from `args`,
/// removing them.
fn take_rollout(args: &mut Vec<String>) -> Result<Option<RolloutConfig>, String> {
    let Some(i) = args.iter().position(|a| a == "rollout") else {
        return Ok(None);
    };
    args.remove(i);
    let mut cfg = RolloutConfig {
        shards: 3,
        replicas: 2,
        requests: 200,
        clients: 4,
    };
    for (flag, field) in [
        ("--shards", 0usize),
        ("--replicas", 1),
        ("--requests", 2),
        ("--clients", 3),
    ] {
        let Some(j) = args.iter().position(|a| a == flag) else {
            continue;
        };
        if j + 1 >= args.len() {
            return Err(format!("{flag} needs a number"));
        }
        let v: u64 = args[j + 1]
            .parse()
            .map_err(|_| format!("{flag}: not a number: {}", args[j + 1]))?;
        if v == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
        match field {
            0 => {
                cfg.shards = u16::try_from(v).map_err(|_| "--shards: too many".to_string())?;
            }
            1 => cfg.replicas = v as usize,
            2 => cfg.requests = v as usize,
            _ => cfg.clients = v as usize,
        }
        args.drain(j..=j + 1);
    }
    if cfg.replicas < 2 {
        return Err("rollout needs --replicas >= 2 (the sibling carries the shard)".into());
    }
    Ok(Some(cfg))
}

/// Extracts `listen <addr>` plus its tuning flags (`--workers N`,
/// `--queue-cap N`, `--deadline-ms N`) from `args`, removing them.
fn take_listen(args: &mut Vec<String>) -> Result<Option<ListenConfig>, String> {
    let Some(i) = args.iter().position(|a| a == "listen") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("listen needs an address (e.g. 127.0.0.1:7431 or 127.0.0.1:0)".into());
    }
    let addr = args[i + 1].clone();
    args.drain(i..=i + 1);
    let mut cfg = ListenConfig {
        addr,
        workers: 4,
        queue_cap: 64,
        deadline_ms: 0,
    };
    for (flag, field) in [
        ("--workers", 0usize),
        ("--queue-cap", 1),
        ("--deadline-ms", 2),
    ] {
        let Some(j) = args.iter().position(|a| a == flag) else {
            continue;
        };
        if j + 1 >= args.len() {
            return Err(format!("{flag} needs a number"));
        }
        let v: u64 = args[j + 1]
            .parse()
            .map_err(|_| format!("{flag}: not a number: {}", args[j + 1]))?;
        match field {
            0 => {
                if v == 0 {
                    return Err("--workers must be at least 1".into());
                }
                cfg.workers = v as usize;
            }
            1 => {
                if v == 0 {
                    return Err("--queue-cap must be at least 1".into());
                }
                cfg.queue_cap = v as usize;
            }
            _ => cfg.deadline_ms = v,
        }
        args.drain(j..=j + 1);
    }
    Ok(Some(cfg))
}

/// Extracts `--wal-dir <dir>` from `args` (removing it): the durability
/// directory the session recovers from on startup and logs/checkpoints
/// into while running.
fn take_wal_dir(args: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == "--wal-dir") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("--wal-dir needs a directory path".into());
    }
    let dir = args[i + 1].clone();
    args.drain(i..=i + 1);
    Ok(Some(dir))
}

/// Extracts `--refresh-every N` from `args` (removing it), selecting the
/// `EveryN` refresh policy for the session monitor.
fn take_refresh_every(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    let Some(i) = args.iter().position(|a| a == "--refresh-every") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("--refresh-every needs a number".into());
    }
    let every: usize = args[i + 1]
        .parse()
        .map_err(|_| format!("--refresh-every: not a number: {}", args[i + 1]))?;
    if every == 0 {
        return Err("--refresh-every must be at least 1".into());
    }
    args.drain(i..=i + 1);
    Ok(Some(every))
}

/// Extracts `--buffer-pages N` from `args` (removing it) so
/// [`load_graph`] sees only graph-selection flags.
fn take_buffer_pages(args: &mut Vec<String>) -> Result<Option<u64>, String> {
    let Some(i) = args.iter().position(|a| a == "--buffer-pages") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("--buffer-pages needs a number".into());
    }
    let pages: u64 = args[i + 1]
        .parse()
        .map_err(|_| format!("--buffer-pages: not a number: {}", args[i + 1]))?;
    if pages == 0 {
        return Err("--buffer-pages must be at least 1".into());
    }
    args.drain(i..=i + 1);
    Ok(Some(pages))
}

fn load_graph(args: &[String]) -> Result<XmlGraph, String> {
    let mut file: Option<String> = None;
    let mut dataset: Option<String> = None;
    let mut size: usize = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--file" => file = it.next().cloned(),
            "--dataset" => dataset = it.next().cloned(),
            "--size" => {
                size = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--size needs a number")?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(path) = file {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        return xmlgraph::parser::parse(&text).map_err(|e| e.to_string());
    }
    let Some(name) = dataset else {
        return Err("need --file or --dataset".into());
    };
    // Table 1 names first, then family shorthands.
    for d in datagen::Dataset::all() {
        if d.name().eq_ignore_ascii_case(&name)
            || d.name()
                .trim_end_matches(".xml")
                .eq_ignore_ascii_case(&name)
        {
            return Ok(d.generate());
        }
    }
    match name.to_ascii_lowercase().as_str() {
        "play" | "shakespeare" => Ok(datagen::shakespeare(size.clamp(1, 38), 42)),
        "flix" | "flixml" => Ok(datagen::flixml(size.max(30), 42)),
        "ged" | "gedml" => Ok(datagen::gedml(size.max(60), 42)),
        other => Err(format!("unknown dataset `{other}`")),
    }
}
