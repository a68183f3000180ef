//! One durable serving life: set up → serve a seeded op list in epochs
//! → refresh + checkpoint every epoch → crash image → recover, on the
//! surface and traffic of one [`Spec`]. Everything is driven and timed
//! from outside the program, through its public functions.

use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use apex::{extent_equivalent, Apex};
use apex_net::wire::MAX_ROW_SAMPLE;
use apex_query::naive::NaiveProcessor;
use apex_query::stats::millis as ms;
use apex_query::{Query, QueryProcessor};
use apex_storage::{DataTable, PageModel};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use xmlgraph::XmlGraph;

use crate::cell::{recover_timed, Failure};
use crate::stack::{Answers, ClientState, Ledgers, Stack};
use crate::workload::{shuffle, Ops, Spec};

/// Fewest epochs a run may report: every lifecycle median then has at
/// least 16 samples (the last epoch refreshes but does not checkpoint,
/// so the crash image holds one epoch of un-checkpointed history).
pub const MIN_EPOCHS: usize = 17;
/// `recover()` calls timed per run, spread over the cells.
pub const RECOVERIES: usize = 8;
/// Distinct queries re-answered by the naive graph scan after the run.
pub const ORACLE_QUERIES: usize = 200;

/// `VmRSS` and `VmHWM` of this process, in KiB.
pub fn rss_kib() -> Result<(u64, u64), Failure> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
            .ok_or_else(|| format!("{name} missing from /proc/self/status"))
    };
    Ok((field("VmRSS:")?, field("VmHWM:")?))
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the system.
    fn malloc_trim(pad: usize) -> i32;
}

/// `VmRSS` once the allocator has returned what it holds but does not
/// use. Without this the difference of two readings mostly measures
/// whether the pool generator's garbage and the index copy a refresh
/// replaced have been given back yet: 73 or 95 B per edge on Ged03
/// from one run to the next.
fn settled_rss_kib() -> Result<u64, Failure> {
    // SAFETY: `malloc_trim` takes no pointers and may be called at any
    // time from any thread; it only releases memory that is free.
    unsafe { malloc_trim(0) };
    Ok(rss_kib()?.0)
}

/// One timed stage of the set-up, named by its per-layer metric.
pub struct Stage {
    pub name: &'static str,
    /// Start, in nanoseconds since the set-up's `t0`.
    pub start_ns: u64,
    pub ms: f64,
}

/// A surface that is listening, warmed and on its first refreshed
/// generation, with the measurements taken on the way there.
pub struct Ready {
    pub g: Arc<XmlGraph>,
    pub stack: Stack,
    pub ops: Ops,
    pub clients: Vec<ClientState>,
    pub answers: Answers,
    /// Epochs already served (the warm-up); the serve phase continues
    /// the op sequence from here.
    pub next_epoch: usize,
    pub setup_s: f64,
    pub stages: Vec<Stage>,
    /// `VmRSS` after graph + table, before any index; and after the
    /// warm-up, when the index and its lazily built caches are resident.
    pub rss_before_index_kib: u64,
    pub rss_ready_kib: u64,
}

/// Runs the whole set-up of `spec`, timed from `t0`.
pub fn setup(spec: &Spec, seed: u64, t0: Instant, root: &Path) -> Result<Ready, Failure> {
    let mut stages = Vec::new();
    let mut stage = |name, started: Instant, ms: f64| {
        stages.push(Stage {
            name,
            start_ns: (started - t0).as_nanos() as u64,
            ms,
        })
    };

    let t = Instant::now();
    let g = Arc::new(spec.dataset.generate());
    stage("datagen.generate_ms", t, ms(t.elapsed()));
    let t = Instant::now();
    let table = Arc::new(DataTable::build(&g, PageModel::default()));
    stage("storage.datatable.build_ms", t, ms(t.elapsed()));
    let rss_before_index_kib = settled_rss_kib()?;
    let t = Instant::now();
    let apex0 = Apex::build_initial(&g);
    stage("core.build_initial_ms", t, ms(t.elapsed()));
    let t = Instant::now();
    let (ops, generate_ms) = Ops::generate(spec, seed, &g, &table, &apex0);
    stage("query.generator.generate_ms", t, generate_ms);
    let t = Instant::now();
    let stack = Stack::build(spec, &g, table, apex0, root)?;
    stage("shard.map.owned_nodes_ms", t, stack.owned_nodes_ms);
    let mut clients = (0..spec.clients)
        .map(|_| stack.client())
        .collect::<Result<Vec<_>, _>>()?;
    let answers = Answers::new(ops.queries.len());
    for epoch in 0..spec.warmup_epochs {
        let list = ops.epoch(epoch);
        run_epoch(&mut clients, &ops.queries, &list, &answers, false);
    }
    for cell in &stack.cells {
        cell.adapt();
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let rss_ready_kib = settled_rss_kib()?;
    Ok(Ready {
        g,
        stack,
        ops,
        clients,
        answers,
        next_epoch: spec.warmup_epochs,
        setup_s,
        stages,
        rss_before_index_kib,
        rss_ready_kib,
    })
}

/// Serves one epoch's list over all clients (client `c` of `n` takes
/// ops `c, c+n, …`); returns the wall in seconds.
pub fn run_epoch(
    clients: &mut [ClientState],
    queries: &[String],
    list: &[u32],
    answers: &Answers,
    record: bool,
) -> f64 {
    let n = clients.len();
    if n == 1 {
        let t = Instant::now();
        clients[0].serve(queries, list, answers, record);
        return t.elapsed().as_secs_f64();
    }
    let parts: Vec<Vec<u32>> = (0..n)
        .map(|c| list.iter().skip(c).step_by(n).copied().collect())
        .collect();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for (client, part) in clients.iter_mut().zip(&parts) {
            scope.spawn(move || client.serve(queries, part, answers, record));
        }
    });
    t.elapsed().as_secs_f64()
}

/// What the serve phase measured.
pub struct Served {
    /// `(ops, wall seconds)` per epoch.
    pub epochs: Vec<(u64, f64)>,
    pub adapt_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
}

/// Serves `epochs` epochs. Every epoch ends with a refresh of every
/// cell; every epoch but the last then checkpoints.
pub fn serve(spec: &Spec, ready: &mut Ready, epochs: usize) -> Result<Served, Failure> {
    if spec.live_lifecycle {
        return serve_live(ready, epochs);
    }
    let mut served = Served {
        epochs: Vec::new(),
        adapt_ms: Vec::new(),
        checkpoint_ms: Vec::new(),
    };
    loop {
        let list = ready.ops.epoch(ready.next_epoch);
        ready.next_epoch += 1;
        let wall = run_epoch(
            &mut ready.clients,
            &ready.ops.queries,
            &list,
            &ready.answers,
            true,
        );
        served.epochs.push((list.len() as u64, wall));
        let last = served.epochs.len() == epochs;
        // Callers are paused here: the static workloads keep
        // adaptation cost out of throughput and latency.
        for cell in &ready.stack.cells {
            served.adapt_ms.push(ms(cell.adapt()));
        }
        if last {
            return Ok(served);
        }
        for cell in &mut ready.stack.cells {
            served.checkpoint_ms.push(ms(cell.checkpoint()?));
        }
    }
}

/// The drifting variant: the callers keep sending while a lifecycle
/// thread refreshes then checkpoints. They stop at each epoch boundary
/// only until the window is drained, so the window every refresh sees —
/// and so the log, the snapshots and the recovery — is fixed by the op
/// count, not by thread timing. The pause is part of the epoch's wall.
fn serve_live(ready: &mut Ready, serve_epochs: usize) -> Result<Served, Failure> {
    let Ready {
        stack,
        ops,
        clients,
        answers,
        next_epoch,
        ..
    } = ready;
    let cell = &mut stack.cells[0];
    let mut epochs = Vec::new();
    let (adapt_ms, checkpoint_ms) = std::thread::scope(|scope| {
        let (boundary, boundaries) = mpsc::channel::<bool>();
        let (drained, drains) = mpsc::channel::<()>();
        let life = scope.spawn(move || -> Result<_, Failure> {
            let (mut adapt_ms, mut checkpoint_ms) = (Vec::new(), Vec::new());
            while let Ok(last) = boundaries.recv() {
                let t = Instant::now();
                cell.refresher.request_refresh();
                while cell.monitor.lock().expect("monitor lock").since_refresh() != 0 {
                    std::thread::yield_now();
                }
                drained.send(())?;
                cell.refresher.wait_idle();
                adapt_ms.push(ms(t.elapsed()));
                if last {
                    break;
                }
                checkpoint_ms.push(ms(cell.checkpoint()?));
            }
            Ok((adapt_ms, checkpoint_ms))
        });
        for epoch in 1..=serve_epochs {
            let list = ops.epoch(*next_epoch);
            *next_epoch += 1;
            let t = Instant::now();
            run_epoch(clients, &ops.queries, &list, answers, true);
            // A lifecycle thread that died reports through `join`.
            let alive = boundary.send(epoch == serve_epochs).is_ok() && drains.recv().is_ok();
            epochs.push((list.len() as u64, t.elapsed().as_secs_f64()));
            if !alive {
                break;
            }
        }
        drop(boundary);
        life.join().expect("lifecycle thread panicked")
    })?;
    Ok(Served {
        epochs,
        adapt_ms,
        checkpoint_ms,
    })
}

/// Takes each cell's crash image and recovers from it
/// [`RECOVERIES`] times in all. Returns the walls and how many checks
/// failed: recovered generation, `extent_equivalent` to the live
/// index, and the log's `appended == pruned + replayed + torn` balance.
pub fn recover_check(ready: &Ready, root: &Path) -> Result<(Vec<f64>, u64), Failure> {
    let mut walls = Vec::new();
    let mut failed = 0;
    let cells = &ready.stack.cells;
    for (i, cell) in cells.iter().enumerate() {
        let image = root.join(format!("crash{i}"));
        let written = cell.crash_image(&image)?;
        let live = cell.index.snapshot();
        for _ in 0..RECOVERIES / cells.len() {
            let (wall, rec) = recover_timed(&image, &ready.g)?;
            walls.push(ms(wall));
            let checks = [
                rec.generation == live.generation(),
                extent_equivalent(&ready.g, &rec.index, live.index()).is_ok(),
                written
                    .clone()
                    .after_recovery(rec.report.replayed)
                    .balanced(),
            ];
            for (what, ok) in ["generation", "extent_equivalent", "wal balance"]
                .iter()
                .zip(checks)
            {
                if !ok {
                    eprintln!("perf: recovery check failed on cell {i}: {what}");
                    failed += 1;
                }
            }
        }
        std::fs::remove_dir_all(&image)?;
    }
    Ok((walls, failed))
}

/// Re-answers a seeded sample of the distinct queries served with the
/// naive graph scan and compares with the first answer the surface
/// gave. Returns `(checked, failed)`.
pub fn oracle(ready: &Ready, seed: u64) -> (u64, u64) {
    let mut ids: Vec<u32> = (0..ready.ops.queries.len() as u32)
        .filter(|&id| ready.answers.get(id).is_some())
        .collect();
    shuffle(&mut ids, &mut SmallRng::seed_from_u64(seed ^ 0x0AC1E));
    ids.truncate(ORACLE_QUERIES);
    let naive = NaiveProcessor::new(&ready.g, &ready.stack.cells[0].table);
    let mut failed = 0;
    for &id in &ids {
        let text = &ready.ops.queries[id as usize];
        let agrees = Query::parse(&ready.g, text).is_ok_and(|q| {
            let nodes = naive.eval(&q).nodes;
            let sample: Vec<u32> = nodes.iter().take(MAX_ROW_SAMPLE).map(|n| n.0).collect();
            ready.answers.get(id) == Some(&(nodes.len() as u32, sample))
        });
        if !agrees {
            eprintln!("perf: naive oracle disagrees on {text}");
            failed += 1;
        }
    }
    (ids.len() as u64, failed)
}

/// Drops the callers, drains the surface and checks its books.
pub fn teardown(ready: Ready) -> Result<(Ledgers, u64, u64), Failure> {
    let Ready { stack, clients, .. } = ready;
    let attempted = clients.iter().map(|c| c.attempted).sum();
    let failed = clients.iter().map(|c| c.failed).sum();
    drop(clients);
    Ok((stack.teardown()?, attempted, failed))
}

pub fn out_dir() -> PathBuf {
    PathBuf::from("perf/out")
}
