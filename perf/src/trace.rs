//! The traced run (`--trace 1`): the per-layer numbers.
//!
//! Nothing inside the program is instrumented. Spans are recorded here,
//! around calls into each layer's public functions: the run performs
//! `Engine::execute`'s steps itself, one by one, and checks row for row
//! that it still agrees with the real `Engine::execute`; it does the
//! same for one refresh cycle, one checkpoint and one recovery. Calls
//! that take nanoseconds are timed as a batch instead of one span each
//! (a span costs two clock reads, about as much as the call).
//!
//! Spans are kept in memory and written to
//! `perf/out/trace-<workload>.json` when the run ends.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use apex::recover::{encode_snapshot, load_snapshot};
use apex::wal::{list_snapshots, Record};
use apex::{persist, CrashPlan, RefreshPolicy, Wal};
use apex_net::wire::MAX_ROW_SAMPLE;
use apex_net::{Client, Message, Request, Response, Status};
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::recordable_path;
use apex_query::stats::millis as ms;
use apex_query::{JoinOrderPolicy, Planner, Query, QueryProcessor};
use apex_storage::{merge_sorted_into, BufferHandle, Cost, KernelPolicy, MergeScratch, OpKind};
use xmlgraph::LabelPath;

use crate::cell::{recover_timed, Cell, Failure, DURABILITY};
use crate::json::Json;
use crate::life::{self, Ready};
use crate::stack::{Caller, Reply};
use crate::stats::{median, percentile};
use crate::workload::Spec;

/// Serve epochs the traced run replays.
const TRACED_EPOCHS: usize = 2;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one request share its op number (0 = not a request).
    pub op_id: u64,
}

/// In-memory span recorder. A span's id is its index.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Tracer {
        Tracer {
            t0,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op_id: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op_id);
        let r = f();
        self.close(id);
        r
    }

    /// A span a peer reported as a duration only: drawn flush against
    /// `end_ns`.
    pub fn push_reported(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
        end_ns: u64,
        dur_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            parent,
            op_id,
        });
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Self times of every span called `name`: its duration minus the
    /// part its child spans cover, in microseconds.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e3)
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("op_id", Json::Int(s.op_id)),
                    ])
                })
                .collect(),
        )
    }
}

/// Mean nanoseconds per call of `f` over `iters` back-to-back calls.
fn batch_ns(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn median_or_zero(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(&mut xs)
    }
}

/// Per-layer values by metric name; anything never set reports 0.
pub struct Values(HashMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Names set that `metrics::PER_LAYER` does not list — a typo here
    /// would otherwise silently report 0.
    pub fn unlisted(&self) -> Vec<&'static str> {
        let listed: std::collections::HashSet<_> =
            crate::metrics::PER_LAYER.iter().map(|l| l.name).collect();
        self.0
            .keys()
            .copied()
            .filter(|k| !listed.contains(k))
            .collect()
    }
}

pub struct Traced {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
}

/// What the step-by-step replica of `Engine::execute` adds up.
#[derive(Default)]
struct ReplicaSums {
    ops: u64,
    cost: Cost,
    /// `(pages read, ops)` of every epoch after the first: each starts
    /// on a generation the pool has never seen.
    post_swap: (u64, u64),
}

/// `Engine::execute`, performed step by step through the public
/// functions it calls, a span around each. Returns the answer the way
/// the engine would report it.
fn replica_execute(
    tr: &mut Tracer,
    op_id: u64,
    cell: &Cell,
    buf: &BufferHandle,
    text: &str,
    sums: &mut ReplicaSums,
) -> Result<(u32, Vec<u32>), Failure> {
    let root = tr.open("net.engine.execute.replica", None, op_id);
    let at = Some(root);
    let snap = tr.span("core.serve.snapshot", at, op_id, || cell.index.snapshot());
    let generation = snap.generation();
    let q = tr
        .span("query.ast.parse", at, op_id, || Query::parse(&cell.g, text))
        .map_err(|e| format!("op list holds an unparsable query: {e}"))?;
    // The planner runs inside `eval`; this extra call prices it alone.
    if let Some(labels) = q.labels() {
        tr.span("query.plan.plan_path", at, op_id, || {
            let planner = Planner::new(
                snap.index(),
                Some(snap.stats()),
                KernelPolicy::Adaptive,
                generation,
            );
            black_box(planner.plan_path(labels, JoinOrderPolicy::Planned));
        });
    }
    let p = tr.span("query.apex_qp.build", at, op_id, || {
        ApexProcessor::with_buffer_tagged(
            &cell.g,
            snap.index(),
            &cell.table,
            buf.clone(),
            generation,
        )
        .with_plan_stats(snap.stats())
    });
    let eval = match q {
        Query::PartialPath { .. } => "query.eval.q1",
        Query::AncestorDescendant { .. } => "query.eval.q2",
        Query::ValuePath { .. } => "query.eval.q3",
    };
    let out = tr.span(eval, at, op_id, || p.eval(&q));
    let path = recordable_path(&q);
    if path.is_some() || out.plan.is_some() {
        let mut m = cell.monitor.lock().expect("monitor lock");
        let record = tr.open("core.monitor.record", at, op_id);
        if let Some(report) = &out.plan {
            m.record_plan(report.feedback());
        }
        let recorded = path.is_some();
        if let Some(path) = path {
            m.record(path);
        }
        tr.close(record);
        if recorded {
            tr.span("core.monitor.refresh_due", at, op_id, || {
                black_box(m.refresh_due(&cell.g, snap.index()))
            });
        }
    }
    tr.close(root);
    sums.ops += 1;
    sums.cost += out.cost;
    let rows = out.nodes.iter().take(MAX_ROW_SAMPLE).map(|n| n.0).collect();
    Ok((out.nodes.len() as u32, rows))
}

/// One refresh cycle in the refresher's own steps, a span around each.
fn split_refresh(tr: &mut Tracer, cell: &Cell) -> f64 {
    let root = tr.open("core.serve.refresh", None, 0);
    let at = Some(root);
    let (workload, min_sup) = tr.span("core.monitor.drain", at, 0, || {
        cell.monitor
            .lock()
            .expect("monitor lock")
            .drain_for_refresh()
    });
    let mut index = tr.span("core.serve.clone", at, 0, || {
        cell.index.snapshot().index().clone()
    });
    let steps = tr.span("core.refine", at, 0, || {
        index.refine(&cell.g, &workload, min_sup)
    });
    tr.span("core.serve.publish", at, 0, || {
        cell.index.publish_with_workload(index, &workload)
    });
    tr.close(root);
    steps as f64
}

/// One checkpoint in `write_checkpoint`'s own steps. Returns the image
/// size.
fn split_checkpoint(tr: &mut Tracer, cell: &Cell) -> Result<u64, Failure> {
    let root = tr.open("core.serve.write_checkpoint", None, 0);
    let at = Some(root);
    let (token, state) = {
        let m = cell.monitor.lock().expect("monitor lock");
        let token = tr.span("core.wal.begin_checkpoint", at, 0, || {
            cell.wal.begin_checkpoint()
        })?;
        (token, m.durable_state())
    };
    let snap = cell.index.snapshot();
    let image = tr.span("core.recover.encode_snapshot", at, 0, || {
        encode_snapshot(token.seq(), snap.generation(), snap.index(), &state)
    })?;
    tr.span("core.wal.commit_checkpoint", at, 0, || {
        cell.wal.commit_checkpoint(token, &image)
    })?;
    tr.close(root);
    // `persist::save` is the index section of the image, priced alone.
    let mut sink = Vec::with_capacity(image.len());
    tr.span("core.persist.save", None, 0, || {
        persist::save(snap.index(), &mut sink)
    })?;
    let loaded = tr.span("core.persist.load", None, 0, || {
        persist::load(&mut &sink[..])
    });
    loaded.map_err(|e| format!("persist::load of a fresh image: {e}"))?;
    Ok(image.len() as u64)
}

/// Sends `lists` through the workload's surface from one closed-loop
/// caller. With a tracer, every call is a span and the service time the
/// server reports becomes its child. Returns `(wall seconds, replies
/// failing the answer check)`.
fn surface_pass(
    ready: &mut Ready,
    lists: &[Vec<u32>],
    mut tr: Option<&mut Tracer>,
    first_op: u64,
) -> (f64, u64) {
    let client = &mut ready.clients[0];
    let remote = matches!(client.caller, Caller::Remote(_));
    let before = client.failed;
    let t = Instant::now();
    let mut op_id = first_op;
    for list in lists {
        match tr.as_deref_mut() {
            None => client.serve(&ready.ops.queries, list, &ready.answers, false),
            Some(tr) => {
                for &id in list {
                    op_id += 1;
                    client.attempted += 1;
                    let span = tr.open("client.call", None, op_id);
                    let reply = client.caller.call(&ready.ops.queries[id as usize]);
                    tr.close(span);
                    match reply {
                        Ok(reply) => {
                            if remote {
                                let end = tr.spans[span].end_ns;
                                let service_ns = reply.server_us * 1000;
                                tr.push_reported(
                                    "net.engine.execute",
                                    Some(span),
                                    op_id,
                                    end,
                                    service_ns,
                                );
                            }
                            if !ready.answers.check(id, &reply) {
                                client.failed += 1;
                            }
                        }
                        Err(e) => {
                            eprintln!("perf: transport error: {e}");
                            client.failed += 1;
                        }
                    }
                }
            }
        }
    }
    (t.elapsed().as_secs_f64(), client.failed - before)
}

/// Encode/decode cost of the frames this workload actually sends.
fn wire_costs(v: &mut Values, queries: &[String], list: &[u32], replies: &[Reply]) {
    let requests: Vec<Message> = list
        .iter()
        .take(512)
        .enumerate()
        .map(|(i, &id)| {
            Message::Request(Request {
                id: i as u64,
                deadline_ms: 0,
                query: queries[id as usize].clone(),
            })
        })
        .collect();
    let responses: Vec<Message> = replies
        .iter()
        .take(512)
        .enumerate()
        .map(|(i, r)| {
            Message::Response(Response {
                id: i as u64,
                status: Status::Ok,
                generation: 1,
                total_rows: r.total_rows,
                rows: r.rows.clone(),
                pages_read: r.pages_read,
                join_work: r.join_work,
                server_us: r.server_us,
                plan_digest: 0x9E37_79B9_7F4A_7C15,
                gens: Vec::new(),
            })
        })
        .collect();
    for (messages, encode, decode) in [
        (
            &requests,
            "net.wire.encode_request_ns",
            "net.wire.decode_request_ns",
        ),
        (
            &responses,
            "net.wire.encode_response_ns",
            "net.wire.decode_response_ns",
        ),
    ] {
        if messages.is_empty() {
            continue;
        }
        let n = messages.len();
        let frames: Vec<Vec<u8>> = messages
            .iter()
            .map(|m| m.encode().expect("frame encodes"))
            .collect();
        v.set(
            encode,
            batch_ns(n * 40, |i| {
                black_box(messages[i % n].encode().expect("frame encodes"));
            }),
        );
        v.set(
            decode,
            batch_ns(n * 40, |i| {
                black_box(Message::decode(&frames[i % n]).expect("frame decodes"));
            }),
        );
    }
}

/// The routed workload only: the same ops sent straight to each shard
/// listener, for the router's own cost by subtraction.
fn shard_direct(
    v: &mut Values,
    tr: &mut Tracer,
    ready: &Ready,
    lists: &[Vec<u32>],
    solo_join_work: u64,
) -> Result<u64, Failure> {
    let addrs = ready.stack.shard_addrs();
    if addrs.is_empty() {
        return Ok(0);
    }
    let mut shards = addrs
        .iter()
        .map(Client::connect)
        .collect::<Result<Vec<_>, _>>()?;
    let mut join_work = 0u64;
    let mut captured: Vec<Vec<Vec<u32>>> = Vec::new();
    let mut op_id = 0;
    for &id in lists.iter().flatten() {
        op_id += 1;
        let mut rows = Vec::new();
        for shard in &mut shards {
            let r = tr.span("shard.replica.call", None, op_id, || {
                shard.call(&ready.ops.queries[id as usize], 0)
            })?;
            join_work += r.join_work;
            rows.push(r.rows);
        }
        if captured.len() < 512 {
            captured.push(rows);
        }
    }
    v.set(
        "shard.replica.call_us",
        median_or_zero(tr.durations_us("shard.replica.call")),
    );
    if solo_join_work > 0 {
        v.set(
            "shard.exec_amplification",
            join_work as f64 / solo_join_work as f64,
        );
    }
    let mut scratch = MergeScratch::new();
    let (mut out, mut work) = (Vec::new(), 0usize);
    let n = captured.len();
    let merge_ns = batch_ns(n * 40, |i| {
        let lists: Vec<&[u32]> = captured[i % n].iter().map(Vec::as_slice).collect();
        merge_sorted_into(&lists, &mut scratch, &mut out, &mut work);
        black_box(&out);
    });
    v.set("shard.merge_us", merge_ns / 1e3);
    Ok(op_id * shards.len() as u64)
}

pub fn run(spec: &Spec, seed: u64, t0: Instant) -> Result<Traced, Failure> {
    let root = life::out_dir().join(format!("trace-run-{}-{}", spec.name, std::process::id()));
    let mut tr = Tracer::new(t0);
    let mut v = Values(HashMap::new());
    let mut failed = 0u64;

    let mut ready = life::setup(spec, seed, t0, &root.join("life"))?;
    for stage in &ready.stages {
        let end = stage.start_ns + (stage.ms * 1e6) as u64;
        tr.push_reported(stage.name, None, 0, end, end - stage.start_ns);
        v.set(stage.name, stage.ms);
    }
    let lists: Vec<Vec<u32>> = (0..TRACED_EPOCHS)
        .map(|i| ready.ops.epoch(ready.next_epoch + i))
        .collect();
    let ops_per_pass: u64 = lists.iter().map(|l| l.len() as u64).sum();

    // The surface, untraced and traced (off on on off, so neither side
    // always runs on the warmer process): what the spans cost, and what
    // a caller sees.
    let (mut wall_off, mut wall_on) = (0.0, 0.0);
    for traced in [false, true, true, false] {
        let first_op = tr.spans.len() as u64;
        let (wall, bad) = surface_pass(&mut ready, &lists, traced.then_some(&mut tr), first_op);
        *(if traced { &mut wall_on } else { &mut wall_off }) += wall;
        failed += bad;
    }
    v.set("trace.overhead_pct", (wall_on - wall_off) / wall_on * 100.0);
    let mut calls = tr.durations_us("client.call");
    calls.sort_unstable_by(f64::total_cmp);
    v.set("client.p99_us", percentile(&calls, 0.99));
    v.set("client.p999_us", percentile(&calls, 0.999));
    let remote = ready.stack.front().is_some();
    if remote {
        v.set(
            "net.engine.execute_us",
            median_or_zero(tr.durations_us("net.engine.execute")),
        );
        v.set(
            "net.server.overhead_us",
            median_or_zero(tr.self_us("client.call")),
        );
        v.set("net.server.queue_hwm", ready.stack.queue_hwm() as f64);
        let floor: Vec<f64> = (0..200)
            .filter_map(|_| {
                let t = Instant::now();
                let reply = ready.clients[0].caller.call("//no-such-label").ok()?;
                (!reply.ok).then(|| t.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        v.set("net.rtt_floor_us", median_or_zero(floor));
        // Replies to price the response codec with: one more short pass.
        let sample: Vec<u32> = lists[0].iter().copied().take(512).collect();
        let replies: Vec<Reply> = sample
            .iter()
            .filter_map(|&id| {
                ready.clients[0]
                    .caller
                    .call(&ready.ops.queries[id as usize])
                    .ok()
            })
            .collect();
        wire_costs(&mut v, &ready.ops.queries, &sample, &replies);
    }
    if let Some(stats) = ready.stack.router_stats() {
        let accepted = stats.accepted.max(1) as f64;
        let forwarded: u64 = stats.hops.iter().map(|h| h.forwarded).sum();
        let stale: u64 = stats.hops.iter().map(|h| h.stale_retries).sum();
        v.set("shard.router.fanout_per_q", forwarded as f64 / accepted);
        v.set(
            "shard.router.stale_retry_per_kq",
            stale as f64 / accepted * 1e3,
        );
        v.set("shard.router.call_us", median_or_zero(calls.clone()));
    }

    // The engine's steps, the refresh's and the checkpoint's, replayed
    // on cell 0 from here. (Behind a router that is shard 0's cell,
    // used unsharded.)
    let cell = &ready.stack.cells[0];
    let engine = cell.engine();
    let buf = BufferHandle::unbounded();
    let mut sums = ReplicaSums::default();
    let mut op_id = 0;
    let mut steps = Vec::new();
    let mut image_bytes = 0;
    for (epoch, list) in lists.iter().enumerate() {
        let pages_before = buf.stats().pages_read;
        for &id in list {
            op_id += 1;
            let text = &ready.ops.queries[id as usize];
            let (total, rows) = replica_execute(&mut tr, op_id, cell, &buf, text, &mut sums)?;
            let real = engine.execute(text, None);
            if real.status != Status::Ok || (real.total_rows, &real.rows) != (total, &rows) {
                eprintln!("perf: the replica of Engine::execute disagrees with it on {text}");
                failed += 1;
            }
        }
        if epoch > 0 {
            sums.post_swap.0 += buf.stats().pages_read - pages_before;
            sums.post_swap.1 += list.len() as u64;
        }
        steps.push(split_refresh(&mut tr, cell));
        image_bytes = split_checkpoint(&mut tr, cell)?;
    }
    drop(engine);
    let span_median = |tr: &Tracer, name: &str| median_or_zero(tr.durations_us(name));
    for (metric, span) in [
        ("query.ast.parse_us", "query.ast.parse"),
        ("query.plan.plan_us", "query.plan.plan_path"),
        ("query.apex_qp.build_us", "query.apex_qp.build"),
        ("query.eval_us.q1", "query.eval.q1"),
        ("query.eval_us.q2", "query.eval.q2"),
        ("query.eval_us.q3", "query.eval.q3"),
        ("core.monitor.record_us", "core.monitor.record"),
        (
            "core.monitor.refresh_due_us.manual",
            "core.monitor.refresh_due",
        ),
        ("core.monitor.drain_us", "core.monitor.drain"),
    ] {
        v.set(metric, span_median(&tr, span));
    }
    for (metric, span) in [
        ("core.serve.clone_ms", "core.serve.clone"),
        ("core.refine_ms", "core.refine"),
        ("core.serve.publish_ms", "core.serve.publish"),
        ("core.wal.begin_checkpoint_ms", "core.wal.begin_checkpoint"),
        (
            "core.recover.encode_snapshot_ms",
            "core.recover.encode_snapshot",
        ),
        (
            "core.wal.commit_checkpoint_ms",
            "core.wal.commit_checkpoint",
        ),
        ("core.persist.save_ms", "core.persist.save"),
        ("core.persist.load_ms", "core.persist.load"),
    ] {
        v.set(metric, span_median(&tr, span) / 1e3);
    }
    v.set("core.refine.steps", median_or_zero(steps));
    v.set("core.recover.snapshot_bytes", image_bytes as f64);

    let per_q = |n: u64| n as f64 / sums.ops as f64;
    v.set(
        "query.cost.extent_pairs_per_q",
        per_q(sums.cost.extent_pairs),
    );
    v.set("query.cost.join_work_per_q", per_q(sums.cost.join_work));
    v.set("query.cost.join_output_per_q", per_q(sums.cost.join_output));
    v.set(
        "query.cost.hash_lookups_per_q",
        per_q(sums.cost.hash_lookups),
    );
    v.set(
        "query.cost.table_probes_per_q",
        per_q(sums.cost.table_probes),
    );
    let work_of = |k: OpKind| sums.cost.ops.get(k).scalars.iter().sum::<u64>();
    let all_work: u64 = OpKind::ALL.iter().map(|&k| work_of(k)).sum();
    for (metric, kind) in [
        ("query.exec.work.ExtentScan", OpKind::ExtentScan),
        ("query.exec.work.ExtentUnion", OpKind::ExtentUnion),
        ("query.exec.work.SemijoinMerge", OpKind::SemijoinMerge),
        ("query.exec.work.SemijoinGallop", OpKind::SemijoinGallop),
        ("query.exec.work.SemijoinSkip", OpKind::SemijoinSkip),
        ("query.exec.work.SemijoinReverse", OpKind::SemijoinReverse),
        ("query.exec.work.MultiwayJoin", OpKind::MultiwayJoin),
        ("query.exec.work.DataProbe", OpKind::DataProbe),
        ("query.exec.work.IndexNav", OpKind::IndexNav),
    ] {
        v.set(
            metric,
            work_of(kind) as f64 / all_work.max(1) as f64 * 100.0,
        );
    }
    let pool = buf.stats();
    v.set("storage.bufmgr.hit_rate", pool.hit_rate());
    v.set("storage.bufmgr.pages_read_per_q", per_q(pool.pages_read));
    v.set(
        "storage.bufmgr.post_swap_pages_per_q",
        sums.post_swap.0 as f64 / sums.post_swap.1.max(1) as f64,
    );

    // Calls too short for a span each, and the policies the serving
    // path does not run under, as timed batches.
    let snap = cell.index.snapshot();
    let paths: Vec<LabelPath> = lists[0]
        .iter()
        .filter_map(|&id| Query::parse(&cell.g, &ready.ops.queries[id as usize]).ok())
        .filter_map(|q| recordable_path(&q))
        .collect();
    v.set(
        "core.serve.snapshot_ns",
        batch_ns(100_000, |_| {
            black_box(cell.index.snapshot());
        }),
    );
    if !paths.is_empty() {
        v.set(
            "core.index.lookup_ns",
            batch_ns(paths.len() * 20, |i| {
                black_box(snap.index().lookup(paths[i % paths.len()].labels()));
            }),
        );
    }
    {
        let monitor = cell.monitor.lock().expect("monitor lock");
        v.set(
            "query.plan.mispredict_ratio",
            monitor.plan_feedback().mispredict_ratio(),
        );
        // A copy of the live window, detached from the log.
        let mut copy = apex::WorkloadMonitor::new(
            crate::cell::WINDOW,
            monitor.min_sup(),
            RefreshPolicy::Manual,
        );
        copy.restore_state(&monitor.durable_state());
        drop(monitor);
        copy.set_policy(RefreshPolicy::EveryN(1_000_000));
        v.set(
            "core.monitor.refresh_due_us.every_n",
            batch_ns(100_000, |_| {
                black_box(copy.refresh_due(&cell.g, snap.index()));
            }) / 1e3,
        );
        copy.set_policy(RefreshPolicy::OnDrift { slack: 2.0 });
        v.set(
            "core.monitor.refresh_due_us.on_drift",
            batch_ns(3, |_| {
                black_box(copy.refresh_due(&cell.g, snap.index()));
            }) / 1e3,
        );
    }
    {
        // The log's append path alone, on a log of its own with the
        // run's flush policy.
        let dir = root.join("append");
        let wal = Wal::open(&dir, DURABILITY, CrashPlan::none())?;
        let records: Vec<Record> = paths.iter().cloned().map(Record::Query).collect();
        if !records.is_empty() {
            let n = records.len().min(3200);
            let ns = batch_ns(n, |i| {
                wal.append(&records[i]).expect("append to a scratch log");
            });
            v.set("core.wal.append_us", ns / 1e3);
        }
    }
    let log = cell.wal.stats();
    v.set(
        "core.wal.bytes_per_q",
        log.bytes_appended as f64 / log.appended.max(1) as f64,
    );
    v.set(
        "core.wal.fsyncs_per_kq",
        log.fsyncs as f64 / log.appended.max(1) as f64 * 1e3,
    );

    let stats = snap.index().stats();
    let edges = ready.g.edge_count() as f64;
    v.set(
        "core.index.reported_resident_bytes_per_edge",
        stats.extent_resident_bytes as f64 / edges,
    );
    v.set("core.index.xnodes", stats.nodes as f64);
    v.set(
        "core.index.required_paths",
        snap.index().required_paths(&ready.g).len() as f64,
    );

    // One more epoch goes un-checkpointed into the crash image, so the
    // recovery below has a tail and a swap to replay.
    let tail = ready.ops.epoch(ready.next_epoch + TRACED_EPOCHS);
    for &id in &tail {
        op_id += 1;
        replica_execute(
            &mut tr,
            op_id,
            cell,
            &buf,
            &ready.ops.queries[id as usize],
            &mut sums,
        )?;
    }
    split_refresh(&mut tr, cell);
    let image = root.join("crash");
    cell.crash_image(&image)?;
    let (wall, recovered) = tr.span("core.recover.recover", None, 0, || {
        recover_timed(&image, &ready.g)
    })?;
    if recovered.generation != cell.index.generation() {
        eprintln!("perf: traced recovery stopped at the wrong generation");
        failed += 1;
    }
    let newest = list_snapshots(&image)?
        .pop()
        .ok_or("crash image holds no snapshot")?;
    let load = Instant::now();
    tr.span("core.recover.load_snapshot", None, 0, || {
        load_snapshot(&newest.1)
    })
    .map_err(|why| format!("newest snapshot rejected: {why}"))?;
    let load_ms = ms(load.elapsed());
    v.set("core.recover.load_snapshot_ms", load_ms);
    v.set("core.recover.replay_ms", (ms(wall) - load_ms).max(0.0));
    v.set("core.recover.applied", recovered.report.applied as f64);
    v.set(
        "core.recover.applied_swaps",
        recovered.report.applied_swaps as f64,
    );

    let direct = shard_direct(&mut v, &mut tr, &ready, &lists, sums.cost.join_work)?;
    v.set(
        "shard.router.overhead_us",
        (v.get("shard.router.call_us") - v.get("shard.replica.call_us")).max(0.0),
    );

    let (ledgers, attempted, op_failures) = life::teardown(ready)?;
    failed += op_failures;
    if !ledgers.balanced(direct) {
        eprintln!("perf: surface ledgers do not balance");
        failed += 1;
    }
    std::fs::remove_dir_all(&root)?;
    write_spans(&tr, spec.name, seed)?;
    println!(
        "{}: seed {seed} · traced {TRACED_EPOCHS} epochs · {ops_per_pass} ops per pass · {} spans",
        spec.name,
        tr.spans.len()
    );
    Ok(Traced {
        values: v,
        attempted: attempted + sums.ops,
        failed,
    })
}

fn write_spans(tr: &Tracer, workload: &str, seed: u64) -> Result<(), Failure> {
    let dir = life::out_dir();
    std::fs::create_dir_all(&dir)?;
    let doc = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed)),
        ("spans", tr.to_json()),
    ]);
    std::fs::write(dir.join(format!("trace-{workload}.json")), doc.render())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut tr = Tracer::new(Instant::now());
        tr.spans = vec![
            Span {
                name: "call",
                start_ns: 0,
                end_ns: 10_000,
                parent: None,
                op_id: 1,
            },
            Span {
                name: "execute",
                start_ns: 4_000,
                end_ns: 10_000,
                parent: Some(0),
                op_id: 1,
            },
            Span {
                name: "parse",
                start_ns: 4_000,
                end_ns: 5_000,
                parent: Some(1),
                op_id: 1,
            },
        ];
        assert_eq!(tr.durations_us("call"), vec![10.0]);
        assert_eq!(tr.self_us("call"), vec![4.0]);
        assert_eq!(tr.self_us("execute"), vec![5.0]);
        assert_eq!(tr.self_us("parse"), vec![1.0]);
    }

    #[test]
    fn reported_spans_sit_flush_against_their_end() {
        let mut tr = Tracer::new(Instant::now());
        tr.push_reported("net.engine.execute", None, 7, 9_000, 2_500);
        assert_eq!((tr.spans[0].start_ns, tr.spans[0].end_ns), (6_500, 9_000));
        let doc = tr.to_json().render();
        assert!(
            doc.contains(r#""parent":null"#) && doc.contains(r#""op_id":7"#),
            "{doc}"
        );
    }
}
