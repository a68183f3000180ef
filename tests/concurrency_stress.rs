//! Deterministic concurrency stress for the serving layer: N query
//! workers read through an [`IndexCell`] while a publisher swaps in M
//! new index generations underneath them.
//!
//! Determinism: every index version, every query, and every expected
//! answer is precomputed before a single thread starts; the run is
//! stepped with [`std::sync::Barrier`]s (no sleeps), so each round has
//! exactly one publish racing the workers' reads and nothing else is
//! timing-dependent. Workers assert, per snapshot taken:
//!
//! * **no torn snapshots** — the snapshot's generation selects a
//!   precomputed fingerprint (index stats + required-path set) that
//!   must match the snapshot's index exactly; a reader that ever saw
//!   generation k paired with generation j's structure fails here;
//! * **answer consistency** — query answers through the snapshot equal
//!   the answers precomputed for that generation single-threaded;
//! * **bounded staleness** — in round r the observed generation is r or
//!   r + 1 (the one publish of the round either landed or didn't).
//!
//! After joining, the per-worker scoped [`BufferStats`] deltas must sum
//! to exactly the pool-level delta: every page touch is attributed to
//! one worker, across all snapshot swaps (generation-tagged object ids
//! keep the shared pool coherent between versions).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use apex::{Apex, IndexCell, IndexStats, RefreshPolicy, Refresher, Workload, WorkloadMonitor};
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::QueryProcessor;
use apex_query::Query;
use apex_storage::bufmgr::BufferHandle;
use apex_storage::rank::{self, Rank};
use apex_storage::{BufferStats, DataTable, PageModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlgraph::{LabelPath, NodeId, XmlGraph};

const WORKERS: usize = 4;
const PUBLISHES: usize = 6;
const QUERIES_PER_ROUND: usize = 16;

/// What a reader can check about an index without ambiguity: stats are
/// `PartialEq` and required paths are a set of rendered strings.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    stats: IndexStats,
    required: BTreeSet<String>,
}

fn fingerprint(g: &XmlGraph, index: &Apex) -> Fingerprint {
    Fingerprint {
        stats: index.stats(),
        required: index.required_paths(g).into_iter().collect(),
    }
}

/// Random existing label paths via random walks (seeded, so the whole
/// stress run is reproducible from constants in this file).
fn random_walk_paths(
    g: &XmlGraph,
    rng: &mut SmallRng,
    count: usize,
    max_len: usize,
) -> Vec<LabelPath> {
    let mut out = Vec::new();
    let mut attempts = 0;
    while out.len() < count && attempts < count * 30 {
        attempts += 1;
        let mut cur = NodeId(rng.gen_range(0..g.node_count() as u32));
        let mut labels = Vec::new();
        for _ in 0..rng.gen_range(1..=max_len) {
            let edges = g.out_edges(cur);
            if edges.is_empty() {
                break;
            }
            let e = &edges[rng.gen_range(0..edges.len())];
            labels.push(e.label);
            cur = e.to;
        }
        if !labels.is_empty() {
            out.push(LabelPath::new(labels));
        }
    }
    assert!(out.len() == count, "could not generate {count} walk paths");
    out
}

#[test]
fn workers_never_observe_torn_snapshots_and_buffer_deltas_partition() {
    let g = apex_suite::small::flix();
    let table = DataTable::build(&g, PageModel::default());
    let mut rng = SmallRng::seed_from_u64(0x57E5_5001);

    // Pre-build the version chain exactly as a refresher would produce
    // it: each version is the previous one refined with a fresh window.
    let mut versions: Vec<Apex> = vec![Apex::build_initial(&g)];
    for v in 0..PUBLISHES {
        let window = random_walk_paths(&g, &mut rng, 10, 3);
        let wl = Workload::from_paths(window);
        let mut next = versions[v].clone();
        next.refine(&g, &wl, 0.05);
        versions.push(next);
    }
    let fingerprints: Vec<Fingerprint> = versions.iter().map(|v| fingerprint(&g, v)).collect();
    // Distinct fingerprints make the torn-snapshot check decisive: a
    // generation paired with any other version's structure is caught.
    for i in 0..fingerprints.len() {
        for j in i + 1..fingerprints.len() {
            assert_ne!(
                fingerprints[i], fingerprints[j],
                "versions {i} and {j} are indistinguishable; widen the workloads"
            );
        }
    }

    // Fixed query set + per-generation expected answers, single-threaded.
    let queries: Vec<Query> = random_walk_paths(&g, &mut rng, QUERIES_PER_ROUND, 4)
        .into_iter()
        .map(|p| Query::PartialPath { labels: p.0 })
        .collect();
    let expected: Vec<Vec<Vec<NodeId>>> = versions
        .iter()
        .map(|v| {
            let qp = ApexProcessor::new(&g, v, &table);
            queries.iter().map(|q| qp.eval(q).nodes).collect()
        })
        .collect();

    let cell = IndexCell::new(versions[0].clone());
    let buf = BufferHandle::unbounded();
    let pool_before = buf.stats();
    // Barrier over workers + the publisher: two waits per round bracket
    // the window in which exactly one publish races the reads.
    let barrier = Barrier::new(WORKERS + 1);
    let max_gen_seen = AtomicU64::new(0);

    let worker_deltas: Vec<BufferStats> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..WORKERS {
            let scoped = buf.scoped();
            let (g, table, cell, barrier) = (&g, &table, &cell, &barrier);
            let (fingerprints, queries, expected) = (&fingerprints, &queries, &expected);
            let max_gen_seen = &max_gen_seen;
            handles.push(scope.spawn(move || {
                let mut last_gen = 0u64;
                for round in 0..PUBLISHES {
                    barrier.wait();
                    let snap = cell.snapshot();
                    let gen = snap.generation();
                    // Bounded staleness: the round's single publish
                    // either landed before our snapshot or it didn't.
                    assert!(
                        gen == round as u64 || gen == round as u64 + 1,
                        "worker {w} round {round}: impossible generation {gen}"
                    );
                    // Monotonic per reader.
                    assert!(gen >= last_gen, "worker {w}: generation went backwards");
                    last_gen = gen;
                    // Torn-snapshot check: generation and structure must
                    // belong together.
                    assert_eq!(
                        fingerprint(g, snap.index()),
                        fingerprints[gen as usize],
                        "worker {w} round {round}: snapshot torn at generation {gen}"
                    );
                    let qp = ApexProcessor::with_buffer_tagged(
                        g,
                        snap.index(),
                        table,
                        scoped.clone(),
                        gen,
                    );
                    for (qi, q) in queries.iter().enumerate() {
                        assert_eq!(
                            qp.eval(q).nodes,
                            expected[gen as usize][qi],
                            "worker {w} round {round} query {qi}: wrong answer at generation {gen}"
                        );
                    }
                    max_gen_seen.fetch_max(gen, Ordering::Relaxed);
                    barrier.wait();
                }
                scoped.scoped_stats()
            }));
        }
        // Publisher: one swap per round, concurrent with the reads.
        for round in 0..PUBLISHES {
            barrier.wait();
            let published = cell.publish(versions[round + 1].clone());
            assert_eq!(published, round as u64 + 1);
            barrier.wait();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });

    assert_eq!(cell.generation(), PUBLISHES as u64);
    assert!(
        max_gen_seen.load(Ordering::Relaxed) >= 1,
        "no worker ever saw a swap"
    );

    // Attribution invariant: every pool counter movement belongs to
    // exactly one worker, across all generations and swaps.
    let pool_delta = buf.stats() - pool_before;
    let summed = worker_deltas
        .iter()
        .fold(BufferStats::default(), |acc, d| acc + *d);
    assert_eq!(
        summed, pool_delta,
        "per-worker scoped deltas do not partition the pool delta"
    );
    assert!(
        pool_delta.pages_read > 0,
        "stress run never touched the pool"
    );
}

#[test]
fn refresher_publishes_while_workers_record_and_read() {
    // End-to-end with the real background refresher instead of a
    // scripted publisher: workers record paths into the shared monitor
    // and read snapshots; between barrier-stepped phases the main
    // thread requests a refresh and waits for it to publish. Every
    // phase records a non-empty window, so the generation count equals
    // the phase count exactly — deterministically, with no sleeps.
    let g = Arc::new(xmlgraph::builder::moviedb());
    let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
    let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
        64,
        0.1,
        RefreshPolicy::Manual,
    )));
    let refresher =
        Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), Arc::clone(&monitor)).expect("spawn");

    const PHASES: usize = 3;
    let phase_paths = ["actor.name", "movie.title", "director.movie"];
    let barrier = Barrier::new(WORKERS + 1);
    let held_at_start = cell.snapshot();
    let stats_at_start = held_at_start.index().stats();

    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            let (g, cell, monitor, barrier) = (&g, &cell, &monitor, &barrier);
            scope.spawn(move || {
                for phase_path in phase_paths.iter().take(PHASES) {
                    barrier.wait();
                    let p = LabelPath::parse(g, phase_path).expect("path");
                    for _ in 0..8 {
                        rank::lock(monitor, Rank::Monitor).record(p.clone());
                        // Reads interleave with recording; the snapshot
                        // is always a complete, queryable index.
                        let snap = cell.snapshot();
                        let lk = snap.index().lookup(p.labels());
                        assert!(lk.matched_len >= 1);
                    }
                    barrier.wait();
                }
            });
        }
        for phase in 0..PHASES {
            barrier.wait();
            barrier.wait(); // all workers recorded this phase's window
            assert!(refresher.request_refresh());
            refresher.wait_idle();
            assert_eq!(cell.generation(), phase as u64 + 1);
        }
    });

    let stats = refresher.shutdown();
    assert_eq!(stats.refreshes, PHASES as u64);
    assert_eq!(stats.empty_windows, 0);
    // The snapshot held since before the first publish is untouched.
    assert_eq!(held_at_start.generation(), 0);
    assert_eq!(held_at_start.index().stats(), stats_at_start);
    // The final index is structurally valid after three live refreshes.
    let v = apex::validate::check(&g, cell.snapshot().index());
    assert!(v.is_empty(), "final index invalid: {v:#?}");
}
