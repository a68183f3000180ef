//! Adaptive-workload serving demo: queries keep answering while the
//! index adapts underneath them.
//!
//! For each dataset the QTYPE1 set is split into three phases and
//! replayed through `run_adaptive` against an `IndexCell` whose
//! background refresher publishes new generations as the monitor's
//! `EveryN` policy fires. `wait_idle()` between phases makes the
//! generation count deterministic (each phase records a non-empty
//! window and requests at least one refresh, so the run serves queries
//! on at least three generations: 0, 1, 2, …). The table reports the
//! per-generation query counts, run latency percentiles, and the wall
//! time of each snapshot swap.
//!
//! It is also CI's `refine_smoke`: after the phases it *asserts* the two
//! count laws of a refresh on the index the refresher last published —
//! a drifted refine leaves both arenas holding exactly their live nodes
//! (`allocated == reachable`, checked by `validate::check`), and a
//! refine over an unchanged window allocates nothing in either arena
//! and takes one step per class node.
//!
//! ```bash
//! cargo run --release --bin adaptive            # small scale
//! cargo run --release --bin adaptive -- --scale paper
//! ```
//!
//! Also writes `BENCH_adaptive.json` with the per-generation rows.

use std::sync::{Arc, Mutex};

use apex::extract::extract_frequent;
use apex::{update_apex, Apex, IndexCell, RefreshPolicy, Refresher, WorkloadMonitor};
use apex_bench::report::{BenchReport, Json};
use apex_bench::{print_adaptive_header, print_adaptive_row, Experiment, Scale};
use apex_query::batch::run_adaptive;
use apex_query::stats::millis;
use apex_query::AdaptiveStats;
use apex_storage::bufmgr::BufferHandle;

fn main() {
    let scale = Scale::from_env();
    let mut report = BenchReport::new("adaptive");
    println!("== adaptive serving: queries across index generations ==");
    print_adaptive_header();
    for d in scale.datasets() {
        let e = Experiment::new(d, scale);
        let g = Arc::new(e.g.clone());
        let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
        let phase_len = (e.queries.qtype1.len() / 3).max(1);
        let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
            phase_len.max(4),
            0.01,
            RefreshPolicy::EveryN((phase_len / 2).max(2)),
        )));
        let refresher =
            match Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), Arc::clone(&monitor)) {
                Ok(r) => r,
                Err(err) => {
                    eprintln!("{}: cannot spawn refresher: {err}", d.name());
                    continue;
                }
            };
        let buf = BufferHandle::unbounded();
        let mut phases: Vec<AdaptiveStats> = Vec::new();
        for chunk in e.queries.qtype1.chunks(phase_len) {
            phases.push(run_adaptive(
                &g, &e.table, &cell, &monitor, &refresher, chunk, &buf,
            ));
            // Let the pending refresh publish before the next phase, so
            // each phase serves (at least partly) on a new generation.
            refresher.wait_idle();
        }
        let serve_stats = refresher.shutdown();
        for stats in &phases {
            for row in &stats.per_generation {
                let swap_ms = serve_stats
                    .records
                    .iter()
                    .find(|r| r.generation == row.generation)
                    .map(|r| millis(r.wall));
                print_adaptive_row(d.name(), row, stats, swap_ms);
                report.push(Json::Obj(vec![
                    ("dataset", Json::str(d.name())),
                    ("generation", Json::U64(row.generation)),
                    ("queries", Json::U64(row.queries as u64)),
                    ("result_nodes", Json::U64(row.result_nodes as u64)),
                    ("phase_pages_read", Json::U64(stats.batch.cost.pages_read)),
                    ("phase_join_work", Json::U64(stats.batch.cost.join_work)),
                    ("wall_ms", Json::F64(millis(row.wall))),
                ]));
            }
        }
        let generations: std::collections::BTreeSet<u64> = phases
            .iter()
            .flat_map(|s| s.per_generation.iter().map(|r| r.generation))
            .collect();
        println!(
            "{:<18} served on {} generation(s), {} swap(s) published ({} coalesced, {} empty), swap wall total {:.2} ms / max {:.2} ms",
            d.name(),
            generations.len(),
            serve_stats.refreshes,
            serve_stats.coalesced,
            serve_stats.empty_windows,
            millis(serve_stats.swap_total()),
            millis(serve_stats.swap_max()),
        );
        assert!(
            generations.len() >= 3,
            "{}: expected queries served across >= 3 generations, saw {:?}",
            d.name(),
            generations
        );

        // Count law 1 — drifted refine: the published index went through
        // one refine per swap, each over another window.
        let snap = cell.snapshot();
        let violations = apex::validate::check(&g, snap.index());
        assert!(
            violations.is_empty(),
            "{}: published index after {} swaps: {violations:#?}",
            d.name(),
            serve_stats.refreshes
        );
        // Count law 2 — no-change refine: settle a copy on the monitor's
        // current window, then run the two phases of a refine over the
        // same window again, without the collection at its end.
        let (wl, min_sup) = match monitor.lock() {
            Ok(m) => (m.workload(), m.min_sup()),
            Err(_) => {
                eprintln!("{}: monitor lock poisoned", d.name());
                continue;
            }
        };
        let mut settled = snap.index().clone();
        settled.refine(&g, &wl, min_sup);
        let classes = settled.stats().nodes;
        let (mut ga, mut ht) = (settled.graph().clone(), settled.hash_tree().clone());
        let t0 = std::time::Instant::now();
        extract_frequent(&mut ht, &wl, min_sup);
        let steps = update_apex(&g, &mut ga, &mut ht, settled.xroot());
        let no_change_ms = millis(t0.elapsed());
        println!(
            "{:<18} no-change refine: {steps} steps over {classes} classes, {} + {} arena nodes, {no_change_ms:.2} ms",
            d.name(),
            ga.allocated(),
            ht.allocated(),
        );
        assert_eq!(steps, classes, "{}: one step per class node", d.name());
        assert_eq!(
            (ga.allocated(), ht.allocated()),
            (settled.graph().allocated(), settled.hash_tree().allocated()),
            "{}: a no-change refine must allocate nothing",
            d.name()
        );
        report.push(Json::Obj(vec![
            ("dataset", Json::str(d.name())),
            ("no_change_refine_steps", Json::U64(steps as u64)),
            ("classes", Json::U64(classes as u64)),
            ("xnodes_allocated", Json::U64(ga.allocated() as u64)),
            ("hnodes_allocated", Json::U64(ht.allocated() as u64)),
            ("no_change_refine_ms", Json::F64(no_change_ms)),
        ]));
    }
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}
