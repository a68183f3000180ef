//! Ablations and extensions beyond the paper's evaluation:
//!
//! 1. **1-index as a query structure** — the paper discusses it (§2) but
//!    does not measure it; we run the QTYPE1 set over it.
//! 2. **No index (naive traversal)** — the floor every index must beat.
//! 3. **Incremental update vs full rebuild** — update steps and wall
//!    time for `refine` on a drifted workload, against building a fresh
//!    APEX⁰ and refining from scratch (§5.3's motivation).
//! 4. **minSup sensitivity of the hash tree** — required-path counts and
//!    maximum required length per minSup.
//!
//! Also writes `BENCH_ablation.json` with the same rows.
//!
//! (`cargo run -p apex-bench --release --bin ablation [--scale paper]`)

use std::time::Instant;

use apex_bench::report::{batch_row, BenchReport, Json};
use apex_bench::{print_row, print_row_header, Experiment, Scale, MINSUPS};
use apex_query::apex_qp::ApexProcessor;
use apex_query::guide_qp::GuideProcessor;
use apex_query::naive::NaiveProcessor;
use apex_query::run_batch;

fn main() -> std::io::Result<()> {
    let scale = Scale::from_env();
    let mut report = BenchReport::new("ablation");

    println!("Ablation 1+2: QTYPE1 over 1-index and naive traversal");
    println!("(capped at 1000 queries per batch — the 1-index product on the");
    println!(" largest quotient graphs costs like the SDG's; fig13 covers that)\n");
    print_row_header();
    for d in scale.datasets() {
        let ex = Experiment::new(d, scale);
        let cap = ex.queries.qtype1.len().min(1000);
        let queries = &ex.queries.qtype1[..cap];
        let oneidx = ex.oneindex();
        let stats = run_batch(&GuideProcessor::new(&ex.g, &oneidx, &ex.table), queries);
        print_row(d.name(), "1-index", &stats);
        report.push(batch_row(d.name(), "1-index", &stats));
        let stats = run_batch(&NaiveProcessor::new(&ex.g, &ex.table), queries);
        print_row(d.name(), "naive", &stats);
        report.push(batch_row(d.name(), "naive", &stats));
        let apex = ex.apex_at(0.005);
        let stats = run_batch(&ApexProcessor::new(&ex.g, &apex, &ex.table), queries);
        print_row(d.name(), "APEX(0.005)", &stats);
        report.push(batch_row(d.name(), "APEX(0.005)", &stats));
        println!();
    }

    println!("\nAblation 3: incremental update vs rebuild (workload drift)\n");
    println!(
        "{:<18} {:>12} {:>12} {:>14} {:>14}",
        "dataset", "incr-steps", "incr-ms", "rebuild-steps", "rebuild-ms"
    );
    for d in scale.datasets() {
        let ex = Experiment::new(d, scale);
        // Split the workload in two halves: tune to the first, then
        // drift to the second.
        let all: Vec<_> = ex.queries.workload.iter().cloned().collect();
        let (w1, w2) = all.split_at(all.len() / 2);
        let wl1 = apex::Workload::from_paths(w1.to_vec());
        let wl2 = apex::Workload::from_paths(w2.to_vec());

        let mut incr = ex.apex0.clone();
        incr.refine(&ex.g, &wl1, 0.005);
        let t = Instant::now();
        let steps_incr = incr.refine(&ex.g, &wl2, 0.005);
        let incr_ms = apex_query::stats::millis(t.elapsed());

        let t = Instant::now();
        let mut fresh = apex::Apex::build_initial(&ex.g);
        let steps_fresh = fresh.refine(&ex.g, &wl2, 0.005);
        let fresh_ms = apex_query::stats::millis(t.elapsed());

        println!(
            "{:<18} {:>12} {:>12.1} {:>14} {:>14.1}",
            d.name(),
            steps_incr,
            incr_ms,
            steps_fresh,
            fresh_ms
        );
        report.push(Json::Obj(vec![
            ("dataset", Json::str(d.name())),
            ("ablation", Json::str("update-vs-rebuild")),
            ("incr_steps", Json::U64(steps_incr as u64)),
            ("incr_ms", Json::F64(incr_ms)),
            ("rebuild_steps", Json::U64(steps_fresh as u64)),
            ("rebuild_ms", Json::F64(fresh_ms)),
        ]));
        assert_eq!(
            incr.required_paths(&ex.g),
            fresh.required_paths(&ex.g),
            "incremental and rebuilt indexes must encode the same paths"
        );
    }

    println!("\nAblation 4: hash-tree shape per minSup\n");
    println!(
        "{:<18} {:>8} {:>16} {:>16}",
        "dataset", "minSup", "required-paths", "max-length"
    );
    for d in scale.datasets() {
        let ex = Experiment::new(d, scale);
        for ms in MINSUPS {
            let apex = ex.apex_at(ms);
            let s = apex.stats();
            println!(
                "{:<18} {:>8} {:>16} {:>16}",
                d.name(),
                ms,
                s.hash_entries,
                s.max_required_len
            );
            report.push(Json::Obj(vec![
                ("dataset", Json::str(d.name())),
                ("ablation", Json::str("hash-tree-shape")),
                ("min_sup", Json::F64(ms)),
                ("required_paths", Json::U64(s.hash_entries as u64)),
                ("max_required_len", Json::U64(s.max_required_len as u64)),
            ]));
        }
    }

    match report.write() {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    Ok(())
}
