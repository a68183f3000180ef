//! Figure 14: total evaluation cost of QTYPE2 queries (`//l_i//l_j`,
//! 500 at paper scale) on the strong DataGuide, APEX⁰, and APEX with
//! minSup = 0.005. The paper plots this in log scale — the gap spans
//! orders of magnitude on irregular data.
//! Also writes `BENCH_fig14.json` with the same rows.
//! (`cargo run -p apex-bench --release --bin fig14 [--scale paper]`)
//!
//! Doubles as the QTYPE2 smoke test: the run *asserts* that all three
//! series return the same `results` count on every dataset, so an
//! evaluator that prunes or propagates wrongly fails here.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use apex_bench::report::{batch_row, BenchReport};
use apex_bench::{print_row, print_row_header, Experiment, Scale};
use apex_query::apex_qp::ApexProcessor;
use apex_query::guide_qp::GuideProcessor;
use apex_query::run_batch;

fn main() {
    let scale = Scale::from_env();
    let mut report = BenchReport::new("fig14");
    println!("Figure 14: total evaluation cost of QTYPE2 queries [paper: log scale]\n");
    print_row_header();
    for d in scale.fig14_15_datasets() {
        let ex = Experiment::new(d, scale);
        let sdg = ex.dataguide();
        let stats = run_batch(
            &GuideProcessor::new(&ex.g, &sdg, &ex.table),
            &ex.queries.qtype2,
        );
        print_row(d.name(), "SDG", &stats);
        report.push(batch_row(d.name(), "SDG", &stats));
        let want = stats.result_nodes;

        let stats = run_batch(
            &ApexProcessor::new(&ex.g, &ex.apex0, &ex.table),
            &ex.queries.qtype2,
        );
        print_row(d.name(), "APEX0", &stats);
        report.push(batch_row(d.name(), "APEX0", &stats));
        assert_eq!(
            stats.result_nodes,
            want,
            "{}: APEX0 and SDG disagree on QTYPE2 results",
            d.name()
        );

        let apex = ex.apex_at(0.005);
        let stats = run_batch(
            &ApexProcessor::new(&ex.g, &apex, &ex.table),
            &ex.queries.qtype2,
        );
        print_row(d.name(), "APEX(0.005)", &stats);
        report.push(batch_row(d.name(), "APEX(0.005)", &stats));
        assert_eq!(
            stats.result_nodes,
            want,
            "{}: APEX(0.005) and SDG disagree on QTYPE2 results",
            d.name()
        );
        println!();
    }
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    println!("Expected shape (paper): APEX best everywhere (traversal starts at the");
    println!("l_i classes); SDG pays exhaustive navigation from the root; APEX0's");
    println!("compact graph prunes fast but pays more join work.");
    println!("all three series returned equal QTYPE2 results on every dataset");
}
