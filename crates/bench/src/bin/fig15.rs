//! Figure 15: total evaluation cost of QTYPE3 queries
//! (`//l_1/…/l_n[text() = value]`, 1000 at paper scale) on the Index
//! Fabric, the strong DataGuide, and APEX with minSup = 0.005. The paper
//! plots log scale: the Fabric wins on regular data (answers from the
//! trie alone, no data-table probes) and loses badly on irregular data
//! (whole-trie traversal over exploded key sets).
//! Also writes `BENCH_fig15.json` with the same rows.
//! (`cargo run -p apex-bench --release --bin fig15 [--scale paper]`)
//!
//! Doubles as the QTYPE3 smoke test: the run *asserts* that SDG and
//! APEX return the same `results` count on every dataset, and the Fabric
//! too wherever its keys were not truncated (truncated keys cannot tell
//! long paths apart, so its answers may differ there by design).
#![allow(clippy::print_stdout, clippy::print_stderr)]

use apex_bench::report::{batch_row, BenchReport};
use apex_bench::{print_row, print_row_header, Experiment, Scale};
use apex_query::apex_qp::ApexProcessor;
use apex_query::fabric_qp::FabricProcessor;
use apex_query::guide_qp::GuideProcessor;
use apex_query::run_batch;

fn main() {
    let scale = Scale::from_env();
    let mut report = BenchReport::new("fig15");
    println!("Figure 15: total evaluation cost of QTYPE3 queries [paper: log scale]\n");
    print_row_header();
    for d in scale.fig14_15_datasets() {
        let ex = Experiment::new(d, scale);

        let fab = ex.fabric();
        let stats = run_batch(&FabricProcessor::new(&ex.g, &fab), &ex.queries.qtype3);
        let trunc = if fab.truncated {
            " (truncated keys)"
        } else {
            ""
        };
        let label = format!("Fabric{trunc}");
        print_row(d.name(), &label, &stats);
        report.push(batch_row(d.name(), &label, &stats));
        let fabric = (!fab.truncated).then_some(stats.result_nodes);

        let sdg = ex.dataguide();
        let stats = run_batch(
            &GuideProcessor::new(&ex.g, &sdg, &ex.table),
            &ex.queries.qtype3,
        );
        print_row(d.name(), "SDG", &stats);
        report.push(batch_row(d.name(), "SDG", &stats));
        let want = stats.result_nodes;
        if let Some(got) = fabric {
            assert_eq!(
                got,
                want,
                "{}: Fabric and SDG disagree on QTYPE3 results",
                d.name()
            );
        }

        let apex = ex.apex_at(0.005);
        let stats = run_batch(
            &ApexProcessor::new(&ex.g, &apex, &ex.table),
            &ex.queries.qtype3,
        );
        print_row(d.name(), "APEX(0.005)", &stats);
        report.push(batch_row(d.name(), "APEX(0.005)", &stats));
        assert_eq!(
            stats.result_nodes,
            want,
            "{}: APEX(0.005) and SDG disagree on QTYPE3 results",
            d.name()
        );
        println!();
    }
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    println!("Expected shape (paper): Fabric best on Play data, worst on Flix/Ged;");
    println!("APEX best on irregular data.");
    println!(
        "every series returned equal QTYPE3 results on every dataset (Fabric: untruncated keys)"
    );
}
