//! Figure 13: total execution cost of the QTYPE1 query set
//! (`//l_i/…/l_n`, 5000 queries at paper scale) on the strong DataGuide,
//! APEX⁰, and APEX as minSup varies over {0.002 … 0.05}.
//! Also writes `BENCH_fig13.json` with the same rows.
//! (`cargo run -p apex-bench --release --bin fig13 [--scale paper]`)
//!
//! Doubles as the QTYPE1 smoke test: the run *asserts* that every
//! series returns the same `results` count as the SDG on every dataset,
//! so a node frontier that loses or invents an arrival fails here.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use apex_bench::report::{batch_row, BenchReport, Json};
use apex_bench::{print_row, print_row_header, Experiment, Scale, MINSUPS};
use apex_query::apex_qp::ApexProcessor;
use apex_query::guide_qp::GuideProcessor;
use apex_query::run_batch;

fn main() {
    let scale = Scale::from_env();
    let mut report = BenchReport::new("fig13");
    println!("Figure 13: total execution cost of QTYPE1 queries vs minSup\n");
    print_row_header();
    for d in scale.datasets() {
        let ex = Experiment::new(d, scale);
        println!(
            "# {} — {} queries ({:.0}% simple)",
            d.name(),
            ex.queries.qtype1.len(),
            ex.queries.simple_fraction * 100.0
        );

        let sdg = ex.dataguide();
        let stats = run_batch(
            &GuideProcessor::new(&ex.g, &sdg, &ex.table),
            &ex.queries.qtype1,
        );
        print_row(d.name(), "SDG", &stats);
        report.push(batch_row(d.name(), "SDG", &stats));
        let want = stats.result_nodes;
        let agree = |label: &str, got: usize| {
            assert_eq!(
                got,
                want,
                "{}: {label} and SDG disagree on QTYPE1 results",
                d.name()
            );
        };

        let stats = run_batch(
            &ApexProcessor::new(&ex.g, &ex.apex0, &ex.table),
            &ex.queries.qtype1,
        );
        print_row(d.name(), "APEX0", &stats);
        report.push(batch_row(d.name(), "APEX0", &stats));
        agree("APEX0", stats.result_nodes);

        for ms in MINSUPS {
            let apex = ex.apex_at(ms);
            let stats = run_batch(
                &ApexProcessor::new(&ex.g, &apex, &ex.table),
                &ex.queries.qtype1,
            );
            let label = format!("APEX({ms})");
            print_row(d.name(), &label, &stats);
            agree(&label, stats.result_nodes);
            let mut row = batch_row(d.name(), &label, &stats);
            if let Json::Obj(fields) = &mut row {
                fields.push(("min_sup", Json::F64(ms)));
            }
            report.push(row);
        }
        println!();
    }
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    println!("Expected shape (paper): SDG worst and worsening with irregularity;");
    println!("APEX best around minSup 0.005; APEX0 the upper bound of the APEX family.");
    println!("every series returned equal QTYPE1 results on every dataset");
}
