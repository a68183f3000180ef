//! Table 1: characteristics of the experiment data sets
//! (`cargo run -p apex-bench --release --bin table1 [--scale paper]`).
//! Also writes `BENCH_table1.json` with the same rows.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use apex_bench::report::{BenchReport, Json};
use apex_bench::Scale;
use xmlgraph::paths::EnumLimits;
use xmlgraph::stats::GraphStats;

fn main() {
    let scale = Scale::from_env();
    let mut report = BenchReport::new("table1");
    println!("Table 1: characteristics of the data sets (ours vs paper)\n");
    println!(
        "{:<18} {:>9} {:>9} {:>11} | {:>9} {:>9} {:>11}",
        "Data Set", "nodes", "edges", "labels", "paper-n", "paper-e", "paper-l"
    );
    let limits = EnumLimits {
        max_len: 8,
        max_paths: 50_000,
    };
    for d in scale.datasets() {
        let g = d.generate();
        let s = GraphStats::compute(&g, limits);
        println!(
            "{:<18} {:>9} {:>9} {:>7}({:>2}) | {:>9} {:>9} {:>7}({:>2})",
            d.name(),
            s.nodes,
            s.edges,
            s.labels,
            s.idref_labels,
            d.paper_nodes(),
            d.paper_edges(),
            d.paper_labels(),
            d.paper_idref_labels(),
        );
        report.push(Json::Obj(vec![
            ("dataset", Json::str(d.name())),
            ("nodes", Json::U64(s.nodes as u64)),
            ("edges", Json::U64(s.edges as u64)),
            ("labels", Json::U64(s.labels as u64)),
            ("idref_labels", Json::U64(s.idref_labels as u64)),
            (
                "distinct_rooted_paths",
                Json::U64(s.distinct_rooted_paths as u64),
            ),
            ("max_depth", Json::U64(s.max_depth as u64)),
            ("avg_fanout", Json::F64(s.avg_fanout)),
            ("ref_edges", Json::U64(s.ref_edges as u64)),
        ]));
    }
    println!("\n(irregularity diagnostics)");
    println!(
        "{:<18} {:>14} {:>9} {:>9} {:>10}",
        "Data Set", "rooted-paths", "depth", "fanout", "ref-edges"
    );
    for d in scale.datasets() {
        let g = d.generate();
        let s = GraphStats::compute(&g, limits);
        println!(
            "{:<18} {:>14} {:>9} {:>9.2} {:>10}",
            d.name(),
            s.distinct_rooted_paths,
            s.max_depth,
            s.avg_fanout,
            s.ref_edges
        );
    }
    match report.write() {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
}
