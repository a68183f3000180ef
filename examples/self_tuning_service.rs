//! A self-tuning query service: the full Figure 4 loop running online.
//!
//! Queries stream in; a [`WorkloadMonitor`] records them in a sliding
//! window and re-runs extraction + incremental update when drift is
//! detected. The example simulates three workload phases over a FlixML
//! corpus and prints when the monitor fires, what became required, and
//! how the per-phase query cost responds.
//!
//! ```bash
//! cargo run -p apex-suite --example self_tuning_service --release
//! ```
#![allow(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used)]

use apex::{Apex, RefreshPolicy, WorkloadMonitor};
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::QueryProcessor;
use apex_query::explain::explain_apex;
use apex_query::Query;
use apex_storage::{Cost, DataTable, PageModel};
use xmlgraph::LabelPath;

fn main() {
    let g = datagen::flixml(80, 4242);
    let table = DataTable::build(&g, PageModel::default());
    let mut index = Apex::build_initial(&g);
    let mut monitor = WorkloadMonitor::new(60, 0.3, RefreshPolicy::OnDrift { slack: 1.1 });

    // Three phases of user behaviour.
    let phases: [(&str, &[&str]); 3] = [
        (
            "casting dept",
            &[
                "//leadcast/male/name",
                "//leadcast/female/name",
                "//cast/leadcast",
            ],
        ),
        (
            "critics",
            &["//review/title", "//plotsummary/paragraph", "//review/bees"],
        ),
        (
            "archivists",
            &[
                "//genre/primarygenre",
                "//review/releaseyear",
                "//video/color",
            ],
        ),
    ];

    for (phase, queries) in phases {
        println!("\n== phase: {phase} ==");
        let parsed: Vec<Query> = queries
            .iter()
            .map(|s| Query::parse(&g, s).expect("valid query"))
            .collect();

        let mut phase_cost = Cost::new();
        let mut refreshes = 0;
        for round in 0..25 {
            for (q, src) in parsed.iter().zip(queries) {
                let qp = ApexProcessor::new(&g, &index, &table);
                let out = qp.eval(q);
                phase_cost += out.cost;
                // Feed the monitor (QTYPE1 label paths only).
                if let Some(labels) = q.labels() {
                    monitor.record(LabelPath::new(labels.to_vec()));
                }
                if round == 24 {
                    let plan = explain_apex(&index, q);
                    println!(
                        "  {src:<28} direct={} results={}",
                        plan.is_direct(),
                        out.nodes.len()
                    );
                }
            }
            if let Some(steps) = monitor.maybe_refresh(&g, &mut index) {
                refreshes += 1;
                println!(
                    "  [monitor] drift detected at round {round}: refreshed in {steps} steps; \
                     required multi-paths: {:?}",
                    index
                        .required_paths(&g)
                        .iter()
                        .filter(|p| p.contains('.'))
                        .collect::<Vec<_>>()
                );
            }
        }
        println!(
            "  phase totals: pages={} join_work={} refreshes={refreshes}",
            phase_cost.pages_read, phase_cost.join_work
        );
    }

    println!("\nThe hot paths of each phase end up answered directly (direct=true),");
    println!("and each phase change triggers exactly the refreshes the drift policy allows.");
}
