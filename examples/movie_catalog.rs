//! Movie-catalog scenario: a FlixML-like corpus queried by a front-end
//! whose users mostly ask for cast names and titles. Shows how `minSup`
//! trades index size against query cost (the Figure 13(b) story).
//!
//! ```bash
//! cargo run -p apex-suite --example movie_catalog --release
//! ```
#![allow(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used)]

use apex::{Apex, Workload};
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::run_batch;
use apex_query::guide_qp::GuideProcessor;
use apex_query::Query;
use apex_storage::{DataTable, PageModel};
use dataguide::DataGuide;
use xmlgraph::LabelPath;

fn main() {
    let g = datagen::flixml(120, 2026);
    println!(
        "FlixML corpus: {} nodes, {} edges, {} labels",
        g.node_count(),
        g.edge_count(),
        g.label_count()
    );
    let table = DataTable::build(&g, PageModel::default());

    // The front-end's hot paths.
    let hot = [
        "leadcast.male.name",
        "leadcast.female.name",
        "review.title",
        "crew.director.name",
        "cast.leadcast",
    ];
    let mut workload = Workload::new();
    for _ in 0..20 {
        for p in &hot {
            workload.push(LabelPath::parse(&g, p).expect("hot path exists"));
        }
    }
    // Plus a long tail of one-off queries.
    for p in ["genre.primarygenre", "video.color", "audio.audioformat"] {
        workload.push(LabelPath::parse(&g, p).unwrap());
    }

    // The query mix replays the workload shape.
    let queries: Vec<Query> = workload
        .iter()
        .map(|p| Query::PartialPath {
            labels: p.labels().to_vec(),
        })
        .collect();

    let sdg = DataGuide::build(&g);
    println!(
        "\n{:<14} {:>7} {:>7} {:>10} {:>10} {:>9}",
        "index", "nodes", "edges", "hash", "idx-edges", "pages"
    );
    let tsdg = run_batch(&GuideProcessor::new(&g, &sdg, &table), &queries);
    println!(
        "{:<14} {:>7} {:>7} {:>10} {:>10} {:>9}",
        "SDG",
        sdg.node_count(),
        sdg.edge_count(),
        tsdg.cost.hash_lookups,
        tsdg.cost.index_edges,
        tsdg.cost.pages_read
    );

    for min_sup in [1.1, 0.05, 0.01, 0.002] {
        let mut apex = Apex::build_initial(&g);
        apex.refine(&g, &workload, min_sup);
        let stats = apex.stats();
        let t = run_batch(&ApexProcessor::new(&g, &apex, &table), &queries);
        let name = if min_sup > 1.0 {
            "APEX0".to_string()
        } else {
            format!("APEX({min_sup})")
        };
        println!(
            "{:<14} {:>7} {:>7} {:>10} {:>10} {:>9}",
            name,
            stats.nodes,
            stats.edges,
            t.cost.hash_lookups,
            t.cost.index_edges,
            t.cost.pages_read
        );
    }

    println!("\nLower minSup materializes the hot paths: the workload is");
    println!("answered from extents with fewer joins and fewer pages.");
}
