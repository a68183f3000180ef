//! Quickstart: build APEX over the paper's MovieDB example, adapt it to a
//! workload, and run the three query types.
//!
//! ```bash
//! cargo run -p apex-suite --example quickstart
//! ```
#![allow(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used)]

use apex::{Apex, Workload};
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::QueryProcessor;
use apex_query::Query;
use apex_storage::{DataTable, PageModel};
use xmlgraph::LabelPath;

fn main() {
    // 1. The data: Figure 1 of the paper (MovieDB with ID/IDREF edges).
    let g = xmlgraph::builder::moviedb();
    println!(
        "data: {} nodes, {} edges, {} labels ({} IDREF)",
        g.node_count(),
        g.edge_count(),
        g.label_count(),
        g.idref_labels().len()
    );

    // 2. APEX⁰ — the workload-free seed (Figure 6).
    let mut index = Apex::build_initial(&g);
    println!("APEX0: {:?}", index.stats());

    // 3. Adapt to a workload where //actor/name and //director/movie are
    //    hot (Figures 8 + 11).
    let workload = Workload::parse(
        &g,
        &["actor.name", "actor.name", "director.movie", "movie.title"],
    )
    .expect("labels exist");
    let steps = index.refine(&g, &workload, 0.4);
    println!("refined in {steps} update steps: {:?}", index.stats());
    println!("required paths: {:?}", index.required_paths(&g));

    // 4. Query it.
    let table = DataTable::build(&g, PageModel::default());
    let qp = ApexProcessor::new(&g, &index, &table);

    let q1 = Query::PartialPath {
        labels: LabelPath::parse(&g, "actor.name").unwrap().0,
    };
    let out = qp.eval(&q1);
    println!("\n{} -> nodes {:?}", q1.render(&g), out.nodes);
    println!("   values: {:?}", values(&g, &out.nodes));
    println!("   cost: {}", out.cost);

    let q2 = Query::AncestorDescendant {
        first: g.label_id("movie").unwrap(),
        last: g.label_id("name").unwrap(),
    };
    let out = qp.eval(&q2);
    println!("\n{} -> nodes {:?}", q2.render(&g), out.nodes);
    println!("   values: {:?}", values(&g, &out.nodes));

    let q3 = Query::ValuePath {
        labels: LabelPath::parse(&g, "title").unwrap().0,
        value: "Star Wars".into(),
    };
    let out = qp.eval(&q3);
    println!("\n{} -> nodes {:?}", q3.render(&g), out.nodes);
}

fn values(g: &xmlgraph::XmlGraph, nodes: &[xmlgraph::NodeId]) -> Vec<String> {
    nodes
        .iter()
        .filter_map(|&n| g.value(n).map(str::to_string))
        .collect()
}
