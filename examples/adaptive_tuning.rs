//! Adaptive tuning under workload drift: the defining APEX capability
//! (§5's incremental update). A Shakespeare corpus first serves a
//! "scholar" workload (speech/speaker lookups), then drifts to a "stage
//! manager" workload (stage directions, scene titles). The index follows
//! incrementally; queries stay correct and the hot paths stay cheap.
//!
//! ```bash
//! cargo run -p apex-suite --example adaptive_tuning --release
//! ```
#![allow(clippy::print_stdout, clippy::unwrap_used, clippy::expect_used)]

use apex::{Apex, Workload};
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::{run_batch, QueryProcessor};
use apex_query::naive::NaiveProcessor;
use apex_query::Query;
use apex_storage::{DataTable, PageModel};
use xmlgraph::LabelPath;

fn workload(g: &xmlgraph::XmlGraph, paths: &[&str], reps: usize) -> Workload {
    let mut wl = Workload::new();
    for _ in 0..reps {
        for p in paths {
            wl.push(LabelPath::parse(g, p).expect("path exists"));
        }
    }
    wl
}

fn queries_of(wl: &Workload) -> Vec<Query> {
    wl.iter()
        .map(|p| Query::PartialPath {
            labels: p.labels().to_vec(),
        })
        .collect()
}

fn main() {
    let g = datagen::shakespeare(3, 1601);
    let table = DataTable::build(&g, PageModel::default());
    let naive = NaiveProcessor::new(&g, &table);
    println!(
        "corpus: {} nodes, {} labels",
        g.node_count(),
        g.label_count()
    );

    let scholar = workload(
        &g,
        &["SPEECH.SPEAKER", "SPEECH.LINE", "ACT.SCENE.SPEECH"],
        10,
    );
    let stage = workload(
        &g,
        &["SCENE.STAGEDIR", "SCENE.TITLE", "SPEECH.STAGEDIR"],
        10,
    );

    let mut apex = Apex::build_initial(&g);
    println!("\nphase 0 (APEX0):          {:?}", apex.stats());

    // Phase 1: scholar workload arrives.
    let steps = apex.refine(&g, &scholar, 0.2);
    println!(
        "phase 1 (scholar, {steps:>4} update steps): {:?}",
        apex.stats()
    );
    let t = run_batch(
        &ApexProcessor::new(&g, &apex, &table),
        &queries_of(&scholar),
    );
    println!("  scholar queries: {}", t.summary());
    let t = run_batch(&ApexProcessor::new(&g, &apex, &table), &queries_of(&stage));
    println!("  stage queries:   {}", t.summary());

    // Phase 2: drift to the stage-manager workload. The update is
    // incremental: far fewer steps than a full rebuild would take.
    let steps = apex.refine(&g, &stage, 0.2);
    println!(
        "\nphase 2 (stage,   {steps:>4} update steps): {:?}",
        apex.stats()
    );
    let t = run_batch(&ApexProcessor::new(&g, &apex, &table), &queries_of(&stage));
    println!("  stage queries:   {}", t.summary());
    println!(
        "  required paths now: {:?}",
        apex.required_paths(&g)
            .iter()
            .filter(|p| p.contains('.'))
            .collect::<Vec<_>>()
    );

    // Correctness after two refinements.
    for q in queries_of(&scholar).iter().chain(queries_of(&stage).iter()) {
        assert_eq!(
            ApexProcessor::new(&g, &apex, &table).eval(q).nodes,
            naive.eval(q).nodes,
            "drifted index wrong on {}",
            q.render(&g)
        );
    }
    println!("\nall queries verified against direct graph evaluation ✓");
}
