//! Cross-index result equivalence: every query processor must return the
//! same node sets as the naive graph evaluator, on every dataset family,
//! for every query type, at several `minSup` settings.
//!
//! This is the main correctness gate of the reproduction: APEX answers
//! are assembled from hash-tree lookups, extent unions and multi-way
//! joins; the DataGuide and 1-index answers from automaton products over
//! quotient graphs; the fabric's from trie traversal — all must agree
//! with direct evaluation over `G_XML`.

use apex::{Apex, ExtentStat, PlanStats};
use apex_query::batch::QueryProcessor;
use apex_query::generator::GeneratorConfig;
use apex_query::naive::NaiveProcessor;
use apex_query::{apex_qp::ApexProcessor, fabric_qp::FabricProcessor, guide_qp::GuideProcessor};
use apex_suite::{small, Fixture};
use xmlgraph::paths::EnumLimits;
use xmlgraph::XmlGraph;

fn cfg(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        qtype1: 250,
        qtype2: 60,
        qtype3: 60,
        workload_fraction: 0.2,
        seed,
        limits: EnumLimits {
            max_len: 10,
            max_paths: 30_000,
        },
    }
}

/// The planner's per-extent statistics, in class-node order.
fn extent_stats(idx: &Apex) -> Vec<ExtentStat> {
    let stats = PlanStats::assemble(idx);
    let mut classes = idx.graph().reachable(idx.xroot());
    classes.sort_unstable();
    let of = |x: &apex::XNodeId| *stats.extent(x.0).expect("reachable class summarized");
    classes.iter().map(of).collect()
}

fn check_dataset(g: XmlGraph, seed: u64) {
    let fx = Fixture::build(g, cfg(seed));
    let naive = NaiveProcessor::new(&fx.g, &fx.table);

    // Index variants under test — each must pass the full structural
    // validator before serving a single query.
    let apex_05 = fx.apex_at(0.05);
    let apex_005 = fx.apex_at(0.005);
    let apex_0005 = fx.apex_at(0.0005);
    let indexes = [&fx.apex0, &apex_05, &apex_005, &apex_0005];
    for idx in indexes {
        apex::validate::assert_valid(&fx.g, idx);
    }
    // What the planner would be told about a copy nothing has queried.
    let cold: Vec<Vec<ExtentStat>> = indexes.map(|idx| extent_stats(&idx.clone())).into();

    let processors: Vec<Box<dyn QueryProcessor + '_>> = vec![
        Box::new(ApexProcessor::new(&fx.g, &fx.apex0, &fx.table)),
        Box::new(ApexProcessor::new(&fx.g, &apex_05, &fx.table)),
        Box::new(ApexProcessor::new(&fx.g, &apex_005, &fx.table)),
        Box::new(ApexProcessor::new(&fx.g, &apex_0005, &fx.table)),
        Box::new(GuideProcessor::new(&fx.g, &fx.sdg, &fx.table)),
        Box::new(GuideProcessor::new(&fx.g, &fx.oneindex, &fx.table)),
    ];

    for (qi, q) in fx
        .queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype2.iter())
        .chain(fx.queries.qtype3.iter())
        .enumerate()
    {
        let expect = naive.eval(q).nodes;
        for p in &processors {
            let got = p.eval(q).nodes;
            assert_eq!(
                got,
                expect,
                "query #{qi} {} differs on {}",
                q.render(&fx.g),
                p.name()
            );
        }
    }

    // Statistics are a function of the index, not of what it has served:
    // after the whole query set they read exactly as on the fresh copy.
    for (idx, cold) in indexes.iter().zip(&cold) {
        assert_eq!(&extent_stats(idx), cold, "statistics moved with use");
    }

    // Fabric: QTYPE3 only. On reference-dense graph data the fabric's
    // rooted-path enumeration is bounded (the original Index Fabric is
    // likewise lossy for graph data, §2) — there we only require
    // soundness; when enumeration completed, we require equality.
    let fab = FabricProcessor::new(&fx.g, &fx.fabric);
    for q in &fx.queries.qtype3 {
        let expect = naive.eval(q).nodes;
        let got = fab.eval(q).nodes;
        if fx.fabric.truncated {
            assert!(
                got.iter().all(|n| expect.binary_search(n).is_ok()),
                "fabric unsound on {}",
                q.render(&fx.g)
            );
            assert!(
                !got.is_empty(),
                "fabric missed all results on {}",
                q.render(&fx.g)
            );
        } else {
            assert_eq!(got, expect, "fabric differs on {}", q.render(&fx.g));
        }
    }
}

#[test]
fn play_family_equivalence() {
    check_dataset(small::play(), 11);
}

#[test]
fn flix_family_equivalence() {
    check_dataset(small::flix(), 22);
}

#[test]
fn ged_family_equivalence() {
    check_dataset(small::ged(), 33);
}

#[test]
fn moviedb_equivalence() {
    check_dataset(xmlgraph::builder::moviedb(), 44);
}

/// The q1 example of §4: `//actor/name` must return the two actor names
/// on every index.
#[test]
fn section4_q1_on_every_index() {
    let fx = Fixture::build(xmlgraph::builder::moviedb(), cfg(7));
    let q = apex_query::Query::PartialPath {
        labels: xmlgraph::LabelPath::parse(&fx.g, "actor.name").unwrap().0,
    };
    let expect = vec![xmlgraph::NodeId(3), xmlgraph::NodeId(5)];
    let apex = fx.apex_with(&apex::Workload::parse(&fx.g, &["actor.name"]).unwrap(), 0.5);
    assert_eq!(
        ApexProcessor::new(&fx.g, &apex, &fx.table).eval(&q).nodes,
        expect
    );
    assert_eq!(
        GuideProcessor::new(&fx.g, &fx.sdg, &fx.table)
            .eval(&q)
            .nodes,
        expect
    );
    assert_eq!(
        GuideProcessor::new(&fx.g, &fx.oneindex, &fx.table)
            .eval(&q)
            .nodes,
        expect
    );
}
