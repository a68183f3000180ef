//! Socket-level equivalence of the sharded serving tier: a generated
//! mixed workload (QTYPE1 partial paths, QTYPE2 long paths, QTYPE3
//! value predicates) sent through the scatter-gather router over a
//! 3-shard × 2-replica cluster must return, query for query, exactly
//! what a single-process runtime owning the whole graph returns — same
//! status, same exact totals, same sorted 64-row sample. Parse errors
//! must agree too: a malformed query is refused identically on both
//! paths, never half-answered.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;

use apex_net::{Client, Status};
use apex_query::generator::GeneratorConfig;
use apex_shard::{
    ClusterConfig, Router, RouterConfig, RuntimeConfig, ShardCluster, ShardMap, ShardRuntime,
};
use apex_suite::{small, Fixture};
use xmlgraph::paths::EnumLimits;
use xmlgraph::XmlGraph;

fn cfg(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        qtype1: 40,
        qtype2: 15,
        qtype3: 15,
        workload_fraction: 0.2,
        seed,
        limits: EnumLimits {
            max_len: 10,
            max_paths: 30_000,
        },
    }
}

fn check_dataset(g: XmlGraph, seed: u64) {
    let fx = Fixture::build(g, cfg(seed));
    let g = Arc::new(fx.g.clone());
    let solo = ShardRuntime::start(
        0,
        &ShardMap::new(1),
        Arc::clone(&g),
        &RuntimeConfig::default(),
    )
    .expect("solo runtime");
    let cluster = ShardCluster::start(
        Arc::clone(&g),
        ShardMap::new(3),
        ClusterConfig {
            replicas: 2,
            ..ClusterConfig::default()
        },
    )
    .expect("cluster");
    let mut router = Router::start(
        cluster.map(),
        &cluster.addrs(),
        RouterConfig::default(),
        "127.0.0.1:0",
    )
    .expect("router");

    let mixed: Vec<String> = fx
        .queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype2.iter())
        .chain(fx.queries.qtype3.iter())
        .map(|q| q.render(&fx.g))
        .collect();
    assert!(!mixed.is_empty(), "no queries generated");

    let mut c = Client::connect(router.local_addr()).expect("connect");
    let mut ok = 0usize;
    for (qi, q) in mixed.iter().enumerate() {
        let merged = c.call(q, 0).expect("merged call");
        let full = solo.eval_local(q);
        assert_eq!(
            merged.status, full.status,
            "query #{qi} `{q}`: statuses diverge"
        );
        assert_eq!(
            merged.total_rows, full.total_rows,
            "query #{qi} `{q}`: totals diverge"
        );
        assert_eq!(
            merged.rows, full.rows,
            "query #{qi} `{q}`: row samples diverge"
        );
        if merged.status == Status::Ok {
            ok += 1;
        }
    }
    drop(c);
    assert!(
        ok * 2 > mixed.len(),
        "most generated queries must round-trip the wire syntax ({ok}/{})",
        mixed.len()
    );

    let stats = router.drain();
    assert!(stats.balanced(), "router books: {stats}");
    assert_eq!(stats.accepted, mixed.len() as u64);
    assert_eq!(stats.shed, 0);
    let cluster_stats = cluster.shutdown();
    assert!(cluster_stats.balanced());
    solo.shutdown();
}

#[test]
fn sharded_socket_answers_equal_single_process_on_play() {
    check_dataset(small::play(), 11);
}

#[test]
fn sharded_socket_answers_equal_single_process_on_flix() {
    check_dataset(small::flix(), 22);
}

#[test]
fn sharded_socket_answers_equal_single_process_on_ged() {
    check_dataset(small::ged(), 33);
}
