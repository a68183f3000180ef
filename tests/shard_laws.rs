//! Sharding laws: the partitioner is a total, stable function of the
//! label path, and the router's scatter-gather merge
//! over a real socket cluster equals the single-process answer on all
//! three generated dataset families.
//!
//! The partitioner laws run under proptest (arbitrary shard counts,
//! seeds and label paths); the merge equivalence runs one in-process
//! 3-shard × 2-replica cluster per family and compares every merged
//! response — status, exact totals, and the sorted 64-row sample —
//! against a 1-shard runtime that owns the whole graph.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeSet;
use std::sync::Arc;

use apex_net::{Client, Status};
use apex_shard::{
    ClusterConfig, Router, RouterConfig, RuntimeConfig, ShardCluster, ShardMap, ShardRuntime,
};
use apex_suite::small;
use proptest::prelude::*;
use xmlgraph::XmlGraph;

const ALPHABET: [&str; 8] = ["actor", "movie", "name", "title", "a", "b", "c", "d"];

proptest! {
    /// Totality + stability: every path lands on exactly one shard below
    /// the shard count, and an equal map assigns identically.
    #[test]
    fn partitioner_is_total_and_stable_across_save_load(
        shards in 1u16..9,
        seed in 0u64..u64::MAX,
        paths in proptest::collection::vec(
            proptest::collection::vec(0..ALPHABET.len(), 0..6),
            1..20,
        ),
    ) {
        let map = ShardMap::with_seed(shards, seed);
        let copy = ShardMap::with_seed(shards, seed);
        for p in &paths {
            let labels = || p.iter().map(|&i| ALPHABET[i]);
            let s = map.shard_of_path(labels());
            prop_assert!(s < shards.max(1), "shard {} out of range", s);
            prop_assert_eq!(s, copy.shard_of_path(labels()), "an equal map disagrees");
        }
    }

    /// Sibling paths that differ only in the final label may differ in
    /// owner, but the same path always re-hashes identically (pure
    /// function, no interner state).
    #[test]
    fn hashing_is_deterministic(
        shards in 1u16..9,
        seed in 0u64..u64::MAX,
        p in proptest::collection::vec(0..ALPHABET.len(), 0..8),
    ) {
        let map = ShardMap::with_seed(shards, seed);
        let labels = || p.iter().map(|&i| ALPHABET[i]);
        prop_assert_eq!(map.hash_path(labels()), map.hash_path(labels()));
        prop_assert_eq!(map.shard_of_path(labels()), map.shard_of_path(labels()));
    }
}

/// A dataset-independent query pool: every distinct element label as a
/// one-step query plus the first few distinct parent/child label pairs
/// as two-step queries.
fn derive_queries(g: &XmlGraph) -> Vec<String> {
    let mut out: BTreeSet<String> = g
        .labels()
        .iter()
        .map(|(_, s)| s)
        .filter(|s| !s.starts_with('@'))
        .take(4)
        .map(|s| format!("//{s}"))
        .collect();
    for nid in g.nodes() {
        if out.len() >= 10 {
            break;
        }
        let parent = g.tree_parent(nid);
        if parent.is_null() {
            continue;
        }
        out.insert(format!(
            "//{}/{}",
            g.label_str(g.tag(parent)),
            g.label_str(g.tag(nid))
        ));
    }
    out.into_iter().collect()
}

/// Scatter-gather over 3 shards must equal the 1-shard (whole-graph)
/// runtime exactly: same status, same totals, same sorted row sample.
fn merged_equals_single_process(g: XmlGraph) {
    let g = Arc::new(g);
    let queries = derive_queries(&g);
    assert!(queries.len() >= 4, "query pool too small: {queries:?}");
    let solo = ShardRuntime::start(
        0,
        &ShardMap::new(1),
        Arc::clone(&g),
        &RuntimeConfig::default(),
    )
    .expect("solo runtime");
    let cluster = ShardCluster::start(Arc::clone(&g), ShardMap::new(3), ClusterConfig::default())
        .expect("cluster");
    let mut router = Router::start(
        cluster.map(),
        &cluster.addrs(),
        RouterConfig::default(),
        "127.0.0.1:0",
    )
    .expect("router");

    let mut c = Client::connect(router.local_addr()).expect("connect");
    for q in &queries {
        let merged = c.call(q, 0).expect("merged call");
        let full = solo.eval_local(q);
        assert_eq!(merged.status, Status::Ok, "{q}");
        assert_eq!(full.status, Status::Ok, "{q}");
        assert_eq!(merged.total_rows, full.total_rows, "{q}: totals differ");
        assert_eq!(merged.rows, full.rows, "{q}: row samples differ");
        let shards: BTreeSet<u16> = merged.gens.iter().map(|e| e.shard).collect();
        assert_eq!(
            shards.len(),
            merged.gens.len(),
            "{q}: duplicate shard in gens"
        );
        assert_eq!(
            shards,
            BTreeSet::from([0, 1, 2]),
            "{q}: gens must cover every shard"
        );
    }
    drop(c);

    let stats = router.drain();
    assert!(stats.balanced(), "router books: {stats}");
    assert_eq!(stats.accepted, queries.len() as u64);
    assert_eq!(stats.shed, 0);
    let cluster_stats = cluster.shutdown();
    assert!(cluster_stats.balanced());
    assert_eq!(
        stats.hop_delivered(),
        cluster_stats.net_total().accepted,
        "clean-run cross-hop rollup must match the shard servers"
    );
    solo.shutdown();
}

#[test]
fn merged_extents_equal_single_process_on_play() {
    merged_equals_single_process(small::play());
}

#[test]
fn merged_extents_equal_single_process_on_flix() {
    merged_equals_single_process(small::flix());
}

#[test]
fn merged_extents_equal_single_process_on_ged() {
    merged_equals_single_process(small::ged());
}
