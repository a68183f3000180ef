//! Execution-layer equivalence: a generated mixed workload (QTYPE1/2/3)
//! evaluated through the shared physical operators — all four processors
//! charging ONE cross-query buffer pool — must return exactly the naive
//! oracle's nodes, and the cost accounting must stay consistent:
//! per-operator attribution partitions every scalar counter, the shared
//! pool absorbs repeated I/O across processors, and parallel batches
//! over the shared pool reproduce sequential aggregate costs.
//!
//! Every semijoin here runs over the *succinct* extent path (block
//! header search, frame search, frame-window decode) — the kernel-policy
//! sweep below therefore also proves each kernel's succinct
//! implementation equivalent to the naive oracle end to end.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use apex_query::batch::{run_batch, run_batch_parallel, QueryProcessor};
use apex_query::generator::GeneratorConfig;
use apex_query::naive::NaiveProcessor;
use apex_query::Query;
use apex_query::{apex_qp::ApexProcessor, fabric_qp::FabricProcessor, guide_qp::GuideProcessor};
use apex_storage::bufmgr::BufferHandle;
use apex_storage::{Cost, KernelPolicy, OpKind};
use apex_suite::{small, Fixture};
use xmlgraph::paths::EnumLimits;
use xmlgraph::XmlGraph;

fn cfg(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        qtype1: 120,
        qtype2: 40,
        qtype3: 40,
        workload_fraction: 0.2,
        seed,
        limits: EnumLimits {
            max_len: 10,
            max_paths: 30_000,
        },
    }
}

/// Every per-operator scalar column must sum to the query-total scalar:
/// the breakdown is a partition, not an estimate.
fn assert_partition(cost: &Cost, who: &str) {
    for (i, total) in cost.scalars().iter().enumerate() {
        let attributed: u64 = OpKind::ALL
            .iter()
            .map(|&k| cost.ops.get(k).scalars[i])
            .sum();
        assert_eq!(
            attributed, *total,
            "{who}: scalar #{i} not fully attributed"
        );
    }
}

fn check_dataset(g: XmlGraph, seed: u64) {
    let fx = Fixture::build(g, cfg(seed));
    let naive = NaiveProcessor::new(&fx.g, &fx.table);
    let apex = fx.apex_at(0.01);

    // ONE pool shared by every processor under test: extents live in
    // disjoint address spaces, so sharing must never corrupt results.
    let pool = BufferHandle::unbounded();
    let processors: Vec<Box<dyn QueryProcessor + '_>> = vec![
        Box::new(ApexProcessor::with_buffer(
            &fx.g,
            &fx.apex0,
            &fx.table,
            pool.clone(),
        )),
        Box::new(ApexProcessor::with_buffer(
            &fx.g,
            &apex,
            &fx.table,
            pool.clone(),
        )),
        Box::new(GuideProcessor::with_buffer(
            &fx.g,
            &fx.sdg,
            &fx.table,
            pool.clone(),
        )),
        Box::new(GuideProcessor::with_buffer(
            &fx.g,
            &fx.oneindex,
            &fx.table,
            pool.clone(),
        )),
        Box::new(FabricProcessor::with_buffer(
            &fx.g,
            &fx.fabric,
            pool.clone(),
        )),
    ];

    let mixed: Vec<&Query> = fx
        .queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype2.iter())
        .chain(fx.queries.qtype3.iter())
        .collect();

    let mut summed = Cost::new();
    for (qi, q) in mixed.iter().enumerate() {
        let expect = naive.eval(q).nodes;
        for p in &processors {
            // The fabric only serves QTYPE3 (and, being bounded on
            // reference-dense graphs, is correctness-checked separately
            // in `equivalence.rs`); here it participates to exercise
            // pool sharing.
            if p.name() == "Fabric" {
                if matches!(q, Query::ValuePath { .. }) {
                    let _ = p.eval(q);
                }
                continue;
            }
            let out = p.eval(q);
            assert_eq!(
                out.nodes,
                expect,
                "query #{qi} {} differs on {}",
                q.render(&fx.g),
                p.name()
            );
            assert_partition(&out.cost, p.name());
            summed += out.cost;
        }
    }
    assert_partition(&summed, "summed");

    // The pool outlived every query and processor: repeats hit it.
    let s = pool.stats();
    assert!(
        s.hits > 0,
        "shared pool saw no hits over {} queries",
        mixed.len()
    );
    assert!(s.misses > 0);
    assert_eq!(s.evictions, 0, "unbounded pool must not evict");
    // Every processor exposes the same shared pool.
    for p in &processors {
        assert_eq!(p.buffer().expect("exec-layer processor").stats(), s);
    }
}

#[test]
fn mixed_workload_on_play() {
    check_dataset(small::play(), 0xE1);
}

#[test]
fn mixed_workload_on_flix() {
    check_dataset(small::flix(), 0xE2);
}

#[test]
fn mixed_workload_on_ged() {
    check_dataset(small::ged(), 0xE3);
}

/// The kernel policy must never change results: the same mixed workload
/// through APEX under every fixed kernel and the adaptive default
/// returns the naive oracle's nodes, with attribution still a partition
/// — and identical logical join output across policies. The join order
/// is pinned to forward so only the kernel varies: under the planned
/// default a forced kernel policy shifts the planner's cost estimates
/// and can legitimately flip the join order (order equivalence is
/// `every_join_order_is_equivalent`'s concern).
#[test]
fn every_kernel_policy_is_equivalent() {
    let fx = Fixture::build(small::flix(), cfg(0xE5));
    let naive = NaiveProcessor::new(&fx.g, &fx.table);
    let apex = fx.apex_at(0.01);
    let mixed: Vec<&Query> = fx
        .queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype2.iter())
        .chain(fx.queries.qtype3.iter())
        .collect();
    let expect: Vec<Vec<xmlgraph::NodeId>> = mixed.iter().map(|q| naive.eval(q).nodes).collect();
    let mut join_output: Option<u64> = None;
    for policy in KernelPolicy::ALL {
        let p = ApexProcessor::new(&fx.g, &apex, &fx.table)
            .with_kernel_policy(policy)
            .with_join_order(apex_query::JoinOrderPolicy::ForceForward);
        let mut total = Cost::new();
        for (qi, q) in mixed.iter().enumerate() {
            let out = p.eval(q);
            assert_eq!(
                out.nodes,
                expect[qi],
                "policy {} differs on {}",
                policy.name(),
                q.render(&fx.g)
            );
            assert_partition(&out.cost, policy.name());
            total += out.cost;
        }
        // Whatever kernel runs, the same pairs flow.
        match join_output {
            None => join_output = Some(total.join_output),
            Some(j) => assert_eq!(total.join_output, j, "policy {}", policy.name()),
        }
    }
}

/// The cost-based planner's join order must never change results: the
/// same mixed workload through APEX under the planned default and both
/// forced orders returns the naive oracle's nodes, attribution stays a
/// partition, and every evaluated query carries a plan report whose
/// per-operator actuals are bounded by (and, for pure path queries,
/// exactly partition) the query's total cost.
#[test]
fn every_join_order_is_equivalent() {
    use apex_query::JoinOrderPolicy;
    let fx = Fixture::build(small::ged(), cfg(0xE6));
    let naive = NaiveProcessor::new(&fx.g, &fx.table);
    let apex = fx.apex_at(0.01);
    let mixed: Vec<&Query> = fx
        .queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype2.iter())
        .chain(fx.queries.qtype3.iter())
        .collect();
    let expect: Vec<Vec<xmlgraph::NodeId>> = mixed.iter().map(|q| naive.eval(q).nodes).collect();
    for order in [
        JoinOrderPolicy::Planned,
        JoinOrderPolicy::ForceForward,
        JoinOrderPolicy::ForceBackward,
    ] {
        let p = ApexProcessor::new(&fx.g, &apex, &fx.table).with_join_order(order);
        for (qi, q) in mixed.iter().enumerate() {
            let out = p.eval(q);
            assert_eq!(
                out.nodes,
                expect[qi],
                "order {} differs on {}",
                order.name(),
                q.render(&fx.g)
            );
            assert_partition(&out.cost, order.name());
            let rep = out.plan.expect("apex reports a plan for every query");
            let actual: u64 = rep
                .forecasts
                .iter()
                .map(|f| f.actual_work + f.actual_pages)
                .sum();
            assert!(
                actual <= out.cost.total(),
                "plan actuals exceed the query cost on {}",
                q.render(&fx.g)
            );
            if matches!(q, Query::PartialPath { .. }) {
                assert_eq!(
                    actual,
                    out.cost.total(),
                    "order {}: plan actuals must partition the cost of {}",
                    order.name(),
                    q.render(&fx.g)
                );
            }
        }
    }
}

/// `run_batch_parallel` over one shared pool: with an unbounded pool
/// every distinct page misses exactly once regardless of thread
/// schedule, so aggregate scalars, logical per-operator counters, and
/// pool deltas must equal a sequential run over an identically fresh
/// pool. Only the per-operator *page* split may differ — which
/// operator first touches a shared page is schedule-dependent.
#[test]
fn parallel_batch_shares_pool_without_races() {
    let fx = Fixture::build(small::flix(), cfg(0xE4));
    let queries: Vec<Query> = fx
        .queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype2.iter())
        .chain(fx.queries.qtype3.iter())
        .cloned()
        .collect();
    let apex = fx.apex_at(0.01);

    let seq = run_batch(&ApexProcessor::new(&fx.g, &apex, &fx.table), &queries);
    let par = run_batch_parallel(&ApexProcessor::new(&fx.g, &apex, &fx.table), &queries, 4);
    assert_eq!(seq.queries, par.queries);
    assert_eq!(seq.result_nodes, par.result_nodes);
    assert_eq!(seq.empty_results, par.empty_results);
    assert_eq!(seq.cost.scalars(), par.cost.scalars(), "aggregate scalars");
    const PAGES: usize = 5; // pages_read: attribution is schedule-dependent
    for &k in OpKind::ALL.iter() {
        let (s, p) = (seq.cost.ops.get(k), par.cost.ops.get(k));
        assert_eq!(s.invocations, p.invocations, "{} invocations", k.name());
        for i in (0..s.scalars.len()).filter(|&i| i != PAGES) {
            assert_eq!(s.scalars[i], p.scalars[i], "{} scalar #{i}", k.name());
        }
    }
    let (sb, pb) = (seq.buf.expect("pool delta"), par.buf.expect("pool delta"));
    assert_eq!(sb.misses, pb.misses);
    assert_eq!(sb.hits, pb.hits);
    assert!(pb.hits > 0);
}

/// The same index with no label node column built: its parts,
/// reassembled.
fn cold_copy(apex: &apex::Apex) -> apex::Apex {
    apex::Apex::from_parts(apex.graph().clone(), apex.hash_tree().clone(), apex.xroot())
}

fn path_queries(fx: &Fixture) -> Vec<&Query> {
    fx.queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype3.iter())
        .collect()
}

/// A whole-label seed answers the same with its label's node column
/// cold or warm, at the same cost: the first run unions the classes
/// and builds the column, the second decodes it, and both return the
/// same nodes, an equal `Cost` (every scalar, every per-operator row)
/// and the same plan report.
#[test]
fn a_label_column_changes_no_answer_cost_or_plan() {
    for (g, seed) in [
        (small::play(), 0xC1),
        (small::flix(), 0xC2),
        (small::ged(), 0xC3),
    ] {
        let fx = Fixture::build(g, cfg(seed));
        let apex = cold_copy(&fx.apex_at(0.01));
        let mut read_columns = 0;
        for q in path_queries(&fx) {
            let run = || {
                ApexProcessor::with_buffer(&fx.g, &apex, &fx.table, BufferHandle::unbounded())
                    .eval(q)
            };
            let labels = q.labels().expect("path query");
            let plan = apex_query::Planner::new(&apex, None, KernelPolicy::Adaptive, 0)
                .plan_path(labels, apex_query::JoinOrderPolicy::Planned);
            let was_built = plan
                .seed_label
                .and_then(|l| apex.label_column(l))
                .is_some_and(|slot| slot.get().is_some());
            let (first, second) = (run(), run());
            let built = plan
                .seed_label
                .and_then(|l| apex.label_column(l))
                .is_some_and(|slot| slot.get().is_some());
            assert_eq!(built, plan.seed_label.is_some(), "{}", q.render(&fx.g));
            read_columns += usize::from(built && !was_built);
            assert_eq!(first.nodes, second.nodes, "{}", q.render(&fx.g));
            assert_eq!(first.cost, second.cost, "{}", q.render(&fx.g));
            let (a, b) = (first.plan.expect("a plan"), second.plan.expect("a plan"));
            assert_eq!(
                (a.digest, &a.order, format!("{:?}", a.forecasts)),
                (b.digest, &b.order, format!("{:?}", b.forecasts)),
                "{}",
                q.render(&fx.g)
            );
        }
        assert!(read_columns > 0, "{seed:#x}: no query built a label column");
        assert!(apex.stats().column_resident_bytes > 0);
        apex::validate::assert_valid(&fx.g, &apex);
    }
}

/// Answers equal the naive oracle's under every kernel policy and join
/// order in each state of the label node columns: cold (each
/// combination on a fresh index), warm, carried across a refine chain,
/// and absent after a persist round trip.
#[test]
fn answers_hold_with_label_columns_cold_warm_carried_and_dropped() {
    use apex_query::JoinOrderPolicy;
    for (g, seed) in [
        (small::play(), 0xC4),
        (small::flix(), 0xC5),
        (small::ged(), 0xC6),
    ] {
        let fx = Fixture::build(g, cfg(seed));
        let naive = NaiveProcessor::new(&fx.g, &fx.table);
        let queries = path_queries(&fx);
        let expect: Vec<_> = queries.iter().map(|q| naive.eval(q).nodes).collect();
        let refined = fx.apex_at(0.01);
        // `cold`: every combination on a fresh copy of `apex`.
        let check = |apex: &apex::Apex, state: &str, cold: bool| {
            for policy in KernelPolicy::ALL {
                for order in [
                    JoinOrderPolicy::Planned,
                    JoinOrderPolicy::ForceForward,
                    JoinOrderPolicy::ForceBackward,
                ] {
                    let fresh = cold.then(|| cold_copy(apex));
                    let apex = fresh.as_ref().unwrap_or(apex);
                    let p = ApexProcessor::new(&fx.g, apex, &fx.table)
                        .with_kernel_policy(policy)
                        .with_join_order(order);
                    for (q, want) in queries.iter().zip(&expect) {
                        assert_eq!(
                            &p.eval(q).nodes,
                            want,
                            "{state}, {} / {}: {}",
                            policy.name(),
                            order.name(),
                            q.render(&fx.g)
                        );
                    }
                }
            }
        };
        let warm = cold_copy(&refined);
        check(&warm, "cold", true);
        check(&warm, "warming", false);
        let bytes = warm.stats().column_resident_bytes;
        assert!(bytes > 0, "{seed:#x}: no label column built");
        check(&warm, "warm", false);
        // A refine chain keeps the columns: the data did not change.
        let mut carried = warm.clone();
        for (min_sup, wl_seed) in [(0.05, 0xD1), (0.002, 0xD2)] {
            let drift = apex_query::generator::QuerySets::generate(&fx.g, &fx.table, cfg(wl_seed));
            carried.refine(&fx.g, &drift.workload, min_sup);
            assert!(carried.stats().column_resident_bytes >= bytes);
            apex::validate::assert_valid(&fx.g, &carried);
            check(&carried, "carried", false);
        }
        // A persist round trip writes no column.
        let mut image = Vec::new();
        apex::persist::save(&carried, &mut image).expect("save");
        let loaded = apex::persist::load(&mut image.as_slice()).expect("load");
        assert_eq!(loaded.stats().column_resident_bytes, 0);
        apex::extent_equivalent(&fx.g, &carried, &loaded).expect("columns are not structure");
        let mut again = Vec::new();
        apex::persist::save(&loaded, &mut again).expect("save");
        assert_eq!(image, again, "columns are not part of the image");
        check(&loaded, "loaded", false);
    }
}
