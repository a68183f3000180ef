//! Update-equivalence suite (satellite of the serving layer): random
//! query-insert sequences over the three datagen families, applied
//! incrementally to a *live* index (periodic `refine` = extraction +
//! `updateAPEX` on the current structure), must converge to an index
//! extent-equivalent to a from-scratch build over the final recorded
//! state.
//!
//! This is the fixpoint property the paper's §5.3 incremental update
//! claims — and the property the concurrent serving layer leans on:
//! a refresher that repeatedly refines a private copy of the *current*
//! snapshot must land on the same index a cold rebuild would, or
//! generations would drift apart over a long-running service.
//!
//! Two generators drive it. Random *inserts* with a sliding hot region
//! change the window a little per refresh. Skewed *drift* replaces the
//! whole window per refresh with one in which 20 pool paths get 80 % of
//! 1000 queries — promote-then-demote of overlapping suffixes, the case
//! that lost extent rows on GedML before `updateAPEX` verified a class
//! node ahead of its first delta pass — and is checked after **every**
//! transition, not only at the end.

use apex::{extent_equivalent, Apex, RefreshPolicy, Workload, WorkloadMonitor};
use apex_query::generator::{GeneratorConfig, QuerySets};
use apex_query::Query;
use apex_storage::{DataTable, PageModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xmlgraph::{LabelPath, NodeId, XmlGraph};

/// Random label paths that exist in `g` (random walks from random
/// nodes), so the recorded workload actually exercises extents.
fn random_walk_paths(
    g: &XmlGraph,
    rng: &mut SmallRng,
    count: usize,
    max_len: usize,
) -> Vec<LabelPath> {
    let mut out = Vec::with_capacity(count);
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 20 {
        attempts += 1;
        let mut cur = NodeId(rng.gen_range(0..g.node_count() as u32));
        let mut labels = Vec::new();
        let len = rng.gen_range(1..=max_len);
        for _ in 0..len {
            let edges = g.out_edges(cur);
            if edges.is_empty() {
                break;
            }
            let e = &edges[rng.gen_range(0..edges.len())];
            labels.push(e.label);
            cur = e.to;
        }
        if !labels.is_empty() {
            out.push(LabelPath::new(labels));
        }
    }
    assert!(!out.is_empty(), "walk generation produced no paths");
    out
}

/// Drives a random insert sequence with periodic live refreshes on one
/// index, then certifies extent-equivalence against a from-scratch
/// `build_initial` + single `refine` over the final window.
fn check_family(g: &XmlGraph, seed: u64, inserts: usize, refresh_every: usize, min_sup: f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    // A pool of hot candidate paths; the insert sequence samples from it
    // with drifting weights, so paths become and stop being frequent
    // across refreshes (exercising both growth and pruning in
    // updateAPEX).
    let pool = random_walk_paths(g, &mut rng, 12, 3);

    let mut live = Apex::build_initial(g);
    let mut monitor = WorkloadMonitor::new(refresh_every, min_sup, RefreshPolicy::Manual);
    let mut refreshes = 0usize;
    for i in 0..inserts {
        // Drift: the hot region of the pool slides with i.
        let hot = (i * pool.len()) / inserts.max(1);
        let pick = if rng.gen_range(0..100) < 70 {
            hot % pool.len()
        } else {
            rng.gen_range(0..pool.len())
        };
        monitor.record(pool[pick].clone());
        if (i + 1) % refresh_every == 0 {
            monitor.refresh(g, &mut live);
            refreshes += 1;
        }
    }
    // Final refresh so the live index reflects exactly the final window.
    monitor.refresh(g, &mut live);
    refreshes += 1;
    assert!(refreshes >= 3, "sequence must exercise multiple refreshes");

    // From-scratch build over the final state: APEX⁰ + one refine with
    // the final window at the same threshold.
    let mut scratch = Apex::build_initial(g);
    scratch.refine(g, &monitor.workload(), monitor.min_sup());

    if let Err(why) = extent_equivalent(g, &live, &scratch) {
        panic!("live index diverged from from-scratch build (seed {seed}): {why}");
    }
    // Both must also pass the structural validator.
    let v = apex::validate::check(g, &live);
    assert!(v.is_empty(), "live index invalid: {v:#?}");
}

#[test]
fn shakespeare_insert_sequences_converge() {
    let g = apex_suite::small::play();
    for seed in [1u64, 2, 3] {
        check_family(&g, 0x5AE5_0000 + seed, 120, 30, 0.1);
    }
}

#[test]
fn flixml_insert_sequences_converge() {
    let g = apex_suite::small::flix();
    for seed in [1u64, 2, 3] {
        check_family(&g, 0xF11C_0000 + seed, 120, 30, 0.1);
    }
}

#[test]
fn gedml_insert_sequences_converge() {
    let g = apex_suite::small::ged();
    for seed in [1u64, 2, 3] {
        check_family(&g, 0x6ED0_0000 + seed, 120, 30, 0.08);
    }
}

#[test]
fn window_capacity_bounds_the_final_state() {
    // The window (not the full history) defines the final state: a
    // sequence twice the window long must equal a scratch build over
    // just the surviving window.
    let g = apex_suite::small::flix();
    let mut rng = SmallRng::seed_from_u64(0xCAFE);
    let pool = random_walk_paths(&g, &mut rng, 8, 3);
    let mut live = Apex::build_initial(&g);
    let mut monitor = WorkloadMonitor::new(40, 0.1, RefreshPolicy::Manual);
    for i in 0..80 {
        monitor.record(pool[i % pool.len()].clone());
        if (i + 1) % 20 == 0 {
            monitor.refresh(&g, &mut live);
        }
    }
    monitor.refresh(&g, &mut live);
    let mut scratch = Apex::build_initial(&g);
    scratch.refine(&g, &monitor.workload(), monitor.min_sup());
    extent_equivalent(&g, &live, &scratch).expect("windowed state must converge");
}

/// The generated QTYPE1 label paths of `g`, repeats kept: short paths
/// come up more often, as they do in the traffic the serving benchmark
/// draws from the same generator.
fn qtype1_pool(g: &XmlGraph) -> Vec<LabelPath> {
    let table = DataTable::build(g, PageModel::default());
    let sets = QuerySets::generate(g, &table, GeneratorConfig::default());
    let paths = sets.qtype1.iter().filter_map(|q| match q {
        Query::PartialPath { labels } => Some(LabelPath::new(labels.clone())),
        _ => None,
    });
    paths.collect()
}

/// Skewed drift: every transition refines the live index over a fresh
/// 1000-query window in which 20 random paths of `pool` get 80 % of the
/// queries and the whole pool the rest. After every transition the live
/// index must pass the validator (arena laws included) and be
/// extent-equivalent to `APEX⁰` refined once over the same window.
fn check_skewed_drift(g: &XmlGraph, pool: &[LabelPath], transitions: usize, seed: u64) {
    assert!(pool.len() > 20, "pool too small to have a hot set");
    let mut rng = SmallRng::seed_from_u64(seed);
    let apex0 = Apex::build_initial(g);
    let mut live = apex0.clone();
    for t in 0..transitions {
        let hot: Vec<&LabelPath> = (0..20)
            .map(|_| &pool[rng.gen_range(0..pool.len())])
            .collect();
        let window = Workload::from_paths(
            (0..1000)
                .map(|_| {
                    if rng.gen_range(0..100) < 80 {
                        hot[rng.gen_range(0..hot.len())].clone()
                    } else {
                        pool[rng.gen_range(0..pool.len())].clone()
                    }
                })
                .collect(),
        );
        live.refine(g, &window, 0.005);
        let v = apex::validate::check(g, &live);
        assert!(
            v.is_empty(),
            "transition {t} (seed {seed:#x}): live index invalid: {v:#?}"
        );
        let mut scratch = apex0.clone();
        scratch.refine(g, &window, 0.005);
        if let Err(why) = extent_equivalent(g, &live, &scratch) {
            panic!("transition {t} (seed {seed:#x}): live index diverged: {why}");
        }
    }
}

#[test]
fn shakespeare_skewed_drift_converges_at_every_transition() {
    let g = apex_suite::small::play();
    check_skewed_drift(&g, &qtype1_pool(&g), 12, 0x5AE5_D21F);
}

#[test]
fn flixml_skewed_drift_converges_at_every_transition() {
    let g = apex_suite::small::flix();
    check_skewed_drift(&g, &qtype1_pool(&g), 12, 0xF11C_D21F);
}

/// The `perf/README.md` recipe (Ged01, paths of ≤ 2 / ≤ 3 / any number
/// of labels). Before the verify-before-delta rule each of these seeds
/// lost rows (`gedcom.indi` 571 vs 594 pairs, `gedcom.sour` 92 vs 100,
/// `gedcom.subm` 27 vs 30) by its third transition.
#[test]
fn gedml_skewed_drift_converges_at_every_transition() {
    let g = datagen::Dataset::Ged01.generate();
    let pool = qtype1_pool(&g);
    let up_to = |len: usize| -> Vec<LabelPath> {
        let short = pool.iter().filter(|p| p.len() <= len);
        short.cloned().collect()
    };
    check_skewed_drift(&g, &up_to(2), 12, 0x6ED0_D221);
    check_skewed_drift(&g, &up_to(3), 12, 0x6ED0_D202);
    check_skewed_drift(&g, &pool, 12, 0x6ED0_D3A3);
}
