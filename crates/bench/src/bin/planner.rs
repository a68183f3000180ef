//! Cost-based planner benchmark: the planned join order vs both fixed
//! orders (always-forward, always-backward) over generated QTYPE1/3
//! workloads on the three small dataset families (Play / Flix / Ged).
//!
//! The query mix is the generator's QTYPE1/QTYPE3 sets plus a batch of
//! deterministic *stress chains*: uniformly random label paths that —
//! unlike generator queries, which follow paths present in the data —
//! frequently die at a late join boundary. Those are exactly the
//! queries where the backward (reduce-then-forward) order wins, because
//! the reverse semijoin discovers the collapse before paying for the
//! seed union, so the mix makes the two fixed orders disagree the way
//! real ad-hoc workloads do.
//!
//! For each family the same query set runs three times through the APEX
//! processor — once per join-order policy, each against a fresh buffer
//! pool — and the summed logical cost (`Cost::total()`: pages, pairs,
//! comparisons, probes) is compared. The run *asserts* the planner's
//! guarantee: the planned total never exceeds 1.1× the best fixed order
//! on any family, and is strictly cheaper than both fixed orders on at
//! least one family (per-query choice beats any single fixed order as
//! soon as queries disagree on which order is best).
//!
//! Also writes `BENCH_planner.json` with one row per family.
//!
//! (`cargo run -p apex-bench --release --bin planner`)
#![allow(clippy::print_stdout, clippy::print_stderr)]

use apex::Apex;
use apex_bench::report::{BenchReport, Json};
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::QueryProcessor;
use apex_query::generator::{GeneratorConfig, QuerySets};
use apex_query::{JoinOrderPolicy, Query};
use apex_storage::{BufferHandle, Cost, DataTable, PageModel};
use xmlgraph::paths::EnumLimits;
use xmlgraph::{LabelId, XmlGraph};

const ORDERS: [JoinOrderPolicy; 3] = [
    JoinOrderPolicy::Planned,
    JoinOrderPolicy::ForceForward,
    JoinOrderPolicy::ForceBackward,
];

fn cfg(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        qtype1: 200,
        qtype2: 0,
        qtype3: 60,
        workload_fraction: 0.2,
        seed,
        limits: EnumLimits {
            max_len: 10,
            max_paths: 30_000,
        },
    }
}

/// Deterministic ad-hoc stress chains: random label paths (xorshift64)
/// of length 2..=5 over the family's label alphabet. Unconstrained by
/// the data's actual paths, many collapse mid-join — the shape where
/// the backward order beats the forward one.
fn stress_chains(g: &XmlGraph, seed: u64, n: usize) -> Vec<Query> {
    let nl = g.label_count() as u64;
    let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|_| {
            let len = 2 + (next() % 4) as usize;
            let labels = (0..len).map(|_| LabelId((next() % nl) as u32)).collect();
            Query::PartialPath { labels }
        })
        .collect()
}

/// Sums one policy's cost over the whole query set, fresh pool.
fn run_order(
    g: &XmlGraph,
    apex: &Apex,
    table: &DataTable,
    queries: &[&Query],
    order: JoinOrderPolicy,
) -> Cost {
    let p = ApexProcessor::with_buffer(g, apex, table, BufferHandle::unbounded())
        .with_join_order(order);
    let mut total = Cost::new();
    for q in queries {
        total += p.eval(q).cost;
    }
    total
}

fn main() {
    let mut report = BenchReport::new("planner");
    println!("Planner benchmark: planned join order vs fixed orders\n");
    println!(
        "{:<8} {:>8} {:>14} {:>14} {:>14} {:>10}",
        "family", "queries", "planned", "forward", "backward", "vs best"
    );
    let mut strict_wins = 0usize;
    for (family, g, seed) in [
        ("play", datagen::shakespeare(1, 42), 0xA1u64),
        ("flix", datagen::flixml(30, 42), 0xA2),
        ("ged", datagen::gedml(40, 42), 0xA3),
    ] {
        let table = DataTable::build(&g, PageModel::default());
        let sets = QuerySets::generate(&g, &table, cfg(seed));
        let mut apex = Apex::build_initial(&g);
        apex.refine(&g, &sets.workload, 0.01);
        let chains = stress_chains(&g, seed, 100);
        let queries: Vec<&Query> = sets
            .qtype1
            .iter()
            .chain(sets.qtype3.iter())
            .chain(chains.iter())
            .collect();

        let totals: Vec<u64> = ORDERS
            .iter()
            .map(|&o| run_order(&g, &apex, &table, &queries, o).total())
            .collect();
        let (planned, forward, backward) = (totals[0], totals[1], totals[2]);
        let best_fixed = forward.min(backward);
        let ratio = planned as f64 / best_fixed.max(1) as f64;
        println!(
            "{:<8} {:>8} {:>14} {:>14} {:>14} {:>9.4}x",
            family,
            queries.len(),
            planned,
            forward,
            backward,
            ratio
        );
        assert!(
            planned as u128 * 10 <= best_fixed as u128 * 11,
            "{family}: planned total {planned} exceeds 1.1x the best fixed order ({best_fixed})"
        );
        if planned < best_fixed {
            strict_wins += 1;
        }
        report.push(Json::Obj(vec![
            ("family", Json::str(family)),
            ("queries", Json::U64(queries.len() as u64)),
            ("planned_total", Json::U64(planned)),
            ("forward_total", Json::U64(forward)),
            ("backward_total", Json::U64(backward)),
            ("best_fixed_total", Json::U64(best_fixed)),
        ]));
    }
    assert!(
        strict_wins >= 1,
        "planned order never beat both fixed orders on any family"
    );
    match report.write() {
        Ok(p) => println!("\nwrote {}", p.display()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    println!(
        "planned stayed within 1.1x of the best fixed order everywhere, \
         strictly cheaper on {strict_wins} family(ies)"
    );
}
