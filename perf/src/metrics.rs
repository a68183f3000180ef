//! The names the benchmark defines. `BENCHMARK.json` lists the same
//! names, units and directions (a unit test holds the two together);
//! the `moves` column is the prediction written down before measuring:
//! which end-to-end metric, on which workload, a change to this layer's
//! number should move.

/// An end-to-end metric: `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 9] = [
    ("setup_s", "s", "lower"),
    ("throughput_qps", "1/s", "higher"),
    ("query_p50_us", "us", "lower"),
    ("adapt_p50_ms", "ms", "lower"),
    ("checkpoint_p50_ms", "ms", "lower"),
    ("recover_p50_ms", "ms", "lower"),
    ("durable_bytes_per_query", "B", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("index_rss_bytes_per_edge", "B", "lower"),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const SETUP: &str = "setup_s @ all";
const POINT: &str = "query_p50_us, throughput_qps @ net-point";
const SOLO: &str = "throughput_qps @ solo-mixed";
const NET: &str = "query_p50_us @ net-point";
const ADAPT: &str = "adapt_p50_ms @ net-drift (fixed part @ solo-mixed)";
const CKPT: &str = "checkpoint_p50_ms, durable_bytes_per_query @ net-drift";
const RECOVER: &str = "recover_p50_ms @ net-drift";
const ROUTED: &str = "query_p50_us, throughput_qps, durable_bytes_per_query @ routed-point";
const MEMORY: &str = "index_rss_bytes_per_edge, peak_rss_mib @ all";

/// Every per-layer metric, in report order. A layer that is not on a
/// workload's path reports 0 there.
pub const PER_LAYER: &[Layer] = &[
    // Set-up stages.
    layer("datagen.generate_ms", "ms", "lower", SETUP),
    layer("storage.datatable.build_ms", "ms", "lower", SETUP),
    layer("core.build_initial_ms", "ms", "lower", SETUP),
    layer("query.generator.generate_ms", "ms", "lower", SETUP),
    layer("shard.map.owned_nodes_ms", "ms", "lower", SETUP),
    // The request path, step by step as `Engine::execute` takes it.
    layer("core.serve.snapshot_ns", "ns", "lower", POINT),
    layer("query.ast.parse_us", "us", "lower", POINT),
    layer("query.plan.plan_us", "us", "lower", POINT),
    layer("query.apex_qp.build_us", "us", "lower", POINT),
    layer("core.monitor.record_us", "us", "lower", POINT),
    layer("core.monitor.refresh_due_us.manual", "us", "lower", POINT),
    layer("core.monitor.refresh_due_us.every_n", "us", "lower", POINT),
    layer("core.monitor.refresh_due_us.on_drift", "us", "lower", POINT),
    layer("core.index.lookup_ns", "ns", "lower", POINT),
    // Execution: wall per class, then the logical counters beside it.
    layer("query.eval_us.q1", "us", "lower", SOLO),
    layer("query.eval_us.q2", "us", "lower", SOLO),
    layer("query.eval_us.q3", "us", "lower", SOLO),
    layer("query.exec.work.ExtentScan", "%", "lower", SOLO),
    layer("query.exec.work.ExtentUnion", "%", "lower", SOLO),
    layer("query.exec.work.SemijoinMerge", "%", "lower", SOLO),
    layer("query.exec.work.SemijoinGallop", "%", "lower", SOLO),
    layer("query.exec.work.SemijoinSkip", "%", "lower", SOLO),
    layer("query.exec.work.SemijoinReverse", "%", "lower", SOLO),
    layer("query.exec.work.MultiwayJoin", "%", "lower", SOLO),
    layer("query.exec.work.DataProbe", "%", "lower", SOLO),
    layer("query.exec.work.IndexNav", "%", "lower", SOLO),
    layer("query.cost.extent_pairs_per_q", "count", "lower", SOLO),
    layer("query.cost.join_work_per_q", "count", "lower", SOLO),
    layer("query.cost.join_output_per_q", "count", "lower", SOLO),
    layer("query.cost.hash_lookups_per_q", "count", "lower", SOLO),
    layer("query.cost.table_probes_per_q", "count", "lower", SOLO),
    layer("query.plan.mispredict_ratio", "ratio", "lower", SOLO),
    layer("storage.bufmgr.hit_rate", "ratio", "higher", SOLO),
    layer("storage.bufmgr.pages_read_per_q", "count", "lower", SOLO),
    layer(
        "storage.bufmgr.post_swap_pages_per_q",
        "count",
        "lower",
        "throughput_qps @ net-drift",
    ),
    // The wire and the server around the engine.
    layer("net.wire.encode_request_ns", "ns", "lower", NET),
    layer("net.wire.decode_request_ns", "ns", "lower", NET),
    layer("net.wire.encode_response_ns", "ns", "lower", NET),
    layer("net.wire.decode_response_ns", "ns", "lower", NET),
    layer("net.rtt_floor_us", "us", "lower", NET),
    layer("net.engine.execute_us", "us", "lower", NET),
    layer("net.server.overhead_us", "us", "lower", NET),
    layer("net.server.queue_hwm", "count", "lower", NET),
    layer("client.p99_us", "us", "lower", NET),
    layer("client.p999_us", "us", "lower", NET),
    // One refresh cycle, split.
    layer("core.monitor.drain_us", "us", "lower", ADAPT),
    layer("core.serve.clone_ms", "ms", "lower", ADAPT),
    layer("core.refine_ms", "ms", "lower", ADAPT),
    layer("core.refine.steps", "count", "lower", ADAPT),
    layer("core.serve.publish_ms", "ms", "lower", ADAPT),
    // One checkpoint, split; and the log under the request path.
    layer("core.wal.begin_checkpoint_ms", "ms", "lower", CKPT),
    layer("core.recover.encode_snapshot_ms", "ms", "lower", CKPT),
    layer("core.wal.commit_checkpoint_ms", "ms", "lower", CKPT),
    layer("core.recover.snapshot_bytes", "B", "lower", CKPT),
    layer("core.persist.save_ms", "ms", "lower", CKPT),
    layer(
        "core.wal.append_us",
        "us",
        "lower",
        "throughput_qps @ net-point",
    ),
    layer(
        "core.wal.bytes_per_q",
        "B",
        "lower",
        "durable_bytes_per_query @ net-point",
    ),
    layer(
        "core.wal.fsyncs_per_kq",
        "count",
        "lower",
        "throughput_qps @ net-point",
    ),
    // One recovery, split.
    layer("core.recover.load_snapshot_ms", "ms", "lower", RECOVER),
    layer("core.recover.replay_ms", "ms", "lower", RECOVER),
    layer("core.recover.applied", "count", "lower", RECOVER),
    layer("core.recover.applied_swaps", "count", "lower", RECOVER),
    layer("core.persist.load_ms", "ms", "lower", RECOVER),
    // The router hop.
    layer("shard.router.call_us", "us", "lower", ROUTED),
    layer("shard.replica.call_us", "us", "lower", ROUTED),
    layer("shard.router.overhead_us", "us", "lower", ROUTED),
    layer("shard.router.fanout_per_q", "count", "lower", ROUTED),
    layer("shard.router.stale_retry_per_kq", "count", "lower", ROUTED),
    layer("shard.exec_amplification", "ratio", "lower", ROUTED),
    layer("shard.merge_us", "us", "lower", ROUTED),
    // What the index says it holds, to set against measured RSS.
    layer(
        "core.index.reported_resident_bytes_per_edge",
        "B",
        "lower",
        MEMORY,
    ),
    layer("core.index.xnodes", "count", "lower", MEMORY),
    layer("core.index.required_paths", "count", "lower", MEMORY),
    // What the spans themselves cost.
    layer(
        "trace.overhead_pct",
        "%",
        "lower",
        "none: the price of --trace 1",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls every `"key": "value"` string pair of one object list out
    /// of BENCHMARK.json without a JSON parser: the file is ours and
    /// flat, and the repository has no serde.
    fn entries(doc: &str, list: &str) -> Vec<(String, String, String)> {
        let start = doc.find(&format!("\"{list}\"")).expect("list present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |key: &str| {
                    let at = obj.find(&format!("\"{key}\"")).expect("key present");
                    let rest = &obj[at + key.len() + 2..];
                    let open = rest.find('"').expect("value opens");
                    let rest = &rest[open + 1..];
                    rest[..rest.find('"').expect("value closes")].to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let own = |n: &str, u: &str, b: &str| (n.to_string(), u.to_string(), b.to_string());
        let e2e: Vec<_> = END_TO_END.iter().map(|&(n, u, b)| own(n, u, b)).collect();
        assert_eq!(entries(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|l| own(l.name, l.unit, l.better))
            .collect();
        assert_eq!(entries(&doc, "per_layer"), layers);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            (1..=16).contains(&s.len())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END
            .iter()
            .map(|&(n, u, _)| (n, u))
            .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)));
        for (name, unit) in all {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
