//! Batch execution: the unit Figures 13–15 report (total execution time
//! of a query set over one index), and [`recordable_path`], the label
//! path a served query contributes to the workload monitor. Serving a
//! live query — snapshot, evaluate, record, nudge the refresher — is
//! `apex_net::Engine::execute`, the one place that step exists.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::time::{Duration, Instant};

use apex_storage::bufmgr::{BufferHandle, BufferStats};
use apex_storage::Cost;
use xmlgraph::{LabelPath, NodeId};

use crate::ast::Query;

/// Result of one query: result nodes (sorted by document order, as the
/// paper post-processes) plus the logical cost incurred.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    /// Result nodes in document order, deduplicated.
    pub nodes: Vec<NodeId>,
    /// Logical cost counters for this query.
    pub cost: Cost,
    /// True when execution stopped early at a deadline checkpoint (the
    /// nodes collected so far are a correct partial answer; the serving
    /// layer reports such queries as `DeadlineExceeded`, never as
    /// complete results).
    pub interrupted: bool,
    /// Predicted-vs-actual plan report, when the query ran through the
    /// cost-based planner (`None` for the naive oracle).
    pub plan: Option<crate::plan::PlanReport>,
}

/// A query processor over one index structure.
pub trait QueryProcessor {
    /// Short name for tables ("APEX", "SDG", "1-index", "Fabric", "naive").
    fn name(&self) -> &'static str;
    /// Evaluates one query.
    fn eval(&self, q: &Query) -> QueryOutput;
    /// The cross-query buffer pool this processor charges against, if it
    /// evaluates through the shared execution layer.
    fn buffer(&self) -> Option<&BufferHandle> {
        None
    }
}

/// Aggregates over a batch of queries.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// Number of queries evaluated.
    pub queries: usize,
    /// Total result nodes across all queries.
    pub result_nodes: usize,
    /// Queries with empty results.
    pub empty_results: usize,
    /// Accumulated logical cost.
    pub cost: Cost,
    /// Accumulated wall-clock time.
    pub wall: Duration,
    /// Buffer-pool activity during the batch (hits/misses/evictions),
    /// when the processor exposes its pool.
    pub buf: Option<BufferStats>,
}

impl BatchStats {
    /// One row of a figure: `pages`, `total logical`, `wall ms`, and the
    /// pool's hit rate when available.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} queries, {} result nodes ({} empty) | pages={} logical={} wall={:.1}ms",
            self.queries,
            self.result_nodes,
            self.empty_results,
            self.cost.pages_read,
            self.cost.total(),
            crate::stats::millis(self.wall),
        );
        if let Some(b) = &self.buf {
            s.push_str(&format!(" | {b}"));
        }
        s
    }
}

/// Runs `queries` through `p`, accumulating cost, wall time, and the
/// processor's buffer-pool delta.
pub fn run_batch(p: &dyn QueryProcessor, queries: &[Query]) -> BatchStats {
    run_batch_iter(p, queries.iter())
}

/// [`run_batch`] over any query sequence — shared by the sequential
/// entry point and the striped parallel workers.
fn run_batch_iter<'q>(
    p: &dyn QueryProcessor,
    queries: impl Iterator<Item = &'q Query>,
) -> BatchStats {
    let before = p.buffer().map(|b| b.stats());
    let mut stats = BatchStats::default();
    let start = Instant::now();
    for q in queries {
        let out = p.eval(q);
        stats.queries += 1;
        stats.result_nodes += out.nodes.len();
        if out.nodes.is_empty() {
            stats.empty_results += 1;
        }
        stats.cost += out.cost;
    }
    stats.wall = start.elapsed();
    stats.buf = match (p.buffer(), before) {
        (Some(b), Some(s0)) => Some(b.stats() - s0),
        _ => None,
    };
    stats
}

/// Runs `queries` across `threads` worker threads sharing the processor
/// immutably (processors hold only shared references to the index and
/// data; the buffer pool behind [`QueryProcessor::buffer`] is shared by
/// all workers through its internal lock). Logical costs are summed;
/// wall time is the batch's span, so speed-up shows directly against
/// [`run_batch`]; the buffer delta covers the whole batch.
pub fn run_batch_parallel(
    p: &(dyn QueryProcessor + Sync),
    queries: &[Query],
    threads: usize,
) -> BatchStats {
    let threads = threads.max(1).min(queries.len().max(1));
    let before = p.buffer().map(|b| b.stats());
    let start = Instant::now();
    // Striped (round-robin) assignment: worker t takes queries t, t+T,
    // t+2T, … Contiguous `chunks()` handed the whole remainder to the
    // last worker (with 100 queries on 8 threads, chunk = ⌈100/8⌉ = 13,
    // so worker 7 got 9 while the rest got 13 — and with pathological
    // ratios a worker could idle entirely). Stripes differ in size by at
    // most one query, and interleave hot/cold queries across workers.
    let partials: Vec<BatchStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || run_batch_iter(p, queries.iter().skip(t).step_by(threads)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut stats = BatchStats::default();
    for part in partials {
        stats.queries += part.queries;
        stats.result_nodes += part.result_nodes;
        stats.empty_results += part.empty_results;
        stats.cost += part.cost;
    }
    stats.wall = start.elapsed();
    // Per-worker deltas overlap on the shared pool; the batch-level
    // delta is the authoritative account.
    stats.buf = match (p.buffer(), before) {
        (Some(b), Some(s0)) => Some(b.stats() - s0),
        _ => None,
    };
    stats
}

/// The label path a served query records for `q`, if it is a
/// path-shaped query the monitor's support counting understands
/// (ancestor-descendant queries are not label paths and are served
/// without being recorded).
pub fn recordable_path(q: &Query) -> Option<LabelPath> {
    match q {
        Query::PartialPath { labels } | Query::ValuePath { labels, .. } => {
            Some(LabelPath::new(labels.clone()))
        }
        Query::AncestorDescendant { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveProcessor;
    use apex_storage::{DataTable, PageModel};
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    fn queries_n(g: &xmlgraph::XmlGraph, n: usize) -> Vec<Query> {
        ["actor.name", "movie.title", "name", "title", "movie"]
            .iter()
            .cycle()
            .take(n)
            .map(|s| Query::PartialPath {
                labels: LabelPath::parse(g, s).unwrap().0,
            })
            .collect()
    }

    fn queries(g: &xmlgraph::XmlGraph) -> Vec<Query> {
        queries_n(g, 40)
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = moviedb();
        let table = DataTable::build(&g, PageModel::default());
        // 43 queries on 7 threads: an uneven ratio (43 = 6×7 + 1) where
        // the old contiguous chunking (chunk = ⌈43/7⌉ = 7) would have
        // left the last worker a single query while others took 7.
        let qs = queries_n(&g, 43);
        // Fresh processors (= fresh pools): the pool is cross-query, so
        // reusing one processor would make the second batch all hits.
        let seq = run_batch(&NaiveProcessor::new(&g, &table), &qs);
        let par = run_batch_parallel(&NaiveProcessor::new(&g, &table), &qs, 7);
        assert_eq!(seq.queries, par.queries);
        assert_eq!(seq.result_nodes, par.result_nodes);
        assert_eq!(seq.empty_results, par.empty_results);
        // With an unbounded shared pool every distinct object misses
        // exactly once regardless of schedule, so aggregate costs (and
        // their per-operator attribution) are schedule-independent.
        assert_eq!(seq.cost, par.cost);
        let (sb, pb) = (seq.buf.unwrap(), par.buf.unwrap());
        assert_eq!(sb.misses, pb.misses);
        assert_eq!(sb.hits, pb.hits);
        assert!(sb.hits > 0, "batch with repeats must hit the pool");
    }

    #[test]
    fn striping_balances_uneven_ratios() {
        // The stripe sizes of any (queries, threads) ratio differ by at
        // most one — the invariant the round-robin switch establishes.
        for (n, threads) in [(43usize, 7usize), (100, 8), (5, 64), (1, 3), (17, 4)] {
            let spawned = threads.max(1).min(n.max(1));
            let sizes: Vec<usize> = (0..spawned)
                .map(|t| (0..n).skip(t).step_by(spawned).count())
                .collect();
            let (min, max) = (
                sizes.iter().copied().min().unwrap_or(0),
                sizes.iter().copied().max().unwrap_or(0),
            );
            assert!(max - min <= 1, "{n} queries / {threads} threads: {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert!(min >= 1, "no worker may idle: {sizes:?}");
        }
    }

    #[test]
    fn parallel_handles_degenerate_thread_counts() {
        let g = moviedb();
        let table = DataTable::build(&g, PageModel::default());
        let p = NaiveProcessor::new(&g, &table);
        let queries = vec![Query::PartialPath {
            labels: LabelPath::parse(&g, "title").unwrap().0,
        }];
        for threads in [0, 1, 8, 64] {
            let s = run_batch_parallel(&p, &queries, threads);
            assert_eq!(s.queries, 1);
        }
    }

    #[test]
    fn batch_reports_buffer_delta_and_summary_hit_rate() {
        let g = moviedb();
        let table = DataTable::build(&g, PageModel::default());
        let p = NaiveProcessor::new(&g, &table);
        let qs = queries(&g);
        let first = run_batch(&p, &qs);
        let b = first.buf.expect("naive exposes its pool");
        assert!(b.misses > 0);
        assert!(first.summary().contains("hit_rate"));
        // A second batch over the same processor is all hits — the delta
        // accounting must not re-report the first batch's misses.
        let second = run_batch(&p, &qs);
        let b2 = second.buf.unwrap();
        assert_eq!(b2.misses, 0);
        assert!(b2.hits > 0);
    }
}
