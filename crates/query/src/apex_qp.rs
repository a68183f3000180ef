//! The APEX query processor (§6.1 "Query Processor Implementation").
//!
//! * **QTYPE1** — looks up `H_APEX` with the whole query path; if the
//!   longest required suffix equals the path, the answer is read straight
//!   off the located extents. Otherwise the processor keeps shortening
//!   the prefix (`j` from `n` down) collecting the union of extents per
//!   prefix until the prefix is itself a required path, then multi-way
//!   joins the collected extents. What flows between stages is a *node
//!   frontier*: the seed union's sorted, distinct end nodes, then each
//!   stage's arrivals, made sorted and distinct in one pass; the last
//!   frontier is the answer, already in document order.
//! * **QTYPE2** — query pruning & rewriting, on the summary before the
//!   data. The planner (`Planner::plan_anc_desc`) walks `G_APEX`
//!   backwards once and marks a class *live* if it has an out-edge
//!   labelled `l_j` or an out-edge to a live class; the seeds are the
//!   live classes whose incoming label is `l_i` (found via `H_APEX`,
//!   not by navigating from the root as a DataGuide must). A
//!   cycle-safe dataflow fixpoint then propagates *node frontiers* —
//!   sorted end-node sets per class — from the seeds, semijoining an
//!   out-edge's extent only if the edge is labelled `l_j` or leads to a
//!   live class. Equivalent to enumerating the rewritten label paths
//!   and joining per path, but it terminates on cyclic class graphs and
//!   never reads an extent that cannot lead to an answer.
//! * **QTYPE3** — QTYPE1 followed by the value test: the path is
//!   evaluated first, then its sorted answer is merged through the data
//!   table's holder list for the value ([`crate::exec::DataProbe`]),
//!   charged one probe per candidate and each leaf page of the
//!   nid-sorted table once.
//!
//! All physical work — extent I/O, unions, semijoins, table probes —
//! runs through the shared operators in [`crate::exec`] over a
//! cross-query [`BufferHandle`] pool.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use apex::{Apex, PlanStats, XNodeId};
use apex_storage::bufmgr::{BufferHandle, Space};
use apex_storage::{DataTable, KernelPolicy};
use xmlgraph::{LabelId, NodeId, XmlGraph};

use crate::ast::Query;
use crate::batch::{QueryOutput, QueryProcessor};
use crate::exec::{self, DataProbe, ExecContext, ExtentScan, IndexNav};
use crate::plan::{self, AncDescPlan, JoinOrderPolicy, PlanReport, Planner};

/// Query processor over an [`Apex`] index.
pub struct ApexProcessor<'a> {
    apex: &'a Apex,
    table: &'a DataTable,
    buf: BufferHandle,
    /// The generation whose node-record layout [`IndexNav`] charges: a
    /// refined index reuses `XNodeId`s for other records, so each
    /// generation's layout is its own pool object. Extents need no tag —
    /// they name their pages by content.
    tag: u64,
    /// Page-packed byte offsets of `G_APEX` node records (16 bytes
    /// header + 8 per edge), laid out once per index
    /// ([`Apex::node_offsets`]): node `x` occupies
    /// `node_offsets[x]..node_offsets[x+1]` of layout `tag` in
    /// [`Space::ApexNode`].
    node_offsets: &'a [u64],
    /// Kernel policy for every semijoin this processor runs.
    policy: KernelPolicy,
    /// Absolute per-query deadline armed on every [`ExecContext`] this
    /// processor creates (the network serving layer sets this; batch and
    /// bench runs leave it unset).
    deadline: Option<std::time::Instant>,
    /// Join-order selection: cost-based by default; benches force the
    /// fixed orders through this.
    order: JoinOrderPolicy,
}

impl<'a> ApexProcessor<'a> {
    /// Creates a processor with a private (unbounded) buffer pool.
    pub fn new(g: &'a XmlGraph, apex: &'a Apex, table: &'a DataTable) -> Self {
        Self::with_buffer(g, apex, table, BufferHandle::unbounded())
    }

    /// Creates a processor charging against a shared buffer pool.
    pub fn with_buffer(
        g: &'a XmlGraph,
        apex: &'a Apex,
        table: &'a DataTable,
        buf: BufferHandle,
    ) -> Self {
        Self::with_buffer_tagged(g, apex, table, buf, 0)
    }

    /// Creates a processor charging against a shared buffer pool under a
    /// generation tag — used by adaptive serving, where processors over
    /// different index snapshots share one pool and `tag` is the
    /// snapshot's generation, which names its node-record pages (any
    /// `u64`).
    /// `_g`, the graph the index covers, is not read: nids are document
    /// order, so answers are sorted without it.
    pub fn with_buffer_tagged(
        _g: &'a XmlGraph,
        apex: &'a Apex,
        table: &'a DataTable,
        buf: BufferHandle,
        tag: u64,
    ) -> Self {
        ApexProcessor {
            apex,
            table,
            buf,
            tag,
            node_offsets: apex.node_offsets(),
            policy: KernelPolicy::Adaptive,
            deadline: None,
            order: JoinOrderPolicy::Planned,
        }
    }

    /// Forces a fixed semijoin kernel (tests and benches compare the
    /// kernels; production uses the default adaptive policy).
    pub fn with_kernel_policy(mut self, policy: KernelPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arms a per-query deadline: evaluation checkpoints at stage
    /// boundaries and stops early once `deadline` passes, returning a
    /// [`QueryOutput`] with `interrupted = true`.
    pub fn with_deadline(mut self, deadline: std::time::Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns `self`: the planner reads the stored extents, so there
    /// are no statistics to pass. Kept only because `perf/src/trace.rs`
    /// calls it.
    pub fn with_plan_stats(self, _stats: &PlanStats) -> Self {
        self
    }

    /// Forces a join-order policy (benches compare the planner against
    /// the fixed orders; production uses the default cost-based choice).
    pub fn with_join_order(mut self, order: JoinOrderPolicy) -> Self {
        self.order = order;
        self
    }

    /// The cost-based planner for this processor's index view.
    fn planner(&self) -> Planner<'a> {
        Planner::new(self.apex, None, self.policy, self.tag)
    }

    /// QTYPE1 evaluation returning the answer nodes, in document order,
    /// and the plan report.
    ///
    /// The §6.1 decreasing-j segmentation runs inside the planner, which
    /// then chooses the join order (forward, or a backward reduction of
    /// the last stages) and the kernels from the stored extents; a
    /// forward plan executes the seed-union +
    /// [`crate::exec::MultiwayJoin`] pipeline. Either way the last
    /// stage's frontier is sorted and distinct — already the answer.
    fn eval_path(
        &self,
        labels: &[LabelId],
        ctx: &mut ExecContext<'_>,
    ) -> (Vec<NodeId>, PlanReport) {
        let planner = self.planner();
        let plan = planner.plan_path(labels, self.order);
        planner.execute_path(&plan, ctx)
    }

    /// Charges the first visit of class node `x`'s page-packed record.
    #[expect(
        clippy::indexing_slicing,
        reason = "`touched` and `node_offsets` are sized n and n+1 over the same class-node count"
    )]
    fn nav_node(&self, x: XNodeId, touched: &mut [bool], ctx: &mut ExecContext<'_>) {
        let i = x.0 as usize;
        if !touched[i] {
            touched[i] = true;
            IndexNav {
                space: Space::ApexNode,
                layout: self.tag,
                bytes: self.node_offsets[i]..self.node_offsets[i + 1],
            }
            .run(ctx);
        }
    }

    /// QTYPE2: dataflow fixpoint from the live `l_i` classes of `plan`.
    ///
    /// The state is a node set per class: `known[x]` holds the end nodes
    /// of `x`'s extent already proven reachable from an `l_i` instance,
    /// `pending[x]` the ones not yet propagated. Both are sorted and
    /// distinct, so a dequeued `pending[x]` is the semijoin frontier as
    /// it stands. Deltas are *batched per class node* before
    /// propagation, so each `G_APEX` edge scans its target extent once
    /// per round instead of once per incoming delta — the disk-friendly
    /// evaluation order the paper's join-of-extents description implies.
    /// The pending class with the lowest `AncDescPlan::visit_rank` goes
    /// next, so a class usually waits for all its predecessors and is
    /// joined out of once.
    ///
    /// An edge `(l, y)` is joined only if `l == l_j` (its arrivals are
    /// answers) or `y` is live (its arrivals can still lead to one);
    /// only a live `y` is fed.
    fn eval_anc_desc(&self, plan: &AncDescPlan, ctx: &mut ExecContext<'_>) -> Vec<NodeId> {
        ctx.note_hash_lookups(plan.hash_lookups);
        ctx.nav_edges(plan.walk_edges);
        let n = self.apex.graph().allocated();
        let mut known: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut pending: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut queue: BinaryHeap<Reverse<(u32, XNodeId)>> = BinaryHeap::new();
        // Buffers reused across seeds, rounds and edges: the dequeued
        // frontier, one step's end nodes, their unknown part, the merge
        // target of a sorted union.
        let mut frontier: Vec<NodeId> = Vec::new();
        let mut arrivals: Vec<NodeId> = Vec::new();
        let mut fresh: Vec<NodeId> = Vec::new();
        let mut merged: Vec<NodeId> = Vec::new();
        for &x in &plan.seeds {
            let set = self.apex.extent(x);
            ExtentScan::pairs(set).run(ctx);
            let (Some(k), Some(p)) = (known.get_mut(x.0 as usize), pending.get_mut(x.0 as usize))
            else {
                continue;
            };
            set.decode_nodes_into(k);
            ctx.sort_distinct(k);
            if !k.is_empty() {
                p.clone_from(k);
                queue.push(Reverse((plan.visit_rank(x), x)));
            }
        }
        let mut out: Vec<NodeId> = Vec::new();
        // G_APEX node records are page-packed (Space::ApexNode): the
        // first visit of a node charges its record's pages.
        let mut touched: Vec<bool> = vec![false; n];
        while let Some(Reverse((_, x))) = queue.pop() {
            // One fixpoint round is the non-preemptible unit; a tripped
            // deadline surfaces the arrivals collected so far.
            if !ctx.checkpoint() {
                break;
            }
            let Some(p) = pending.get_mut(x.0 as usize) else {
                continue;
            };
            std::mem::swap(&mut frontier, p);
            p.clear();
            if frontier.is_empty() {
                continue;
            }
            self.nav_node(x, &mut touched, ctx);
            for &(label, y) in self.apex.out_edges(x) {
                ctx.nav_edges(1);
                let live = plan.is_live(y);
                if label != plan.last && !live {
                    continue;
                }
                arrivals.clear();
                exec::semijoin(ctx, &frontier, self.apex.extent(y), &mut arrivals);
                if arrivals.is_empty() {
                    continue;
                }
                ctx.sort_distinct(&mut arrivals);
                // Every step node is a genuine arrival (distance >= 1
                // from an l_i instance), so `out` must see each one. A
                // dead `y` keeps no state: emit the whole step.
                if !live {
                    out.extend_from_slice(&arrivals);
                    continue;
                }
                let (Some(k), Some(p)) =
                    (known.get_mut(y.0 as usize), pending.get_mut(y.0 as usize))
                else {
                    continue;
                };
                sorted_difference(&arrivals, k, &mut fresh);
                // A live non-seed class knows only nodes some step
                // brought in, so its fresh nodes are all its new answers.
                // A seed class (incoming label l_i) also knows its seed
                // nodes, which count only once a step re-reaches them
                // (//d//d through a back-edge): emit the whole step.
                if label == plan.last {
                    out.extend_from_slice(if label == plan.first {
                        &arrivals
                    } else {
                        &fresh
                    });
                }
                if fresh.is_empty() {
                    continue;
                }
                ctx.note_fixpoint_output(fresh.len() as u64);
                // `fresh` is new to `known[y]`, hence to `pending[y]`.
                merge_disjoint(k, &fresh, &mut merged);
                let was_empty = p.is_empty();
                merge_disjoint(p, &fresh, &mut merged);
                if was_empty {
                    queue.push(Reverse((plan.visit_rank(y), y)));
                }
            }
        }
        ctx.sort_distinct(&mut out);
        out
    }
}

/// `out = a \ b` over sorted, distinct node lists.
fn sorted_difference(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    let mut rest = b.iter().peekable();
    for &v in a {
        while rest.next_if(|&&w| w < v).is_some() {}
        if rest.peek() != Some(&&v) {
            out.push(v);
        }
    }
}

/// `dst ∪= src` over sorted node lists with `src` disjoint from
/// `dst`, merging through `scratch` (left holding `dst`'s old buffer).
fn merge_disjoint(dst: &mut Vec<NodeId>, src: &[NodeId], scratch: &mut Vec<NodeId>) {
    scratch.clear();
    scratch.reserve(dst.len() + src.len());
    let mut rest = src.iter().copied().peekable();
    for &v in dst.iter() {
        while let Some(w) = rest.next_if(|&w| w < v) {
            scratch.push(w);
        }
        scratch.push(v);
    }
    scratch.extend(rest);
    std::mem::swap(dst, scratch);
}

impl QueryProcessor for ApexProcessor<'_> {
    fn name(&self) -> &'static str {
        "APEX"
    }

    fn eval(&self, q: &Query) -> QueryOutput {
        let mut ctx = ExecContext::with_policy(&self.buf, self.policy);
        if let Some(d) = self.deadline {
            ctx.set_deadline(d);
        }
        let (nodes, report) = match q {
            Query::PartialPath { labels } => self.eval_path(labels, &mut ctx),
            Query::AncestorDescendant { first, last } => {
                let before = ctx.cost.ops;
                let planner = self.planner();
                let plan = planner.plan_anc_desc(*first, *last);
                let nodes = self.eval_anc_desc(&plan, &mut ctx);
                let (digest, predicted) = planner.forecast_anc_desc(&plan);
                let report =
                    plan::build_report(digest, "dataflow", &predicted, &before, &ctx.cost.ops);
                (nodes, report)
            }
            Query::ValuePath { labels, value } => {
                let (mut nodes, report) = self.eval_path(labels, &mut ctx);
                DataProbe {
                    table: self.table,
                    value,
                }
                .run(&mut nodes, &mut ctx);
                (nodes, report)
            }
        };
        let interrupted = ctx.interrupted();
        QueryOutput {
            nodes,
            cost: ctx.finish(),
            interrupted,
            plan: Some(report),
        }
    }

    fn buffer(&self) -> Option<&BufferHandle> {
        Some(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, QuerySets};
    use crate::naive::NaiveProcessor;
    use apex::Workload;
    use apex_storage::{OpKind, PageModel};
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    fn setup(g: &XmlGraph, workload: &[&str]) -> (Apex, DataTable) {
        let mut idx = Apex::build_initial(g);
        if !workload.is_empty() {
            let wl = Workload::parse(g, workload).unwrap();
            idx.refine(g, &wl, 0.1);
        }
        (idx, DataTable::build(g, PageModel::default()))
    }

    fn q1(g: &XmlGraph, p: &str) -> Query {
        Query::PartialPath {
            labels: LabelPath::parse(g, p).unwrap().0,
        }
    }

    #[test]
    fn qtype1_on_apex0_matches_naive() {
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let nv = NaiveProcessor::new(&g, &t);
        for p in [
            "actor.name",
            "movie.title",
            "director.movie.title",
            "name",
            "@movie.movie",
            "actor.@movie.movie.title",
            "director.movie.@director.director.name",
        ] {
            let q = q1(&g, p);
            assert_eq!(ap.eval(&q).nodes, nv.eval(&q).nodes, "query {p}");
        }
    }

    #[test]
    fn qtype1_on_refined_apex_matches_naive_and_is_cheaper() {
        let g = moviedb();
        let (idx, t) = setup(&g, &["actor.name", "director.movie", "@movie.movie"]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let nv = NaiveProcessor::new(&g, &t);
        let q = q1(&g, "actor.name");
        let out = ap.eval(&q);
        assert_eq!(out.nodes, nv.eval(&q).nodes);
        // actor.name is required: answered with no joins.
        assert_eq!(out.cost.join_work, 0);
    }

    /// APEX⁰ of `g` plus an index refined by a generated 20 % workload
    /// sample at minSup 0.01 (the paper's procedure, at test size).
    fn apex0_and_refined(g: &XmlGraph, t: &DataTable) -> [Apex; 2] {
        let apex0 = Apex::build_initial(g);
        let cfg = GeneratorConfig {
            qtype1: 200,
            qtype2: 0,
            qtype3: 0,
            seed: 0xA9E,
            ..GeneratorConfig::default()
        };
        let mut refined = apex0.clone();
        refined.refine(g, &QuerySets::generate(g, t, cfg).workload, 0.01);
        [apex0, refined]
    }

    fn anc_desc(first: LabelId, last: LabelId) -> Query {
        Query::AncestorDescendant { first, last }
    }

    fn all_labels(g: &XmlGraph) -> Vec<LabelId> {
        (0..g.label_count() as u32).map(LabelId).collect()
    }

    #[test]
    fn qtype2_matches_naive() {
        // Every ordered label pair, `a == b` included, on a reference
        // graph (moviedb), cyclic IDREFs (GedML) and a tree (one play).
        let graphs = [
            ("moviedb", moviedb()),
            ("gedml", datagen::gedml(60, 7)),
            ("play", datagen::shakespeare(1, 7)),
        ];
        for (name, g) in &graphs {
            let t = DataTable::build(g, PageModel::default());
            let nv = NaiveProcessor::new(g, &t);
            let labels = all_labels(g);
            let want: Vec<Vec<NodeId>> = labels
                .iter()
                .flat_map(|&a| labels.iter().map(move |&b| (a, b)))
                .map(|(a, b)| nv.eval(&anc_desc(a, b)).nodes)
                .collect();
            for idx in apex0_and_refined(g, &t) {
                let ap = ApexProcessor::new(g, &idx, &t);
                let pairs = labels
                    .iter()
                    .flat_map(|&a| labels.iter().map(move |&b| (a, b)));
                for ((a, b), want) in pairs.zip(&want) {
                    let out = ap.eval(&anc_desc(a, b));
                    assert!(!out.interrupted);
                    assert_eq!(
                        &out.nodes,
                        want,
                        "{name}: //{}//{}",
                        g.label_str(a),
                        g.label_str(b)
                    );
                }
            }
        }
    }

    #[test]
    fn qtype1_and_qtype3_match_naive_on_all_families() {
        // Generated path and value queries on a reference graph, cyclic
        // IDREFs and a tree, through APEX⁰ and a refined index.
        let graphs = [
            ("moviedb", moviedb()),
            ("gedml", datagen::gedml(60, 7)),
            ("play", datagen::shakespeare(1, 7)),
        ];
        for (name, g) in &graphs {
            let t = DataTable::build(g, PageModel::default());
            let nv = NaiveProcessor::new(g, &t);
            let cfg = GeneratorConfig {
                qtype1: 150,
                qtype2: 0,
                qtype3: 40,
                seed: 0x3E7,
                ..GeneratorConfig::default()
            };
            let sets = QuerySets::generate(g, &t, cfg);
            assert!(!sets.qtype3.is_empty(), "{name}");
            let queries: Vec<&Query> = sets.qtype1.iter().chain(&sets.qtype3).collect();
            let want: Vec<Vec<NodeId>> = queries.iter().map(|q| nv.eval(q).nodes).collect();
            for idx in apex0_and_refined(g, &t) {
                let ap = ApexProcessor::new(g, &idx, &t);
                for (q, want) in queries.iter().zip(&want) {
                    let out = ap.eval(q);
                    assert!(!out.interrupted);
                    assert_eq!(&out.nodes, want, "{name}: {}", q.render(g));
                }
            }
        }
    }

    #[test]
    fn qtype3_expired_deadline_returns_a_subset() {
        let g = datagen::gedml(60, 7);
        let t = DataTable::build(&g, PageModel::default());
        let nv = NaiveProcessor::new(&g, &t);
        let idx = Apex::build_initial(&g);
        let cfg = GeneratorConfig {
            qtype1: 0,
            qtype2: 0,
            qtype3: 30,
            seed: 0xDEAD,
            ..GeneratorConfig::default()
        };
        let past = std::time::Instant::now();
        let ap = ApexProcessor::new(&g, &idx, &t).with_deadline(past);
        let mut answered = 0;
        for q in &QuerySets::generate(&g, &t, cfg).qtype3 {
            let all = nv.eval(q).nodes;
            let out = ap.eval(q);
            assert!(out.nodes.iter().all(|n| all.binary_search(n).is_ok()));
            if !all.is_empty() {
                // Some candidate reached the value test (or a join
                // stage), and the deadline stopped it there.
                assert!(out.interrupted, "{}", q.render(&g));
                answered += 1;
            }
        }
        assert!(answered > 0, "the set has non-empty answers");
    }

    #[test]
    fn qtype2_without_a_summary_path_reads_no_extent() {
        // Pruning law: when no G_APEX path leads from an l_i class to an
        // l_j edge, the answer is empty and no extent is scanned or
        // joined.
        let g = datagen::gedml(60, 7);
        let t = DataTable::build(&g, PageModel::default());
        let nv = NaiveProcessor::new(&g, &t);
        let labels = all_labels(&g);
        let mut pruned = 0;
        for idx in apex0_and_refined(&g, &t) {
            let ap = ApexProcessor::new(&g, &idx, &t);
            let planner = Planner::new(&idx, None, KernelPolicy::Adaptive, 0);
            for &a in &labels {
                for &b in &labels {
                    let plan = planner.plan_anc_desc(a, b);
                    if !plan.seeds.is_empty() {
                        continue;
                    }
                    pruned += 1;
                    let q = anc_desc(a, b);
                    let out = ap.eval(&q);
                    assert!(
                        out.nodes.is_empty(),
                        "//{}//{}",
                        g.label_str(a),
                        g.label_str(b)
                    );
                    assert!(nv.eval(&q).nodes.is_empty());
                    assert_eq!(out.cost.ops.get(OpKind::ExtentScan).pages_read(), 0);
                    assert_eq!(out.cost.extent_pairs, 0);
                    assert_eq!(out.cost.join_work, 0);
                }
            }
        }
        assert!(pruned > 0, "gedml has label pairs with no summary path");
    }

    #[test]
    fn qtype2_prunes_dead_seeds_and_edges() {
        // On Ged data many classes cannot reach a `date` edge: the walk
        // leaves them dead, the answer still equals the oracle, and the
        // forecast's seed-scan row is exact.
        let g = datagen::gedml(60, 7);
        let t = DataTable::build(&g, PageModel::default());
        let idx = Apex::build_initial(&g);
        let planner = Planner::new(&idx, None, KernelPolicy::Adaptive, 0);
        let (indi, date) = (g.label_id("indi").unwrap(), g.label_id("date").unwrap());
        let plan = planner.plan_anc_desc(indi, date);
        assert!(!plan.seeds.is_empty());
        assert!(plan.live_classes < idx.graph().allocated());
        let ap = ApexProcessor::new(&g, &idx, &t);
        let out = ap.eval(&anc_desc(indi, date));
        assert_eq!(
            out.nodes,
            NaiveProcessor::new(&g, &t)
                .eval(&anc_desc(indi, date))
                .nodes
        );
        // The forecast's exact rows: seed scans and the summary walk.
        let rep = out.plan.unwrap();
        let scan = rep
            .forecasts
            .iter()
            .find(|f| f.kind == OpKind::ExtentScan)
            .unwrap();
        assert_eq!(scan.predicted_work, scan.actual_work);
        assert_eq!(scan.predicted_pages, scan.actual_pages);
        assert!(out.cost.index_edges >= plan.walk_edges);
    }

    #[test]
    fn qtype2_expired_deadline_returns_a_subset() {
        let g = datagen::gedml(60, 7);
        let t = DataTable::build(&g, PageModel::default());
        let nv = NaiveProcessor::new(&g, &t);
        let idx = Apex::build_initial(&g);
        let past = std::time::Instant::now();
        let ap = ApexProcessor::new(&g, &idx, &t).with_deadline(past);
        let q = anc_desc(g.label_id("fam").unwrap(), g.label_id("indi").unwrap());
        let out = ap.eval(&q);
        assert!(out.interrupted);
        let all = nv.eval(&q).nodes;
        assert!(!all.is_empty());
        assert!(out.nodes.iter().all(|n| all.binary_search(n).is_ok()));
    }

    #[test]
    fn qtype2_digest_covers_the_last_label() {
        let g = moviedb();
        let (idx, t) = setup(&g, &["actor.name"]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let movie = g.label_id("movie").unwrap();
        let digest = |last: &str| {
            let q = anc_desc(movie, g.label_id(last).unwrap());
            ap.eval(&q).plan.unwrap().digest
        };
        assert_ne!(digest("name"), digest("title"));
        assert_eq!(digest("name"), digest("name"));
    }

    #[test]
    fn qtype3_matches_naive() {
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let nv = NaiveProcessor::new(&g, &t);
        let q = Query::ValuePath {
            labels: LabelPath::parse(&g, "title").unwrap().0,
            value: "Star Wars".into(),
        };
        assert_eq!(ap.eval(&q).nodes, nv.eval(&q).nodes);
        assert_eq!(ap.eval(&q).nodes, vec![NodeId(10)]);
    }

    #[test]
    fn single_label_queries_are_exact_unions() {
        let g = moviedb();
        let (idx, t) = setup(&g, &["actor.name"]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        // //name must union the actor.name class and the remainder class
        // with no joins.
        let q = q1(&g, "name");
        let out = ap.eval(&q);
        assert_eq!(
            out.nodes,
            vec![NodeId(3), NodeId(5), NodeId(11), NodeId(13)]
        );
        assert_eq!(out.cost.join_work, 0);
        assert!(out.cost.pages_read >= 1);
    }

    #[test]
    fn queries_longer_than_any_required_path() {
        let g = moviedb();
        let (idx, t) = setup(&g, &["actor.name"]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let nv = NaiveProcessor::new(&g, &t);
        // 4-step query across reference edges, far longer than the
        // longest required path (2).
        let q = q1(&g, "director.movie.@director.director");
        assert_eq!(ap.eval(&q).nodes, nv.eval(&q).nodes);
        assert_eq!(ap.eval(&q).nodes, vec![NodeId(12)]);
    }

    #[test]
    fn empty_intermediate_join_short_circuits() {
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        // `year` exists only under movie 8; `year.title` has no instance.
        let q = q1(&g, "year.title");
        let out = ap.eval(&q);
        assert!(out.nodes.is_empty());
    }

    #[test]
    fn qtype2_self_label_through_cycle() {
        // //movie//movie across reference edges; verify against naive
        // rather than hand-reasoning the cycle structure.
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let nv = NaiveProcessor::new(&g, &t);
        let movie = g.label_id("movie").unwrap();
        let q = Query::AncestorDescendant {
            first: movie,
            last: movie,
        };
        assert_eq!(ap.eval(&q).nodes, nv.eval(&q).nodes);
    }

    #[test]
    fn unknown_label_yields_empty() {
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        // `PLAYS` does not exist in moviedb — build a query with a label
        // id that is valid in another graph. Use a fresh label by parsing
        // against the same graph is impossible; instead use a path whose
        // combination yields empty.
        let q = q1(&g, "title.actor");
        assert!(ap.eval(&q).nodes.is_empty());
    }

    /// Pages an extent block read, summed over the extent operators.
    fn extent_pages(cost: &apex_storage::Cost) -> u64 {
        cost.pages_read - cost.ops.get(OpKind::IndexNav).pages_read()
    }

    #[test]
    fn extents_share_pages_across_generations_and_node_records_do_not() {
        let g = moviedb();
        let (idx, t) = setup(&g, &["actor.name"]);
        let buf = BufferHandle::unbounded();
        let label = |s| g.label_id(s).unwrap();
        let queries = [
            q1(&g, "actor.name"),
            q1(&g, "director.movie.title"),
            anc_desc(label("movie"), label("name")),
        ];
        let run = |idx: &Apex, tag| {
            let p = ApexProcessor::with_buffer_tagged(&g, idx, &t, buf.clone(), tag);
            queries.iter().map(|q| p.eval(q).cost).collect::<Vec<_>>()
        };
        let cold = run(&idx, 0);
        assert!(cold.iter().all(|c| extent_pages(c) > 0));
        assert!(run(&idx, 0).iter().all(|c| c.pages_read == 0));
        // The same index as a freshly published generation: its node
        // records are another layout and miss, every extent block hits.
        // 2^24 is the generation whose node pages a packed
        // `generation × 2^40 + offset` name would wrap onto generation 0's.
        let next = run(&idx, 1 << 24);
        assert!(next.iter().all(|c| extent_pages(c) == 0));
        let nav: u64 = next.iter().map(|c| c.pages_read).sum();
        assert!(nav > 0, "generation 1 re-reads its node records");
        assert_eq!(
            nav,
            cold.iter().map(|c| c.pages_read - extent_pages(c)).sum()
        );

        // After a refine that changes classes, a scan of every class
        // reads exactly the blocks of the contents that are new.
        let mut refined = idx.clone();
        let wl = Workload::parse(&g, &["director.movie", "movie.title"]).unwrap();
        refined.refine(&g, &wl, 0.1);
        let contents = |a: &Apex| {
            let mut held: Vec<(u64, usize)> = a
                .graph()
                .reachable(a.xroot())
                .iter()
                .map(|&x| (a.extent(x).content_hash(), a.extent(x).num_blocks()))
                .collect();
            held.sort_unstable();
            held.dedup();
            held
        };
        let scan_all = |a: &Apex| {
            let mut ctx = ExecContext::new(&buf);
            for x in a.graph().reachable(a.xroot()) {
                ExtentScan::pairs(a.extent(x)).run(&mut ctx);
            }
            ctx.finish().pages_read
        };
        scan_all(&idx);
        let old = contents(&idx);
        let changed: Vec<_> = contents(&refined)
            .into_iter()
            .filter(|c| !old.contains(c))
            .collect();
        assert!(!changed.is_empty(), "the refine changes classes");
        assert!(changed.len() < old.len());
        let blocks: usize = changed.iter().map(|c| c.1).sum();
        assert_eq!(scan_all(&refined), blocks as u64);
    }

    #[test]
    fn operators_attribute_all_pages_and_pool_is_cross_query() {
        let g = moviedb();
        let (idx, t) = setup(&g, &[]);
        let ap = ApexProcessor::new(&g, &idx, &t);
        let q = q1(&g, "director.movie.title");
        let cold = ap.eval(&q);
        assert!(cold.cost.pages_read > 0);
        // Every page charged by the query is attributed to an operator.
        let attributed: u64 = OpKind::ALL
            .iter()
            .map(|&k| cold.cost.ops.get(k).pages_read())
            .sum();
        assert_eq!(attributed, cold.cost.pages_read);
        assert!(cold.cost.ops.get(OpKind::MultiwayJoin).invocations >= 1);
        // The pool outlives queries: re-running is all buffer hits.
        let warm = ap.eval(&q);
        assert_eq!(warm.cost.pages_read, 0, "warm run must hit the pool");
        let s = ap.buffer().unwrap().stats();
        assert!(s.hits > 0 && s.misses > 0);
    }
}
