//! Cost-based query planning over the index's own statistics.
//!
//! The planner sits between parsing and [`crate::exec`]: instead of the
//! fixed left-to-right §6.1 pipeline, a QTYPE1/3 segment chain is first
//! *planned* against the stored extents of its classes — pair count,
//! block count, parent and node bounds, each an exact O(1) read of a
//! [`SuccinctExtent`] — then executed.
//!
//! The plan space is deliberately small and fully enumerable:
//!
//! * [`JoinOrder::Forward`] — the existing seed-union + forward
//!   semijoin chain (delegates to [`MultiwayJoin`], so a forward plan is
//!   *bit-for-bit* the legacy execution);
//! * [`JoinOrder::BackwardThenForward`] — a Yannakakis-style reduction:
//!   the last `reduce` stage boundaries are semijoined *backward*
//!   (`reverse_semijoin_into`, each stage keeping only pairs whose node
//!   parents something downstream), then the usual forward pass runs
//!   with the reduced stages resident in memory. `reduce = k` is the
//!   classic full right-to-left reduction.
//!
//! For every candidate the planner predicts per-operator work and pages
//! from extent cardinalities, block counts, distinct-end bounds and
//! parent/node interval overlap — the same statistics the kernels'
//! adaptive policy consults at run time — and picks the cheapest
//! (ties and near-ties go forward, the legacy order). A stage with an
//! exactly-zero cardinality short-circuits planning entirely: the plan
//! is *statically empty* and executes for free.
//!
//! A QTYPE2 query `//l_i//l_j` has one strategy, the dataflow fixpoint
//! of [`crate::apex_qp`]. Its plan is a pruning plus a visiting order:
//! `Planner::plan_anc_desc` walks `G_APEX` backwards once, keeps the
//! seed classes and the classes that can still reach an `l_j` edge,
//! and ranks the latter (`AncDescPlan`); `Planner::forecast_anc_desc`
//! predicts its exact rows.
//!
//! A seed that is one label `l`'s whole `H_APEX` subtree of two or
//! more classes — the segment of a one-label exact prefix — reads `l`'s
//! node column ([`Apex::label_column`]) instead of decoding and sorting
//! its overlapping classes; the first such query builds the column.
//! The plan records this in [`PathPlan::seed_label`]. It changes no
//! forecast, no digest and no charge: the seed still charges every
//! class's pairs and blocks, so a plan and its costs are the same with
//! the column cold or warm.
//!
//! Execution records a [`PlanReport`]: the predicted per-operator cost
//! column next to the actual one (diffed from the [`OpBreakdown`]
//! around execution), a stable digest of the chosen shape, and the
//! mispredict ratio `Σ|predicted − actual| / Σactual` that the
//! feedback layer pushes back into the workload monitor.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use apex::{Apex, PlanStats, XNodeId};
use apex_storage::kernels::reverse_semijoin_into;
use apex_storage::{EdgeSet, Kernel, KernelPolicy, OpBreakdown, OpKind, SuccinctExtent};
use xmlgraph::{LabelId, NodeId};

use crate::exec::{self, ExecContext, ExtentScan, ExtentUnion, MultiwayJoin};

/// How a planned QTYPE1 chain is ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinOrder {
    /// Seed union, then semijoin forward — the legacy §6.1 pipeline.
    Forward,
    /// Reduce the last `reduce` stage boundaries backward first, then
    /// run the forward pass over the reduced (in-memory) stages.
    BackwardThenForward {
        /// Number of stages reduced, from the next-to-last towards the
        /// seed (`1..=k` for a chain of `k` joins; `k` reduces the seed
        /// too — the classic full right-to-left pass).
        reduce: usize,
    },
}

impl JoinOrder {
    /// Human-readable label (`forward` / `backward(r)`).
    pub fn label(&self) -> String {
        match self {
            JoinOrder::Forward => "forward".into(),
            JoinOrder::BackwardThenForward { reduce } => format!("backward({reduce})"),
        }
    }
}

/// Join-order selection policy: let the planner pick, or force one
/// order (benches compare the fixed orders against the planner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinOrderPolicy {
    /// Cost-based choice over the enumerated orders.
    #[default]
    Planned,
    /// Always the legacy forward order.
    ForceForward,
    /// Always the full backward reduction (`reduce = k`).
    ForceBackward,
}

impl JoinOrderPolicy {
    /// Stable name (`planned` / `forward` / `backward`).
    pub fn name(self) -> &'static str {
        match self {
            JoinOrderPolicy::Planned => "planned",
            JoinOrderPolicy::ForceForward => "forward",
            JoinOrderPolicy::ForceBackward => "backward",
        }
    }

    /// Parses [`JoinOrderPolicy::name`] output.
    pub fn parse(s: &str) -> Option<JoinOrderPolicy> {
        match s {
            "planned" => Some(JoinOrderPolicy::Planned),
            "forward" => Some(JoinOrderPolicy::ForceForward),
            "backward" => Some(JoinOrderPolicy::ForceBackward),
            _ => None,
        }
    }
}

/// One operator's predicted-vs-actual row in a [`PlanReport`].
#[derive(Debug, Clone, Copy)]
pub struct OpForecast {
    /// The operator.
    pub kind: OpKind,
    /// Predicted non-page work units (pairs read + comparisons +
    /// output, i.e. every scalar counter except pages).
    pub predicted_work: u64,
    /// Predicted pages read.
    pub predicted_pages: u64,
    /// Actual non-page work units, diffed around execution.
    pub actual_work: u64,
    /// Actual pages read.
    pub actual_pages: u64,
}

/// What a plan predicted and what its execution actually cost — the
/// feedback layer's unit of exchange. Carried on every
/// [`QueryOutput`](crate::batch::QueryOutput) evaluated through the
/// planner and folded back into the workload monitor.
#[derive(Debug, Clone, Default)]
pub struct PlanReport {
    /// Stable digest of the chosen plan shape (order, stage sizes,
    /// kernels) — the net tier carries this so tail latency can be
    /// attributed to planning choices.
    pub digest: u64,
    /// Human-readable order label (`forward`, `backward(2)`, …).
    pub order: String,
    /// Per-operator predicted and actual costs (active rows only).
    pub forecasts: Vec<OpForecast>,
}

impl PlanReport {
    /// `Σ|predicted − actual| / max(1, Σactual)` over work + pages —
    /// 0.0 means the cost model was exact.
    pub fn mispredict_ratio(&self) -> f64 {
        let mut err = 0u64;
        let mut act = 0u64;
        for f in &self.forecasts {
            let p = f.predicted_work + f.predicted_pages;
            let a = f.actual_work + f.actual_pages;
            err += p.abs_diff(a);
            act += a;
        }
        err as f64 / act.max(1) as f64
    }

    /// Flattens to `(op, predicted, actual)` rows for
    /// [`WorkloadMonitor::record_plan`](apex::WorkloadMonitor::record_plan).
    pub fn feedback(&self) -> impl Iterator<Item = (OpKind, u64, u64)> + '_ {
        self.forecasts.iter().map(|f| {
            (
                f.kind,
                f.predicted_work + f.predicted_pages,
                f.actual_work + f.actual_pages,
            )
        })
    }

    /// Renders the predicted/actual table (the `explain` tail).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "plan {:#018x} order={}", self.digest, self.order);
        let _ = writeln!(
            s,
            "  {:<16} {:>10} {:>8} {:>10} {:>8}",
            "op", "pred.work", "pages", "act.work", "pages"
        );
        for f in &self.forecasts {
            let _ = writeln!(
                s,
                "  {:<16} {:>10} {:>8} {:>10} {:>8}",
                f.kind.name(),
                f.predicted_work,
                f.predicted_pages,
                f.actual_work,
                f.actual_pages
            );
        }
        let _ = writeln!(s, "  mispredict ratio = {:.3}", self.mispredict_ratio());
        s
    }
}

/// Builds a [`PlanReport`] from a predicted table plus the
/// [`OpBreakdown`] snapshots taken around execution. Rows where both
/// columns are zero are dropped. Used by the planner itself and by the
/// navigation-style processors (guide / 1-index / fabric), whose
/// "plans" are single-strategy forecasts.
pub fn build_report(
    digest: u64,
    order: impl Into<String>,
    predicted: &[(OpKind, u64, u64)],
    before: &OpBreakdown,
    after: &OpBreakdown,
) -> PlanReport {
    let mut forecasts = Vec::new();
    for &kind in OpKind::ALL.iter() {
        let (pw, pp) = predicted
            .iter()
            .filter(|e| e.0 == kind)
            .fold((0u64, 0u64), |(w, p), e| (w + e.1, p + e.2));
        let b = before.get(kind);
        let a = after.get(kind);
        let (mut aw, mut ap) = (0u64, 0u64);
        for (i, (&av, &bv)) in a.scalars.iter().zip(&b.scalars).enumerate() {
            if i == 5 {
                ap = av - bv; // slot 5 is pages_read: pages, not work
            } else {
                aw += av - bv;
            }
        }
        if pw | pp | aw | ap != 0 {
            forecasts.push(OpForecast {
                kind,
                predicted_work: pw,
                predicted_pages: pp,
                actual_work: aw,
                actual_pages: ap,
            });
        }
    }
    PlanReport {
        digest,
        order: order.into(),
        forecasts,
    }
}

/// FNV-1a fold of `bytes` into `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Cheap summary of one stage (the union of its class extents). Its
/// pair count doubles as the bound on its distinct end nodes: the exact
/// figure would cost a sort of every extent.
#[derive(Debug, Clone, Copy, Default)]
struct StageEst {
    pairs: u64,
    blocks: u64,
    parent_bounds: Option<(NodeId, NodeId)>,
    node_bounds: Option<(NodeId, NodeId)>,
}

/// Fraction of an interval `span` overlapped by `within` (both
/// inclusive), 0.0 when either is absent or they are disjoint.
fn overlap_frac(span: Option<(NodeId, NodeId)>, within: Option<(NodeId, NodeId)>) -> f64 {
    let (Some((alo, ahi)), Some((blo, bhi))) = (span, within) else {
        return 0.0;
    };
    let width = ahi.0.saturating_sub(alo.0) as f64 + 1.0;
    let lo = alo.0.max(blo.0);
    let hi = ahi.0.min(bhi.0);
    if lo > hi {
        return 0.0;
    }
    ((hi - lo) as f64 + 1.0) / width
}

fn merge_bounds(
    a: Option<(NodeId, NodeId)>,
    b: Option<(NodeId, NodeId)>,
) -> Option<(NodeId, NodeId)> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some((alo, ahi)), Some((blo, bhi))) => Some((alo.min(blo), ahi.max(bhi))),
    }
}

/// Predicted pairs of a stage whose parent falls in the frontier's
/// node bounds — the interval-overlap selectivity estimate.
fn est_matched(frontier_pairs: u64, frontier_nb: Option<(NodeId, NodeId)>, st: &StageEst) -> u64 {
    if frontier_pairs == 0 {
        return 0;
    }
    let frac = overlap_frac(st.parent_bounds, frontier_nb);
    ((st.pairs as f64 * frac).ceil() as u64).min(st.pairs)
}

/// Accumulates predicted `(work, pages)` per op kind.
#[derive(Debug, Default, Clone)]
struct Forecast {
    rows: Vec<(OpKind, u64, u64)>,
}

impl Forecast {
    fn add(&mut self, kind: OpKind, work: u64, pages: u64) {
        if let Some(r) = self.rows.iter_mut().find(|r| r.0 == kind) {
            r.1 += work;
            r.2 += pages;
        } else {
            self.rows.push((kind, work, pages));
        }
    }

    fn total(&self) -> u64 {
        self.rows.iter().map(|r| r.1 + r.2).sum()
    }
}

/// Mirror of the adaptive [`KernelPolicy::choose`] rule on statistics
/// alone (no extent touched).
fn predict_kernel(ends: u64, pairs: u64, blocks: u64) -> Kernel {
    if pairs == 0 || ends == 0 {
        return Kernel::Merge;
    }
    let est_merge = pairs + ends;
    let gap_log = (64 - (pairs / ends).max(1).leading_zeros()) as u64;
    let est_search = ends * (2 * gap_log + 4);
    if est_merge <= est_search {
        return Kernel::Merge;
    }
    if blocks > 1 && ends >= blocks {
        Kernel::BlockSkip
    } else {
        Kernel::Gallop
    }
}

/// A typed, executable plan for one QTYPE1/3 segment chain.
#[derive(Debug, Clone)]
pub struct PathPlan {
    /// Class nodes per stage, evaluation order (seed first).
    pub stages: Vec<Vec<XNodeId>>,
    /// H_APEX lookups spent segmenting; charged at execution.
    pub hash_lookups: u64,
    /// The chosen order.
    pub order: JoinOrder,
    /// True when some stage has exactly zero pairs (or the path's first
    /// label is unknown): the answer is empty and execution is free.
    pub static_empty: bool,
    /// Stable digest of the plan shape.
    pub digest: u64,
    /// Predicted total (work + pages) of the chosen order.
    pub predicted_total: u64,
    /// Predicted kernel name per join boundary (`stages.len() - 1`
    /// entries; reduced boundaries show `"reverse"`). For `explain`.
    pub kernels: Vec<&'static str>,
    /// The label whose node column the seed reads: set when the seed
    /// is a one-label path's whole `H_APEX` subtree of two or more
    /// classes. A label of one class is read through that class, the one
    /// stored copy of `T(l)`.
    pub seed_label: Option<LabelId>,
    /// Per-op predicted `(work, pages)`.
    predicted: Vec<(OpKind, u64, u64)>,
}

/// The cost-based planner: borrows the index, whose stored extents are
/// its statistics, and the kernel policy in force.
pub struct Planner<'a> {
    apex: &'a Apex,
    policy: KernelPolicy,
}

impl<'a> Planner<'a> {
    /// A planner over `apex`.
    ///
    /// `_stats` and `_generation` are unused: the planner reads the
    /// stored extents, and extents name their buffer pages by content,
    /// so a plan is the same in every generation. Both stay only because
    /// `perf/src/trace.rs` passes them.
    pub fn new(
        apex: &'a Apex,
        _stats: Option<&PlanStats>,
        policy: KernelPolicy,
        _generation: u64,
    ) -> Self {
        Planner { apex, policy }
    }

    /// Summarizes one stage off its classes' stored extents.
    fn stage_est(&self, classes: &[XNodeId]) -> StageEst {
        let mut e = StageEst::default();
        for &x in classes {
            let set = self.apex.extent(x);
            e.pairs += set.len() as u64;
            e.blocks += set.num_blocks() as u64;
            e.parent_bounds = merge_bounds(e.parent_bounds, set.parent_bounds());
            e.node_bounds = merge_bounds(e.node_bounds, set.node_bounds());
        }
        e
    }

    /// Predicts one stored-stage semijoin: returns
    /// `(kernel, work, pages, matched)` given the frontier estimate.
    fn predict_semijoin(
        &self,
        frontier_pairs: u64,
        frontier_ends: u64,
        frontier_nb: Option<(NodeId, NodeId)>,
        st: &StageEst,
    ) -> (Kernel, u64, u64, u64) {
        let kernel = match self.policy {
            KernelPolicy::Merge => Kernel::Merge,
            KernelPolicy::Gallop => Kernel::Gallop,
            KernelPolicy::BlockSkip => Kernel::BlockSkip,
            KernelPolicy::Adaptive => predict_kernel(frontier_ends, st.pairs, st.blocks),
        };
        let matched = est_matched(frontier_pairs, frontier_nb, st);
        let n = frontier_ends.max(1);
        let m = st.pairs;
        let blocks = st.blocks.max(1);
        let gap_log = (64 - (m / n).max(1).leading_zeros()) as u64;
        let (work, pages) = match kernel {
            Kernel::Merge => (m + n + m, blocks),
            Kernel::Gallop => {
                let pages = blocks.min(n);
                let pairs_read = m * pages / blocks;
                (n * (2 * gap_log + 4) + pairs_read, pages)
            }
            Kernel::BlockSkip => {
                let pages = blocks.min(n);
                let pairs_read = m * pages / blocks;
                (blocks + n * (2 * gap_log + 4) + pairs_read, pages)
            }
        };
        (kernel, work + matched, pages, matched)
    }

    /// Predicts the forward order over `ests`.
    #[expect(
        clippy::indexing_slicing,
        reason = "a path plan has at least one stage, so `ests` is non-empty"
    )]
    fn predict_forward(&self, ests: &[StageEst]) -> (Forecast, Vec<&'static str>) {
        let mut f = Forecast::default();
        let seed = &ests[0];
        f.add(OpKind::ExtentUnion, seed.pairs, seed.blocks);
        let mut fp = seed.pairs;
        let mut fe = seed.pairs;
        let mut fnb = seed.node_bounds;
        let mut kernels = Vec::new();
        for st in &ests[1..] {
            let (kernel, work, pages, matched) = self.predict_semijoin(fp, fe, fnb, st);
            let kind = match kernel {
                Kernel::Merge => OpKind::SemijoinMerge,
                Kernel::Gallop => OpKind::SemijoinGallop,
                Kernel::BlockSkip => OpKind::SemijoinSkip,
            };
            f.add(kind, work, pages);
            kernels.push(kernel.name());
            fp = matched;
            fe = matched.min(st.pairs);
            fnb = if matched > 0 { st.node_bounds } else { None };
        }
        (f, kernels)
    }

    /// Predicts the backward order with `reduce = r` over `ests`.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass `1 <= r <= k = ests.len() - 1`, so `k`, `lo..k` and every stage index are in `ests`, and `red` has a slot per reduced stage"
    )]
    fn predict_backward(&self, ests: &[StageEst], r: usize) -> (Forecast, Vec<&'static str>) {
        let k = ests.len() - 1;
        let lo = k - r;
        let mut f = Forecast::default();
        // Gathering the last stage's distinct parents is a full scan.
        f.add(OpKind::ExtentScan, ests[k].pairs, ests[k].blocks);
        let mut parents = ests[k].pairs;
        let mut pb = ests[k].parent_bounds;
        // Reduced cardinality per stage (index = stage).
        let mut red = vec![0u64; k.max(1)];
        for i in (lo..k).rev() {
            let m = ests[i].pairs;
            let probe = (64 - parents.max(1).leading_zeros()) as u64 + 1;
            let frac = overlap_frac(ests[i].node_bounds, pb);
            let kept = if parents == 0 {
                0
            } else {
                ((m as f64 * frac).ceil() as u64).min(m)
            };
            f.add(
                OpKind::SemijoinReverse,
                m * probe + m + kept,
                ests[i].blocks,
            );
            red[i] = kept;
            parents = kept;
            pb = ests[i].parent_bounds;
        }
        // Forward pass over the (partly reduced) chain.
        let (mut fp, mut fe, mut fnb);
        if lo == 0 {
            fp = red[0];
            fe = red[0].min(ests[0].pairs);
            fnb = ests[0].node_bounds;
        } else {
            f.add(OpKind::ExtentUnion, ests[0].pairs, ests[0].blocks);
            fp = ests[0].pairs;
            fe = ests[0].pairs;
            fnb = ests[0].node_bounds;
        }
        let mut kernels = Vec::new();
        for (i, st) in ests.iter().enumerate().skip(1) {
            if i >= lo && i < k {
                // In-memory reduced stage: merge or gallop, no pages.
                let m = red[i];
                let n = fe.max(1);
                let gap_log = (64 - (m / n).max(1).leading_zeros()) as u64;
                let (kind, work) = if m + n <= n * (2 * gap_log + 4) {
                    (OpKind::SemijoinMerge, m + n)
                } else {
                    (OpKind::SemijoinGallop, n * (2 * gap_log + 4))
                };
                let matched = est_matched(fp, fnb, st).min(m);
                f.add(kind, work + matched, 0);
                kernels.push("reverse");
                fp = matched;
                fe = matched.min(st.pairs);
            } else {
                let (kernel, work, pages, matched) = self.predict_semijoin(fp, fe, fnb, st);
                let kind = match kernel {
                    Kernel::Merge => OpKind::SemijoinMerge,
                    Kernel::Gallop => OpKind::SemijoinGallop,
                    Kernel::BlockSkip => OpKind::SemijoinSkip,
                };
                f.add(kind, work, pages);
                kernels.push(kernel.name());
                fp = matched;
                fe = matched.min(st.pairs);
            }
            fnb = if fp > 0 { st.node_bounds } else { None };
        }
        (f, kernels)
    }

    /// Plans `labels` (a QTYPE1/3 chain) under `policy`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`1 <= j <= n = labels.len()` by the loop bounds"
    )]
    pub fn plan_path(&self, labels: &[LabelId], policy: JoinOrderPolicy) -> PathPlan {
        let n = labels.len();
        let mut segments: Vec<Vec<XNodeId>> = Vec::new();
        let mut hash_lookups = 0u64;
        let mut exact_found = false;
        let mut seed_label = None;
        for j in (1..=n).rev() {
            let seg = self.apex.segment_nodes(&labels[..j]);
            hash_lookups += seg.hash_lookups;
            if seg.exact && j == 1 && seg.xnodes.len() >= 2 {
                seed_label = Some(labels[0]);
            }
            segments.push(seg.xnodes);
            if seg.exact {
                exact_found = true;
                break;
            }
        }
        segments.reverse();
        let empty_plan = |stages: Vec<Vec<XNodeId>>, hash_lookups: u64| {
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            fnv(&mut digest, b"empty");
            fnv(&mut digest, &(stages.len() as u64).to_le_bytes());
            PathPlan {
                stages,
                hash_lookups,
                order: JoinOrder::Forward,
                static_empty: true,
                digest,
                predicted_total: hash_lookups,
                kernels: Vec::new(),
                seed_label: None,
                predicted: vec![(OpKind::IndexNav, hash_lookups, 0)],
            }
        };
        if !exact_found {
            // The single-label prefix is always exact when the label
            // exists; reaching here means it is unknown.
            return empty_plan(Vec::new(), hash_lookups);
        }
        let ests: Vec<StageEst> = segments.iter().map(|s| self.stage_est(s)).collect();
        if ests.iter().any(|e| e.pairs == 0) {
            // Exact cardinalities: a zero-pair stage proves the answer
            // empty before any page is faulted.
            return empty_plan(segments, hash_lookups);
        }
        let k = ests.len() - 1;
        // Candidate reductions: 0 = forward; r = backward over the last
        // r boundaries. Short chains enumerate exhaustively; longer ones
        // keep forward, the full reduction, and the reduction reaching
        // the smallest stage (greedy smallest-intermediate).
        let mut cands: Vec<usize> = vec![0];
        if k >= 1 {
            match policy {
                JoinOrderPolicy::ForceForward => {}
                JoinOrderPolicy::ForceBackward => cands = vec![k],
                JoinOrderPolicy::Planned => {
                    if k <= 6 {
                        cands.extend(1..=k);
                    } else {
                        let argmin = ests
                            .iter()
                            .enumerate()
                            .skip(1)
                            .min_by_key(|(_, e)| e.pairs)
                            .map(|(i, _)| i)
                            .unwrap_or(k);
                        for r in [1, k, k - argmin] {
                            if r >= 1 && !cands.contains(&r) {
                                cands.push(r);
                            }
                        }
                    }
                }
            }
        }
        let predict = |r: usize| {
            if r == 0 {
                self.predict_forward(&ests)
            } else {
                self.predict_backward(&ests, r)
            }
        };
        // `cands` always holds at least one entry; seed the incumbent
        // with it rather than threading an Option through the sweep.
        let r0 = cands.first().copied().unwrap_or(0);
        let (f0, k0) = predict(r0);
        let mut best = (r0, f0, k0);
        for &r in cands.iter().skip(1) {
            let (f, kernels) = predict(r);
            let total = f.total();
            let bt = best.1.total();
            // A backward order must beat forward by a real margin:
            // near-ties go to the legacy order.
            let better = if best.0 == 0 {
                total < bt.saturating_mul(49) / 50
            } else {
                total < bt
            };
            if better {
                best = (r, f, kernels);
            }
        }
        let (r, f, kernels) = best;
        let order = if r == 0 {
            JoinOrder::Forward
        } else {
            JoinOrder::BackwardThenForward { reduce: r }
        };
        let mut predicted = f.rows.clone();
        predicted.push((OpKind::IndexNav, hash_lookups, 0));
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut digest, order.label().as_bytes());
        fnv(&mut digest, &(k as u64).to_le_bytes());
        for e in &ests {
            fnv(&mut digest, &e.pairs.to_le_bytes());
        }
        for kn in &kernels {
            fnv(&mut digest, kn.as_bytes());
        }
        PathPlan {
            stages: segments,
            hash_lookups,
            order,
            static_empty: false,
            digest,
            predicted_total: f.total() + hash_lookups,
            kernels,
            seed_label,
            predicted,
        }
    }

    /// Executes `plan`, returning the answer — the sorted, distinct end
    /// nodes of the last stage — plus the report pairing the plan's
    /// predictions with what actually ran.
    pub fn execute_path(
        &self,
        plan: &PathPlan,
        ctx: &mut ExecContext<'_>,
    ) -> (Vec<NodeId>, PlanReport) {
        let before = ctx.cost.ops;
        ctx.note_hash_lookups(plan.hash_lookups);
        let nodes = if plan.static_empty {
            Vec::new()
        } else {
            match plan.order {
                JoinOrder::Forward => self.run_forward(plan, ctx),
                JoinOrder::BackwardThenForward { reduce } => self.run_backward(plan, reduce, ctx),
            }
        };
        let report = build_report(
            plan.digest,
            plan.order.label(),
            &plan.predicted,
            &before,
            &ctx.cost.ops,
        );
        (nodes, report)
    }

    /// The seed union of `plan`: its first stage's classes, reading the
    /// seed label's node column when the plan names one.
    fn seed_union(&self, plan: &PathPlan, seed: &[XNodeId]) -> ExtentUnion<'a> {
        ExtentUnion {
            sources: seed.iter().map(|&x| self.apex.extent(x)).collect(),
            column: plan.seed_label.and_then(|l| self.apex.label_column(l)),
        }
    }

    /// Forward order: delegates to [`MultiwayJoin`], so the execution is
    /// identical to the legacy pipeline.
    fn run_forward(&self, plan: &PathPlan, ctx: &mut ExecContext<'_>) -> Vec<NodeId> {
        let mut it = plan.stages.iter();
        let Some(seed) = it.next() else {
            return Vec::new();
        };
        MultiwayJoin {
            seed: self.seed_union(plan, seed),
            stages: it
                .map(|classes| classes.iter().map(|&x| self.apex.extent(x)).collect())
                .collect(),
        }
        .run(ctx)
    }

    /// One attributed reverse semijoin of a stored extent against the
    /// sorted, distinct `parents` (every block is faulted — reverse
    /// reduction is a scan-side pass).
    fn reverse_step(
        &self,
        set: &SuccinctExtent,
        parents: &[NodeId],
        ctx: &mut ExecContext<'_>,
    ) -> EdgeSet {
        ctx.attributed(OpKind::SemijoinReverse, |cost, buf, scratch| {
            let report = reverse_semijoin_into(set, parents, &mut scratch.semi);
            let bx = set.image();
            for &kb in &scratch.semi.blocks {
                cost.pages_read += buf.touch(exec::block_oid(set, kb), bx.block_bytes(kb as usize));
            }
            cost.extent_pairs += report.pairs_read as u64;
            cost.join_work += report.work as u64;
            cost.join_output += scratch.semi.out.len() as u64;
            EdgeSet::from_sorted(scratch.semi.out.clone())
        })
    }

    /// Semijoin of the sorted, distinct `frontier` against an in-memory
    /// reduced stage: merge or gallop on actual sizes, zero pages
    /// (reduced stages are in-flight sets, not storage). Leaves the
    /// stage's sorted, distinct arrivals in `frontier`.
    fn memory_join(&self, ctx: &mut ExecContext<'_>, frontier: &mut Vec<NodeId>, stage: &EdgeSet) {
        let n = frontier.len().max(1);
        let m = stage.len();
        let gap_log = (usize::BITS - (m / n).max(1).leading_zeros()) as usize;
        let ends: &[NodeId] = frontier;
        let hit = if m + n <= n * (2 * gap_log + 4) {
            ctx.attributed(OpKind::SemijoinMerge, |cost, _, _| {
                let (hit, work) = stage.semijoin_ends(ends);
                cost.join_work += work as u64;
                cost.join_output += hit.len() as u64;
                hit
            })
        } else {
            ctx.attributed(OpKind::SemijoinGallop, |cost, _, _| {
                let (hit, probes) = stage.probe_by_parents(ends);
                cost.join_work += probes as u64;
                cost.join_output += hit.len() as u64;
                hit
            })
        };
        frontier.clear();
        frontier.extend(hit.iter().map(|p| p.node));
        ctx.sort_distinct(frontier);
    }

    /// Backward reduction of the last `r` boundaries, then the forward
    /// pass over the mixed stored/reduced chain. The reduced stages stay
    /// pair sets (the next one is joined by their parents); the forward
    /// pass carries a node frontier, as [`MultiwayJoin`] does.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass `1 <= r <= k = stages.len() - 1` (asserted), so `k`, `lo..k` and `1..=k` index `plan.stages`, and `reduced` has a slot per stage below `k`"
    )]
    fn run_backward(&self, plan: &PathPlan, r: usize, ctx: &mut ExecContext<'_>) -> Vec<NodeId> {
        let k = plan.stages.len() - 1;
        debug_assert!(r >= 1 && r <= k);
        let lo = k - r;
        // Distinct parents of the last stage (a full scan of it).
        let mut parents: Vec<NodeId> = Vec::new();
        let mut scratch = Vec::new();
        for &x in &plan.stages[k] {
            let set = self.apex.extent(x);
            ExtentScan::pairs(set).run(ctx);
            scratch.clear();
            set.decode_into(&mut scratch);
            parents.extend(scratch.iter().map(|p| p.parent));
        }
        ctx.sort_distinct(&mut parents);
        if parents.is_empty() {
            return Vec::new();
        }
        // Reduce stages k-1 .. lo.
        let mut reduced: Vec<EdgeSet> = vec![EdgeSet::new(); k];
        for i in (lo..k).rev() {
            if !ctx.checkpoint() {
                return Vec::new();
            }
            let mut stage_red = EdgeSet::new();
            for &x in &plan.stages[i] {
                let hit = self.reverse_step(self.apex.extent(x), &parents, ctx);
                stage_red.union_in_place(&hit, &mut scratch);
            }
            if stage_red.is_empty() {
                // Nothing upstream can extend into the reduced suffix:
                // the answer is empty, skip the rest (including the
                // seed union the forward order would have paid).
                return Vec::new();
            }
            parents.clear();
            parents.extend(stage_red.iter().map(|p| p.parent));
            ctx.sort_distinct(&mut parents);
            reduced[i] = stage_red;
        }
        // Forward pass.
        ctx.cost.ops.record(OpKind::MultiwayJoin, true, [0; 8]);
        let mut frontier: Vec<NodeId> = if lo == 0 {
            let mut seed: Vec<NodeId> = reduced[0].iter().map(|p| p.node).collect();
            ctx.sort_distinct(&mut seed);
            seed
        } else {
            self.seed_union(plan, &plan.stages[0]).run(ctx)
        };
        // `i` indexes the parallel `reduced` / `plan.stages` slices.
        #[allow(clippy::needless_range_loop)]
        for i in 1..=k {
            if frontier.is_empty() {
                break;
            }
            if !ctx.checkpoint() {
                frontier.clear();
                break;
            }
            if i >= lo && i < k {
                self.memory_join(ctx, &mut frontier, &reduced[i]);
            } else {
                let stage = plan.stages[i].iter().map(|&x| self.apex.extent(x));
                ctx.advance(&mut frontier, stage);
            }
        }
        frontier
    }

    /// Prunes the QTYPE2 query `//first//last` on `G_APEX` before any
    /// extent is read: finds the `first`-labelled seed classes through
    /// `H_APEX`, walks the class graph backwards once to mark the
    /// classes that can still reach a `last` edge, keeps only the live
    /// seeds, and ranks the live classes they reach in visiting order.
    /// No seed means no walk.
    pub(crate) fn plan_anc_desc(&self, first: LabelId, last: LabelId) -> AncDescPlan {
        let seg = self.apex.segment_nodes(&[first]);
        let mut plan = AncDescPlan {
            first,
            last,
            seeds: Vec::new(),
            pruned_seeds: 0,
            live_classes: 0,
            live: Vec::new(),
            rank: Vec::new(),
            hash_lookups: seg.hash_lookups,
            walk_edges: 0,
        };
        if seg.xnodes.is_empty() {
            return plan;
        }
        let (live, back_edges) = live_classes(self.apex, last);
        plan.live_classes = live.iter().filter(|&&l| l).count();
        plan.live = live;
        plan.seeds = seg
            .xnodes
            .iter()
            .copied()
            .filter(|&x| plan.is_live(x))
            .collect();
        plan.pruned_seeds = seg.xnodes.len() - plan.seeds.len();
        let (rank, order_edges) = visit_ranks(self.apex, &plan);
        plan.rank = rank;
        plan.walk_edges = back_edges + order_edges;
        plan
    }

    /// Forecast for a pruned QTYPE2 evaluation. Exact rows: the scans
    /// of the kept seeds (`ExtentScan`) and the lookups plus summary
    /// walk edges (`IndexNav`). The fixpoint itself is navigation whose
    /// cost the report surfaces as-is (an honest mispredict). The digest
    /// covers both labels and the pruned shape.
    pub(crate) fn forecast_anc_desc(&self, plan: &AncDescPlan) -> (u64, Vec<(OpKind, u64, u64)>) {
        let est = self.stage_est(&plan.seeds);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut digest, b"dataflow");
        fnv(&mut digest, &u64::from(plan.first.0).to_le_bytes());
        fnv(&mut digest, &u64::from(plan.last.0).to_le_bytes());
        fnv(&mut digest, &est.pairs.to_le_bytes());
        fnv(&mut digest, &(plan.live_classes as u64).to_le_bytes());
        (
            digest,
            vec![
                (OpKind::ExtentScan, est.pairs, est.blocks),
                (OpKind::IndexNav, plan.hash_lookups + plan.walk_edges, 0),
            ],
        )
    }
}

/// A QTYPE2 query `//first//last` pruned on the path summary (§6.1
/// "query pruning"): the seed classes worth scanning, the classes
/// worth propagating through, and the order to visit them in. Built
/// once per query by `Planner::plan_anc_desc`; the evaluator, the
/// forecast and `explain` all read this one value.
#[derive(Debug, Clone)]
pub(crate) struct AncDescPlan {
    /// `l_i`.
    pub first: LabelId,
    /// `l_j`.
    pub last: LabelId,
    /// Seed classes (incoming label `l_i`) from which an `l_j` edge is
    /// reachable, in `H_APEX` order.
    pub seeds: Vec<XNodeId>,
    /// Seed classes dropped because no `l_j` edge is reachable from
    /// them: never scanned.
    pub pruned_seeds: usize,
    /// Number of live classes.
    pub live_classes: usize,
    /// `live[x]`: class `x` has an out-edge labelled `l_j`, or an
    /// out-edge to a live class. Empty when there is no seed.
    live: Vec<bool>,
    /// `rank[x]`: position of class `x` in a reverse postorder of the
    /// live classes reachable from the seeds (`u32::MAX` elsewhere).
    rank: Vec<u32>,
    /// `H_APEX` lookups spent finding the seeds.
    pub hash_lookups: u64,
    /// `G_APEX` edges the two summary walks examined.
    pub walk_edges: u64,
}

impl AncDescPlan {
    /// True if an `l_j` edge is reachable from class `x`.
    #[inline]
    pub(crate) fn is_live(&self, x: XNodeId) -> bool {
        self.live.get(x.0 as usize).copied().unwrap_or(false)
    }

    /// Visiting priority of class `x` (lower first). On every acyclic
    /// stretch of the summary a class ranks after all its predecessors,
    /// so a fixpoint that always propagates the lowest-ranked pending
    /// class joins out of most classes once, with their whole delta.
    #[inline]
    pub(crate) fn visit_rank(&self, x: XNodeId) -> u32 {
        self.rank.get(x.0 as usize).copied().unwrap_or(u32::MAX)
    }
}

/// One backward walk over `G_APEX`: marks every class that has an
/// out-edge labelled `last` or an out-edge to a marked class. Returns
/// the marks (indexed by `XNodeId`) and the edges examined — one pass
/// over every class record to seed the marks and collect the reversed
/// edges, then each reversed edge into a marked class once.
fn live_classes(apex: &Apex, last: LabelId) -> (Vec<bool>, u64) {
    let mut live = vec![false; apex.graph().allocated()];
    let mut rev: Vec<(XNodeId, XNodeId)> = Vec::new();
    let mut stack: Vec<XNodeId> = Vec::new();
    for (i, mark) in live.iter_mut().enumerate() {
        let x = XNodeId(i as u32);
        for &(label, y) in apex.out_edges(x) {
            rev.push((y, x));
            if label == last && !*mark {
                *mark = true;
                stack.push(x);
            }
        }
    }
    let mut edges = rev.len() as u64;
    rev.sort_unstable();
    while let Some(y) = stack.pop() {
        let lo = rev.partition_point(|e| e.0 < y);
        for &(_, x) in rev.iter().skip(lo).take_while(|e| e.0 == y) {
            edges += 1;
            if let Some(mark) = live.get_mut(x.0 as usize) {
                if !*mark {
                    *mark = true;
                    stack.push(x);
                }
            }
        }
    }
    (live, edges)
}

/// One forward depth-first walk from `plan`'s seeds over live classes:
/// returns the reverse-postorder rank of every class it reaches
/// (`u32::MAX` elsewhere) and the edges it examined.
fn visit_ranks(apex: &Apex, plan: &AncDescPlan) -> (Vec<u32>, u64) {
    let mut seen = vec![false; plan.live.len()];
    let mut post: Vec<XNodeId> = Vec::new();
    let mut stack: Vec<(XNodeId, usize)> = Vec::new();
    let mut edges = 0u64;
    let mut enter = |x: XNodeId, stack: &mut Vec<(XNodeId, usize)>| {
        if let Some(mark) = seen.get_mut(x.0 as usize) {
            if !*mark {
                *mark = true;
                stack.push((x, 0));
            }
        }
    };
    for &s in &plan.seeds {
        enter(s, &mut stack);
        while let Some(top) = stack.last_mut() {
            let (x, i) = *top;
            top.1 += 1;
            match apex.out_edges(x).get(i) {
                Some(&(_, y)) => {
                    edges += 1;
                    if plan.is_live(y) {
                        enter(y, &mut stack);
                    }
                }
                None => {
                    post.push(x);
                    stack.pop();
                }
            }
        }
    }
    let mut rank = vec![u32::MAX; plan.live.len()];
    for (r, x) in post.iter().rev().enumerate() {
        if let Some(slot) = rank.get_mut(x.0 as usize) {
            *slot = r as u32;
        }
    }
    (rank, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex::Workload;
    use apex_storage::bufmgr::BufferHandle;
    use xmlgraph::builder::moviedb;
    use xmlgraph::{LabelPath, XmlGraph};

    fn setup(g: &XmlGraph, workload: &[&str]) -> Apex {
        let mut idx = Apex::build_initial(g);
        if !workload.is_empty() {
            let wl = Workload::parse(g, workload).unwrap();
            idx.refine(g, &wl, 0.1);
        }
        idx
    }

    fn labels(g: &XmlGraph, p: &str) -> Vec<LabelId> {
        LabelPath::parse(g, p).unwrap().0
    }

    #[test]
    fn forward_and_backward_orders_agree() {
        let g = moviedb();
        let idx = setup(&g, &[]);
        let planner = Planner::new(&idx, None, KernelPolicy::Adaptive, 0);
        for p in [
            "actor.name",
            "director.movie.title",
            "@movie.movie",
            "actor.@movie.movie.title",
            "director.movie.@director.director.name",
        ] {
            let ls = labels(&g, p);
            let mut want = None;
            for policy in [
                JoinOrderPolicy::Planned,
                JoinOrderPolicy::ForceForward,
                JoinOrderPolicy::ForceBackward,
            ] {
                let plan = planner.plan_path(&ls, policy);
                let buf = BufferHandle::unbounded();
                let mut ctx = ExecContext::new(&buf);
                let (out, report) = planner.execute_path(&plan, &mut ctx);
                match &want {
                    None => want = Some(out),
                    Some(w) => assert_eq!(&out, w, "{p} under {}", policy.name()),
                }
                // Every scalar the execution moved is in the report.
                let cost = ctx.finish();
                let attributed: u64 = report
                    .forecasts
                    .iter()
                    .map(|f| f.actual_work + f.actual_pages)
                    .sum();
                assert_eq!(attributed, cost.total(), "{p} under {}", policy.name());
            }
        }
    }

    #[test]
    fn backward_reduction_prunes_with_reverse_semijoins() {
        let g = moviedb();
        let idx = setup(&g, &[]);
        let planner = Planner::new(&idx, None, KernelPolicy::Adaptive, 0);
        let ls = labels(&g, "director.movie.title");
        let plan = planner.plan_path(&ls, JoinOrderPolicy::ForceBackward);
        assert!(matches!(
            plan.order,
            JoinOrder::BackwardThenForward { reduce: 2 }
        ));
        let buf = BufferHandle::unbounded();
        let mut ctx = ExecContext::new(&buf);
        let (out, report) = planner.execute_path(&plan, &mut ctx);
        assert!(!out.is_empty());
        assert!(report
            .forecasts
            .iter()
            .any(|f| f.kind == OpKind::SemijoinReverse && f.actual_work > 0));
        assert_eq!(report.order, "backward(2)");
    }

    #[test]
    fn unknown_label_and_zero_stage_plans_are_static_empty() {
        let g = moviedb();
        let idx = setup(&g, &[]);
        let planner = Planner::new(&idx, None, KernelPolicy::Adaptive, 0);
        // `title.actor` exists label-wise but has an empty class list in
        // some stage only if cardinality is zero; craft the guaranteed
        // case instead: a stage whose extents are all empty cannot occur
        // in moviedb, so check the unknown-label path (no exact prefix).
        let ls = labels(&g, "title.actor");
        let plan = planner.plan_path(&ls, JoinOrderPolicy::Planned);
        let buf = BufferHandle::unbounded();
        let mut ctx = ExecContext::new(&buf);
        let (out, report) = planner.execute_path(&plan, &mut ctx);
        if plan.static_empty {
            assert_eq!(ctx.cost.pages_read, 0);
        }
        assert!(out.is_empty() || !plan.static_empty);
        assert!(report.mispredict_ratio().is_finite());
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let g = moviedb();
        let idx = setup(&g, &[]);
        let planner = Planner::new(&idx, None, KernelPolicy::Adaptive, 0);
        let ls = labels(&g, "director.movie.title");
        let a = planner.plan_path(&ls, JoinOrderPolicy::ForceForward);
        let b = planner.plan_path(&ls, JoinOrderPolicy::ForceForward);
        let c = planner.plan_path(&ls, JoinOrderPolicy::ForceBackward);
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn planned_forward_execution_matches_legacy_multiway_costs() {
        // A forward plan must be bit-for-bit the legacy pipeline: same
        // result, same cost scalars.
        let g = moviedb();
        let idx = setup(&g, &["actor.name"]);
        let planner = Planner::new(&idx, None, KernelPolicy::Adaptive, 0);
        let ls = labels(&g, "director.movie.title");
        let plan = planner.plan_path(&ls, JoinOrderPolicy::ForceForward);
        let buf = BufferHandle::unbounded();
        let mut ctx = ExecContext::new(&buf);
        let (out, _) = planner.execute_path(&plan, &mut ctx);
        let planned_cost = ctx.finish();

        // Legacy: explicit segmentation + MultiwayJoin.
        let buf2 = BufferHandle::unbounded();
        let mut ctx2 = ExecContext::new(&buf2);
        let n = ls.len();
        let mut segments: Vec<Vec<XNodeId>> = Vec::new();
        for j in (1..=n).rev() {
            let seg = idx.segment_nodes(&ls[..j]);
            ctx2.note_hash_lookups(seg.hash_lookups);
            segments.push(seg.xnodes);
            if seg.exact {
                break;
            }
        }
        let mut it = segments.into_iter().rev();
        let seed = it.next().unwrap();
        let legacy = MultiwayJoin {
            seed: ExtentUnion {
                sources: seed.iter().map(|&x| planner.apex.extent(x)).collect(),
                column: None,
            },
            stages: it
                .map(|cs| cs.iter().map(|&x| planner.apex.extent(x)).collect())
                .collect(),
        }
        .run(&mut ctx2);
        assert_eq!(out, legacy);
        let legacy_cost = ctx2.finish();
        assert_eq!(planned_cost.scalars(), legacy_cost.scalars());
    }

    #[test]
    fn report_feedback_flattens_rows() {
        let rep = PlanReport {
            digest: 7,
            order: "forward".into(),
            forecasts: vec![OpForecast {
                kind: OpKind::ExtentUnion,
                predicted_work: 10,
                predicted_pages: 2,
                actual_work: 9,
                actual_pages: 2,
            }],
        };
        let rows: Vec<_> = rep.feedback().collect();
        assert_eq!(rows, vec![(OpKind::ExtentUnion, 12, 11)]);
        assert!((rep.mispredict_ratio() - 1.0 / 11.0).abs() < 1e-9);
        let s = rep.render();
        assert!(s.contains("mispredict ratio"));
        assert!(s.contains("ExtentUnion"));
    }
}
