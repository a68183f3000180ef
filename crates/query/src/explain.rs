//! Query-plan explanation for the APEX processor.
//!
//! `EXPLAIN` support mirrors the §6.1 evaluation strategy: a QTYPE1 plan
//! shows how the query path was segmented against `H_APEX` (the
//! decreasing-`j` lookup loop), which class nodes feed each segment, and
//! whether the query is answered *directly* from one extent union (the
//! whole path is a required path) or needs a join chain. Useful for
//! understanding why a particular `minSup` setting helps a workload. A
//! QTYPE2 plan reports the same summary pruning the evaluator runs:
//! seed classes kept and pruned, and the live class count.

use apex::Apex;
use apex_storage::bufmgr::BufferStats;
use apex_storage::KernelPolicy;
use xmlgraph::{LabelId, XmlGraph};

use crate::ast::Query;
use crate::plan::{JoinOrderPolicy, Planner};

/// One segment of a QTYPE1 plan: the query prefix `labels[..prefix_len]`
/// resolved through `H_APEX`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPlan {
    /// Length of the query prefix this segment covers.
    pub prefix_len: usize,
    /// Number of `G_APEX` class nodes whose extents are unioned.
    pub classes: usize,
    /// Total extent pairs behind those classes.
    pub extent_pairs: usize,
    /// True if the prefix is itself a required path (exact — terminates
    /// the segmentation loop).
    pub exact: bool,
    /// The planner's kernel for joining into this segment (`reverse`
    /// for a stage the backward order reduces first). `None` for the
    /// seed segment, which is unioned, not joined, and for every segment
    /// of a statically empty plan, which joins nothing.
    pub kernel: Option<&'static str>,
}

/// An explained plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// QTYPE1/QTYPE3: either answered directly off one segment
    /// (`segments.len() == 1`) or via a join chain.
    PathJoin {
        /// Segments in evaluation order (exact seed first).
        segments: Vec<SegmentPlan>,
        /// Number of semijoin steps to perform.
        joins: usize,
        /// QTYPE3 only: the value predicate requiring table probes.
        value_filter: bool,
        /// Join order chosen by the cost-based planner
        /// ([`crate::plan::Planner`]): `forward` or `backward(r)`.
        order: String,
        /// The planner's predicted total cost for the chosen order.
        predicted_total: u64,
    },
    /// QTYPE2: dataflow from the `first`-labeled classes, pruned on
    /// `G_APEX` (the planner's `AncDescPlan`).
    AncestorDescendant {
        /// Seed classes (incoming label = `l_i`) kept: an `l_j` edge is
        /// reachable from them.
        seed_classes: usize,
        /// Seed classes pruned: never scanned.
        pruned_seeds: usize,
        /// Pairs in the kept seed extents.
        seed_pairs: usize,
        /// Classes the traversal may propagate through.
        live_classes: usize,
    },
    /// The query references a label unknown to the index: empty result.
    Empty,
}

impl Plan {
    /// True if no joins and no graph traversal are needed (single exact
    /// segment — the "direct answer" case the paper optimizes for).
    pub fn is_direct(&self) -> bool {
        matches!(
            self,
            Plan::PathJoin { segments, joins: 0, .. } if segments.len() == 1
        )
    }

    /// Human-readable rendering, naming the physical operators of the
    /// shared execution layer ([`crate::exec`]) the plan runs through.
    pub fn render(&self, g: &XmlGraph, q: &Query) -> String {
        let mut s = format!("EXPLAIN {}\n", q.render(g));
        match self {
            Plan::Empty => s.push_str("  -> empty (unknown label)\n"),
            Plan::AncestorDescendant {
                seed_classes,
                pruned_seeds,
                seed_pairs,
                live_classes,
            } => {
                s.push_str(&format!(
                    "  -> pruned on G_APEX: {live_classes} live class(es) reach an l_j edge; \
                     {seed_classes} seed class(es) kept, {pruned_seeds} pruned\n"
                ));
                if *seed_classes == 0 {
                    s.push_str("  -> empty (no l_j edge reachable from an l_i class)\n");
                } else {
                    s.push_str(&format!(
                        "  -> dataflow from {seed_classes} class node(s), {seed_pairs} seed pair(s)\n"
                    ));
                    s.push_str(
                        "  -> Semijoin(merge|gallop|block-skip, adaptive) per l_j or live G_APEX \
                         edge, node frontier until fixpoint\n",
                    );
                }
            }
            Plan::PathJoin {
                segments,
                joins,
                value_filter,
                order,
                predicted_total,
            } => {
                for seg in segments {
                    s.push_str(&format!(
                        "  -> prefix[..{}]: {} class(es), {} pair(s){}{}\n",
                        seg.prefix_len,
                        seg.classes,
                        seg.extent_pairs,
                        if seg.exact { " [exact]" } else { "" },
                        match seg.kernel {
                            Some(k) => format!(" [semijoin: {k}]"),
                            None => String::new(),
                        }
                    ));
                }
                if *joins == 0 {
                    s.push_str("  -> ExtentUnion: direct answer from extents (no joins)\n");
                } else {
                    s.push_str(&format!(
                        "  -> MultiwayJoin: ExtentUnion seed + {joins} Semijoin step(s), kernels as above\n"
                    ));
                    s.push_str(&format!(
                        "  -> join order: {order} (cost-based, predicted total {predicted_total})\n"
                    ));
                }
                if *value_filter {
                    s.push_str("  -> DataProbe value filter\n");
                }
            }
        }
        s
    }

    /// [`Plan::render`] followed by the cross-query buffer pool's state,
    /// so `explain` output shows how much of the plan's I/O the pool
    /// would absorb.
    pub fn render_with_buffer(&self, g: &XmlGraph, q: &Query, stats: &BufferStats) -> String {
        let mut s = self.render(g, q);
        s.push_str(&format!("  -> buffer pool: {stats}\n"));
        s
    }
}

/// Produces the plan APEX would execute for `q` (without executing it).
pub fn explain_apex(apex: &Apex, q: &Query) -> Plan {
    match q {
        Query::AncestorDescendant { first, last } => {
            let plan =
                Planner::new(apex, None, KernelPolicy::Adaptive, 0).plan_anc_desc(*first, *last);
            if plan.seeds.is_empty() && plan.pruned_seeds == 0 {
                return Plan::Empty;
            }
            Plan::AncestorDescendant {
                seed_classes: plan.seeds.len(),
                pruned_seeds: plan.pruned_seeds,
                seed_pairs: plan.seeds.iter().map(|&x| apex.extent(x).len()).sum(),
                live_classes: plan.live_classes,
            }
        }
        Query::PartialPath { labels } => plan_path(apex, labels, false),
        Query::ValuePath { labels, .. } => plan_path(apex, labels, true),
    }
}

/// The QTYPE1/QTYPE3 plan as the planner builds it (over the stored
/// extents, as serving does): its segments and kernels are
/// the planner's `PathPlan.stages` and `PathPlan.kernels`, not a second
/// derivation, so the rendered plan is the one execution runs.
fn plan_path(apex: &Apex, labels: &[LabelId], value_filter: bool) -> Plan {
    let planned = Planner::new(apex, None, KernelPolicy::Adaptive, 0)
        .plan_path(labels, JoinOrderPolicy::Planned);
    // No stage at all: the path's first label is unknown.
    let Some(joins) = planned.stages.len().checked_sub(1) else {
        return Plan::Empty;
    };
    // The decreasing-j loop stops at the first exact prefix, so the seed
    // covers `labels[..n - joins]` and each later stage one label more.
    let seed_len = labels.len() - joins;
    let segments = planned
        .stages
        .iter()
        .enumerate()
        .map(|(i, classes)| SegmentPlan {
            prefix_len: seed_len + i,
            classes: classes.len(),
            extent_pairs: classes.iter().map(|&x| apex.extent(x).len()).sum(),
            exact: i == 0,
            kernel: i
                .checked_sub(1)
                .and_then(|b| planned.kernels.get(b).copied()),
        })
        .collect();
    Plan::PathJoin {
        segments,
        joins,
        value_filter,
        order: planned.order.label(),
        predicted_total: planned.predicted_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex::Workload;
    use xmlgraph::builder::moviedb;

    fn figure2() -> (XmlGraph, Apex) {
        let g = moviedb();
        let mut idx = Apex::build_initial(&g);
        let wl = Workload::parse(&g, &["actor.name"]).unwrap();
        idx.refine(&g, &wl, 0.5);
        (g, idx)
    }

    #[test]
    fn required_path_is_direct() {
        let (g, idx) = figure2();
        let q = Query::parse(&g, "//actor/name").unwrap();
        let plan = explain_apex(&idx, &q);
        assert!(plan.is_direct(), "{plan:?}");
        let rendered = plan.render(&g, &q);
        assert!(rendered.contains("direct answer"));
        assert!(rendered.contains("[exact]"));
    }

    #[test]
    fn non_required_path_needs_joins() {
        let (g, idx) = figure2();
        let q = Query::parse(&g, "//director/movie/title").unwrap();
        let plan = explain_apex(&idx, &q);
        assert!(!plan.is_direct());
        let Plan::PathJoin {
            segments,
            joins,
            value_filter,
            order,
            ..
        } = &plan
        else {
            panic!("expected path plan")
        };
        assert_eq!(*joins, segments.len() - 1);
        assert!(*joins >= 1);
        assert!(!value_filter);
        // Seed (first segment) is the exact one.
        assert!(segments[0].exact);
        assert!(segments.iter().skip(1).all(|s| !s.exact));
        // The seed is unioned; every join stage shows its predicted kernel.
        assert!(segments[0].kernel.is_none());
        assert!(segments.iter().skip(1).all(|s| s.kernel.is_some()));
        let rendered = plan.render(&g, &q);
        assert!(rendered.contains("[semijoin: "), "{rendered}");
        // The cost-based planner's chosen join order is part of the plan.
        assert!(
            order.as_str() == "forward" || order.starts_with("backward("),
            "{order}"
        );
        assert!(rendered.contains("join order: "), "{rendered}");
    }

    #[test]
    fn explain_shows_the_planners_segments_and_kernels() {
        // One derivation: for every generated path query, on APEX⁰ and a
        // refined index, explain's segments and kernels are the plan the
        // planner executes.
        use crate::generator::{GeneratorConfig, QuerySets};
        use apex_storage::{DataTable, PageModel};
        let g = datagen::gedml(60, 7);
        let t = DataTable::build(&g, PageModel::default());
        let cfg = GeneratorConfig {
            qtype1: 300,
            qtype2: 0,
            qtype3: 60,
            seed: 0xE4,
            ..GeneratorConfig::default()
        };
        let sets = QuerySets::generate(&g, &t, cfg);
        let apex0 = Apex::build_initial(&g);
        let mut refined = apex0.clone();
        refined.refine(&g, &sets.workload, 0.01);
        let mut joined = 0;
        for idx in [&apex0, &refined] {
            let planner = Planner::new(idx, None, KernelPolicy::Adaptive, 0);
            for q in sets.qtype1.iter().chain(&sets.qtype3) {
                let labels = q.labels().expect("path query");
                let want = planner.plan_path(labels, JoinOrderPolicy::Planned);
                let Plan::PathJoin {
                    segments,
                    joins,
                    order,
                    predicted_total,
                    ..
                } = explain_apex(idx, q)
                else {
                    assert!(want.stages.is_empty(), "{}", q.render(&g));
                    continue;
                };
                let classes: Vec<usize> = want.stages.iter().map(Vec::len).collect();
                let got: Vec<usize> = segments.iter().map(|s| s.classes).collect();
                assert_eq!(got, classes, "{}", q.render(&g));
                let kernels: Vec<&str> = segments.iter().filter_map(|s| s.kernel).collect();
                assert_eq!(kernels, want.kernels, "{}", q.render(&g));
                assert_eq!(joins, want.stages.len() - 1);
                assert_eq!(segments.last().map(|s| s.prefix_len), Some(labels.len()));
                assert_eq!(order, want.order.label());
                assert_eq!(predicted_total, want.predicted_total);
                joined += usize::from(joins > 0 && !want.static_empty);
            }
        }
        assert!(joined > 0, "the sets include joined plans");
    }

    #[test]
    fn value_path_plans_table_filter() {
        let (g, idx) = figure2();
        let q = Query::parse(&g, "//title[text() = \"Star Wars\"]").unwrap();
        let plan = explain_apex(&idx, &q);
        let Plan::PathJoin { value_filter, .. } = &plan else {
            panic!()
        };
        assert!(value_filter);
        assert!(plan.render(&g, &q).contains("value filter"));
    }

    #[test]
    fn render_with_buffer_appends_pool_state() {
        use crate::apex_qp::ApexProcessor;
        use crate::batch::QueryProcessor;
        use apex_storage::{DataTable, PageModel};
        let (g, idx) = figure2();
        let table = DataTable::build(&g, PageModel::default());
        let qp = ApexProcessor::new(&g, &idx, &table);
        let q = Query::parse(&g, "//actor/name").unwrap();
        let _ = qp.eval(&q);
        let stats = qp.buffer().unwrap().stats();
        let s = explain_apex(&idx, &q).render_with_buffer(&g, &q, &stats);
        assert!(s.contains("buffer pool"));
        assert!(s.contains("hit_rate"));
    }

    #[test]
    fn executed_plan_report_shows_predicted_and_actual() {
        // The `explain` tail: evaluating the query yields a PlanReport
        // whose rendering puts predicted and actual cost side by side
        // with the mispredict ratio.
        use crate::apex_qp::ApexProcessor;
        use crate::batch::QueryProcessor;
        use apex_storage::{DataTable, PageModel};
        let (g, idx) = figure2();
        let table = DataTable::build(&g, PageModel::default());
        let qp = ApexProcessor::new(&g, &idx, &table);
        let q = Query::parse(&g, "//director/movie/title").unwrap();
        let out = qp.eval(&q);
        let rep = out.plan.expect("apex plans every path query");
        let rendered = rep.render();
        assert!(rendered.contains("pred.work"), "{rendered}");
        assert!(rendered.contains("act.work"), "{rendered}");
        assert!(rendered.contains("mispredict ratio"), "{rendered}");
        assert!(!rep.forecasts.is_empty());
    }

    #[test]
    fn qtype2_plan_counts_seeds() {
        let (g, idx) = figure2();
        let q = Query::parse(&g, "//movie//name").unwrap();
        let plan = explain_apex(&idx, &q);
        let Plan::AncestorDescendant {
            seed_classes,
            pruned_seeds,
            seed_pairs,
            live_classes,
        } = plan
        else {
            panic!()
        };
        assert!(seed_classes >= 1);
        assert_eq!(pruned_seeds, 0);
        assert!(live_classes >= seed_classes);
        // T(movie) = {<0,14>, <7,8>, <9,8>, <16,14>}.
        assert_eq!(seed_pairs, 4);
        let rendered = plan.render(&g, &q);
        assert!(rendered.contains("pruned on G_APEX"), "{rendered}");
        assert!(rendered.contains("node frontier"), "{rendered}");
    }

    #[test]
    fn qtype2_plan_reports_pruned_seeds() {
        // No G_APEX path leads from a `title` class to a `movie` edge:
        // every seed is pruned and the plan says the answer is empty.
        let (g, idx) = figure2();
        let q = Query::parse(&g, "//title//movie").unwrap();
        let plan = explain_apex(&idx, &q);
        let Plan::AncestorDescendant {
            seed_classes,
            pruned_seeds,
            seed_pairs,
            ..
        } = plan
        else {
            panic!("{plan:?}")
        };
        assert_eq!((seed_classes, seed_pairs), (0, 0));
        assert!(pruned_seeds >= 1);
        assert!(plan.render(&g, &q).contains("no l_j edge reachable"));
    }

    #[test]
    fn plan_matches_execution_cost_shape() {
        // A direct plan must execute with zero join work; a join plan
        // with nonzero join work.
        use crate::apex_qp::ApexProcessor;
        use crate::batch::QueryProcessor;
        use apex_storage::{DataTable, PageModel};
        let (g, idx) = figure2();
        let table = DataTable::build(&g, PageModel::default());
        let qp = ApexProcessor::new(&g, &idx, &table);

        let direct = Query::parse(&g, "//actor/name").unwrap();
        assert!(explain_apex(&idx, &direct).is_direct());
        assert_eq!(qp.eval(&direct).cost.join_work, 0);

        let joined = Query::parse(&g, "//director/movie/title").unwrap();
        assert!(!explain_apex(&idx, &joined).is_direct());
        assert!(qp.eval(&joined).cost.join_work > 0);
    }
}
