//! Property-based differential tests: random graphs × random workloads ×
//! random queries. APEX (refined arbitrarily) and the DataGuide must
//! always agree with direct graph evaluation, and the index invariants
//! (Theorems 1 and 2, hash-tree/remainder consistency) must hold.

use apex::{extent_equivalent, Apex, Workload};
use apex_query::batch::QueryProcessor;
use apex_query::naive::NaiveProcessor;
use apex_query::{apex_qp::ApexProcessor, guide_qp::GuideProcessor};
use apex_storage::{DataTable, PageModel};
use dataguide::DataGuide;
use proptest::prelude::*;
use xmlgraph::builder::RawGraphBuilder;
use xmlgraph::{LabelPath, XmlGraph};

/// Strategy parameters for a random labeled digraph: a random tree over
/// `n` nodes with labels from a small alphabet, plus `extra` reference
/// edges labeled with their target's tag (the §3 encoding invariant).
#[derive(Debug, Clone)]
struct RandGraph {
    /// parent[i] < i for node i+1.
    parents: Vec<usize>,
    /// Tag index (into alphabet) per non-root node.
    tags: Vec<usize>,
    /// Extra edges (from, to) by node index.
    extras: Vec<(usize, usize)>,
    /// Values on some leaves.
    values: Vec<(usize, u8)>,
}

const ALPHABET: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

fn rand_graph(max_nodes: usize) -> impl Strategy<Value = RandGraph> {
    (2..max_nodes).prop_flat_map(|n| {
        let parents = (1..n).map(|i| (0..i).boxed()).collect::<Vec<_>>();
        let tags = proptest::collection::vec(0..ALPHABET.len(), n - 1);
        let extras = proptest::collection::vec((0..n, 1..n), 0..n / 2);
        let values = proptest::collection::vec((1..n, 0u8..5), 0..n / 2);
        (parents, tags, extras, values).prop_map(|(parents, tags, extras, values)| RandGraph {
            parents,
            tags,
            extras,
            values,
        })
    })
}

fn materialize(rg: &RandGraph) -> XmlGraph {
    let n = rg.parents.len() + 1;
    let mut b = RawGraphBuilder::new();
    b.node(0, "root", None, None);
    for i in 1..n {
        let tag = ALPHABET[rg.tags[i - 1]];
        let value = rg
            .values
            .iter()
            .find(|(node, _)| *node == i)
            .map(|(_, v)| format!("v{v}"));
        b.node(
            i as u32,
            tag,
            Some(rg.parents[i - 1] as u32),
            value.as_deref(),
        );
    }
    // Tree edges (label = child's tag).
    for i in 1..n {
        let tag = ALPHABET[rg.tags[i - 1]];
        b.edge(rg.parents[i - 1] as u32, tag, i as u32);
    }
    // Extra edges labeled with the target's tag (may create cycles and
    // multi-parents, like IDREF references).
    for &(from, to) in &rg.extras {
        if from == to {
            continue;
        }
        let tag = ALPHABET[rg.tags[to - 1]];
        b.edge(from as u32, tag, to as u32);
    }
    b.finish(&[])
}

/// Random label paths over the alphabet (some matching, some not).
fn rand_paths(max_len: usize, count: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(
        proptest::collection::vec(0..ALPHABET.len(), 1..=max_len),
        1..=count,
    )
}

fn to_label_path(g: &XmlGraph, idxs: &[usize]) -> Option<LabelPath> {
    let labels = idxs
        .iter()
        .map(|&i| g.label_id(ALPHABET[i]))
        .collect::<Option<Vec<_>>>()?;
    Some(LabelPath::new(labels))
}

/// Refines `apex` over `wl` and certifies the result with the structural
/// validator (entry exclusivity, Theorems 1–2, extent labeling, label
/// coverage, determinism, garbage-free arenas, no dangling class).
/// Every refine in this suite goes through here.
fn refine_checked(g: &XmlGraph, apex: &mut Apex, wl: &Workload, min_sup: f64) {
    apex.refine(g, wl, min_sup);
    apex::validate::assert_valid(g, apex);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    /// QTYPE1 equivalence: APEX⁰, workload-refined APEX and the SDG all
    /// agree with naive evaluation on arbitrary graphs and queries.
    #[test]
    fn qtype1_equivalence(
        rg in rand_graph(40),
        workload_paths in rand_paths(3, 6),
        query_paths in rand_paths(4, 12),
        min_sup in 0.05f64..0.9,
    ) {
        let g = materialize(&rg);
        let table = DataTable::build(&g, PageModel::default());
        let naive = NaiveProcessor::new(&g, &table);
        let sdg = DataGuide::build(&g);

        let mut apex = Apex::build_initial(&g);
        let wl_paths: Vec<LabelPath> = workload_paths
            .iter()
            .filter_map(|p| to_label_path(&g, p))
            .collect();
        let wl = Workload::from_paths(wl_paths);
        refine_checked(&g, &mut apex, &wl, min_sup);

        let ap = ApexProcessor::new(&g, &apex, &table);
        let gp = GuideProcessor::new(&g, &sdg, &table);

        for qp in &query_paths {
            let Some(path) = to_label_path(&g, qp) else { continue };
            let q = apex_query::Query::PartialPath { labels: path.0.clone() };
            let expect = naive.eval(&q).nodes;
            prop_assert_eq!(&ap.eval(&q).nodes, &expect, "APEX on {}", q.render(&g));
            prop_assert_eq!(&gp.eval(&q).nodes, &expect, "SDG on {}", q.render(&g));
        }
    }

    /// QTYPE3 equivalence: the sorted value test after APEX's and the
    /// SDG's QTYPE1 answers keeps exactly naive's nodes.
    #[test]
    fn qtype3_equivalence(
        rg in rand_graph(40),
        workload_paths in rand_paths(3, 6),
        query_paths in rand_paths(3, 10),
        value in 0u8..5,
        min_sup in 0.05f64..0.9,
    ) {
        let g = materialize(&rg);
        let table = DataTable::build(&g, PageModel::default());
        let naive = NaiveProcessor::new(&g, &table);
        let sdg = DataGuide::build(&g);
        let mut apex = Apex::build_initial(&g);
        let wl = Workload::from_paths(
            workload_paths.iter().filter_map(|p| to_label_path(&g, p)).collect(),
        );
        refine_checked(&g, &mut apex, &wl, min_sup);
        let ap = ApexProcessor::new(&g, &apex, &table);
        let gp = GuideProcessor::new(&g, &sdg, &table);
        for qp in &query_paths {
            let Some(path) = to_label_path(&g, qp) else { continue };
            let q = apex_query::Query::ValuePath { labels: path.0.clone(), value: format!("v{value}") };
            let expect = naive.eval(&q).nodes;
            let out = ap.eval(&q);
            prop_assert_eq!(&out.nodes, &expect, "APEX on {}", q.render(&g));
            prop_assert_eq!(&gp.eval(&q).nodes, &expect, "SDG on {}", q.render(&g));
            // One probe per QTYPE1 answer node.
            let candidates = ap.eval(&apex_query::Query::PartialPath { labels: path.0 }).nodes;
            prop_assert_eq!(out.cost.table_probes, candidates.len() as u64);
        }
    }

    /// QTYPE2 equivalence on random graphs.
    #[test]
    fn qtype2_equivalence(
        rg in rand_graph(30),
        pairs in proptest::collection::vec((0..ALPHABET.len(), 0..ALPHABET.len()), 1..8),
        min_sup in 0.05f64..0.9,
    ) {
        let g = materialize(&rg);
        let table = DataTable::build(&g, PageModel::default());
        let naive = NaiveProcessor::new(&g, &table);
        let sdg = DataGuide::build(&g);
        let mut apex = Apex::build_initial(&g);
        let wl = Workload::from_paths(vec![]);
        refine_checked(&g, &mut apex, &wl, min_sup);
        let ap = ApexProcessor::new(&g, &apex, &table);
        let gp = GuideProcessor::new(&g, &sdg, &table);
        for &(a, b) in &pairs {
            let (Some(first), Some(last)) =
                (g.label_id(ALPHABET[a]), g.label_id(ALPHABET[b])) else { continue };
            let q = apex_query::Query::AncestorDescendant { first, last };
            let expect = naive.eval(&q).nodes;
            prop_assert_eq!(&ap.eval(&q).nodes, &expect, "APEX on {}", q.render(&g));
            prop_assert_eq!(&gp.eval(&q).nodes, &expect, "SDG on {}", q.render(&g));
        }
    }

    /// Theorems 1 & 2 hold for arbitrary graphs and workloads.
    #[test]
    fn theorems_hold(
        rg in rand_graph(35),
        workload_paths in rand_paths(3, 8),
        min_sup in 0.01f64..0.9,
    ) {
        let g = materialize(&rg);
        let mut apex = Apex::build_initial(&g);
        let wl = Workload::from_paths(
            workload_paths.iter().filter_map(|p| to_label_path(&g, p)).collect(),
        );
        refine_checked(&g, &mut apex, &wl, min_sup);

        // Theorem 1: simulation from G_XML to G_APEX.
        let mut stack = vec![(g.root(), apex.xroot())];
        let mut seen = std::collections::HashSet::new();
        while let Some((v, x)) = stack.pop() {
            if !seen.insert((v, x)) {
                continue;
            }
            for e in g.out_edges(v) {
                let child = apex
                    .out_edges(x)
                    .iter()
                    .find(|(l, _)| *l == e.label)
                    .map(|(_, t)| *t);
                prop_assert!(child.is_some(), "unsimulated edge label {}", g.label_str(e.label));
                stack.push((e.to, child.unwrap()));
            }
        }

        // Theorem 2: index length-2 paths exist in data.
        let mut data_pairs = std::collections::HashSet::new();
        for (_, l1, mid) in g.edges() {
            for e in g.out_edges(mid) {
                data_pairs.insert((l1, e.label));
            }
        }
        for x in apex.graph().reachable(apex.xroot()) {
            if let Some(inc) = apex.incoming_label(x) {
                for &(l2, _) in apex.out_edges(x) {
                    prop_assert!(data_pairs.contains(&(inc, l2)));
                }
            }
        }
    }

    /// §5.3 under drift: one live index refined through a sequence of
    /// unrelated windows equals, after every window, `APEX⁰` refined over
    /// that window alone.
    #[test]
    fn drifting_refines_equal_from_scratch(
        rg in rand_graph(35),
        windows in proptest::collection::vec(rand_paths(3, 8), 2..5),
        min_sup in 0.05f64..0.6,
    ) {
        let g = materialize(&rg);
        let apex0 = Apex::build_initial(&g);
        let mut live = apex0.clone();
        for window in &windows {
            let wl = Workload::from_paths(
                window.iter().filter_map(|p| to_label_path(&g, p)).collect(),
            );
            if wl.is_empty() {
                continue; // an empty window never reshapes the index
            }
            refine_checked(&g, &mut live, &wl, min_sup);
            let mut scratch = apex0.clone();
            refine_checked(&g, &mut scratch, &wl, min_sup);
            let same = extent_equivalent(&g, &live, &scratch);
            prop_assert!(same.is_ok(), "live diverged from scratch: {same:?}");
        }
    }

    /// The one-scan subpath counting in H_APEX agrees with the reference
    /// support definition.
    #[test]
    fn support_counting_correct(
        rg in rand_graph(25),
        workload_paths in rand_paths(4, 10),
        min_sup in 0.1f64..0.9,
    ) {
        let g = materialize(&rg);
        let mut apex = Apex::build_initial(&g);
        let wl = Workload::from_paths(
            workload_paths.iter().filter_map(|p| to_label_path(&g, p)).collect(),
        );
        refine_checked(&g, &mut apex, &wl, min_sup);
        let required = apex.required_paths(&g);

        // Every multi-label required path must have support >= minSup;
        // conversely every subpath of a workload query with support >=
        // minSup must be required.
        for r in &required {
            if !r.contains('.') {
                continue;
            }
            let p = LabelPath::parse(&g, r).unwrap();
            prop_assert!(
                wl.support(&p) * (wl.len() as f64) >= min_sup * (wl.len() as f64) - 1e-9,
                "required {} has support {}", r, wl.support(&p)
            );
        }
        for q in wl.iter() {
            for sub in q.subpaths() {
                if sub.len() < 2 {
                    continue;
                }
                if wl.support(&sub) >= min_sup {
                    let rendered = sub.render(&g);
                    prop_assert!(
                        required.contains(&rendered),
                        "frequent {} missing from required set", rendered
                    );
                }
            }
        }
    }
}

/// Algebraic laws of the extent edge-set kernels (the join machinery all
/// query processors rely on).
mod edgeset_laws {
    use apex_storage::{EdgePair, EdgeSet};
    use proptest::prelude::*;
    use xmlgraph::NodeId;

    fn pairs(max: u32, count: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec((0..max, 0..max), 0..count)
    }

    fn set(v: &[(u32, u32)]) -> EdgeSet {
        EdgeSet::from_raw(v)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn union_is_commutative_and_idempotent(a in pairs(40, 30), b in pairs(40, 30)) {
            let (sa, sb) = (set(&a), set(&b));
            prop_assert_eq!(sa.union(&sb), sb.union(&sa));
            prop_assert_eq!(sa.union(&sa), sa.clone());
        }

        #[test]
        fn difference_union_partition(a in pairs(40, 30), b in pairs(40, 30)) {
            // (a \ b) ∪ (a ∩ b) == a, where a ∩ b = a \ (a \ b).
            let (sa, sb) = (set(&a), set(&b));
            let diff = sa.difference(&sb);
            let inter = sa.difference(&diff);
            prop_assert_eq!(diff.union(&inter), sa.clone());
            prop_assert!(diff.is_subset_of(&sa));
            prop_assert!(inter.is_subset_of(&sb));
        }

        #[test]
        fn union_in_place_matches_union(a in pairs(40, 30), b in pairs(40, 30)) {
            let (mut sa, sb) = (set(&a), set(&b));
            let expect = sa.union(&sb);
            let mut scratch = Vec::new();
            sa.union_in_place(&sb, &mut scratch);
            prop_assert_eq!(sa, expect);
        }

        #[test]
        fn semijoin_variants_agree(a in pairs(40, 30), b in pairs(40, 30)) {
            let (sa, sb) = (set(&a), set(&b));
            let ends = sa.end_nodes();
            let (merge, _) = sb.semijoin_ends(&ends);
            let (probe, _) = sb.probe_by_parents(&ends);
            prop_assert_eq!(&merge, &probe);
            // Reference semantics: pairs of b whose parent is an end of a.
            let expect: Vec<EdgePair> = sb
                .iter()
                .filter(|p| ends.binary_search(&p.parent).is_ok())
                .collect();
            prop_assert_eq!(merge.pairs().to_vec(), expect);
        }

        #[test]
        fn end_nodes_sorted_distinct(a in pairs(40, 60)) {
            let s = set(&a);
            let ends = s.end_nodes();
            prop_assert!(ends.windows(2).all(|w| w[0] < w[1]));
            for e in &ends {
                prop_assert!(a.iter().any(|&(_, n)| NodeId(n) == *e));
            }
        }
    }
}

/// Laws of the shared execution layer: the adaptive semijoin operator
/// returns the same pairs whichever access path it picks, every scalar
/// an operator moves is attributed to exactly one operator, and the
/// cross-query pool makes re-execution I/O-free without changing
/// results.
mod exec_laws {
    use apex_query::exec::{self, ExecContext, ExtentScan, ExtentUnion};
    use apex_storage::bufmgr::BufferHandle;
    use apex_storage::kernels::{self, KernelPolicy, SemijoinScratch};
    use apex_storage::{EdgePair, EdgeSet, OpKind, SuccinctExtent};
    use proptest::prelude::*;
    use xmlgraph::NodeId;

    fn pairs(max: u32, count: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec((0..max, 0..max), 0..count)
    }

    /// The stored form of a raw pair list.
    fn stored(v: &[(u32, u32)]) -> SuccinctExtent {
        SuccinctExtent::from_pairs(EdgeSet::from_raw(v).pairs())
    }

    /// Sorted, distinct end nodes of the union of raw pair lists.
    fn union_ends(lists: &[&[(u32, u32)]]) -> Vec<NodeId> {
        let all: Vec<(u32, u32)> = lists.iter().flat_map(|l| l.iter().copied()).collect();
        EdgeSet::from_raw(&all).end_nodes()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        #[test]
        fn adaptive_semijoin_matches_reference(a in pairs(60, 40), b in pairs(60, 40)) {
            let (sa, sb) = (EdgeSet::from_raw(&a), stored(&b));
            let ends = sa.end_nodes();
            let buf = BufferHandle::unbounded();
            let mut ctx = ExecContext::new(&buf);
            let mut hit = Vec::new();
            exec::semijoin(&mut ctx, &ends, &sb, &mut hit);
            let expect: Vec<EdgePair> = sb
                .to_vec()
                .into_iter()
                .filter(|p| ends.binary_search(&p.parent).is_ok())
                .collect();
            // The operator hands on the matched pairs' end nodes…
            let expect_nodes: Vec<NodeId> = expect.iter().map(|p| p.node).collect();
            prop_assert_eq!(hit, expect_nodes);
            // …and the kernel the policy picks matches exactly those pairs.
            let mut scratch = SemijoinScratch::new();
            let kernel = KernelPolicy::Adaptive.choose(ends.len(), &sb);
            kernels::semijoin_into(kernel, &sb, &ends, &mut scratch);
            prop_assert_eq!(&scratch.out, &expect);
            // Exactly one semijoin kernel ran.
            let cost = ctx.finish();
            let semijoins: u64 = [
                OpKind::SemijoinMerge,
                OpKind::SemijoinGallop,
                OpKind::SemijoinSkip,
            ]
            .iter()
            .map(|&k| cost.ops.get(k).invocations)
            .sum();
            prop_assert_eq!(semijoins, 1);
        }

        #[test]
        fn attribution_is_a_partition(a in pairs(60, 40), b in pairs(60, 40)) {
            let (sa, sb) = (stored(&a), stored(&b));
            let buf = BufferHandle::unbounded();
            let mut ctx = ExecContext::new(&buf);
            ExtentScan::pairs(&sa).run(&mut ctx);
            let u = ExtentUnion {
                sources: vec![&sa, &sb],
                column: None,
            }
            .run(&mut ctx);
            // The union is the sorted, distinct end nodes of both
            // sources, and still charges every pair of each.
            prop_assert_eq!(&u, &union_ends(&[&a, &b]));
            prop_assert_eq!(
                ctx.cost.ops.get(OpKind::ExtentUnion).extent_pairs(),
                (sa.len() + sb.len()) as u64
            );
            let mut hit = Vec::new();
            exec::semijoin(&mut ctx, &u, &sb, &mut hit);
            let cost = ctx.finish();
            // Per-operator scalars sum exactly to the query totals.
            for (i, total) in cost.scalars().iter().enumerate() {
                let attributed: u64 =
                    OpKind::ALL.iter().map(|&k| cost.ops.get(k).scalars[i]).sum();
                prop_assert_eq!(attributed, *total, "scalar #{}", i);
            }
        }

        #[test]
        fn warm_rerun_is_io_free(a in pairs(60, 40), b in pairs(60, 40)) {
            let (sa, sb) = (stored(&a), stored(&b));
            let buf = BufferHandle::unbounded();
            let run = |buf: &BufferHandle| {
                let mut ctx = ExecContext::new(buf);
                let u = ExtentUnion {
                    sources: vec![&sa, &sb],
                    column: None,
                }
                .run(&mut ctx);
                let mut hit = Vec::new();
                exec::semijoin(&mut ctx, &u, &sb, &mut hit);
                (u, hit, ctx.finish())
            };
            let (cold_union, cold_hit, cold) = run(&buf);
            let (warm_union, warm_hit, warm) = run(&buf);
            prop_assert_eq!(cold_union, warm_union);
            prop_assert_eq!(cold_hit, warm_hit);
            prop_assert_eq!(warm.pages_read, 0);
            // Only I/O changes between runs; logical work is identical.
            prop_assert_eq!(warm.extent_pairs, cold.extent_pairs);
            prop_assert_eq!(warm.join_work, cold.join_work);
            prop_assert_eq!(warm.join_output, cold.join_output);
        }
    }
}

/// Laws of the node sets QTYPE1/QTYPE3 carry: the one sorted-distinct
/// routine equals sort + dedup on both sides of its density rule, and
/// the sorted data-table probe equals a per-node value filter.
mod node_set_laws {
    use super::{materialize, rand_graph};
    use apex_storage::{BufferHandle, Cost, DataTable, PageModel};
    use proptest::prelude::*;
    use xmlgraph::{sort_distinct, NodeId};

    fn reference(v: &[NodeId]) -> Vec<NodeId> {
        let mut want = v.to_vec();
        want.sort_unstable();
        want.dedup();
        want
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Ids drawn from `[top − span + 1, top]`: spans from 1 to 300 k
        /// against up to 400 ids put inputs on both sides of the
        /// `(max − min + 1) / 64 ≤ len` rule, small spans repeat ids,
        /// `top` reaches `u32::MAX`, and lengths include 0 and 1.
        #[test]
        fn sort_distinct_equals_sort_dedup(
            top in 0u32..=u32::MAX,
            span in 1u32..300_000,
            offsets in proptest::collection::vec(0u32..300_000, 0..400),
            repeat in 0usize..3,
        ) {
            let lo = top.saturating_sub(span - 1);
            let mut ids: Vec<NodeId> = offsets.iter().map(|&o| NodeId(lo + o % span)).collect();
            let dup = ids[..ids.len() / 2].to_vec();
            for _ in 0..repeat {
                ids.extend_from_slice(&dup);
            }
            let want = reference(&ids);
            let mut words = vec![u64::MAX; 3]; // stale scratch must not leak
            sort_distinct(&mut ids, &mut words);
            prop_assert_eq!(ids, want);
        }

        /// The sorted probe keeps exactly the candidates whose value is
        /// the probed one, counts one probe per candidate, and reads the
        /// root page plus at most one leaf per candidate.
        #[test]
        fn sorted_probe_equals_per_node_filter(
            rg in rand_graph(60),
            picks in proptest::collection::vec(0u32..70, 0..50),
            value in 0u8..5,
        ) {
            let g = materialize(&rg);
            let t = DataTable::build(&g, PageModel::new(64));
            let value = format!("v{value}");
            let candidates = reference(&picks.iter().map(|&p| NodeId(p)).collect::<Vec<_>>());
            let want: Vec<NodeId> = candidates
                .iter()
                .copied()
                .filter(|&n| t.value(n) == Some(value.as_str()))
                .collect();
            let buf = BufferHandle::unbounded();
            let mut cost = Cost::new();
            let mut kept = candidates.clone();
            t.filter_sorted(&buf, &mut cost, &mut kept, &value, || true);
            prop_assert_eq!(kept, want);
            prop_assert_eq!(cost.table_probes, candidates.len() as u64);
            prop_assert!(cost.pages_read <= 1 + candidates.len() as u64);
            prop_assert_eq!(cost.pages_read == 0, candidates.is_empty());
        }
    }

    #[test]
    fn sort_distinct_at_the_density_boundary() {
        // `len` ids, descending, spanning exactly `span`: dense while
        // span / 64 <= len, sparse one id of span later.
        for (len, span, dense) in [
            (4u32, 256u32, true),
            (4, 319, true),
            (4, 320, false),
            (2, 191, true),
            (2, 192, false),
        ] {
            let mut ids: Vec<NodeId> = (0..len)
                .rev()
                .map(|i| NodeId(i * (span - 1) / (len - 1)))
                .collect();
            let want = reference(&ids);
            let mut words = Vec::new();
            sort_distinct(&mut ids, &mut words);
            assert_eq!(ids, want, "len {len} span {span}");
            assert_eq!(!words.is_empty(), dense, "len {len} span {span}");
        }
    }
}

/// Laws of the cost-based planner's feedback: on arbitrary graphs,
/// workload refinements and path queries, every join order returns the
/// oracle's nodes, and the executed plan's per-operator actuals
/// reproduce the attributed cost breakdown exactly — work + pages over
/// the report's rows is an exact partition of the query's total cost,
/// never an estimate.
mod plan_laws {
    use super::{materialize, rand_graph, rand_paths, refine_checked, to_label_path};
    use apex::{Apex, Workload};
    use apex_query::batch::QueryProcessor;
    use apex_query::naive::NaiveProcessor;
    use apex_query::{apex_qp::ApexProcessor, JoinOrderPolicy, Query};
    use apex_storage::{DataTable, PageModel};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn plan_actuals_partition_query_cost(
            rg in rand_graph(35),
            workload_paths in rand_paths(3, 6),
            query_paths in rand_paths(4, 10),
            min_sup in 0.05f64..0.9,
        ) {
            let g = materialize(&rg);
            let table = DataTable::build(&g, PageModel::default());
            let naive = NaiveProcessor::new(&g, &table);
            let mut apex = Apex::build_initial(&g);
            let wl = Workload::from_paths(
                workload_paths.iter().filter_map(|p| to_label_path(&g, p)).collect(),
            );
            refine_checked(&g, &mut apex, &wl, min_sup);
            for order in [
                JoinOrderPolicy::Planned,
                JoinOrderPolicy::ForceForward,
                JoinOrderPolicy::ForceBackward,
            ] {
                let ap = ApexProcessor::new(&g, &apex, &table).with_join_order(order);
                for qp in &query_paths {
                    let Some(path) = to_label_path(&g, qp) else { continue };
                    let q = Query::PartialPath { labels: path.0.clone() };
                    let expect = naive.eval(&q).nodes;
                    let out = ap.eval(&q);
                    prop_assert_eq!(
                        &out.nodes, &expect,
                        "{} on {}", order.name(), q.render(&g)
                    );
                    let rep = out.plan.as_ref().expect("path queries always plan");
                    // Each row's actuals are the operator's attributed
                    // scalars: work = every non-page scalar, pages = the
                    // page scalar.
                    let mut act_work = 0u64;
                    let mut act_pages = 0u64;
                    for f in &rep.forecasts {
                        let op = out.cost.ops.get(f.kind);
                        let w: u64 = (0..8).filter(|&i| i != 5).map(|i| op.scalars[i]).sum();
                        prop_assert_eq!(f.actual_work, w, "{} work", f.kind.name());
                        prop_assert_eq!(f.actual_pages, op.scalars[5], "{} pages", f.kind.name());
                        act_work += f.actual_work;
                        act_pages += f.actual_pages;
                    }
                    // Summed over rows they are exactly the query total.
                    prop_assert_eq!(
                        act_work + act_pages,
                        out.cost.total(),
                        "partition under {} on {}", order.name(), q.render(&g)
                    );
                }
            }
        }
    }
}

/// Laws of the frame storage format and the semijoin kernels: every
/// edge set survives encode → decode (in memory and through the byte
/// image), `check` accepts exactly the encoder's outputs, and all three
/// kernels — plus whatever the adaptive policy picks — return exactly
/// the pairs a naive scan selects.
mod block_kernel_laws {
    use apex_storage::kernels::{self, Kernel, KernelPolicy, SemijoinScratch};
    use apex_storage::{BlockExtent, EdgePair, EdgeSet, SuccinctExtent};
    use proptest::prelude::*;
    use xmlgraph::{NodeId, NULL_NODE};

    fn pairs(max: u32, count: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec((0..max, 0..max), 0..count)
    }

    /// Sorted, distinct pairs of the lengths frames and blocks turn on
    /// (0, 1, 127, 128, 129, several blocks), in shapes that exercise
    /// each width and node mode — ids anywhere below `u32::MAX`, one
    /// parent with consecutive nodes (no parent bits), children just
    /// below their parents (negative zigzag deltas), ids near
    /// `u32::MAX` — with or without the root pair.
    fn shaped() -> impl Strategy<Value = Vec<EdgePair>> {
        (0usize..6, 0u32..4, 0u32..=u32::MAX, 0u32..2).prop_map(|(len, shape, seed, root)| {
            let n = [0u32, 1, 127, 128, 129, 9_000][len];
            let mut x = seed as u64 | 1;
            let mut rand = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u32
            };
            let mut v: Vec<EdgePair> = (0..n)
                .map(|i| {
                    let (p, c) = match shape {
                        0 => (rand() % (u32::MAX - 1), rand() % (u32::MAX - 1)),
                        1 => (seed % 1000, seed / 2 + i),
                        2 => (
                            seed / 2 + 5 * i,
                            (seed / 2 + 5 * i).saturating_sub(rand() % 9),
                        ),
                        _ => (
                            u32::MAX - 1 - rand() % 5_000,
                            u32::MAX - 1 - rand() % 70_000,
                        ),
                    };
                    EdgePair::new(NodeId(p), NodeId(c))
                })
                .collect();
            if root == 1 {
                v.push(EdgePair::root(NodeId(seed % 1000)));
            }
            EdgeSet::from_pairs(v).pairs().to_vec()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn encode_decode_roundtrips(ps in shaped()) {
            let bx = BlockExtent::encode(&ps);
            prop_assert_eq!(bx.num_pairs(), ps.len());
            prop_assert_eq!(&bx.decode(), &ps);
            prop_assert!(bx.check());
            // Only the last frame of each run is short, and the root
            // pair sits in a frame of its own.
            let frames = bx.frames();
            for (k, f) in frames.iter().enumerate() {
                let null = f.min_parent == NULL_NODE.0;
                let last_of_run = frames.get(k + 1).is_none_or(|n| (n.min_parent == NULL_NODE.0) != null);
                prop_assert!(f.count == 128 || last_of_run, "frame {} of {}", k, frames.len());
            }
            // …and through the serialized image.
            let mut img = Vec::new();
            bx.write_to(&mut img);
            prop_assert_eq!(img.len(), bx.image_bytes());
            let back = BlockExtent::from_bytes(&img).unwrap();
            prop_assert_eq!(&back, &bx);
            let stored = SuccinctExtent::open(back).unwrap();
            prop_assert_eq!(stored.to_vec(), ps.clone());
            prop_assert_eq!(stored.node_bounds(), SuccinctExtent::from_pairs(&ps).node_bounds());
        }

        /// `check` accepts exactly the encoder's outputs: after any
        /// one-byte edit of a serialized image that still frames, it
        /// agrees with the definition — the image decodes to strictly
        /// increasing pairs whose encoding is that very image.
        #[test]
        fn check_accepts_exactly_the_encoders_outputs(
            ps in shaped(),
            at in 0usize..1 << 16,
            byte in 0u8..=255,
        ) {
            let mut wire = Vec::new();
            BlockExtent::encode(&ps).write_to(&mut wire);
            let at = at % wire.len();
            wire[at] = byte;
            if let Some(bx) = BlockExtent::from_bytes(&wire) {
                let pairs = bx.decode();
                let by_definition =
                    pairs.windows(2).all(|w| w[0] < w[1]) && BlockExtent::encode(&pairs) == bx;
                prop_assert_eq!(bx.check(), by_definition, "byte {} := {:#04x}", at, byte);
            }
        }

        /// Open → mutate → seal is history-independent: whatever
        /// inserts, unions and differences a decoded extent went
        /// through, sealing it gives byte for byte the image of sealing
        /// the resulting pair set directly — so stored extents (and
        /// `extent_equivalent`) may compare images.
        #[test]
        fn open_mutate_seal_is_byte_identical_to_sealing_the_result(
            start in pairs(3_000, 200),
            ops in proptest::collection::vec((0u8..3, pairs(3_000, 60)), 0..8),
        ) {
            let sealed = SuccinctExtent::from_pairs(EdgeSet::from_raw(&start).pairs());
            let mut open = EdgeSet::from_sorted(sealed.to_vec());
            let mut expect: std::collections::BTreeSet<(u32, u32)> = start.iter().copied().collect();
            let mut scratch = Vec::new();
            for (op, arg) in &ops {
                match op {
                    0 => for &(p, n) in arg {
                        open.insert(EdgePair::new(NodeId(p), NodeId(n)));
                        expect.insert((p, n));
                    },
                    1 => {
                        open.union_in_place(&EdgeSet::from_raw(arg), &mut scratch);
                        expect.extend(arg.iter().copied());
                    }
                    _ => {
                        open = open.difference(&EdgeSet::from_raw(arg));
                        for pair in arg {
                            expect.remove(pair);
                        }
                    }
                }
            }
            let resealed = SuccinctExtent::from_pairs(open.pairs());
            let expect: Vec<(u32, u32)> = expect.into_iter().collect();
            let direct = SuccinctExtent::from_pairs(EdgeSet::from_raw(&expect).pairs());
            prop_assert_eq!(resealed.image(), direct.image());
            prop_assert_eq!(&resealed, &direct);
            prop_assert!(resealed.image().check());
            prop_assert_eq!(resealed.len(), expect.len());
            prop_assert_eq!(resealed.node_bounds(), direct.node_bounds());
        }

        #[test]
        fn kernels_match_naive_scan(a in pairs(400, 60), b in pairs(400, 80)) {
            let set = EdgeSet::from_raw(&b);
            let extent = SuccinctExtent::from_pairs(set.pairs());
            let ends: Vec<NodeId> = EdgeSet::from_raw(&a).end_nodes();
            let expect: Vec<EdgePair> = set
                .iter()
                .filter(|p| ends.binary_search(&p.parent).is_ok())
                .collect();
            let mut scratch = SemijoinScratch::new();
            for kernel in [Kernel::Merge, Kernel::Gallop, Kernel::BlockSkip] {
                kernels::semijoin_into(kernel, &extent, &ends, &mut scratch);
                prop_assert_eq!(&scratch.out, &expect, "kernel {}", kernel.name());
            }
            let picked = KernelPolicy::Adaptive.choose(ends.len(), &extent);
            kernels::semijoin_into(picked, &extent, &ends, &mut scratch);
            prop_assert_eq!(&scratch.out, &expect, "adaptive -> {}", picked.name());
        }
    }
}

/// Laws of the stored extent: the header search agrees with linear
/// scans over the block headers, the slice gallop with
/// `partition_point`, the per-frame window decode
/// reproduces the image's whole decode, and every kernel over the
/// packed frames equals the pair-slice reference semijoin on arbitrary
/// inputs — including ends on the first and last pair of a frame and
/// of a block.
mod succinct_laws {
    use apex_storage::kernels::{self, Kernel, SemijoinScratch};
    use apex_storage::{gallop_lower_bound_u32, EdgePair, EdgeSet, SuccinctExtent};
    use proptest::prelude::*;
    use xmlgraph::NodeId;

    fn pairs(max: u32, count: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec((0..max, 0..max), 0..count)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// The counted header search ≡ a linear scan over the block
        /// headers, from every start block, and the O(1) length is the
        /// headers' pair count is the decoded length.
        #[test]
        fn header_search_laws(a in pairs(200_000, 6_000)) {
            let s = EdgeSet::from_raw(&a);
            let succ = &SuccinctExtent::from_pairs(s.pairs());
            let headers = succ.image().headers();
            prop_assert_eq!(succ.num_blocks(), headers.len());
            let counted: usize = headers.iter().map(|h| h.count as usize).sum();
            prop_assert_eq!(succ.len(), counted);
            prop_assert_eq!(succ.len(), succ.to_vec().len());
            prop_assert_eq!(succ.len(), s.len());
            // Probing each block's parent bounds and a sample of the
            // parents, plus their off-by-one neighbours.
            let bounds = headers.iter().flat_map(|h| [h.min_parent, h.max_parent]);
            for p in bounds.chain(a.iter().take(64).map(|&(p, _)| p)) {
                for probe in [p.saturating_sub(1), p, p.saturating_add(1)] {
                    for lo in 0..=headers.len() {
                        let linear = (lo..headers.len())
                            .find(|&k| headers[k].max_parent >= probe)
                            .unwrap_or(headers.len());
                        let mut work = 0;
                        let got = succ.first_block_reaching(lo, probe, &mut work);
                        prop_assert_eq!(got, linear, "probe {} from {}", probe, lo);
                        // One comparison per halving of the range.
                        let span = headers.len() - lo;
                        prop_assert!(work <= (usize::BITS - span.leading_zeros()) as usize);
                    }
                }
            }
        }

        /// The counted gallop over a sorted `u32` slice lands where
        /// `partition_point` does, from every start.
        #[test]
        fn gallop_lower_bound_equals_partition_point(
            raw in proptest::collection::vec(0u32..500, 0..200),
            t in 0u32..520,
        ) {
            let mut xs = raw.clone();
            xs.sort_unstable();
            for lo in 0..=xs.len() {
                let want = lo + xs[lo..].partition_point(|&v| v < t);
                let mut work = 0;
                prop_assert_eq!(gallop_lower_bound_u32(&xs, lo, t, &mut work), want, "from {}", lo);
            }
        }

        /// Decoding frame by frame through the bounded window
        /// materializes exactly the pairs the image's whole decode
        /// produces, block by block.
        #[test]
        fn windowed_decoder_matches_block_decode(a in pairs(150_000, 400)) {
            let s = EdgeSet::from_raw(&a);
            let succ = &SuccinctExtent::from_pairs(s.pairs());
            prop_assert_eq!(succ.to_vec(), s.pairs().to_vec());
            let whole = succ.image().decode();
            let mut window = Vec::new();
            for (k, h) in succ.image().headers().iter().enumerate() {
                let first = h.first as usize;
                let want = &whole[first..first + h.count as usize];
                let mut got: Vec<EdgePair> = Vec::new();
                for f in succ.block_frames(k) {
                    succ.frame_into(f, &mut window);
                    prop_assert!(window.len() <= apex_storage::succinct::WINDOW_PAIRS);
                    got.extend_from_slice(&window);
                }
                prop_assert_eq!(&got[..], want, "block {}", k);
            }
        }

        /// Every kernel over the stored frames returns the pairs the
        /// pair-slice reference semijoins return over the full decode,
        /// faults exactly the blocks whose parent range holds an end
        /// (all of them, for the merge), and never decodes more than
        /// the full pair count. Half the cases drive with ends on the
        /// first and last pair of every frame and block.
        #[test]
        fn succinct_kernels_equal_decoded_baseline(
            a in pairs(50_000, 120),
            b in pairs(50_000, 9_000),
            on_edges in 0u8..2,
        ) {
            let full = EdgeSet::from_raw(&b);
            let extent = SuccinctExtent::from_pairs(full.pairs());
            let ends: Vec<NodeId> = if on_edges == 1 {
                let mut edges = Vec::new();
                for f in 0..extent.num_frames() {
                    let count = extent.image().frames()[f].count as usize;
                    edges.push(extent.pair_at(f, 0).unwrap().parent);
                    edges.push(extent.pair_at(f, count - 1).unwrap().parent);
                }
                EdgeSet::from_pairs(edges.iter().map(|&e| EdgePair::new(NodeId(0), e)).collect())
                    .end_nodes()
            } else {
                EdgeSet::from_raw(&a).end_nodes()
            };
            let (merged, _) = full.semijoin_ends(&ends);
            let (probed, _) = full.probe_by_parents(&ends);
            prop_assert_eq!(&merged, &probed);
            let headers = extent.image().headers();
            let candidates: Vec<u32> = (0..headers.len() as u32)
                .filter(|&k| {
                    let h = &headers[k as usize];
                    ends.iter().any(|e| (h.min_parent..=h.max_parent).contains(&e.0))
                })
                .collect();
            let mut scratch = SemijoinScratch::new();
            for kernel in [Kernel::Merge, Kernel::Gallop, Kernel::BlockSkip] {
                let r = kernels::semijoin_into(kernel, &extent, &ends, &mut scratch);
                prop_assert_eq!(&scratch.out[..], merged.pairs(), "kernel {}", kernel.name());
                if kernel == Kernel::Merge {
                    prop_assert_eq!(scratch.blocks.len(), headers.len());
                } else {
                    prop_assert_eq!(&scratch.blocks, &candidates, "kernel {} blocks", kernel.name());
                    let resident: usize =
                        candidates.iter().map(|&k| headers[k as usize].count as usize).sum();
                    prop_assert_eq!(r.pairs_read, resident, "kernel {}", kernel.name());
                }
                prop_assert!(r.decoded <= extent.len(), "kernel {}", kernel.name());
            }
        }
    }
}

/// Persistence: saving and loading any refined index preserves lookups.
mod persist_roundtrip {
    use super::{materialize, rand_graph, rand_paths, refine_checked, to_label_path};
    use apex::{persist, Apex, Workload};
    use proptest::prelude::*;
    use xmlgraph::LabelPath;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn save_load_preserves_lookups(
            rg in rand_graph(30),
            workload_paths in rand_paths(3, 6),
            queries in rand_paths(3, 10),
            min_sup in 0.05f64..0.9,
        ) {
            let g = materialize(&rg);
            let mut apex = Apex::build_initial(&g);
            let wl = Workload::from_paths(
                workload_paths.iter().filter_map(|p| to_label_path(&g, p)).collect(),
            );
            refine_checked(&g, &mut apex, &wl, min_sup);

            let mut buf = Vec::new();
            persist::save(&apex, &mut buf).expect("save");
            let loaded = persist::load(&mut buf.as_slice()).expect("load");

            prop_assert_eq!(apex.stats(), loaded.stats());
            for q in &queries {
                let Some(path) = to_label_path(&g, q) else { continue };
                let a = apex.lookup(path.labels());
                let b = loaded.lookup(path.labels());
                prop_assert_eq!(a.matched_len, b.matched_len);
                let ea = a.xnode.map(|x| apex.extent(x).to_vec());
                let eb = b.xnode.map(|x| loaded.extent(x).to_vec());
                prop_assert_eq!(ea, eb);
            }
            // Byte-stable: what was loaded saves as what was read.
            let mut again = Vec::new();
            persist::save(&loaded, &mut again).expect("save");
            prop_assert_eq!(again, buf);
            // keep LabelPath import used
            let _ = LabelPath::new(vec![]);
        }
    }
}

/// The textual query syntax round-trips through parse/render.
mod query_syntax {
    use super::{materialize, rand_graph};
    use apex_query::Query;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn parse_render_fixpoint(rg in rand_graph(20), idxs in proptest::collection::vec(0..6usize, 1..5)) {
            let g = materialize(&rg);
            let labels: Vec<&str> = idxs.iter().map(|&i| super::ALPHABET[i]).collect();
            // Build a //a/b/c string; skip if any label unused by g.
            if labels.iter().any(|l| g.label_id(l).is_none()) {
                return Ok(());
            }
            let text = format!("//{}", labels.join("/"));
            let q = Query::parse(&g, &text).expect("valid syntax");
            prop_assert_eq!(q.render(&g), text);
        }
    }
}

/// Random `GraphBuilder` programs against a reference kept as one
/// child list per node: the flat graph the builder lays out in `finish`
/// must read back exactly what the per-node lists hold, and the data
/// table over it exactly what a `BTreeMap` of the values holds.
mod builder_programs {
    use std::collections::BTreeMap;

    use apex_storage::{DataTable, PageModel};
    use proptest::prelude::*;
    use xmlgraph::{BuildError, GraphBuilder, NodeId, NULL_NODE};

    /// Values repeat and include the empty string.
    const VALUES: [&str; 6] = ["", "x", "y", "x y", "é", "zz"];

    /// One builder call: its kind, then node, label and string choices.
    type Op = (u8, usize, usize, usize);

    fn program() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec((0u8..7, 0..64usize, 0..4usize, 0..6usize), 0..80)
    }

    /// The reference: per node its tag, tree parent, value and
    /// out-edges, each edge as `(label, to)`.
    #[derive(Default)]
    struct Model {
        tags: Vec<String>,
        parents: Vec<NodeId>,
        values: Vec<Option<String>>,
        out: Vec<Vec<(String, NodeId)>>,
        ids: BTreeMap<String, NodeId>,
        refs: Vec<(NodeId, String)>,
    }

    impl Model {
        fn node(&mut self, parent: NodeId, tag: String) -> NodeId {
            let n = NodeId(self.tags.len() as u32);
            if !parent.is_null() {
                self.out[parent.idx()].push((tag.clone(), n));
            }
            self.tags.push(tag);
            self.parents.push(parent);
            self.values.push(None);
            self.out.push(Vec::new());
            n
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn the_flat_graph_reads_back_the_per_node_lists(ops in program()) {
            let mut b = GraphBuilder::new("root");
            let mut m = Model::default();
            m.node(NULL_NODE, "root".into());
            for &(kind, at, label, vi) in &ops {
                let node = NodeId((at % m.tags.len()) as u32);
                let label = ["a", "b", "c", "d"][label];
                let value = VALUES[vi];
                match kind {
                    0 => {
                        let n = b.add_child(node, label);
                        prop_assert_eq!(n, m.node(node, label.into()));
                    }
                    1 => {
                        let n = b.add_value_child(node, label, value);
                        prop_assert_eq!(n, m.node(node, label.into()));
                        m.values[n.idx()] = Some(value.into());
                    }
                    2 => {
                        b.set_value(node, value);
                        m.values[node.idx()] = Some(value.into());
                    }
                    3 => {
                        let id = format!("i{}", at % 9);
                        let fresh = !m.ids.contains_key(&id);
                        prop_assert_eq!(b.register_id(node, &id).is_ok(), fresh);
                        m.ids.entry(id).or_insert(node);
                    }
                    4 | 5 => {
                        let attr = format!("r{label}");
                        let target = format!("i{}", vi + 3 * (kind as usize - 4));
                        let n = b.add_idref(node, &attr, &target);
                        prop_assert_eq!(n, m.node(node, format!("@{attr}")));
                        m.refs.push((n, target));
                    }
                    _ => {
                        let n = b.add_attribute(node, label, value);
                        prop_assert_eq!(n, m.node(node, format!("@{label}")));
                        m.values[n.idx()] = Some(value.into());
                    }
                }
            }
            // Most programs declare every id they reference, some on
            // the last node, so both outcomes of `finish` occur.
            if !ops.len().is_multiple_of(4) {
                let last = NodeId(m.tags.len() as u32 - 1);
                for (_, id) in &m.refs {
                    if !m.ids.contains_key(id) {
                        prop_assert!(b.register_id(last, id).is_ok());
                        m.ids.insert(id.clone(), last);
                    }
                }
            }
            let unresolved = m.refs.iter().find(|(_, id)| !m.ids.contains_key(id)).cloned();
            let g = match (b.finish(), unresolved) {
                (Err(BuildError::UnresolvedRef { attr_node, target_id }), Some((n, id))) => {
                    prop_assert_eq!((attr_node, target_id), (n.0, id));
                    return Ok(());
                }
                (Ok(g), None) => g,
                (got, want) => {
                    return Err(TestCaseError::fail(format!("finish gave {:?}, want error on {want:?}", got.err())));
                }
            };
            for (attr, id) in &m.refs {
                let to = m.ids[id];
                let tag = m.tags[to.idx()].clone();
                m.out[attr.idx()].push((tag, to));
            }

            prop_assert_eq!(g.node_count(), m.tags.len());
            let mut flat = Vec::new();
            for n in g.nodes() {
                let out: Vec<(String, NodeId)> = g
                    .out_edges(n)
                    .iter()
                    .map(|e| (g.label_str(e.label).to_string(), e.to))
                    .collect();
                prop_assert_eq!(&out, &m.out[n.idx()], "out_edges({})", n.0);
                prop_assert_eq!(g.is_leaf(n), out.is_empty());
                prop_assert_eq!(g.label_str(g.tag(n)), m.tags[n.idx()].as_str());
                prop_assert_eq!(g.tree_parent(n), m.parents[n.idx()]);
                prop_assert_eq!(g.value(n), m.values[n.idx()].as_deref());
                flat.extend(m.out[n.idx()].iter().map(|(l, to)| (n, l.clone(), *to)));
            }
            let edges: Vec<(NodeId, String, NodeId)> = g
                .edges()
                .map(|(f, l, t)| (f, g.label_str(l).to_string(), t))
                .collect();
            prop_assert_eq!(g.edge_count(), flat.len());
            prop_assert_eq!(edges, flat);

            let want: BTreeMap<NodeId, &str> = m
                .values
                .iter()
                .enumerate()
                .filter_map(|(n, v)| Some((NodeId(n as u32), v.as_deref()?)))
                .collect();
            let t = DataTable::build(&g, PageModel::new(64));
            prop_assert_eq!(t.len(), want.len());
            let got: Vec<(NodeId, &str)> = t.iter().collect();
            let want_rows: Vec<(NodeId, &str)> = want.iter().map(|(&n, &v)| (n, v)).collect();
            prop_assert_eq!(got, want_rows);
            for n in g.nodes() {
                prop_assert_eq!(t.value(n), want.get(&n).copied());
            }
            for v in VALUES.iter().chain(&["absent"]) {
                let holders: Vec<NodeId> =
                    want.iter().filter(|(_, w)| *w == v).map(|(&n, _)| n).collect();
                prop_assert_eq!(t.nodes_with_value(v), holders.as_slice(), "holders of {:?}", v);
            }
        }

        /// The label column law on the graphs of random programs, each
        /// refined by a chain of two random workloads: every label's
        /// one-label query answers `T(l)`'s end nodes with its column
        /// cold and warm, and every built column (which
        /// `validate::check` compares with the data and with the
        /// label's classes) survives the next refine.
        #[test]
        fn label_columns_hold_t_of_l_on_random_programs(
            ops in program(),
            windows in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(0..64usize, 1..4), 1..10),
                2,
            ),
            min_sup in 0.05f64..0.6,
        ) {
            use apex::{Apex, Workload};
            use apex_query::batch::QueryProcessor;
            use apex_query::{apex_qp::ApexProcessor, Query};
            use xmlgraph::{LabelId, LabelPath};

            let Some(g) = run(&ops) else { return Ok(()) };
            let table = DataTable::build(&g, PageModel::default());
            let labels = g.label_count();
            let mut apex = Apex::build_initial(&g);
            let mut held = 0;
            for window in &windows {
                let paths = window.iter().map(|p| {
                    LabelPath::new(p.iter().map(|&i| LabelId((i % labels) as u32)).collect())
                });
                apex.refine(&g, &Workload::from_paths(paths.collect()), min_sup);
                let columns = |apex: &Apex| {
                    (0..labels as u32)
                        .filter(|&l| apex.label_column(LabelId(l)).is_some_and(|s| s.get().is_some()))
                        .count()
                };
                prop_assert!(columns(&apex) >= held, "a refine dropped a column");
                let p = ApexProcessor::new(&g, &apex, &table);
                for l in (0..labels as u32).map(LabelId) {
                    let mut ends: Vec<NodeId> =
                        g.edges().filter(|e| e.1 == l).map(|e| e.2).collect();
                    ends.sort_unstable();
                    ends.dedup();
                    let q = Query::PartialPath { labels: vec![l] };
                    for _ in 0..2 {
                        prop_assert_eq!(&p.eval(&q).nodes, &ends, "//{}", g.label_str(l));
                    }
                }
                apex::validate::assert_valid(&g, &apex);
                held = columns(&apex);
            }
        }
    }

    /// The graph a program builds (no reference model), `None` when a
    /// reference stays unresolved.
    fn run(ops: &[Op]) -> Option<xmlgraph::XmlGraph> {
        let mut b = GraphBuilder::new("root");
        let (mut nodes, mut ids, mut refs) = (1usize, Vec::new(), Vec::new());
        for &(kind, at, label, vi) in ops {
            let node = NodeId((at % nodes) as u32);
            let label = ["a", "b", "c", "d"][label];
            match kind {
                0 => drop(b.add_child(node, label)),
                1 => drop(b.add_value_child(node, label, VALUES[vi])),
                2 => b.set_value(node, VALUES[vi]),
                3 => {
                    let id = format!("i{}", at % 9);
                    if b.register_id(node, &id).is_ok() {
                        ids.push(id);
                    }
                    continue;
                }
                4 | 5 => {
                    let target = format!("i{}", vi + 3 * (kind as usize - 4));
                    b.add_idref(node, &format!("r{label}"), &target);
                    refs.push(target);
                }
                _ => drop(b.add_attribute(node, label, VALUES[vi])),
            }
            nodes += usize::from(kind != 2);
        }
        let last = NodeId(nodes as u32 - 1);
        for id in refs {
            if !ids.contains(&id) && b.register_id(last, &id).is_ok() {
                ids.push(id);
            }
        }
        b.finish().ok()
    }
}

/// A seeded mutation sweep over the XML parser: byte flips, truncations
/// and inserted markup characters never make it panic, and every
/// refusal is a `ParseError` with a message.
mod parser_mutations {
    use xmlgraph::parser::parse;

    /// Well-formed seeds: elements, attributes, ids and references,
    /// entities, comments, a declaration and non-ASCII text.
    fn seeds() -> Vec<String> {
        vec![
            xmlgraph::writer::write_xml(&datagen::flixml(3, 1)),
            xmlgraph::writer::write_xml(&datagen::gedml(8, 2)),
            concat!(
                "<?xml version=\"1.0\"?>\n<!-- c --><db><movie id=\"m1\" year='1977'>",
                "<title>Star &amp; Wars &lt;IV&gt; &#65;&#x42;</title></movie>",
                "<actor ref=\"m1\"><name>Mark</name><empty/></actor>",
                "<note>caf\u{e9} \u{2603}</note></db>"
            )
            .to_string(),
        ]
    }

    /// xorshift64.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// One to three random edits of `doc`.
    fn mutate(x: &mut u64, doc: &str) -> String {
        let mut bytes = doc.as_bytes().to_vec();
        for _ in 0..1 + next(x) % 3 {
            let at = (next(x) % (bytes.len() as u64 + 1)) as usize;
            let markup = b"<>&;/=\"'#x! \n"[(next(x) % 13) as usize];
            match next(x) % 3 {
                0 if at < bytes.len() => bytes[at] = markup,
                1 => bytes.truncate(at),
                _ => bytes.insert(at, markup),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn no_mutation_panics_and_every_refusal_is_a_named_parse_error() {
        let seeds = seeds();
        for seed in &seeds {
            assert!(parse(seed).is_ok(), "seed document parses");
        }
        let mut x = 0x5eed_0f9a_45e5_u64;
        let (mut refused, mut parsed) = (0, 0);
        for case in 0..6_000 {
            let doc = mutate(&mut x, &seeds[case % seeds.len()]);
            match std::panic::catch_unwind(|| parse(&doc)) {
                Ok(Ok(g)) => {
                    assert_eq!(g.edges().count(), g.edge_count(), "case {case}");
                    parsed += 1;
                }
                Ok(Err(e)) => {
                    assert!(!e.msg.is_empty(), "case {case}: unnamed error for {doc:?}");
                    refused += 1;
                }
                Err(_) => panic!("case {case}: parse panicked on {doc:?}"),
            }
        }
        assert!(
            refused > 0 && parsed > 0,
            "{refused} refused, {parsed} parsed"
        );
    }
}
