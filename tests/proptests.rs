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
    use apex_storage::bufmgr::{BufferHandle, Space};
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
            exec::semijoin(&mut ctx, &ends, Space::ApexExtent, 0, &sb, &mut hit);
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
            ExtentScan::pairs(Space::ApexExtent, 0, &sa).run(&mut ctx);
            let u = ExtentUnion {
                sources: vec![(0, &sa), (1, &sb)],
                space: Space::ApexExtent,
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
            exec::semijoin(&mut ctx, &u, Space::ApexExtent, 2, &sb, &mut hit);
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
                    sources: vec![(0, &sa), (1, &sb)],
                    space: Space::ApexExtent,
                }
                .run(&mut ctx);
                let mut hit = Vec::new();
                exec::semijoin(&mut ctx, &u, Space::ApexExtent, 2, &sb, &mut hit);
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

/// Laws of the stored extent: the rank/select directory agrees with
/// linear scans over the skip headers, the per-frame window decode
/// reproduces the image's whole decode, and every kernel over the
/// packed frames equals the pair-slice reference semijoin on arbitrary
/// inputs — including ends on the first and last pair of a frame and
/// of a block.
mod succinct_laws {
    use apex_storage::kernels::{self, Kernel, SemijoinScratch};
    use apex_storage::{EdgePair, EdgeSet, SuccinctExtent};
    use proptest::prelude::*;
    use xmlgraph::NodeId;

    fn pairs(max: u32, count: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec((0..max, 0..max), 0..count)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// select ∘ rank identity plus header-search ≡ linear-scan: the
        /// bit-packed directory answers exactly what a walk over the
        /// raw block headers would.
        #[test]
        fn directory_rank_select_laws(a in pairs(200_000, 300)) {
            let s = EdgeSet::from_raw(&a);
            let succ = &SuccinctExtent::from_pairs(s.pairs());
            let dir = succ.directory();
            let headers = succ.image().headers();
            prop_assert_eq!(dir.num_blocks(), headers.len());
            for (k, h) in headers.iter().enumerate() {
                prop_assert_eq!(dir.count(k), h.count as usize);
                // Select inverts rank across the whole block.
                for i in [dir.pairs_before(k), dir.pairs_before(k) + h.count as usize - 1] {
                    prop_assert_eq!(dir.block_of_pair(i), k);
                }
            }
            prop_assert_eq!(dir.pairs_before(dir.num_blocks()), s.len());
            // Header search against the linear reference, probing every
            // distinct parent plus off-by-one neighbours.
            for &(p, _) in &a {
                for probe in [p.saturating_sub(1), p, p.saturating_add(1)] {
                    let linear = headers
                        .iter()
                        .position(|h| h.max_parent >= probe)
                        .unwrap_or(headers.len());
                    prop_assert_eq!(dir.first_block_reaching(probe), linear, "probe {}", probe);
                }
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
            for k in 0..succ.num_blocks() {
                let first = succ.directory().pairs_before(k);
                let want = &whole[first..first + succ.directory().count(k)];
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
