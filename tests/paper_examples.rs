//! The paper's worked examples, asserted end-to-end:
//! Figure 1 (MovieDB data), Figure 2 (the APEX instance), Figure 3
//! (strong DataGuide / 1-index comparison), §4's q1 cost argument, and
//! the Figure 7 / Figure 12 workload-drift walkthrough.

use apex::{extent_equivalent, Apex, Workload};
use apex_query::batch::QueryProcessor;
use apex_query::{apex_qp::ApexProcessor, guide_qp::GuideProcessor};
use apex_storage::{DataTable, PageModel, SuccinctExtent};
use dataguide::DataGuide;
use oneindex::OneIndex;
use xmlgraph::builder::moviedb;
use xmlgraph::{GraphBuilder, LabelPath, NodeId};

fn pairs(e: &SuccinctExtent) -> Vec<(u32, u32)> {
    let pairs = e.to_vec();
    pairs.iter().map(|p| (p.parent.0, p.node.0)).collect()
}

/// Figure 2: APEX with required paths = A ∪ {director.movie,
/// @movie.movie, actor.name}.
fn figure2_apex() -> (xmlgraph::XmlGraph, Apex) {
    let g = moviedb();
    let mut idx = Apex::build_initial(&g);
    let wl = Workload::parse(&g, &["director.movie", "@movie.movie", "actor.name"]).unwrap();
    idx.refine(&g, &wl, 0.1);
    (g, idx)
}

#[test]
fn figure3_sdg_is_larger_than_apex() {
    // §4: "the strong DataGuide is larger than the original data" for
    // Figure 1, and larger than APEX. Our reconstruction of Figure 1 is
    // graph-shaped, so the subset construction blows up relative to the
    // 18-node data.
    let g = moviedb();
    let sdg = DataGuide::build(&g);
    let (_, apex) = figure2_apex();
    let stats = apex.stats();
    assert!(
        sdg.node_count() > stats.nodes,
        "SDG {} !> APEX {}",
        sdg.node_count(),
        stats.nodes
    );
}

#[test]
fn figure3_oneindex_at_most_data_size() {
    // §2: the 1-index is at most linear in the data.
    let g = moviedb();
    let oi = OneIndex::build(&g);
    assert!(oi.node_count() <= g.node_count());
}

#[test]
fn section4_q1_cheaper_on_apex_than_sdg() {
    // q1: //actor/name. "the edge lookup occurs 14 times on the index
    // structure" for the SDG; APEX "just looks up the hash tree".
    let (g, apex) = figure2_apex();
    let table = DataTable::build(&g, PageModel::default());
    let sdg = DataGuide::build(&g);
    let q = apex_query::Query::PartialPath {
        labels: LabelPath::parse(&g, "actor.name").unwrap().0,
    };
    let ap = ApexProcessor::new(&g, &apex, &table);
    let gp = GuideProcessor::new(&g, &sdg, &table);
    let a = ap.eval(&q);
    let s = gp.eval(&q);
    assert_eq!(a.nodes, s.nodes);
    assert_eq!(a.nodes, vec![NodeId(3), NodeId(5)]);
    // APEX: no index-graph navigation at all, only hash lookups.
    assert_eq!(a.cost.index_edges, 0);
    assert!(a.cost.hash_lookups <= 4);
    // SDG: must navigate its edges exhaustively.
    assert!(
        s.cost.index_edges >= 14,
        "sdg visited {} edges",
        s.cost.index_edges
    );
}

#[test]
fn definition9_remainder_extents() {
    // T^R(actor.name) = T(actor.name); T^R(name) = {<7,11>, <12,13>}.
    let (g, apex) = figure2_apex();
    let an = LabelPath::parse(&g, "actor.name").unwrap();
    let x = apex.lookup(an.labels()).xnode.unwrap();
    assert_eq!(pairs(apex.extent(x)), vec![(2, 3), (4, 5)]);
    // Lookup of any non-required path ending in `name` hits the
    // remainder class.
    let dn = LabelPath::parse(&g, "director.name").unwrap();
    let hit = apex.lookup(dn.labels());
    assert_eq!(hit.matched_len, 1);
    assert_eq!(
        pairs(apex.extent(hit.xnode.unwrap())),
        vec![(7, 11), (12, 13)]
    );
}

#[test]
fn theorem1_simulation_on_figure2() {
    // Every rooted data path must be traversable in G_APEX.
    let (g, apex) = figure2_apex();
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
                .map(|(_, t)| *t)
                .unwrap_or_else(|| {
                    panic!(
                        "no simulating edge for {} -{}-> {}",
                        v.0,
                        g.label_str(e.label),
                        e.to.0
                    )
                });
            stack.push((e.to, child));
        }
    }
}

#[test]
fn theorem2_no_phantom_length2_paths() {
    let (g, apex) = figure2_apex();
    let mut data_pairs = std::collections::HashSet::new();
    for (_, l1, mid) in g.edges() {
        for e in g.out_edges(mid) {
            data_pairs.insert((l1, e.label));
        }
    }
    for x in apex.graph().reachable(apex.xroot()) {
        let Some(inc) = apex.incoming_label(x) else {
            continue;
        };
        for &(l2, _) in apex.out_edges(x) {
            assert!(data_pairs.contains(&(inc, l2)));
        }
    }
}

#[test]
fn figure7_figure12_workload_drift() {
    // Start with required {…, B.D}-analogue, shift the workload so a new
    // two-label path becomes hot and the old one dies; the index must
    // follow and queries stay correct throughout.
    let g = moviedb();
    let table = DataTable::build(&g, PageModel::default());
    let naive = apex_query::naive::NaiveProcessor::new(&g, &table);
    let mut idx = Apex::build_initial(&g);

    // Round 1: actor.name hot.
    let wl1 = Workload::parse(&g, &["actor.name", "actor.name", "movie.title"]).unwrap();
    idx.refine(&g, &wl1, 0.5);
    assert!(idx.required_paths(&g).contains(&"actor.name".to_string()));

    // Round 2: drift — director.movie hot, actor.name cold.
    let wl2 = Workload::parse(
        &g,
        &[
            "director.movie",
            "director.movie",
            "director.movie",
            "actor.name",
        ],
    )
    .unwrap();
    let steps = idx.refine(&g, &wl2, 0.5);
    assert!(steps > 0);
    let req = idx.required_paths(&g);
    assert!(req.contains(&"director.movie".to_string()));
    assert!(!req.contains(&"actor.name".to_string()), "{req:?}");

    // Queries remain correct after the drift.
    let ap = ApexProcessor::new(&g, &idx, &table);
    for p in ["actor.name", "director.movie", "name", "movie.title"] {
        let q = apex_query::Query::PartialPath {
            labels: LabelPath::parse(&g, p).unwrap().0,
        };
        assert_eq!(ap.eval(&q).nodes, naive.eval(&q).nodes, "after drift: {p}");
    }
}

#[test]
fn incremental_update_equals_rebuild() {
    // Refining APEX⁰→W1→W2 must produce the same query behaviour as
    // building fresh and refining straight to W2 (§5.3's promise that the
    // incremental path is only an optimization).
    let g = moviedb();
    let wl1 = Workload::parse(&g, &["actor.name", "@movie.movie"]).unwrap();
    let wl2 = Workload::parse(&g, &["director.movie", "movie.title"]).unwrap();

    let mut incremental = Apex::build_initial(&g);
    incremental.refine(&g, &wl1, 0.1);
    incremental.refine(&g, &wl2, 0.1);

    let mut fresh = Apex::build_initial(&g);
    fresh.refine(&g, &wl2, 0.1);

    assert_eq!(incremental.required_paths(&g), fresh.required_paths(&g));
    // Same extents for every required path (compare via lookup).
    for p in ["director.movie", "movie.title", "name", "movie", "title"] {
        let path = LabelPath::parse(&g, p).unwrap();
        let a = incremental.lookup(path.labels());
        let b = fresh.lookup(path.labels());
        assert_eq!(a.matched_len, b.matched_len, "{p}");
        let ea = a.xnode.map(|x| pairs(incremental.extent(x)));
        let eb = b.xnode.map(|x| pairs(fresh.extent(x)));
        assert_eq!(ea, eb, "extent mismatch for {p}");
    }
}

#[test]
fn demotion_and_promotion_in_one_window_keep_every_row() {
    // §5.3 on a hand-sized cyclic graph: three `indi` elements, reached
    // as note.indi, fam.indi and subm.indi, each with a `name`; an IDREF
    // cycle fam → indi → @note → note → indi → @fam → fam.
    let mut b = GraphBuilder::new("gedcom");
    let root = b.root();
    let note = b.add_child(root, "note");
    b.register_id(note, "N1").unwrap();
    let fam = b.add_child(root, "fam");
    b.register_id(fam, "F1").unwrap();
    let subm = b.add_child(root, "subm");
    let mut names = Vec::new();
    for (parent, idref) in [
        (note, Some(("fam", "F1"))),
        (fam, Some(("note", "N1"))),
        (subm, None),
    ] {
        let indi = b.add_child(parent, "indi");
        names.push((indi.0, b.add_value_child(indi, "name", "x").0));
        if let Some((attr, target)) = idref {
            b.add_idref(indi, attr, target);
        }
    }
    let g = b.finish().unwrap();

    // Window 1: subm.indi and fam.indi required; note.indi is the
    // remainder class of `indi`.
    let mut live = Apex::build_initial(&g);
    let w1 = Workload::parse(&g, &["subm.indi", "fam.indi"]).unwrap();
    live.refine(&g, &w1, 0.5);
    // Window 2 demotes subm.indi (its instance flows into the remainder
    // class, which therefore first hears of this run through a delta)
    // and promotes indi.name (so the same class's `name` edge must move
    // to a rebuilt child). The remainder's old extent must reach the new
    // indi.name class too, not only the delta.
    let w2 = Workload::parse(&g, &["fam.indi", "indi.name"]).unwrap();
    live.refine(&g, &w2, 0.5);

    let req = live.required_paths(&g);
    assert!(req.contains(&"indi.name".to_string()), "{req:?}");
    assert!(!req.contains(&"subm.indi".to_string()), "{req:?}");
    let hit = live.lookup(LabelPath::parse(&g, "indi.name").unwrap().labels());
    assert_eq!(hit.matched_len, 2);
    assert_eq!(pairs(live.extent(hit.xnode.unwrap())), names);

    let mut scratch = Apex::build_initial(&g);
    scratch.refine(&g, &w2, 0.5);
    extent_equivalent(&g, &live, &scratch).expect("incremental == from scratch");
    apex::validate::assert_valid(&g, &live);
}
