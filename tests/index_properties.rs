//! Structural properties of the indexes across dataset families —
//! the qualitative claims behind Table 2 of the paper, checked on small
//! instances of each family.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use apex::extract::extract_frequent;
use apex::{extent_equivalent, persist, update_apex, Apex};
use apex_query::generator::GeneratorConfig;
use apex_suite::{small, Fixture};
use dataguide::DataGuide;
use xmlgraph::paths::EnumLimits;

fn cfg(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        qtype1: 400,
        qtype2: 0,
        qtype3: 0,
        workload_fraction: 0.2,
        seed,
        limits: EnumLimits {
            max_len: 10,
            max_paths: 30_000,
        },
    }
}

#[test]
fn apex0_is_most_compact() {
    // Table 2: "As expected from the definition of APEX⁰, it has the most
    // compact structure" — fewer nodes than the SDG and than refined APEX
    // at small minSup, on every family.
    for g in [small::play(), small::flix(), small::ged()] {
        let fx = Fixture::build(g, cfg(1));
        let apex_small_minsup = fx.apex_at(0.002);
        let n0 = fx.apex0.stats().nodes;
        assert!(n0 <= apex_small_minsup.stats().nodes);
        assert!(n0 <= fx.sdg.node_count());
    }
}

#[test]
fn apex0_nodes_is_labels_plus_root() {
    for g in [small::play(), small::flix(), small::ged()] {
        let apex0 = Apex::build_initial(&g);
        // One class per label that actually labels an edge, plus xroot.
        // (The root tag labels no edge; every other label does in our
        // generators.)
        let stats = apex0.stats();
        assert_eq!(
            stats.nodes,
            g.label_count() - 1 + 1,
            "dataset labels {}",
            g.label_count()
        );
    }
}

#[test]
fn minsup_monotonicity() {
    // Smaller minSup ⇒ more required paths ⇒ at least as many APEX nodes
    // (Table 2 columns 0.002 … 0.05).
    for g in [small::play(), small::flix(), small::ged()] {
        let fx = Fixture::build(g, cfg(2));
        let mut prev_nodes = usize::MAX;
        for ms in [0.002, 0.005, 0.01, 0.03, 0.05] {
            let apex = fx.apex_at(ms);
            let n = apex.stats().nodes;
            assert!(
                n <= prev_nodes,
                "nodes grew when minSup rose to {ms}: {n} > {prev_nodes}"
            );
            prev_nodes = n;
        }
    }
}

#[test]
fn high_minsup_collapses_to_apex0() {
    // "when the value of minSup is at least 0.05, the length of almost
    // every required path becomes one. Thus the structure of APEX in this
    // case becomes very close to that of the APEX⁰."
    for g in [small::play(), small::flix(), small::ged()] {
        let fx = Fixture::build(g, cfg(3));
        let apex = fx.apex_at(0.9); // extreme: nothing is frequent
        let s = apex.stats();
        let s0 = fx.apex0.stats();
        assert_eq!(s.nodes, s0.nodes);
        assert_eq!(s.edges, s0.edges);
    }
}

#[test]
fn sdg_blowup_grows_with_irregularity() {
    // Table 2's headline: SDG size relative to APEX⁰ explodes on
    // irregular data (Ged ≫ Flix ≫ Play). GedML's lineage clusters need
    // a few hundred individuals before reference-path diversity kicks
    // in, so this comparison uses Ged01-scale data.
    let ratios: Vec<f64> = [
        datagen::shakespeare(2, 7),
        datagen::flixml(200, 7),
        datagen::gedml(360, 7),
    ]
    .into_iter()
    .map(|g| {
        let sdg = DataGuide::build(&g);
        let apex0 = Apex::build_initial(&g);
        sdg.node_count() as f64 / apex0.stats().nodes as f64
    })
    .collect();
    assert!(
        ratios[0] < ratios[1],
        "play {} !< flix {}",
        ratios[0],
        ratios[1]
    );
    assert!(
        ratios[1] < ratios[2],
        "flix {} !< ged {}",
        ratios[1],
        ratios[2]
    );
}

#[test]
fn sdg_on_tree_equals_distinct_paths() {
    // On tree data the strong DataGuide has one node per distinct rooted
    // label path (+root).
    let g = small::play();
    let sdg = DataGuide::build(&g);
    let paths = xmlgraph::paths::rooted_label_paths(
        &g,
        EnumLimits {
            max_len: 64,
            max_paths: 10_000_000,
        },
    );
    assert_eq!(sdg.node_count(), paths.len() + 1);
}

#[test]
fn refined_apex_keeps_theorems_on_all_families() {
    for g in [small::play(), small::flix(), small::ged()] {
        let fx = Fixture::build(g, cfg(4));
        let apex = fx.apex_at(0.01);
        // Theorem 1: simulation (spot-check by walking every data edge
        // from matched states).
        let mut stack = vec![(fx.g.root(), apex.xroot())];
        let mut seen = std::collections::HashSet::new();
        while let Some((v, x)) = stack.pop() {
            if !seen.insert((v, x)) {
                continue;
            }
            for e in fx.g.out_edges(v) {
                let child = apex
                    .out_edges(x)
                    .iter()
                    .find(|(l, _)| *l == e.label)
                    .map(|(_, t)| *t)
                    .expect("Theorem 1 violated: unsimulated data edge");
                stack.push((e.to, child));
            }
        }
        // Theorem 2: every length-2 index path exists in the data.
        let mut data_pairs = std::collections::HashSet::new();
        for (_, l1, mid) in fx.g.edges() {
            for e in fx.g.out_edges(mid) {
                data_pairs.insert((l1, e.label));
            }
        }
        for x in apex.graph().reachable(apex.xroot()) {
            let Some(inc) = apex.incoming_label(x) else {
                continue;
            };
            for &(l2, _) in apex.out_edges(x) {
                assert!(data_pairs.contains(&(inc, l2)), "Theorem 2 violated");
            }
        }
    }
}

#[test]
fn workload_simple_fraction_documented() {
    // The paper observed ~25 % simple path expressions; our generator on
    // a real play lands in the same region.
    let fx = Fixture::build(small::play(), cfg(5));
    assert!(
        fx.queries.simple_fraction > 0.10 && fx.queries.simple_fraction < 0.45,
        "simple fraction {}",
        fx.queries.simple_fraction
    );
}

#[test]
fn extent_pairs_bounded_by_required_paths() {
    // Extents partition-ish the edge set per class; total stored pairs
    // must stay within (#required classes) × edges and at least edges.
    let fx = Fixture::build(small::flix(), cfg(6));
    let apex = fx.apex_at(0.01);
    let s = apex.stats();
    assert!(s.extent_pairs >= fx.g.edge_count());
    assert!(s.extent_pairs <= fx.g.edge_count() * s.max_required_len);
}

fn image(apex: &Apex) -> Vec<u8> {
    let mut bytes = Vec::new();
    persist::save(apex, &mut bytes).expect("save to memory");
    bytes
}

#[test]
fn refine_collects_both_arenas_and_a_no_change_refine_touches_nothing() {
    for g in [small::play(), small::flix(), small::ged()] {
        let fx = Fixture::build(g, cfg(7));
        let wl = &fx.queries.workload;
        // Grow, collapse, grow again: every refine leaves both arenas
        // holding exactly their live nodes under dense ids (the
        // validator checks allocated == reachable and no dangling class).
        let mut apex = fx.apex0.clone();
        for min_sup in [0.002, 0.05, 0.01] {
            apex.refine(&fx.g, wl, min_sup);
            apex::validate::assert_valid(&fx.g, &apex);
            assert_eq!(apex.xroot().0, 0, "xroot is the first live node");
        }

        // A second refine over the identical window changes nothing: one
        // step per class node, and the same bytes on disk.
        let classes = apex.stats().nodes;
        assert_eq!(apex.refine(&fx.g, wl, 0.01), classes);
        let before = image(&apex);
        assert_eq!(apex.refine(&fx.g, wl, 0.01), classes);
        assert_eq!(image(&apex), before);
        // The same pass by hand, without the collection at the end of
        // `refine`: nothing was allocated in either arena and no class
        // pointer was cleared, so the uncollected parts still serialize
        // to the same image.
        let (mut ga, mut ht) = (apex.graph().clone(), apex.hash_tree().clone());
        extract_frequent(&mut ht, wl, 0.01);
        assert_eq!(
            image(&Apex::from_parts(ga.clone(), ht.clone(), apex.xroot())),
            before
        );
        assert_eq!(update_apex(&fx.g, &mut ga, &mut ht, apex.xroot()), classes);
        assert_eq!(ga.allocated(), apex.graph().allocated());
        assert_eq!(ht.allocated(), apex.hash_tree().allocated());
        assert_eq!(image(&Apex::from_parts(ga, ht, apex.xroot())), before);

        // The collected index survives persistence unchanged: the loaded
        // copy is valid, equivalent, and saves to the same bytes.
        let loaded = persist::load(&mut before.as_slice()).expect("load");
        apex::validate::assert_valid(&fx.g, &loaded);
        extent_equivalent(&fx.g, &apex, &loaded).expect("loaded == saved");
        assert_eq!(image(&loaded), before);

        // History does not show: the index that went through three
        // thresholds has the same image as APEX⁰ refined once.
        let mut direct = fx.apex_at(0.01);
        direct.refine(&fx.g, wl, 0.01); // clear the `new` flags, as above
        assert_eq!(image(&direct), before);
    }
}
