//! Serialization fidelity: generated datasets written to XML text and
//! re-parsed must produce structurally identical graphs, and indexes
//! built over the re-parsed graphs must behave identically.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use apex::Apex;
use xmlgraph::parser::{parse_with, ParserConfig};
use xmlgraph::writer::{is_writable, write_xml};
use xmlgraph::XmlGraph;

/// Parser config matching the generators' reference attribute names.
fn cfg() -> ParserConfig {
    ParserConfig {
        id_attrs: vec!["id".into()],
        idref_attrs: vec![
            // FlixML
            "sequel".into(),
            "remakeof".into(),
            "related".into(),
            // GedML
            "husb".into(),
            "wife".into(),
            "chil".into(),
            "famc".into(),
            "fams".into(),
            "alia".into(),
            "asso".into(),
            "subm".into(),
            "sour".into(),
            "note".into(),
            "obje".into(),
            "repo".into(),
            "anci".into(),
            "desi".into(),
        ],
    }
}

fn roundtrip(g: &XmlGraph) -> XmlGraph {
    assert!(is_writable(g), "generated data must be writable");
    let xml = write_xml(g);
    parse_with(&xml, &cfg()).expect("round trip parse")
}

/// Nid-independent structural comparison (the writer emits attributes
/// before element children, so nids may be permuted after a round trip).
fn assert_structurally_equal(a: &XmlGraph, b: &XmlGraph) {
    assert_eq!(a.node_count(), b.node_count(), "node counts differ");
    assert_eq!(a.edge_count(), b.edge_count(), "edge counts differ");
    assert_eq!(a.label_count(), b.label_count(), "label counts differ");
    assert_eq!(
        a.idref_labels().len(),
        b.idref_labels().len(),
        "idref label counts differ"
    );
    // Multiset of (tag, value) pairs.
    let values = |g: &XmlGraph| {
        let mut v: Vec<(String, String)> = g
            .nodes()
            .filter_map(|n| {
                g.value(n)
                    .map(|val| (g.label_str(g.tag(n)).to_string(), val.to_string()))
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(values(a), values(b), "value multisets differ");
    // Multiset of (source tag, edge label) pairs.
    let shape = |g: &XmlGraph| {
        let mut v: Vec<(String, String)> = g
            .edges()
            .map(|(f, l, _)| {
                (
                    g.label_str(g.tag(f)).to_string(),
                    g.label_str(l).to_string(),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(shape(a), shape(b), "edge shapes differ");
    // Distinct rooted label paths agree (bounded).
    let limits = xmlgraph::paths::EnumLimits {
        max_len: 6,
        max_paths: 50_000,
    };
    let paths = |g: &XmlGraph| {
        let mut v: Vec<String> = xmlgraph::paths::rooted_label_paths(g, limits)
            .iter()
            .map(|p| p.render(g))
            .collect();
        v.sort();
        v
    };
    assert_eq!(paths(a), paths(b), "rooted path sets differ");
}

/// write ∘ parse ∘ write is a fixpoint (up to the synthetic ids the
/// second write regenerates, which depend only on the re-parsed nids —
/// so a third pass must reproduce the second exactly).
fn assert_write_stable(g2: &XmlGraph) {
    let xml2 = write_xml(g2);
    let g3 = parse_with(&xml2, &cfg()).expect("second parse");
    assert_eq!(write_xml(&g3), xml2, "writer not idempotent after parse");
}

#[test]
fn shakespeare_roundtrip() {
    let g = datagen::shakespeare(1, 99);
    let g2 = roundtrip(&g);
    assert_structurally_equal(&g, &g2);
}

#[test]
fn flixml_roundtrip() {
    let g = datagen::flixml(25, 99);
    let g2 = roundtrip(&g);
    assert_structurally_equal(&g, &g2);
}

#[test]
fn gedml_roundtrip() {
    let g = datagen::gedml(60, 99);
    let g2 = roundtrip(&g);
    assert_structurally_equal(&g, &g2);
}

#[test]
fn index_over_reparsed_graph_is_identical() {
    let g = datagen::flixml(20, 7);
    let g2 = roundtrip(&g);
    let a = Apex::build_initial(&g);
    let b = Apex::build_initial(&g2);
    let sa = a.stats();
    let sb = b.stats();
    assert_eq!(sa.nodes, sb.nodes);
    assert_eq!(sa.edges, sb.edges);
    assert_eq!(sa.extent_pairs, sb.extent_pairs);
}

#[test]
fn double_roundtrip_is_stable() {
    let g = datagen::gedml(40, 3);
    let g2 = roundtrip(&g);
    assert_write_stable(&g2);
}

/// Extents a live index and its `persist` round trip hold, counted as
/// `(Arcs, distinct content hashes)` over every class node.
fn held_extents(idx: &Apex) -> (usize, usize) {
    let ga = idx.graph();
    let extents: Vec<_> = (0..ga.allocated() as u32)
        .map(|i| &ga.node(apex::XNodeId(i)).extent)
        .collect();
    let mut arcs: Vec<_> = extents.iter().map(|e| std::sync::Arc::as_ptr(e)).collect();
    let mut names: Vec<u64> = extents.iter().map(|e| e.content_hash()).collect();
    arcs.sort_unstable();
    arcs.dedup();
    names.sort_unstable();
    names.dedup();
    (arcs.len(), names.len())
}

/// Live equals recovered: build and refine hash-cons what they seal, as
/// the decoder does, so APEX⁰ and a refined index of every family hold
/// one `Arc` per content, the same number as their round trip, and
/// report the same sizes.
#[test]
fn a_live_index_holds_what_its_round_trip_holds() {
    use apex_query::generator::GeneratorConfig;
    use apex_suite::{small, Fixture};
    let cfg = GeneratorConfig {
        qtype1: 200,
        qtype2: 0,
        qtype3: 0,
        seed: 0xA9E,
        ..GeneratorConfig::default()
    };
    for (family, g) in [
        ("gedml", small::ged()),
        ("flix", small::flix()),
        ("shakespeare", small::play()),
    ] {
        let fx = Fixture::build(g, cfg);
        for (kind, live) in [("APEX0", fx.apex0.clone()), ("refined", fx.apex_at(0.005))] {
            let mut image = Vec::new();
            apex::persist::save(&live, &mut image).unwrap();
            let loaded = apex::persist::load(&mut image.as_slice()).unwrap();
            let (arcs, contents) = held_extents(&live);
            assert_eq!(arcs, contents, "{family} {kind}: one Arc per content");
            assert_eq!(held_extents(&loaded), (arcs, contents), "{family} {kind}");
            assert_eq!(live.stats(), loaded.stats(), "{family} {kind}");
        }
    }
}

/// Persistence fidelity under randomization: `persist::save` →
/// `persist::load` must preserve extents, the hash tree's required
/// paths, and the answers of every query — for arbitrary graphs,
/// workloads, and refinement thresholds.
mod persist_proptest {
    use apex::{extent_equivalent, persist, Apex, Workload};
    use apex_query::apex_qp::ApexProcessor;
    use apex_query::batch::QueryProcessor;
    use apex_query::Query;
    use apex_storage::{DataTable, PageModel};
    use proptest::prelude::*;
    use xmlgraph::builder::RawGraphBuilder;
    use xmlgraph::{LabelPath, XmlGraph};

    const ALPHABET: [&str; 5] = ["a", "b", "c", "d", "e"];

    #[derive(Debug, Clone)]
    struct RandGraph {
        parents: Vec<usize>,
        tags: Vec<usize>,
        extras: Vec<(usize, usize)>,
    }

    fn rand_graph(max_nodes: usize) -> impl Strategy<Value = RandGraph> {
        (2..max_nodes).prop_flat_map(|n| {
            let parents = (1..n).map(|i| (0..i).boxed()).collect::<Vec<_>>();
            let tags = proptest::collection::vec(0..ALPHABET.len(), n - 1);
            let extras = proptest::collection::vec((0..n, 1..n), 0..n / 2);
            (parents, tags, extras).prop_map(|(parents, tags, extras)| RandGraph {
                parents,
                tags,
                extras,
            })
        })
    }

    fn materialize(rg: &RandGraph) -> XmlGraph {
        let n = rg.parents.len() + 1;
        let mut b = RawGraphBuilder::new();
        b.node(0, "root", None, None);
        for i in 1..n {
            let tag = ALPHABET[rg.tags[i - 1]];
            b.node(i as u32, tag, Some(rg.parents[i - 1] as u32), None);
            b.edge(rg.parents[i - 1] as u32, tag, i as u32);
        }
        for &(from, to) in &rg.extras {
            if from == to {
                continue;
            }
            b.edge(from as u32, ALPHABET[rg.tags[to - 1]], to as u32);
        }
        b.finish(&[])
    }

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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        #[test]
        fn save_load_preserves_extents_required_paths_and_answers(
            rg in rand_graph(30),
            workload_paths in rand_paths(3, 6),
            query_paths in rand_paths(4, 10),
            min_sup in 0.05f64..0.9,
        ) {
            let g = materialize(&rg);
            let mut apex = Apex::build_initial(&g);
            let wl = Workload::from_paths(
                workload_paths.iter().filter_map(|p| to_label_path(&g, p)).collect(),
            );
            apex.refine(&g, &wl, min_sup);

            let mut bytes = Vec::new();
            persist::save(&apex, &mut bytes).expect("save");
            let loaded = persist::load(&mut bytes.as_slice()).expect("load");

            // Hash-tree required paths survive byte-exactly.
            prop_assert_eq!(apex.required_paths(&g), loaded.required_paths(&g));
            // Full extent-equivalence certification (extents, lookups,
            // reachable structure).
            if let Err(why) = extent_equivalent(&g, &apex, &loaded) {
                prop_assert!(false, "loaded index not extent-equivalent: {}", why);
            }
            // Query answers are identical through the full processor.
            let table = DataTable::build(&g, PageModel::default());
            let qp_a = ApexProcessor::new(&g, &apex, &table);
            let qp_b = ApexProcessor::new(&g, &loaded, &table);
            for qp in &query_paths {
                let Some(path) = to_label_path(&g, qp) else { continue };
                let q = Query::PartialPath { labels: path.0.clone() };
                prop_assert_eq!(qp_a.eval(&q).nodes, qp_b.eval(&q).nodes);
            }
        }
    }
}

#[test]
fn moviedb_roundtrip() {
    let g = xmlgraph::builder::moviedb();
    // moviedb's references use @movie/@actor/@director attrs; all its
    // non-tree edges are @-sourced, so it is writable.
    let cfg = ParserConfig {
        id_attrs: vec!["id".into()],
        idref_attrs: vec!["movie".into(), "actor".into(), "director".into()],
    };
    let xml = write_xml(&g);
    let g2 = parse_with(&xml, &cfg).expect("parse moviedb");
    assert_structurally_equal(&g, &g2);
}

/// The image decoder faces the disk. Nothing a damaged file holds may
/// panic it, make it allocate past a small multiple of the file, or
/// load as an index that differs from the bytes read or points outside
/// itself.
mod persist_hostile_images {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    use apex::persist::{decode, PersistError};
    use apex::recover::encode_snapshot;
    use apex::{Apex, MonitorState, Workload, XNodeId};
    use xmlgraph::builder::moviedb;
    use xmlgraph::{LabelId, LabelPath, XmlGraph};

    thread_local! {
        /// Bytes this thread has asked the allocator for.
        static ALLOCATED: Cell<usize> = const { Cell::new(0) };
        /// FNV-1a over the size of each allocation this thread made, in
        /// order.
        static TRACE: Cell<u64> = const { Cell::new(0) };
        /// Blocks this thread allocated less blocks it freed.
        static LIVE: Cell<isize> = const { Cell::new(0) };
        /// Blocks this thread has allocated.
        static BLOCKS: Cell<usize> = const { Cell::new(0) };
    }

    struct Counting;

    // SAFETY: every call goes to `System` unchanged (`realloc` and
    // `alloc_zeroed` through the default bodies, which call `alloc` and
    // `dealloc`); each counter is a thread-local `Cell` with a const
    // initialiser, so touching it neither allocates nor runs a destructor.
    #[allow(unsafe_code, reason = "counting allocations needs a GlobalAlloc")]
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
            let _ = TRACE
                .try_with(|h| h.set((h.get() ^ layout.size() as u64).wrapping_mul(0x100000001b3)));
            let _ = LIVE.try_with(|n| n.set(n.get() + 1));
            let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
            // SAFETY: `layout` is the caller's, passed through.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            let _ = LIVE.try_with(|n| n.set(n.get() - 1));
            // SAFETY: `ptr` came from `System.alloc` with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    /// Runs `f`, returning its result and the bytes it allocated.
    fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = ALLOCATED.with(Cell::get);
        let out = f();
        (out, ALLOCATED.with(Cell::get) - before)
    }

    /// Runs `f`, returning its result and how many more heap blocks this
    /// thread holds after it than before: what the result keeps alive.
    pub(super) fn live_blocks_after<T>(f: impl FnOnce() -> T) -> (T, isize) {
        let before = LIVE.with(Cell::get);
        let out = f();
        (out, LIVE.with(Cell::get) - before)
    }

    /// Runs `f`, returning its result and the heap blocks it allocated
    /// (a growing `Vec` counts each reallocation).
    pub(super) fn blocks_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = BLOCKS.with(Cell::get);
        let out = f();
        (out, BLOCKS.with(Cell::get) - before)
    }

    /// The allocation trace of `f`: the sizes it allocated, in order,
    /// folded into one FNV-1a hash.
    fn trace_of(f: impl FnOnce()) -> u64 {
        TRACE.with(|h| h.set(0xcbf29ce484222325));
        f();
        TRACE.with(Cell::get)
    }

    /// `refine` is replayable: two refines of clones of one index over
    /// the same drifted workload allocate the same sizes in the same
    /// order — no hash-map iteration order leaks into what a refresh
    /// allocates, so the memory it leaves behind is the same every run.
    #[test]
    fn a_drifted_refine_allocates_the_same_sizes_in_the_same_order() {
        let g = datagen::gedml(40, 3);
        let mut base = Apex::build_initial(&g);
        let first = Workload::parse(&g, &["indi.name", "fam.@husb", "indi.name"]).unwrap();
        base.refine(&g, &first, 0.3);
        let drifted = [
            "fam.@chil",
            "indi.birt.date",
            "fam.@chil",
            "indi.@famc",
            "indi.birt",
        ];
        let drifted = Workload::parse(&g, &drifted).unwrap();
        let runs: Vec<(u64, Apex)> = (0..2)
            .map(|_| {
                let mut idx = base.clone();
                let trace = trace_of(|| {
                    idx.refine(&g, &drifted, 0.3);
                });
                (trace, idx)
            })
            .collect();
        let before = base.required_paths(&g);
        let after = runs[0].1.required_paths(&g);
        let changed = after.iter().filter(|p| !before.contains(p)).count()
            + before.iter().filter(|p| !after.contains(p)).count();
        assert!(
            changed >= 2,
            "the drift changes classes: {before:?} -> {after:?}"
        );
        assert_eq!(
            runs[0].0, runs[1].0,
            "the two refines allocated differently"
        );
    }

    /// A small refined index, and a checkpoint of it with a window.
    fn sample() -> (XmlGraph, Apex, Vec<u8>) {
        let g = moviedb();
        let mut idx = Apex::build_initial(&g);
        let wl = Workload::parse(&g, &["actor.name", "director.movie"]).unwrap();
        idx.refine(&g, &wl, 0.1);
        let state = MonitorState {
            window: vec![
                LabelPath::parse(&g, "actor.name").unwrap(),
                LabelPath::parse(&g, "movie.title").unwrap(),
            ],
            min_sup: 0.25,
            since_refresh: 2,
            total_recorded: 9,
        };
        let image = encode_snapshot(7, 3, &idx, &state).unwrap();
        (g, idx, image)
    }

    /// Rewrites the checksum — FNV-1a over the 48-byte header and the
    /// skeleton after the extent pack — so only structure can object.
    fn reseal(buf: &mut [u8]) {
        let body = buf.len() - 8;
        let pack = u64::from_le_bytes(buf[40..48].try_into().unwrap());
        let skeleton = 48usize.saturating_add(pack as usize).min(body);
        let fnv = |h: u64, bytes: &[u8]| {
            bytes
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
        };
        let sum = fnv(fnv(0xcbf29ce484222325, &buf[..48]), &buf[skeleton..body]);
        buf[body..].copy_from_slice(&sum.to_le_bytes());
    }

    /// What an image under a valid checksum may do: be refused by name,
    /// or load as exactly the bytes that were read, with every `H_APEX`
    /// pointer resolving. Returns whether it loaded.
    fn refused_or_faithful(g: &XmlGraph, buf: &[u8], what: &str) -> bool {
        let (result, allocated) = allocated_by(|| decode(buf, None));
        assert!(
            allocated <= 32 * buf.len(),
            "{what}: decoding {} bytes allocated {allocated}",
            buf.len()
        );
        match result {
            Err(PersistError::Io(e)) => panic!("{what}: no file was read, yet {e}"),
            Err(_) => false,
            Ok(img) => {
                let again =
                    encode_snapshot(img.seq, img.generation, &img.index, &img.monitor).unwrap();
                assert_eq!(again, buf, "{what}: loaded as a different image");
                let mut classes = Vec::new();
                let ht = img.index.hash_tree();
                ht.subtree_xnodes(ht.head(), &mut classes);
                for l in 0..g.label_count() as u32 {
                    classes.extend(img.index.lookup(&[LabelId(l)]).xnode);
                }
                for x in classes {
                    let _ = img.index.extent(x).len();
                }
                true
            }
        }
    }

    #[test]
    fn every_bit_flip_is_refused_or_loads_as_read() {
        let (g, _, good) = sample();
        assert!(refused_or_faithful(&g, &good, "the image itself"));
        let (mut refused, mut loaded) = (0, 0);
        for at in 0..good.len() {
            for bit in 0..8 {
                let mut buf = good.clone();
                buf[at] ^= 1 << bit;
                // Under the original checksum a flip anywhere is caught.
                assert!(decode(&buf, None).is_err(), "byte {at} bit {bit}");
                reseal(&mut buf);
                if refused_or_faithful(&g, &buf, &format!("byte {at} bit {bit}")) {
                    loaded += 1;
                } else {
                    refused += 1;
                }
            }
        }
        // Counts, ids, flags and frame headers make most of the image
        // structural; packed pair bits, labels, frequencies and the
        // header's seq/generation are free to be other values.
        assert!(refused > loaded && loaded > 64, "{refused} / {loaded}");
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_present() {
        let (g, idx, good) = sample();
        // The word that counts hash nodes sits right after G_APEX, which
        // follows the header, the extent pack and the pack's directory.
        let ga = idx.graph();
        let pack = u64::from_le_bytes(good[40..48].try_into().unwrap()) as usize;
        let stored = u32::from_le_bytes(good[48 + pack..52 + pack].try_into().unwrap()) as usize;
        let n_hnodes_at = (0..ga.allocated() as u32)
            .map(|i| 4 + 8 + 4 + 8 * ga.node(XNodeId(i)).edges.len())
            .sum::<usize>()
            + 48
            + pack
            + 4
            + 12 * stored
            + 8;
        let mut buf = good.clone();
        buf[n_hnodes_at..n_hnodes_at + 4].copy_from_slice(&(1u32 << 24).to_le_bytes());
        let (result, allocated) = allocated_by(|| decode(&buf, None));
        assert!(matches!(result, Err(PersistError::BadChecksum)));
        assert!(allocated <= 32 * buf.len(), "allocated {allocated}");
        reseal(&mut buf);
        let (result, allocated) = allocated_by(|| decode(&buf, None));
        match result {
            Err(PersistError::Truncated { offset }) => assert_eq!(offset, n_hnodes_at as u64),
            other => panic!("2^24 hash nodes in {} bytes: {other:?}", buf.len()),
        }
        assert!(allocated <= 32 * buf.len(), "allocated {allocated}");
        // The same at every other word, whatever it counts (nodes,
        // edges, entries, paths, labels, image and block lengths).
        for at in 32..good.len() - 12 {
            for huge in [1u32 << 24, u32::MAX] {
                let mut buf = good.clone();
                buf[at..at + 4].copy_from_slice(&huge.to_le_bytes());
                reseal(&mut buf);
                refused_or_faithful(&g, &buf, &format!("word at {at} := {huge}"));
            }
        }
    }
}

/// The data table is columns: building it leaves a few flat arrays
/// behind, never a block per entry (as a boxed value per row would).
mod datatable_blocks {
    use std::collections::HashSet;

    use apex_storage::{DataTable, PageModel};
    use xmlgraph::XmlGraph;

    use super::persist_hostile_images::live_blocks_after;

    /// Asserts that the table built over `g` holds at most
    /// 2 × (distinct values) + 64 heap blocks.
    fn assert_few_blocks(g: &XmlGraph, what: &str) {
        let values: Vec<&str> = g.nodes().filter_map(|n| g.value(n)).collect();
        let distinct = values.iter().collect::<HashSet<_>>().len();
        let (table, live) = live_blocks_after(|| DataTable::build(g, PageModel::default()));
        assert_eq!(table.len(), values.len(), "{what}");
        let bound = 2 * distinct as isize + 64;
        assert!(
            live <= bound,
            "{what}: {live} live blocks for {} entries of {distinct} distinct values (bound {bound})",
            values.len()
        );
    }

    #[test]
    fn building_the_table_allocates_no_block_per_entry() {
        assert_few_blocks(&datagen::gedml(60, 7), "gedml(60, 7)");
        assert_few_blocks(&datagen::shakespeare(1, 7), "shakespeare(1, 7)");
    }
}

/// A publish is one pointer swap: it allocates the new `Snapshot`'s
/// `Arc` and nothing else, whatever the index holds. The planner reads
/// the extents themselves, so no statistics are assembled beside them.
mod publish_alloc {
    use apex::IndexCell;
    use apex_query::generator::GeneratorConfig;
    use apex_suite::{small, Fixture};

    use super::persist_hostile_images::blocks_by;

    #[test]
    fn a_publish_allocates_one_block() {
        let cfg = GeneratorConfig {
            qtype1: 200,
            qtype2: 0,
            qtype3: 0,
            seed: 0xA9E,
            ..GeneratorConfig::default()
        };
        let fx = Fixture::build(small::ged(), cfg);
        let wl = &fx.queries.workload;
        for (kind, idx) in [
            ("APEX0", fx.apex0.clone()),
            ("APEX(0.005)", fx.apex_at(0.005)),
        ] {
            let cell = IndexCell::new(idx.clone());
            // Takes the cell lock once, so a debug build's lock-rank
            // bookkeeping has its buffer before the counted calls.
            drop(cell.snapshot());
            let next = idx.clone();
            let (generation, n) = blocks_by(|| cell.publish(next));
            assert_eq!((generation, n), (1, 1), "{kind}: publish");
            let next = idx.clone();
            let (generation, n) = blocks_by(|| cell.publish_with_workload(next, wl));
            assert_eq!((generation, n), (2, 1), "{kind}: publish_with_workload");
        }
    }
}

/// The query-time kernels and operators reuse caller-owned buffers: once
/// a call has warmed them, repeating it on the same input allocates
/// nothing, in the operator or anything it calls. The operators that
/// return a node list may allocate that list and nothing else.
mod steady_state_alloc {
    use apex_query::exec::{ExecContext, ExtentUnion, MultiwayJoin, Semijoin};
    use apex_storage::kernels::{reverse_semijoin_into, semijoin_into};
    use apex_storage::{
        gallop_lower_bound_u32, merge_sorted_into, BufferHandle, EdgePair, Kernel, MergeScratch,
        SemijoinScratch, SuccinctExtent,
    };
    use xmlgraph::NodeId;

    use super::persist_hostile_images::blocks_by;

    /// Runs `f` once to warm its buffers, then returns the heap blocks
    /// a second run allocates.
    fn warm_blocks(mut f: impl FnMut()) -> usize {
        f();
        blocks_by(&mut f).1
    }

    /// An extent of several blocks: parents `from..from + 4000`, three
    /// children each, numbered from `to`.
    fn extent(from: u32, to: u32) -> SuccinctExtent {
        let pairs: Vec<EdgePair> = (0..4000u32)
            .flat_map(|p| {
                (0..3).map(move |c| EdgePair {
                    parent: NodeId(from + p),
                    node: NodeId(to + 3 * p + c),
                })
            })
            .collect();
        SuccinctExtent::from_pairs(&pairs)
    }

    /// Sorted, distinct ends: every `step`-th parent.
    fn ends(step: u32) -> Vec<NodeId> {
        (0..4000).step_by(step as usize).map(NodeId).collect()
    }

    #[test]
    fn kernels_allocate_nothing_once_warm() {
        let ext = extent(0, 10_000);
        assert!(ext.num_blocks() > 2, "{} blocks", ext.num_blocks());
        let mut scratch = SemijoinScratch::new();
        for step in [1, 7, 400] {
            let ends = ends(step);
            for kernel in [Kernel::Merge, Kernel::Gallop, Kernel::BlockSkip] {
                let n = warm_blocks(|| {
                    semijoin_into(kernel, &ext, &ends, &mut scratch);
                });
                assert_eq!(n, 0, "semijoin_into({}) at 1:{step}", kernel.name());
            }
            let n = warm_blocks(|| {
                reverse_semijoin_into(&ext, &ends, &mut scratch);
            });
            assert_eq!(n, 0, "reverse_semijoin_into at 1:{step}");
        }

        let lists: Vec<Vec<u32>> = (0..4u32)
            .map(|s| (0..2000).map(|i| 4 * i + s).collect())
            .collect();
        let heads: Vec<&[u32]> = lists.iter().map(Vec::as_slice).collect();
        let (mut merge, mut out, mut work) = (MergeScratch::new(), Vec::new(), 0usize);
        let n = warm_blocks(|| merge_sorted_into(&heads, &mut merge, &mut out, &mut work));
        assert_eq!(n, 0, "merge_sorted_into");
        assert_eq!(out.len(), 8000);
        let (hit, n) = blocks_by(|| gallop_lower_bound_u32(&out, 0, 4321, &mut work));
        assert_eq!((hit, n), (4321, 0), "gallop_lower_bound_u32");
    }

    #[test]
    fn succinct_query_surface_allocates_nothing_once_warm() {
        let ext = extent(0, 10_000);
        let (mut pairs, mut nodes, mut window) = (Vec::new(), Vec::new(), Vec::new());
        let mut seen = 0usize;
        let n = warm_blocks(|| {
            pairs.clear();
            nodes.clear();
            ext.decode_into(&mut pairs);
            ext.decode_nodes_into(&mut nodes);
            seen = ext.len() + usize::from(ext.is_empty()) + ext.num_frames();
            seen += usize::from(ext.parent_bounds().is_some() && ext.node_bounds().is_some());
            seen += ext.content_hash() as usize % 2 + ext.resident_bytes() % 2;
            let dir = ext.directory();
            let mut work = 0usize;
            for k in 0..ext.num_blocks() {
                seen += dir.count(k) + dir.pairs_before(k) + dir.byte_range(k).1;
                seen += dir.first_block_reaching_from(0, dir.min_parent(k), &mut work);
                seen += dir.block_of_pair(dir.pairs_before(k)) + dir.max_parent(k) as usize;
                for f in ext.block_frames(k) {
                    ext.frame_into(f, &mut window);
                    seen += usize::from(ext.pair_at(f, 0).is_some());
                }
            }
        });
        assert_eq!(n, 0, "SuccinctExtent query surface");
        assert_eq!((pairs.len(), nodes.len()), (ext.len(), ext.len()));
        assert!(seen > 0);
    }

    #[test]
    fn operators_allocate_only_what_they_return() {
        // A chain: a's nodes are b's parents, b's nodes are c's.
        let (a, b, c) = (
            extent(0, 10_000),
            extent(10_000, 30_000),
            extent(30_000, 50_000),
        );
        let buf = BufferHandle::unbounded();
        let mut ctx = ExecContext::new(&buf);
        let ends = ends(3);
        let mut out = Vec::new();
        for kernel in [Kernel::Merge, Kernel::Gallop, Kernel::BlockSkip] {
            let n = warm_blocks(|| {
                out.clear();
                Semijoin {
                    ends: &ends,
                    extent: &a,
                    kernel,
                }
                .run(&mut ctx, &mut out);
            });
            assert_eq!(n, 0, "Semijoin::run({}) into a reused out", kernel.name());
        }

        let union = || ExtentUnion {
            sources: vec![&a, &b],
        };
        let join = || MultiwayJoin {
            seed: vec![&a],
            stages: vec![vec![&b], vec![&c]],
        };
        // The operator descriptions are built outside the measurement;
        // only `run` is counted, after one warm-up round.
        for round in 0..2 {
            let op = union();
            let (nodes, n) = blocks_by(|| op.run(&mut ctx));
            assert_eq!(nodes.len(), a.len() + b.len());
            assert!(round == 0 || n <= 1, "ExtentUnion::run made {n} blocks");
            let op = join();
            let (nodes, n) = blocks_by(|| op.run(&mut ctx));
            assert_eq!(nodes.len(), c.len());
            assert!(round == 0 || n <= 1, "MultiwayJoin::run made {n} blocks");
        }
    }
}
