//! Frequently-used-path extraction (§5.2, Figure 8).
//!
//! The paper observes that classic sequential-pattern mining does not
//! apply directly (subpaths of a frequent path expression need not be
//! frequent *as used*, and the subsequence lattice differs), and that
//! workloads are small, so it uses a naive one-scan algorithm: count
//! **all contiguous subpaths** of every workload query, then prune
//! entries below `minSup`.

use crate::hashtree::HashTree;
use crate::workload::Workload;

/// Runs the extraction pass: counts every distinct subpath of every
/// workload query **beside** `H_APEX`, makes the subpaths that reach
/// `min_sup × |workload|` required, and prunes the rest. Only entries
/// whose support crossed the threshold are touched — an infrequent
/// subpath never enters the tree, so the classes of entries it would
/// have hung under stay valid. The `xnode` invalidations of §5.2 happen
/// inside [`HashTree::prune`]; call [`crate::update::update_apex`]
/// afterwards to re-materialize `G_APEX`. Paths are required in sorted
/// order, so a refresh replays the same way every run.
pub fn extract_frequent(ht: &mut HashTree, workload: &Workload, min_sup: f64) {
    let threshold = min_sup * workload.len() as f64;
    ht.reset_counts();
    for (path, count) in workload.subpath_counts() {
        if f64::from(count) >= threshold {
            ht.require(path.labels(), count);
        }
    }
    ht.prune(threshold);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashtree::EntryRef;
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    #[test]
    fn figure7_walkthrough() {
        // Required {A,B,C,D,B.D} -> workload {A.D, C, A.D}, minSup 0.6.
        // We encode A..D as labels of the moviedb graph for convenience.
        let g = moviedb();
        let (a, b, c, d) = ("actor", "name", "movie", "title");
        let mut ht = HashTree::new();
        for lbl in [a, b, c, d] {
            ht.ensure_head_entry(g.label_id(lbl).unwrap());
        }
        // Seed required path B.D.
        let bd = LabelPath::parse(&g, "name.title").unwrap();
        ht.require(bd.labels(), 1);
        ht.prune(0.5);

        // New workload.
        let wl = Workload::parse(&g, &["actor.title", "movie", "actor.title"]).unwrap();
        extract_frequent(&mut ht, &wl, 0.6);

        // B.D pruned, A.D required, all singles kept.
        let req: Vec<String> = ht
            .required_paths()
            .iter()
            .map(|p| g.render_path(p))
            .collect();
        assert!(req.contains(&"actor".to_string()));
        assert!(req.contains(&"name".to_string()));
        assert!(req.contains(&"movie".to_string()));
        assert!(req.contains(&"title".to_string()));
        assert!(req.contains(&"actor.title".to_string()));
        assert!(!req.contains(&"name.title".to_string()));
        assert_eq!(req.len(), 5);
    }

    #[test]
    fn subpaths_counted_not_just_whole_queries() {
        let g = moviedb();
        let mut ht = HashTree::new();
        for l in (0..g.label_count() as u32).map(xmlgraph::LabelId) {
            ht.ensure_head_entry(l);
        }
        // One query director.movie.title appearing always: all subpaths
        // are 100% frequent.
        let wl = Workload::parse(&g, &["director.movie.title"; 4]).unwrap();
        extract_frequent(&mut ht, &wl, 1.0);
        let req: Vec<String> = ht
            .required_paths()
            .iter()
            .map(|p| g.render_path(p))
            .collect();
        assert!(req.contains(&"director.movie".to_string()));
        assert!(req.contains(&"movie.title".to_string()));
        assert!(req.contains(&"director.movie.title".to_string()));
    }

    #[test]
    fn infrequent_long_paths_pruned_but_singles_survive() {
        let g = moviedb();
        let mut ht = HashTree::new();
        for l in (0..g.label_count() as u32).map(xmlgraph::LabelId) {
            ht.ensure_head_entry(l);
        }
        let wl = Workload::parse(
            &g,
            &["actor.name", "movie.title", "movie.title", "movie.title"],
        )
        .unwrap();
        extract_frequent(&mut ht, &wl, 0.5);
        let req: Vec<String> = ht
            .required_paths()
            .iter()
            .map(|p| g.render_path(p))
            .collect();
        assert!(req.contains(&"movie.title".to_string()));
        assert!(!req.contains(&"actor.name".to_string()));
        // All length-1 labels survive even at 0 count.
        assert!(req.contains(&"@director".to_string()));
    }

    #[test]
    fn infrequent_subpath_leaves_a_cold_head_class_alone() {
        // `title` is cold (1 of 10 queries, threshold 3) and so is
        // movie.title: counting must not hang a transient chain under
        // head[title], and pruning must not clear its valid class.
        let g = moviedb();
        let mut ht = HashTree::new();
        for l in (0..g.label_count() as u32).map(xmlgraph::LabelId) {
            ht.ensure_head_entry(l);
        }
        let title = g.label_id("title").unwrap();
        let head = ht.head();
        ht.set_xnode(EntryRef::Label(head, title), crate::graph::XNodeId(5));
        let mut queries = vec!["actor.name"; 9];
        queries.push("movie.title");
        let wl = Workload::parse(&g, &queries).unwrap();
        extract_frequent(&mut ht, &wl, 0.3);
        let e = ht.entry(head, title).unwrap();
        assert_eq!((e.xnode, e.next), (Some(crate::graph::XNodeId(5)), None));
        // Only actor.name's chain was ever allocated.
        assert_eq!(ht.allocated(), 2);
    }

    #[test]
    fn remainder_invalidation_on_new_required_path() {
        let g = moviedb();
        let mut ht = HashTree::new();
        for l in (0..g.label_count() as u32).map(xmlgraph::LabelId) {
            ht.ensure_head_entry(l);
        }
        // Round 1: actor.name required.
        let wl1 = Workload::parse(&g, &["actor.name"]).unwrap();
        extract_frequent(&mut ht, &wl1, 0.5);
        // Simulate updateAPEX wiring the remainder class of `name`.
        let name = g.label_id("name").unwrap();
        let sub = ht.entry(ht.head(), name).unwrap().next.unwrap();
        ht.set_xnode(EntryRef::Remainder(sub), crate::graph::XNodeId(42));
        // Round 2: director.name becomes required too; the remainder
        // class of `name` shrinks -> must be invalidated.
        let wl2 = Workload::parse(&g, &["actor.name", "director.name"]).unwrap();
        extract_frequent(&mut ht, &wl2, 0.5);
        let sub = ht.entry(ht.head(), name).unwrap().next.unwrap();
        assert_eq!(ht.node(sub).remainder, None);
    }
}
