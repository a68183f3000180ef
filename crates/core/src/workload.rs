//! Query workloads: the sets of label paths APEX adapts to.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::collections::BTreeMap;

use xmlgraph::{LabelPath, XmlGraph};

/// A workload is a bag of label-path queries (§4: "we assume that a
/// database system keeps the set of queries").
#[derive(Debug, Clone, Default)]
pub struct Workload {
    queries: Vec<LabelPath>,
}

impl Workload {
    /// Empty workload.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from pre-parsed label paths.
    pub fn from_paths(queries: Vec<LabelPath>) -> Self {
        Workload { queries }
    }

    /// Parses dot-separated paths against `g`. Returns `None` if any
    /// label is unknown.
    pub fn parse(g: &XmlGraph, paths: &[&str]) -> Option<Self> {
        let queries = paths
            .iter()
            .map(|p| LabelPath::parse(g, p))
            .collect::<Option<Vec<_>>>()?;
        Some(Workload { queries })
    }

    /// Adds one query.
    pub fn push(&mut self, q: LabelPath) {
        self.queries.push(q);
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if no queries recorded.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Iterates over the queries.
    pub fn iter(&self) -> impl Iterator<Item = &LabelPath> {
        self.queries.iter()
    }

    /// For every contiguous subpath of any query, the number of queries
    /// having it as a subpath — `support × len` for the whole window in
    /// one scan. A query counts each of its subpaths once (`subpaths()`
    /// deduplicates), exactly the paper's definition of support. Ordered
    /// maps, so the scan — and a `refine` that walks its result —
    /// allocates and iterates the same way on every run.
    pub fn subpath_counts(&self) -> BTreeMap<LabelPath, u32> {
        // Windows repeat their hot queries: expand each distinct query once.
        let mut distinct: BTreeMap<&LabelPath, u32> = BTreeMap::new();
        for q in &self.queries {
            *distinct.entry(q).or_default() += 1;
        }
        let mut counts: BTreeMap<LabelPath, u32> = BTreeMap::new();
        for (q, n) in distinct {
            for sub in q.subpaths() {
                *counts.entry(sub).or_default() += n;
            }
        }
        counts
    }

    /// The support of `p`: the fraction of queries having `p` as a
    /// subpath (§4). Reference implementation used by property tests to
    /// validate the hash-tree counting.
    pub fn support(&self, p: &LabelPath) -> f64 {
        if self.queries.is_empty() {
            return 0.0;
        }
        let hits = self.queries.iter().filter(|q| p.is_subpath_of(q)).count();
        hits as f64 / self.queries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::builder::moviedb;

    #[test]
    fn support_counts_subpath_queries() {
        let g = moviedb();
        let wl = Workload::parse(&g, &["actor.name", "movie.actor.name", "movie.title"]).unwrap();
        let an = LabelPath::parse(&g, "actor.name").unwrap();
        assert!((wl.support(&an) - 2.0 / 3.0).abs() < 1e-9);
        let t = LabelPath::parse(&g, "title").unwrap();
        assert!((wl.support(&t) - 1.0 / 3.0).abs() < 1e-9);
        let missing = LabelPath::parse(&g, "year.year").unwrap();
        assert_eq!(wl.support(&missing), 0.0);
    }

    #[test]
    fn subpath_counts_agree_with_support() {
        let g = moviedb();
        let wl = Workload::parse(
            &g,
            &["actor.name", "movie.actor.name", "actor.name", "name.name"],
        )
        .unwrap();
        let counts = wl.subpath_counts();
        // actor, name, movie, actor.name, movie.actor, movie.actor.name, name.name
        assert_eq!(counts.len(), 7);
        for (p, &n) in &counts {
            assert!((wl.support(p) - f64::from(n) / 4.0).abs() < 1e-9, "{p:?}");
        }
    }

    #[test]
    fn parse_rejects_unknown_labels() {
        let g = moviedb();
        assert!(Workload::parse(&g, &["actor.bogus"]).is_none());
    }

    #[test]
    fn empty_workload_support_zero() {
        let g = moviedb();
        let wl = Workload::new();
        let p = LabelPath::parse(&g, "actor").unwrap();
        assert_eq!(wl.support(&p), 0.0);
        assert!(wl.is_empty());
    }
}
