//! Label paths and data paths (Definitions 2–5 of the paper).

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::collections::HashSet;

use crate::model::{LabelId, NodeId, XmlGraph};

/// A label path: a sequence of edge labels `l_1.l_2…l_n` (Definition 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelPath(pub Vec<LabelId>);

impl LabelPath {
    /// The empty path.
    pub fn empty() -> Self {
        LabelPath(Vec::new())
    }

    /// Builds a path from label ids.
    pub fn new(labels: Vec<LabelId>) -> Self {
        LabelPath(labels)
    }

    /// Parses a dot-separated path against `g`'s interner.
    /// Returns `None` if any label is unknown to the graph.
    pub fn parse(g: &XmlGraph, s: &str) -> Option<Self> {
        let mut v = Vec::new();
        for part in s.split('.') {
            v.push(g.label_id(part)?);
        }
        Some(LabelPath(v))
    }

    /// Path length (number of labels).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty path.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Labels of the path.
    pub fn labels(&self) -> &[LabelId] {
        &self.0
    }

    /// Definition 5: true if `self` occurs as a contiguous subsequence of
    /// `other` (`self` is a *subpath* of `other`).
    pub fn is_subpath_of(&self, other: &LabelPath) -> bool {
        if self.0.is_empty() {
            return true;
        }
        if self.0.len() > other.0.len() {
            return false;
        }
        other
            .0
            .windows(self.0.len())
            .any(|w| w == self.0.as_slice())
    }

    /// Definition 5: true if `self` is a suffix of `other`.
    pub fn is_suffix_of(&self, other: &LabelPath) -> bool {
        self.0.len() <= other.0.len() && other.0.ends_with(&self.0)
    }

    /// All non-empty contiguous subpaths, deduplicated.
    #[expect(
        clippy::indexing_slicing,
        reason = "0 <= i < j <= len by the loop bounds"
    )]
    pub fn subpaths(&self) -> Vec<LabelPath> {
        let n = self.0.len();
        let mut set = HashSet::new();
        let mut out = Vec::new();
        for i in 0..n {
            for j in i + 1..=n {
                let sub = LabelPath(self.0[i..j].to_vec());
                if set.insert(sub.clone()) {
                    out.push(sub);
                }
            }
        }
        out
    }

    /// Renders with `g`'s label names (`a.b.c`).
    pub fn render(&self, g: &XmlGraph) -> String {
        g.render_path(&self.0)
    }
}

/// Bounds for rooted-path enumeration on graphs with reference cycles.
#[derive(Debug, Clone, Copy)]
pub struct EnumLimits {
    /// Maximum path length (labels). Cycles make the path language
    /// infinite; the paper enumerates "all possible simple path
    /// expressions", i.e. paths whose data-path witnesses repeat no node.
    pub max_len: usize,
    /// Cap on distinct label paths collected.
    pub max_paths: usize,
}

impl Default for EnumLimits {
    fn default() -> Self {
        EnumLimits {
            max_len: 12,
            max_paths: 200_000,
        }
    }
}

/// Enumerates the distinct rooted label paths of `g` — the paper's "all
/// possible simple path expressions in XML data" used to seed the query
/// generator (§6.1).
///
/// A DFS from the root follows edges while never revisiting a node on the
/// current stack (simple data paths), collecting each distinct label
/// sequence once, subject to `limits`. Deterministic: edges are visited in
/// adjacency order.
#[expect(
    clippy::indexing_slicing,
    reason = "`on_path` has one slot per node of `g` and is indexed by g's own NodeIds; `edges[next]` is guarded by `next < edges.len()`"
)]
pub fn rooted_label_paths(g: &XmlGraph, limits: EnumLimits) -> Vec<LabelPath> {
    let mut seen: HashSet<Vec<LabelId>> = HashSet::new();
    let mut out: Vec<LabelPath> = Vec::new();
    let mut on_path = vec![false; g.node_count()];
    let mut labels: Vec<LabelId> = Vec::new();

    // Iterative DFS over (node, next-edge-index) to avoid stack overflow on
    // deep documents.
    let root = g.root();
    let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
    on_path[root.idx()] = true;

    while let Some(&(node, next)) = stack.last() {
        if out.len() >= limits.max_paths {
            break;
        }
        let edges = g.out_edges(node);
        if next < edges.len() && labels.len() < limits.max_len {
            if let Some(top) = stack.last_mut() {
                top.1 += 1;
            }
            let e = edges[next];
            if on_path[e.to.idx()] {
                continue; // keep data paths simple
            }
            labels.push(e.label);
            if seen.insert(labels.clone()) {
                out.push(LabelPath(labels.clone()));
            }
            on_path[e.to.idx()] = true;
            stack.push((e.to, 0));
        } else {
            stack.pop();
            on_path[node.idx()] = false;
            labels.pop();
        }
    }
    out
}

/// Evaluates the set of nodes reached from the root by `path` — the ground
/// truth for a rooted simple-path query, by direct graph traversal.
pub fn eval_rooted(g: &XmlGraph, path: &LabelPath) -> Vec<NodeId> {
    let mut frontier = vec![g.root()];
    for &label in path.labels() {
        let mut next = Vec::new();
        for n in frontier {
            for e in g.out_edges(n) {
                if e.label == label {
                    next.push(e.to);
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::moviedb;

    #[test]
    fn subpath_and_suffix() {
        let g = moviedb();
        let mt = LabelPath::parse(&g, "movie.title").unwrap();
        let m = LabelPath::parse(&g, "movie").unwrap();
        let t = LabelPath::parse(&g, "title").unwrap();
        assert!(m.is_subpath_of(&mt));
        assert!(t.is_subpath_of(&mt));
        assert!(t.is_suffix_of(&mt));
        assert!(!m.is_suffix_of(&mt));
        assert!(mt.is_suffix_of(&mt));
        assert!(!mt.is_subpath_of(&m));
    }

    #[test]
    fn subpaths_dedup() {
        let g = moviedb();
        let p = LabelPath::parse(&g, "name.name.name").unwrap();
        // Subpaths: name, name.name, name.name.name — deduplicated.
        assert_eq!(p.subpaths().len(), 3);
    }

    #[test]
    fn enumerates_rooted_paths_of_moviedb() {
        let g = moviedb();
        let paths = rooted_label_paths(&g, EnumLimits::default());
        let rendered: HashSet<String> = paths.iter().map(|p| p.render(&g)).collect();
        // Paths the paper quotes in §4 (with the @-encoding of references).
        assert!(rendered.contains("movie.title"));
        assert!(rendered.contains("director.movie.title"));
        assert!(rendered.contains("actor.@movie.movie.title"));
        assert!(rendered.contains("movie.@actor.actor.name"));
        assert!(rendered.contains("director.movie.@director.director.name"));
    }

    #[test]
    fn eval_rooted_matches_hand_results() {
        let g = moviedb();
        let p = LabelPath::parse(&g, "movie.title").unwrap();
        assert_eq!(eval_rooted(&g, &p), vec![NodeId(17)]);
        let p2 = LabelPath::parse(&g, "director.movie.title").unwrap();
        assert_eq!(eval_rooted(&g, &p2), vec![NodeId(10)]);
        let p3 = LabelPath::parse(&g, "actor.name").unwrap();
        assert_eq!(eval_rooted(&g, &p3), vec![NodeId(3), NodeId(5)]);
    }

    #[test]
    fn limits_bound_enumeration() {
        let g = moviedb();
        let paths = rooted_label_paths(
            &g,
            EnumLimits {
                max_len: 1,
                max_paths: 100,
            },
        );
        assert!(paths.iter().all(|p| p.len() == 1));
        let capped = rooted_label_paths(
            &g,
            EnumLimits {
                max_len: 12,
                max_paths: 3,
            },
        );
        assert_eq!(capped.len(), 3);
    }

    #[test]
    fn parse_unknown_label_is_none() {
        let g = moviedb();
        assert!(LabelPath::parse(&g, "movie.bogus").is_none());
    }
}
