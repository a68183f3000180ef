//! Incremental construction of [`XmlGraph`]s with ID/IDREF resolution.

use std::collections::HashMap;
use std::hash::BuildHasher;

use crate::error::BuildError;
use crate::interner::Interner;
use crate::model::{Edge, LabelId, NodeId, XmlGraph, NULL_NODE};

/// Builds an [`XmlGraph`] node by node.
///
/// Nids are assigned in creation order, which the caller must keep equal to
/// document order (the parser and all generators do). ID/IDREF references
/// are recorded during building and resolved in [`GraphBuilder::finish`]:
/// for each reference, an edge is added from the `@attr` node to the target
/// element, labeled with the *target's tag* (paper §3).
#[derive(Debug)]
pub struct GraphBuilder {
    labels: Interner,
    out: Vec<Vec<Edge>>,
    values: Vec<Option<Box<str>>>,
    tags: Vec<LabelId>,
    tree_parent: Vec<NodeId>,
    ids: IdTable,
    /// Target ids of the references not yet resolved, back to back, for
    /// the same reason as [`IdTable`].
    ref_text: String,
    /// Per pending reference: its `@attr` node and the end of its target
    /// id in `ref_text` (it starts where the previous one ends).
    pending_refs: Vec<(NodeId, usize)>,
    idref_label_set: Vec<LabelId>,
    edge_count: usize,
}

/// The declared ids, with no allocation per id: their text back to back
/// in one string, and a map from an id's hash to the newest id with that
/// hash, each id linking to the previous one with the same hash. The
/// builder drops it in [`GraphBuilder::finish`], while the graph keeps
/// every node value: a `String` per id would leave that many small holes
/// among the values, and the allocator serves later small requests from
/// them, scattered over the heap.
#[derive(Debug, Default)]
struct IdTable {
    text: String,
    /// Per id: its end in `text` (it starts where the previous id ends),
    /// its node, and the previous id with the same hash.
    entries: Vec<(usize, NodeId, Option<u32>)>,
    newest: HashMap<u64, u32>,
}

impl IdTable {
    /// The node declared under `id`.
    fn get(&self, id: &str) -> Option<NodeId> {
        let mut at = self.newest.get(&self.newest.hasher().hash_one(id)).copied();
        while let Some(i) = at {
            let i = i as usize;
            let start = i
                .checked_sub(1)
                .and_then(|p| self.entries.get(p))
                .map_or(0, |e| e.0);
            let &(end, node, prev) = self.entries.get(i)?;
            if self.text.get(start..end) == Some(id) {
                return Some(node);
            }
            at = prev;
        }
        None
    }

    /// Declares `id` for `node`; false if `id` is already declared.
    fn insert(&mut self, id: &str, node: NodeId) -> bool {
        if self.get(id).is_some() {
            return false;
        }
        let index = self.entries.len() as u32;
        let prev = self.newest.insert(self.newest.hasher().hash_one(id), index);
        self.text.push_str(id);
        self.entries.push((self.text.len(), node, prev));
        true
    }
}

impl GraphBuilder {
    /// Starts a graph whose root element has tag `root_tag`.
    pub fn new(root_tag: &str) -> Self {
        let mut labels = Interner::new();
        let root_label = labels.intern(root_tag);
        GraphBuilder {
            labels,
            out: vec![Vec::new()],
            values: vec![None],
            tags: vec![root_label],
            tree_parent: vec![NULL_NODE],
            ids: IdTable::default(),
            ref_text: String::new(),
            pending_refs: Vec::new(),
            idref_label_set: Vec::new(),
            edge_count: 0,
        }
    }

    /// The root node (always `NodeId(0)`).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of nodes created so far.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Interns a label without creating a node.
    pub fn intern(&mut self, label: &str) -> LabelId {
        self.labels.intern(label)
    }

    fn new_node(&mut self, parent: NodeId, label: LabelId) -> NodeId {
        let id = NodeId(self.out.len() as u32);
        self.out.push(Vec::new());
        self.values.push(None);
        self.tags.push(label);
        self.tree_parent.push(parent);
        self.out[parent.idx()].push(Edge { label, to: id });
        self.edge_count += 1;
        id
    }

    /// Adds an inner (element) child of `parent` reached by `label`.
    pub fn add_child(&mut self, parent: NodeId, label: &str) -> NodeId {
        let l = self.labels.intern(label);
        self.new_node(parent, l)
    }

    /// Adds a leaf child of `parent` carrying `value`.
    pub fn add_value_child(&mut self, parent: NodeId, label: &str, value: &str) -> NodeId {
        let n = self.add_child(parent, label);
        self.values[n.idx()] = Some(value.into());
        n
    }

    /// Sets (or replaces) the value of an existing node.
    pub fn set_value(&mut self, node: NodeId, value: &str) {
        self.values[node.idx()] = Some(value.into());
    }

    /// Declares `id` for `node`, so IDREFs can target it.
    pub fn register_id(&mut self, node: NodeId, id: &str) -> Result<(), BuildError> {
        if !self.ids.insert(id, node) {
            return Err(BuildError::DuplicateId { id: id.to_string() });
        }
        Ok(())
    }

    /// Adds an IDREF attribute `@attr_name` to `element`, referencing the
    /// element registered under `target_id`. Returns the attribute node.
    ///
    /// The reference edge itself (from the attribute node to the target,
    /// labeled with the target's tag) is created by [`GraphBuilder::finish`].
    pub fn add_idref(&mut self, element: NodeId, attr_name: &str, target_id: &str) -> NodeId {
        let label_str = format!("@{attr_name}");
        let l = self.labels.intern(&label_str);
        if !self.idref_label_set.contains(&l) {
            self.idref_label_set.push(l);
        }
        let attr_node = self.new_node(element, l);
        self.ref_text.push_str(target_id);
        self.pending_refs.push((attr_node, self.ref_text.len()));
        attr_node
    }

    /// Adds a plain (non-reference) attribute as a `@attr` leaf child.
    pub fn add_attribute(&mut self, element: NodeId, attr_name: &str, value: &str) -> NodeId {
        let label_str = format!("@{attr_name}");
        let l = self.labels.intern(&label_str);
        let n = self.new_node(element, l);
        self.values[n.idx()] = Some(value.into());
        n
    }

    /// Resolves all pending references and produces the final graph.
    pub fn finish(mut self) -> Result<XmlGraph, BuildError> {
        let refs = std::mem::take(&mut self.pending_refs);
        let mut start = 0;
        for (attr_node, end) in refs {
            let target_id = self.ref_text.get(start..end).unwrap_or_default();
            start = end;
            let Some(target) = self.ids.get(target_id) else {
                return Err(BuildError::UnresolvedRef {
                    attr_node: attr_node.0,
                    target_id: target_id.to_string(),
                });
            };
            let tag = self.tags[target.idx()];
            self.out[attr_node.idx()].push(Edge {
                label: tag,
                to: target,
            });
            self.edge_count += 1;
        }
        self.idref_label_set.sort_unstable();
        Ok(XmlGraph {
            labels: self.labels,
            out: self.out,
            values: self.values,
            tags: self.tags,
            tree_parent: self.tree_parent,
            root: NodeId(0),
            idref_labels: self.idref_label_set,
            edge_count: self.edge_count,
        })
    }
}

/// The MovieDB running example of the paper's Figure 1, with nids aligned
/// to the paper so tests can assert the worked examples literally.
///
/// The figure itself is under-determined by the text; this reconstruction
/// reproduces **every** extent, label path, and `T^R` value the paper
/// states (asserted in unit and integration tests):
///
/// * `movie.title` and `name` are label paths of node 7, with data paths
///   `movie.8.title.10` and `name.11` (Definitions 2–4);
/// * `T(title) = {<8,10>, <14,17>}` (Definition 7);
/// * `T(actor.name) = {<2,3>, <4,5>}` and
///   `T(name) = {<2,3>, <4,5>, <7,11>, <12,13>}`, hence
///   `T^R(name) = {<7,11>, <12,13>}` when `actor.name` is required
///   (Definition 9);
/// * the rooted paths quoted in §4 (`MovieDB.movie.title`,
///   `MovieDB.director.movie.title`, `MovieDB.actor.@movie.movie.title`,
///   `MovieDB.movie.@actor.actor.name`,
///   `MovieDB.director.movie.@director.director.name`, …).
///
/// Node map (nid → meaning):
///
/// | nid | node | tree parent |
/// |----:|------|-------------|
/// | 0 | `MovieDB` root | — |
/// | 1 | `year` leaf ("1977") | movie 8 |
/// | 2 | `actor` | root |
/// | 3 | `name` leaf of actor 2 | 2 |
/// | 4 | `actor` | root |
/// | 5 | `name` leaf of actor 4 | 4 |
/// | 6 | `@director` ref attr of movie 8 → director 12 | 8 |
/// | 7 | `director` | root |
/// | 8 | `movie` | director 7 |
/// | 9 | `@movie` ref attr of actor 4 → movie 8 | 4 |
/// | 10 | `title` leaf of movie 8 | 8 |
/// | 11 | `name` leaf of director 7 | 7 |
/// | 12 | `director` | movie 14 |
/// | 13 | `name` leaf of director 12 | 12 |
/// | 14 | `movie` | root |
/// | 15 | `@actor` ref attr of movie 14 → actor 2 | 14 |
/// | 16 | `@movie` ref attr of director 7 → movie 14 | 7 |
/// | 17 | `title` leaf of movie 14 | 14 |
pub fn moviedb() -> XmlGraph {
    let mut b = RawGraphBuilder::new();

    b.node(0, "MovieDB", None, None);
    b.node(1, "year", Some(8), Some("1977"));
    b.node(2, "actor", Some(0), None);
    b.node(3, "name", Some(2), Some("Mark Hamill"));
    b.node(4, "actor", Some(0), None);
    b.node(5, "name", Some(4), Some("Carrie Fisher"));
    b.node(6, "@director", Some(8), None);
    b.node(7, "director", Some(0), None);
    b.node(8, "movie", Some(7), None);
    b.node(9, "@movie", Some(4), None);
    b.node(10, "title", Some(8), Some("Star Wars"));
    b.node(11, "name", Some(7), Some("George Lucas"));
    b.node(12, "director", Some(14), None);
    b.node(13, "name", Some(12), Some("Irvin Kershner"));
    b.node(14, "movie", Some(0), None);
    b.node(15, "@actor", Some(14), None);
    b.node(16, "@movie", Some(7), None);
    b.node(17, "title", Some(14), Some("The Empire Strikes Back"));

    // Tree edges.
    b.edge(0, "actor", 2);
    b.edge(0, "actor", 4);
    b.edge(0, "director", 7);
    b.edge(0, "movie", 14);
    b.edge(2, "name", 3);
    b.edge(4, "name", 5);
    b.edge(4, "@movie", 9);
    b.edge(7, "name", 11);
    b.edge(7, "movie", 8);
    b.edge(7, "@movie", 16);
    b.edge(8, "title", 10);
    b.edge(8, "year", 1);
    b.edge(8, "@director", 6);
    b.edge(12, "name", 13);
    b.edge(14, "title", 17);
    b.edge(14, "director", 12);
    b.edge(14, "@actor", 15);

    // Reference edges, labeled with the target's tag.
    b.edge(9, "movie", 8);
    b.edge(6, "director", 12);
    b.edge(15, "actor", 2);
    b.edge(16, "movie", 14);

    b.finish(&["@movie", "@actor", "@director"])
}

/// Node declaration held by [`RawGraphBuilder`]: tag, tree parent, value.
type RawNode = (LabelId, NodeId, Option<Box<str>>);

/// Low-level builder for hand-crafted example graphs with explicit nids.
///
/// Unlike [`GraphBuilder`], nodes may be declared in any nid order and
/// edges are added verbatim; useful for reproducing figures from papers.
pub struct RawGraphBuilder {
    labels: Interner,
    nodes: Vec<Option<RawNode>>,
    edges: Vec<(u32, LabelId, u32)>,
}

impl RawGraphBuilder {
    /// Creates an empty raw builder.
    pub fn new() -> Self {
        RawGraphBuilder {
            labels: Interner::new(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Declares node `nid` with `tag`, optional tree parent, and value.
    pub fn node(&mut self, nid: u32, tag: &str, parent: Option<u32>, value: Option<&str>) {
        let tag = self.labels.intern(tag);
        let idx = nid as usize;
        if self.nodes.len() <= idx {
            self.nodes.resize_with(idx + 1, || None);
        }
        assert!(self.nodes[idx].is_none(), "node {nid} declared twice");
        self.nodes[idx] = Some((tag, parent.map_or(NULL_NODE, NodeId), value.map(Into::into)));
    }

    /// Adds edge `from --label--> to`.
    pub fn edge(&mut self, from: u32, label: &str, to: u32) {
        let l = self.labels.intern(label);
        self.edges.push((from, l, to));
    }

    /// Produces the graph; `idref_labels` names the reference-carrying
    /// attribute labels (they must already be interned via nodes/edges).
    ///
    /// # Panics
    /// Panics if a declared nid gap exists or an edge endpoint is missing.
    #[expect(
        clippy::panic,
        clippy::expect_used,
        reason = "finish() documents its panic contract for hand-built graphs"
    )]
    pub fn finish(self, idref_labels: &[&str]) -> XmlGraph {
        let mut out: Vec<Vec<Edge>> = vec![Vec::new(); self.nodes.len()];
        let mut values = Vec::with_capacity(self.nodes.len());
        let mut tags = Vec::with_capacity(self.nodes.len());
        let mut tree_parent = Vec::with_capacity(self.nodes.len());
        for (nid, slot) in self.nodes.into_iter().enumerate() {
            let (tag, parent, value) = slot.unwrap_or_else(|| panic!("nid {nid} not declared"));
            tags.push(tag);
            tree_parent.push(parent);
            values.push(value);
        }
        let edge_count = self.edges.len();
        for (from, label, to) in self.edges {
            assert!((to as usize) < out.len(), "edge to undeclared node {to}");
            out[from as usize].push(Edge {
                label,
                to: NodeId(to),
            });
        }
        let mut idrefs: Vec<LabelId> = idref_labels
            .iter()
            .map(|s| self.labels.get(s).expect("idref label not used in graph"))
            .collect();
        idrefs.sort_unstable();
        XmlGraph {
            labels: self.labels,
            out,
            values,
            tags,
            tree_parent,
            root: NodeId(0),
            idref_labels: idrefs,
            edge_count,
        }
    }
}

impl Default for RawGraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idref_edge_gets_target_tag() {
        let mut b = GraphBuilder::new("db");
        let root = b.root();
        let m = b.add_child(root, "movie");
        b.register_id(m, "m1").unwrap();
        let a = b.add_child(root, "actor");
        let attr = b.add_idref(a, "movie", "m1");
        let g = b.finish().unwrap();
        let ref_edges = g.out_edges(attr);
        assert_eq!(ref_edges.len(), 1);
        assert_eq!(g.label_str(ref_edges[0].label), "movie");
        assert_eq!(ref_edges[0].to, m);
        assert_eq!(g.idref_labels().len(), 1);
        assert_eq!(g.label_str(g.idref_labels()[0]), "@movie");
    }

    #[test]
    fn unresolved_ref_errors() {
        let mut b = GraphBuilder::new("db");
        let root = b.root();
        let a = b.add_child(root, "actor");
        b.add_idref(a, "movie", "nope");
        assert!(matches!(b.finish(), Err(BuildError::UnresolvedRef { .. })));
    }

    #[test]
    fn duplicate_id_errors() {
        let mut b = GraphBuilder::new("db");
        let root = b.root();
        let m1 = b.add_child(root, "movie");
        let m2 = b.add_child(root, "movie");
        b.register_id(m1, "x").unwrap();
        assert!(b.register_id(m2, "x").is_err());
    }

    #[test]
    fn ids_resolve_among_many_and_stay_unique() {
        let mut b = GraphBuilder::new("db");
        let root = b.root();
        let movies: Vec<NodeId> = (0..500)
            .map(|i| {
                let m = b.add_child(root, "movie");
                b.register_id(m, &format!("m{i}")).unwrap();
                m
            })
            .collect();
        assert!(b.register_id(movies[0], "m499").is_err());
        let a = b.add_child(root, "actor");
        let refs: Vec<NodeId> = (0..500)
            .rev()
            .map(|i| b.add_idref(a, "movie", &format!("m{i}")))
            .collect();
        let g = b.finish().unwrap();
        for (attr, &m) in refs.iter().zip(movies.iter().rev()) {
            assert_eq!(g.out_edges(*attr)[0].to, m);
        }
    }

    #[test]
    fn plain_attribute_is_value_leaf() {
        let mut b = GraphBuilder::new("db");
        let root = b.root();
        let m = b.add_child(root, "movie");
        let a = b.add_attribute(m, "year", "1977");
        let g = b.finish().unwrap();
        assert_eq!(g.value(a), Some("1977"));
        assert_eq!(g.label_str(g.tag(a)), "@year");
        assert!(g.idref_labels().is_empty());
    }

    fn edge_set(g: &XmlGraph, label: &str) -> Vec<(u32, u32)> {
        let l = g.label_id(label).unwrap();
        let mut v: Vec<(u32, u32)> = g
            .edges()
            .filter(|(_, el, _)| *el == l)
            .map(|(f, _, t)| (f.0, t.0))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn moviedb_matches_paper_title_extent() {
        let g = moviedb();
        assert_eq!(g.node_count(), 18);
        assert_eq!(g.edge_count(), 21);
        // T(title) = {<8,10>, <14,17>}
        assert_eq!(edge_set(&g, "title"), vec![(8, 10), (14, 17)]);
    }

    #[test]
    fn moviedb_matches_paper_name_extent() {
        let g = moviedb();
        // T(name) = {<2,3>, <4,5>, <7,11>, <12,13>}
        assert_eq!(
            edge_set(&g, "name"),
            vec![(2, 3), (4, 5), (7, 11), (12, 13)]
        );
    }

    #[test]
    fn moviedb_node7_data_paths() {
        let g = moviedb();
        // Paper: movie.8.title.10 and name.11 are data paths of node 7.
        let movie = g.label_id("movie").unwrap();
        let title = g.label_id("title").unwrap();
        let name = g.label_id("name").unwrap();
        let n7 = NodeId(7);
        assert!(g
            .out_edges(n7)
            .iter()
            .any(|e| e.label == movie && e.to == NodeId(8)));
        assert!(g
            .out_edges(NodeId(8))
            .iter()
            .any(|e| e.label == title && e.to == NodeId(10)));
        assert!(g
            .out_edges(n7)
            .iter()
            .any(|e| e.label == name && e.to == NodeId(11)));
    }

    #[test]
    fn moviedb_actor_name_instances() {
        let g = moviedb();
        // T(actor.name) = {<2,3>, <4,5>}: name edges whose source has an
        // incoming actor-labeled edge.
        let actor = g.label_id("actor").unwrap();
        let name = g.label_id("name").unwrap();
        let mut actor_targets: Vec<NodeId> = g
            .edges()
            .filter(|(_, l, _)| *l == actor)
            .map(|(_, _, t)| t)
            .collect();
        actor_targets.sort_unstable();
        actor_targets.dedup();
        let mut t: Vec<(u32, u32)> = g
            .edges()
            .filter(|(f, l, _)| *l == name && actor_targets.binary_search(f).is_ok())
            .map(|(f, _, t)| (f.0, t.0))
            .collect();
        t.sort_unstable();
        assert_eq!(t, vec![(2, 3), (4, 5)]);
    }

    #[test]
    fn moviedb_idref_labels() {
        let g = moviedb();
        let mut names: Vec<&str> = g.idref_labels().iter().map(|l| g.label_str(*l)).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["@actor", "@director", "@movie"]);
    }
}
