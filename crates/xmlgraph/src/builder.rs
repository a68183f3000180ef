//! Incremental construction of [`XmlGraph`]s with ID/IDREF resolution.
//!
//! A builder keeps per node only its tag, tree parent and value id, and
//! interns labels, ids and values in one [`Interner`] each. `finish` lays
//! every edge out once, by a stable counting placement into one array
//! with an offset per node, and renumbers the values in byte order.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::sync::Arc;

use crate::error::BuildError;
use crate::interner::Interner;
use crate::model::{group_by_key, Edge, LabelId, NodeId, XmlGraph, NO_VALUE, NULL_NODE};

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
    tags: Vec<LabelId>,
    tree_parent: Vec<NodeId>,
    /// Per node: its value's id in `values`, or [`NO_VALUE`].
    value_ids: Vec<u32>,
    values: Interner,
    /// Every id declared or referenced so far.
    ids: Interner,
    /// Per id in `ids`: the node that declared it, or `NULL_NODE` while
    /// it is only referenced.
    id_nodes: Vec<NodeId>,
    /// Per reference, in the order added: its `@attr` node and the id it
    /// targets.
    refs: Vec<(NodeId, u32)>,
    idref_label_set: Vec<LabelId>,
}

impl GraphBuilder {
    /// Starts a graph whose root element has tag `root_tag`.
    pub fn new(root_tag: &str) -> Self {
        let mut labels = Interner::default();
        let root_label = LabelId(labels.intern(root_tag));
        GraphBuilder {
            labels,
            tags: vec![root_label],
            tree_parent: vec![NULL_NODE],
            value_ids: vec![NO_VALUE],
            values: Interner::default(),
            ids: Interner::default(),
            id_nodes: Vec::new(),
            refs: Vec::new(),
            idref_label_set: Vec::new(),
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
        self.tags.len()
    }

    /// Interns a label without creating a node.
    pub fn intern(&mut self, label: &str) -> LabelId {
        LabelId(self.labels.intern(label))
    }

    fn new_node(&mut self, parent: NodeId, label: LabelId) -> NodeId {
        let id = NodeId(self.tags.len() as u32);
        assert!(parent < id, "parent {} is not a node yet", parent.0);
        self.tags.push(label);
        self.tree_parent.push(parent);
        self.value_ids.push(NO_VALUE);
        id
    }

    /// Adds an inner (element) child of `parent` reached by `label`.
    pub fn add_child(&mut self, parent: NodeId, label: &str) -> NodeId {
        let l = self.intern(label);
        self.new_node(parent, l)
    }

    /// Adds a leaf child of `parent` carrying `value`.
    pub fn add_value_child(&mut self, parent: NodeId, label: &str, value: &str) -> NodeId {
        let n = self.add_child(parent, label);
        self.set_value(n, value);
        n
    }

    /// Sets (or replaces) the value of an existing node.
    ///
    /// # Panics
    /// Panics if `node` was not created by this builder.
    #[expect(
        clippy::indexing_slicing,
        reason = "a node of this builder indexes `value_ids`, which holds one slot per node; a foreign node is the documented panic"
    )]
    pub fn set_value(&mut self, node: NodeId, value: &str) {
        self.value_ids[node.idx()] = self.values.intern(value);
    }

    /// The index of `id` in `ids` and `id_nodes`, adding it if new.
    fn id_slot(&mut self, id: &str) -> u32 {
        let k = self.ids.intern(id);
        if k as usize == self.id_nodes.len() {
            self.id_nodes.push(NULL_NODE);
        }
        k
    }

    /// Declares `id` for `node`, so IDREFs can target it.
    pub fn register_id(&mut self, node: NodeId, id: &str) -> Result<(), BuildError> {
        let k = self.id_slot(id);
        match self.id_nodes.get_mut(k as usize) {
            Some(slot) if slot.is_null() => {
                *slot = node;
                Ok(())
            }
            _ => Err(BuildError::DuplicateId { id: id.to_string() }),
        }
    }

    /// Adds an IDREF attribute `@attr_name` to `element`, referencing the
    /// element registered under `target_id`. Returns the attribute node.
    ///
    /// The reference edge itself (from the attribute node to the target,
    /// labeled with the target's tag) is created by [`GraphBuilder::finish`].
    pub fn add_idref(&mut self, element: NodeId, attr_name: &str, target_id: &str) -> NodeId {
        let l = self.intern(&format!("@{attr_name}"));
        if !self.idref_label_set.contains(&l) {
            self.idref_label_set.push(l);
        }
        let attr_node = self.new_node(element, l);
        let k = self.id_slot(target_id);
        self.refs.push((attr_node, k));
        attr_node
    }

    /// Adds a plain (non-reference) attribute as a `@attr` leaf child.
    pub fn add_attribute(&mut self, element: NodeId, attr_name: &str, value: &str) -> NodeId {
        self.add_value_child(element, &format!("@{attr_name}"), value)
    }

    /// The reference edge to the node declaring id `k`, if one does.
    fn ref_edge(&self, k: u32) -> Option<Edge> {
        let to = *self.id_nodes.get(k as usize).filter(|n| !n.is_null())?;
        let label = *self.tags.get(to.idx())?;
        Some(Edge { label, to })
    }

    /// Resolves all pending references and produces the final graph.
    pub fn finish(mut self) -> Result<XmlGraph, BuildError> {
        if let Some(&(attr, k)) = self.refs.iter().find(|r| self.ref_edge(r.1).is_none()) {
            return Err(BuildError::UnresolvedRef {
                attr_node: attr.0,
                target_id: self.ids.resolve(k).to_string(),
            });
        }
        let (offsets, edges) = assemble(self.tags.len(), || {
            let tree = self.tags.iter().zip(&self.tree_parent).enumerate().skip(1);
            let tree = tree.map(|(n, (&label, &parent))| {
                let to = NodeId(n as u32);
                (parent, Edge { label, to })
            });
            let refs = self.refs.iter();
            tree.chain(refs.filter_map(|&(attr, k)| Some((attr, self.ref_edge(k)?))))
        });
        self.idref_label_set.sort_unstable();
        let values = Arc::new(self.values.into_byte_order(&mut self.value_ids));
        self.tags.shrink_to_fit();
        self.tree_parent.shrink_to_fit();
        self.value_ids.shrink_to_fit();
        Ok(XmlGraph {
            labels: self.labels,
            offsets,
            edges,
            value_ids: self.value_ids,
            values,
            tags: self.tags,
            tree_parent: self.tree_parent,
            idref_labels: self.idref_label_set,
        })
    }
}

/// Lays out the `(from, edge)` pairs `list` yields so that node `n`'s
/// edges are `edges[offsets[n]..offsets[n + 1]]`, in the order listed.
///
/// # Panics
/// Panics if an edge's `from` or `to` is not below `node_count`.
#[expect(
    clippy::panic,
    reason = "an endpoint outside the graph is the builders' documented panic"
)]
fn assemble<I>(node_count: usize, list: impl Fn() -> I) -> (Vec<u32>, Vec<Edge>)
where
    I: DoubleEndedIterator<Item = (NodeId, Edge)>,
{
    for (from, e) in list() {
        if from.idx() >= node_count || e.to.idx() >= node_count {
            panic!("edge endpoint is missing: {} -> {}", from.0, e.to.0);
        }
    }
    group_by_key(node_count, || list().map(|(from, e)| (from.idx(), e)))
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

/// Node declaration held by [`RawGraphBuilder`]: tag, tree parent, value id.
type RawNode = (LabelId, NodeId, u32);

/// Low-level builder for hand-crafted example graphs with explicit nids.
///
/// Unlike [`GraphBuilder`], nodes may be declared in any nid order and
/// edges are added verbatim; useful for reproducing figures from papers.
pub struct RawGraphBuilder {
    labels: Interner,
    values: Interner,
    nodes: Vec<Option<RawNode>>,
    edges: Vec<(u32, LabelId, u32)>,
}

impl RawGraphBuilder {
    /// Creates an empty raw builder.
    pub fn new() -> Self {
        RawGraphBuilder {
            labels: Interner::default(),
            values: Interner::default(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Declares node `nid` with `tag`, optional tree parent, and value.
    ///
    /// # Panics
    /// Panics if `nid` is declared twice.
    pub fn node(&mut self, nid: u32, tag: &str, parent: Option<u32>, value: Option<&str>) {
        let tag = LabelId(self.labels.intern(tag));
        let value = value.map_or(NO_VALUE, |v| self.values.intern(v));
        let idx = nid as usize;
        if self.nodes.len() <= idx {
            self.nodes.resize_with(idx + 1, || None);
        }
        if let Some(slot) = self.nodes.get_mut(idx) {
            assert!(slot.is_none(), "node {nid} declared twice");
            *slot = Some((tag, parent.map_or(NULL_NODE, NodeId), value));
        }
    }

    /// Adds edge `from --label--> to`.
    pub fn edge(&mut self, from: u32, label: &str, to: u32) {
        let l = LabelId(self.labels.intern(label));
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
        let nodes = self.nodes.into_iter().enumerate();
        let nodes: Vec<RawNode> = nodes
            .map(|(nid, slot)| slot.unwrap_or_else(|| panic!("nid {nid} not declared")))
            .collect();
        let tags = nodes.iter().map(|n| n.0).collect();
        let tree_parent = nodes.iter().map(|n| n.1).collect();
        let mut value_ids: Vec<u32> = nodes.iter().map(|n| n.2).collect();
        let (offsets, edges) = assemble(nodes.len(), || {
            self.edges.iter().map(|&(from, label, to)| {
                let to = NodeId(to);
                (NodeId(from), Edge { label, to })
            })
        });
        let mut idrefs: Vec<LabelId> = idref_labels
            .iter()
            .map(|s| LabelId(self.labels.get(s).expect("idref label not used in graph")))
            .collect();
        idrefs.sort_unstable();
        XmlGraph {
            labels: self.labels,
            offsets,
            edges,
            values: Arc::new(self.values.into_byte_order(&mut value_ids)),
            value_ids,
            tags,
            tree_parent,
            idref_labels: idrefs,
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
    #[should_panic(expected = "edge endpoint is missing")]
    fn an_edge_from_an_undeclared_node_is_refused() {
        let mut b = RawGraphBuilder::new();
        b.node(0, "r", None, None);
        b.edge(7, "x", 0);
        b.finish(&[]);
    }

    #[test]
    #[should_panic(expected = "edge endpoint is missing")]
    fn an_edge_to_an_undeclared_node_is_refused() {
        let mut b = RawGraphBuilder::new();
        b.node(0, "r", None, None);
        b.edge(0, "x", 7);
        b.finish(&[]);
    }

    #[test]
    fn out_edges_are_tree_children_in_nid_order_then_references() {
        let mut b = GraphBuilder::new("db");
        let root = b.root();
        let m = b.add_child(root, "movie");
        b.register_id(m, "m").unwrap();
        let r1 = b.add_idref(root, "first", "m");
        let a = b.add_child(root, "actor");
        // An attribute node that gains a child keeps its reference last.
        let c = b.add_child(r1, "note");
        b.add_value_child(a, "name", "");
        let g = b.finish().unwrap();
        let movie = g.label_id("movie").unwrap();
        let out: Vec<NodeId> = g.out_edges(root).iter().map(|e| e.to).collect();
        assert_eq!(out, vec![m, r1, a]);
        let r1_out: Vec<(LabelId, NodeId)> =
            g.out_edges(r1).iter().map(|e| (e.label, e.to)).collect();
        assert_eq!(r1_out, vec![(g.tag(c), c), (movie, m)]);
        assert_eq!(g.edge_count(), g.edges().count());
        assert_eq!(g.value(NodeId(5)), Some(""), "an empty value is a value");
        assert_eq!(g.value(m), None);
    }

    #[test]
    fn moviedb_idref_labels() {
        let g = moviedb();
        let mut names: Vec<&str> = g.idref_labels().iter().map(|l| g.label_str(*l)).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["@actor", "@director", "@movie"]);
    }
}
