//! Direct graph-traversal evaluator — the correctness oracle.
//!
//! Evaluates queries straight over `G_XML` with no index. Every other
//! processor is tested for result equality against this one. It also
//! accounts a cost (edges scanned, pages touched through the shared
//! buffer pool) so it can serve as a "no index" baseline in ablations:
//! the label posting lists and node adjacency lists are modeled as
//! page-packed arrays ([`Space::LabelPosting`] / [`Space::GraphAdjacency`])
//! scanned through [`crate::exec::ExtentScan`].

use apex_storage::bufmgr::{BufferHandle, Space};
use apex_storage::DataTable;
use xmlgraph::{LabelId, NodeId, XmlGraph};

use crate::ast::Query;
use crate::batch::{QueryOutput, QueryProcessor};
use crate::exec::{self, DataProbe, ExecContext, ExtentScan};

/// The naive evaluator.
pub struct NaiveProcessor<'a> {
    g: &'a XmlGraph,
    table: &'a DataTable,
    /// All edges grouped by label: `by_label[l] = (from, to)*`.
    by_label: Vec<Vec<(NodeId, NodeId)>>,
    buf: BufferHandle,
    /// Byte offsets of the page-packed posting lists (8 bytes/pair):
    /// label `l`'s list occupies `posting_off[l]..posting_off[l+1]`.
    posting_off: Vec<u64>,
    /// Byte offsets of the page-packed adjacency lists (8 bytes/edge).
    adj_off: Vec<u64>,
}

impl<'a> NaiveProcessor<'a> {
    /// Builds the evaluator with a private (unbounded) buffer pool.
    pub fn new(g: &'a XmlGraph, table: &'a DataTable) -> Self {
        Self::with_buffer(g, table, BufferHandle::unbounded())
    }

    /// Builds the evaluator charging against a shared buffer pool (one
    /// pass to group edges by label).
    pub fn with_buffer(g: &'a XmlGraph, table: &'a DataTable, buf: BufferHandle) -> Self {
        let mut by_label: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); g.label_count()];
        for (from, l, to) in g.edges() {
            by_label[l.idx()].push((from, to));
        }
        let posting_off = exec::record_layout(by_label.iter().map(|v| v.len() * 8));
        let adj_off = exec::record_layout(
            (0..g.node_count()).map(|i| g.out_edges(NodeId(i as u32)).len() * 8),
        );
        NaiveProcessor {
            g,
            table,
            by_label,
            buf,
            posting_off,
            adj_off,
        }
    }

    /// Scans label `l`'s posting list.
    fn scan_postings(&self, l: LabelId, ctx: &mut ExecContext<'_>) -> &[(NodeId, NodeId)] {
        let i = l.idx();
        ExtentScan::packed(
            Space::LabelPosting,
            self.posting_off[i]..self.posting_off[i + 1],
            self.by_label[i].len(),
        )
        .run(ctx);
        &self.by_label[i]
    }

    /// Scans node `v`'s adjacency list.
    fn scan_adjacency(&self, v: NodeId, ctx: &mut ExecContext<'_>) -> &[xmlgraph::Edge] {
        let i = v.idx();
        let edges = self.g.out_edges(v);
        ExtentScan::packed(
            Space::GraphAdjacency,
            self.adj_off[i]..self.adj_off[i + 1],
            edges.len(),
        )
        .run(ctx);
        edges
    }

    /// Nodes reached by `//l_1/…/l_n`: start from every `l_1` edge and
    /// follow the remaining labels.
    fn eval_path(&self, labels: &[LabelId], ctx: &mut ExecContext<'_>) -> Vec<NodeId> {
        let first = self.scan_postings(labels[0], ctx);
        let mut frontier: Vec<NodeId> = first.iter().map(|&(_, to)| to).collect();
        self.g.sort_doc_order(&mut frontier);
        for &l in &labels[1..] {
            let mut next = Vec::new();
            for &v in &frontier {
                for e in self.scan_adjacency(v, ctx) {
                    if e.label == l {
                        next.push(e.to);
                    }
                }
            }
            self.g.sort_doc_order(&mut next);
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        frontier
    }

    /// `//l_i//l_j`: BFS from the targets of `l_i` edges; collect targets
    /// of `l_j` edges whose source is reachable.
    fn eval_anc_desc(
        &self,
        first: LabelId,
        last: LabelId,
        ctx: &mut ExecContext<'_>,
    ) -> Vec<NodeId> {
        let starts = self.scan_postings(first, ctx);
        let mut reachable = vec![false; self.g.node_count()];
        let mut stack: Vec<NodeId> = Vec::new();
        for &(_, to) in starts {
            if !reachable[to.idx()] {
                reachable[to.idx()] = true;
                stack.push(to);
            }
        }
        let mut out = Vec::new();
        while let Some(v) = stack.pop() {
            for e in self.scan_adjacency(v, ctx) {
                if e.label == last {
                    out.push(e.to);
                }
                if !reachable[e.to.idx()] {
                    reachable[e.to.idx()] = true;
                    stack.push(e.to);
                }
            }
        }
        self.g.sort_doc_order(&mut out);
        out
    }
}

impl QueryProcessor for NaiveProcessor<'_> {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn eval(&self, q: &Query) -> QueryOutput {
        let mut ctx = ExecContext::new(&self.buf);
        let nodes = match q {
            Query::PartialPath { labels } => self.eval_path(labels, &mut ctx),
            Query::AncestorDescendant { first, last } => {
                self.eval_anc_desc(*first, *last, &mut ctx)
            }
            Query::ValuePath { labels, value } => {
                let mut nodes = self.eval_path(labels, &mut ctx);
                DataProbe {
                    table: self.table,
                    value,
                }
                .run(&mut nodes, &mut ctx);
                nodes
            }
        };
        QueryOutput {
            nodes,
            cost: ctx.finish(),
            interrupted: false,
            plan: None,
        }
    }

    fn buffer(&self) -> Option<&BufferHandle> {
        Some(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_storage::{OpKind, PageModel};
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    fn setup(g: &XmlGraph) -> (DataTable, Vec<(String, Vec<u32>)>) {
        let t = DataTable::build(g, PageModel::default());
        (t, vec![])
    }

    #[test]
    fn qtype1_on_moviedb() {
        let g = moviedb();
        let (t, _) = setup(&g);
        let p = NaiveProcessor::new(&g, &t);
        let q = Query::PartialPath {
            labels: LabelPath::parse(&g, "actor.name").unwrap().0,
        };
        let out = p.eval(&q);
        assert_eq!(out.nodes, vec![NodeId(3), NodeId(5)]);
    }

    #[test]
    fn qtype1_with_dereference() {
        let g = moviedb();
        let (t, _) = setup(&g);
        let p = NaiveProcessor::new(&g, &t);
        let q = Query::PartialPath {
            labels: LabelPath::parse(&g, "@movie.movie.title").unwrap().0,
        };
        let out = p.eval(&q);
        // @movie(9)=>movie(8)->title(10); @movie(16)=>movie(14)->title(17).
        assert_eq!(out.nodes, vec![NodeId(10), NodeId(17)]);
    }

    #[test]
    fn qtype2_on_moviedb() {
        let g = moviedb();
        let (t, _) = setup(&g);
        let p = NaiveProcessor::new(&g, &t);
        let movie = g.label_id("movie").unwrap();
        let name = g.label_id("name").unwrap();
        let out = p.eval(&Query::AncestorDescendant {
            first: movie,
            last: name,
        });
        // Movie edges land on 8 and 14. Reachable name edges: 12->13 (via
        // the director child of movie 14 and via @director(6) of movie 8)
        // and 2->3 (via @actor(15) of movie 14). Names 5 and 11 hang off
        // actor 4 / director 7, which no movie reaches.
        assert_eq!(out.nodes, vec![NodeId(3), NodeId(13)]);
    }

    #[test]
    fn qtype3_on_moviedb() {
        let g = moviedb();
        let (t, _) = setup(&g);
        let p = NaiveProcessor::new(&g, &t);
        let q = Query::ValuePath {
            labels: LabelPath::parse(&g, "title").unwrap().0,
            value: "Star Wars".into(),
        };
        let out = p.eval(&q);
        assert_eq!(out.nodes, vec![NodeId(10)]);
        // The value test is a costed DataProbe through the pool.
        assert!(out.cost.ops.get(OpKind::DataProbe).invocations >= 1);
        assert!(out.cost.table_probes >= 1);
    }

    #[test]
    fn unmatched_path_is_empty() {
        let g = moviedb();
        let (t, _) = setup(&g);
        let p = NaiveProcessor::new(&g, &t);
        let q = Query::PartialPath {
            labels: LabelPath::parse(&g, "title.title").unwrap().0,
        };
        assert!(p.eval(&q).nodes.is_empty());
    }

    #[test]
    fn scans_attribute_pages_to_extent_scan() {
        let g = moviedb();
        let (t, _) = setup(&g);
        let p = NaiveProcessor::new(&g, &t);
        let q = Query::PartialPath {
            labels: LabelPath::parse(&g, "actor.name").unwrap().0,
        };
        let out = p.eval(&q);
        assert!(out.cost.extent_pairs > 0);
        assert!(out.cost.pages_read >= 1);
        let scan = out.cost.ops.get(OpKind::ExtentScan);
        assert_eq!(scan.pages_read(), out.cost.pages_read);
        assert_eq!(scan.extent_pairs(), out.cost.extent_pairs);
    }
}
