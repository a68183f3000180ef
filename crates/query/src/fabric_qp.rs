//! The Index Fabric query processor (QTYPE3 only — the fabric indexes
//! path+value keys and "is not effective" for QTYPE1/QTYPE2, §2).

use apex_storage::bufmgr::BufferHandle;

use fabric::IndexFabric;
use xmlgraph::XmlGraph;

use apex_storage::OpKind;

use crate::ast::Query;
use crate::batch::{QueryOutput, QueryProcessor};
use crate::exec::{ExecContext, TrieSearch};
use crate::plan;

/// Query processor over an [`IndexFabric`].
pub struct FabricProcessor<'a> {
    fabric: &'a IndexFabric,
    buf: BufferHandle,
}

impl<'a> FabricProcessor<'a> {
    /// Creates a processor with a private (unbounded) buffer pool.
    pub fn new(g: &'a XmlGraph, fabric: &'a IndexFabric) -> Self {
        Self::with_buffer(g, fabric, BufferHandle::unbounded())
    }

    /// Creates a processor charging against a shared buffer pool.
    /// `_g`, the graph the index covers, is not read: nids are document
    /// order, so answers are sorted without it.
    pub fn with_buffer(_g: &'a XmlGraph, fabric: &'a IndexFabric, buf: BufferHandle) -> Self {
        FabricProcessor { fabric, buf }
    }
}

impl QueryProcessor for FabricProcessor<'_> {
    fn name(&self) -> &'static str {
        "Fabric"
    }

    /// QTYPE3 queries are answered from the trie alone: partial-matching
    /// expressions traverse the whole trie (a [`TrieSearch`] operator)
    /// and validate keys. QTYPE1 and QTYPE2 return empty with zero cost —
    /// callers exclude the fabric from those experiments, as the paper
    /// does.
    fn eval(&self, q: &Query) -> QueryOutput {
        let mut ctx = ExecContext::new(&self.buf);
        let (nodes, report) = match q {
            Query::ValuePath { labels, value } => {
                // The fabric's only strategy is a whole-trie partial
                // search, so the forecast is the trie itself: every
                // node visited, every block faulted.
                let before = ctx.cost.ops;
                let predicted = [(
                    OpKind::TrieSearch,
                    self.fabric.trie_nodes() as u64,
                    self.fabric.block_count() as u64,
                )];
                let mut nodes = TrieSearch {
                    fabric: self.fabric,
                    labels,
                    value,
                    exact: false,
                }
                .run(&mut ctx);
                ctx.sort_distinct(&mut nodes);
                let report = plan::build_report(
                    self.fabric.trie_nodes() as u64,
                    "trie",
                    &predicted,
                    &before,
                    &ctx.cost.ops,
                );
                (nodes, Some(report))
            }
            _ => (Vec::new(), None),
        };
        QueryOutput {
            nodes,
            cost: ctx.finish(),
            interrupted: false,
            plan: report,
        }
    }

    fn buffer(&self) -> Option<&BufferHandle> {
        Some(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveProcessor;
    use apex_storage::{DataTable, OpKind, PageModel};
    use xmlgraph::builder::moviedb;
    use xmlgraph::LabelPath;

    #[test]
    fn qtype3_matches_naive() {
        let g = moviedb();
        let f = IndexFabric::build(&g);
        let t = DataTable::build(&g, PageModel::default());
        let fp = FabricProcessor::new(&g, &f);
        let nv = NaiveProcessor::new(&g, &t);
        for (p, v) in [
            ("title", "Star Wars"),
            ("movie.title", "The Empire Strikes Back"),
            ("actor.name", "Mark Hamill"),
            ("name", "George Lucas"),
            ("title", "nope"),
        ] {
            let q = Query::ValuePath {
                labels: LabelPath::parse(&g, p).unwrap().0,
                value: v.into(),
            };
            assert_eq!(fp.eval(&q).nodes, nv.eval(&q).nodes, "//{p}[text()={v}]");
        }
    }

    #[test]
    fn non_value_queries_unsupported() {
        let g = moviedb();
        let f = IndexFabric::build(&g);
        let fp = FabricProcessor::new(&g, &f);
        let q = Query::PartialPath {
            labels: LabelPath::parse(&g, "title").unwrap().0,
        };
        assert!(fp.eval(&q).nodes.is_empty());
    }

    #[test]
    fn trie_blocks_are_pooled_across_queries() {
        let g = moviedb();
        let f = IndexFabric::build(&g);
        let fp = FabricProcessor::new(&g, &f);
        let q = Query::ValuePath {
            labels: LabelPath::parse(&g, "title").unwrap().0,
            value: "Star Wars".into(),
        };
        let cold = fp.eval(&q);
        assert!(cold.cost.pages_read >= 1);
        assert_eq!(cold.cost.ops.get(OpKind::TrieSearch).invocations, 1);
        let warm = fp.eval(&q);
        assert_eq!(warm.cost.pages_read, 0, "blocks stay resident");
        assert_eq!(warm.cost.trie_nodes, cold.cost.trie_nodes);
    }
}
