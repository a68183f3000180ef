//! The `nid → value` data table used by QTYPE3 queries.
//!
//! The paper: "the query processor tests the nodes by looking up the data
//! table which keeps all node identifiers (nid) and corresponding data
//! values" (§6.1). This is that table, with a value→nids inverse used by
//! the workload generator to pick queries with non-empty results.

use std::collections::HashMap;

use xmlgraph::{NodeId, XmlGraph};

use crate::bufmgr::{BufferHandle, ObjectId, Space};
use crate::cost::Cost;
use crate::pages::PageModel;

/// Candidates [`DataTable::filter_sorted`] tests between two `proceed`
/// checks: the value test's non-preemptible unit.
pub const PROBE_CHUNK: usize = 1024;

/// Sorted `nid → value` table with page-cost-accounted probes.
#[derive(Debug, Clone)]
pub struct DataTable {
    entries: Vec<(NodeId, Box<str>)>,
    by_value: HashMap<Box<str>, Vec<NodeId>>,
    pages: PageModel,
    avg_entry_bytes: usize,
}

impl DataTable {
    /// Extracts all leaf values of `g`.
    pub fn build(g: &XmlGraph, pages: PageModel) -> Self {
        let mut entries: Vec<(NodeId, Box<str>)> = Vec::new();
        let mut by_value: HashMap<Box<str>, Vec<NodeId>> = HashMap::new();
        let mut bytes = 0usize;
        for n in g.nodes() {
            if let Some(v) = g.value(n) {
                bytes += 8 + v.len();
                entries.push((n, v.into()));
                by_value.entry(v.into()).or_default().push(n);
            }
        }
        entries.sort_by_key(|(n, _)| *n);
        let avg_entry_bytes = if entries.is_empty() {
            16
        } else {
            bytes / entries.len()
        };
        DataTable {
            entries,
            by_value,
            pages,
            avg_entry_bytes,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no leaf carries a value.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value of `nid`, without cost accounting (test/inspection use).
    pub fn value(&self, nid: NodeId) -> Option<&str> {
        self.entries
            .binary_search_by_key(&nid, |(n, _)| *n)
            .ok()
            .and_then(|i| self.entries.get(i))
            .map(|(_, v)| v.as_ref())
    }

    /// The QTYPE3 value test over a whole candidate set, through a
    /// shared buffer pool: keeps, in order, the nodes of `nids` (sorted,
    /// distinct) that carry exactly `expected`.
    ///
    /// One merge: the candidates gallop forward through the nid-sorted
    /// entries, so the whole set costs one pass, not a binary search per
    /// node. Each candidate counts one `table_probes`. The pool sees the
    /// root page once and each distinct leaf page once, where a
    /// candidate's leaf is the page of its slot — the insertion point on
    /// a miss, which lives on the page a real probe reads. Slots only
    /// grow, so a leaf repeats only back to back.
    ///
    /// `proceed` is asked before every [`PROBE_CHUNK`] candidates; once
    /// it answers `false` the untested rest is dropped, so the answer is
    /// a subset of the full one.
    pub fn filter_sorted(
        &self,
        buf: &BufferHandle,
        cost: &mut Cost,
        nids: &mut Vec<NodeId>,
        expected: &str,
        mut proceed: impl FnMut() -> bool,
    ) {
        debug_assert!(nids.iter().zip(nids.iter().skip(1)).all(|(a, b)| a < b));
        let last_slot = self.entries.len().saturating_sub(1);
        let page = self.pages.page_size.max(1);
        let (mut tested, mut going) = (0usize, true);
        let mut pos = 0usize;
        let mut leaf_seen: Option<usize> = None;
        nids.retain(|&nid| {
            if tested % PROBE_CHUNK == 0 && going {
                going = proceed();
            }
            if !going {
                return false;
            }
            tested += 1;
            cost.table_probes += 1;
            if leaf_seen.is_none() {
                cost.pages_read += buf.touch(ObjectId::new(Space::TablePage, u64::MAX), 0);
            }
            pos = self.seek(pos, nid);
            let leaf = pos.min(last_slot) * self.avg_entry_bytes / page;
            if leaf_seen != Some(leaf) {
                leaf_seen = Some(leaf);
                cost.pages_read += buf.touch(ObjectId::new(Space::TablePage, leaf as u64), 0);
            }
            self.entries
                .get(pos)
                .is_some_and(|(n, v)| *n == nid && v.as_ref() == expected)
        });
    }

    /// First entry index `i >= lo` whose nid is `>= nid`: gallops from
    /// `lo`, then binary-searches the bracket.
    fn seek(&self, lo: usize, nid: NodeId) -> usize {
        let (mut base, mut hi, mut step) = (lo, lo, 1usize);
        while let Some((n, _)) = self.entries.get(hi) {
            if *n >= nid {
                break;
            }
            base = hi + 1;
            hi += step;
            step *= 2;
        }
        let hi = hi.min(self.entries.len());
        base + self
            .entries
            .get(base..hi)
            .map_or(0, |run| run.partition_point(|(n, _)| *n < nid))
    }

    /// Nodes carrying `value` (uncosted; used by the workload generator).
    pub fn nodes_with_value(&self, value: &str) -> &[NodeId] {
        self.by_value
            .get(value)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Iterates over `(nid, value)` in nid order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &str)> {
        self.entries.iter().map(|(n, v)| (*n, v.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlgraph::builder::moviedb;

    #[test]
    fn builds_from_leaves() {
        let g = moviedb();
        let t = DataTable::build(&g, PageModel::default());
        // moviedb leaves: year(1), names(3,5,11,13), titles(10,17) = 7.
        assert_eq!(t.len(), 7);
        assert_eq!(t.value(NodeId(10)), Some("Star Wars"));
        assert_eq!(t.value(NodeId(0)), None);
    }

    /// `filter_sorted` over `nids` on a fresh unbounded pool. Asserts
    /// that no page was touched twice: every touch is a miss.
    fn filter(t: &DataTable, nids: &[u32], value: &str) -> (Vec<NodeId>, Cost) {
        let buf = BufferHandle::unbounded();
        let mut cost = Cost::new();
        let mut kept: Vec<NodeId> = nids.iter().copied().map(NodeId).collect();
        t.filter_sorted(&buf, &mut cost, &mut kept, value, || true);
        assert_eq!(buf.stats().hits, 0, "a page touched twice in one pass");
        (kept, cost)
    }

    #[test]
    fn probe_counts_cost() {
        let g = moviedb();
        let t = DataTable::build(&g, PageModel::default());
        // Node 0 has no value; 10 is "Star Wars"; 99 lies past the table.
        let (kept, c) = filter(&t, &[0, 10, 17, 99], "Star Wars");
        assert_eq!(kept, vec![NodeId(10)]);
        assert_eq!(c.table_probes, 4, "one probe per candidate");
        assert_eq!(c.pages_read, 2, "the root page and the table's one leaf");
        let (kept, c) = filter(&t, &[], "Star Wars");
        assert!(kept.is_empty());
        assert_eq!((c.table_probes, c.pages_read), (0, 0));
    }

    #[test]
    fn buffered_probe_hits_pool_on_repeats() {
        let g = moviedb();
        let t = DataTable::build(&g, PageModel::default());
        let buf = BufferHandle::unbounded();
        let mut c = Cost::new();
        let mut nids = vec![NodeId(10)];
        t.filter_sorted(&buf, &mut c, &mut nids, "Star Wars", || true);
        let first_pages = c.pages_read;
        assert_eq!(first_pages, 2);
        let mut nids = vec![NodeId(10)];
        t.filter_sorted(&buf, &mut c, &mut nids, "Jaws", || true);
        assert!(nids.is_empty());
        // Same root and leaf pages: the second query reads nothing new.
        assert_eq!(c.pages_read, first_pages);
        assert_eq!(c.table_probes, 2);
        assert_eq!(buf.stats().hits, 2);
    }

    /// A root with `n` valued children (nids `1..=n`), the `i`-th
    /// value `len(i)` bytes long, on 256-byte pages: many leaves.
    fn table_of(n: u32, len: impl Fn(u32) -> usize) -> DataTable {
        let mut b = xmlgraph::GraphBuilder::new("r");
        let root = b.root();
        for i in 0..n {
            b.add_value_child(root, "v", &"x".repeat(len(i)));
        }
        DataTable::build(&b.finish().unwrap(), PageModel::new(256))
    }

    /// Values cycling through 7 lengths.
    fn wide_table(n: u32) -> DataTable {
        table_of(n, |i| 1 + (i % 7) as usize)
    }

    #[test]
    fn a_miss_past_the_table_reads_its_last_leaf() {
        // 3 008 entries of 16 bytes fill exactly 188 pages of 256: the
        // insertion point past the last entry would start page 188, but
        // a real probe reads the last leaf, 187.
        let t = table_of(3_008, |_| 8);
        assert_eq!(t.avg_entry_bytes, 16);
        let (kept, c) = filter(&t, &[3_008, 3_009, 5_000], "xxxxxxxx");
        assert_eq!(kept, vec![NodeId(3_008)]);
        assert_eq!(c.pages_read, 2, "the root and leaf 187 only");
    }

    #[test]
    fn sorted_filter_equals_per_node_values_and_charges_distinct_leaves() {
        let t = wide_table(3_000);
        let avg = t.avg_entry_bytes;
        let last = t.len() - 1;
        // Every stride, offset, and a tail past the table's last nid.
        for (stride, value) in [(1, "xx"), (3, "x"), (17, "xxxxxxx"), (401, "xxx")] {
            let nids: Vec<u32> = (0..3_100).step_by(stride).collect();
            let (kept, c) = filter(&t, &nids, value);
            let want: Vec<NodeId> = nids
                .iter()
                .map(|&n| NodeId(n))
                .filter(|&n| t.value(n) == Some(value))
                .collect();
            assert_eq!(kept, want, "stride {stride}");
            assert_eq!(c.table_probes, nids.len() as u64);
            let mut leaves: Vec<usize> = nids
                .iter()
                .map(|&n| {
                    let slot = match t.entries.binary_search_by_key(&NodeId(n), |e| e.0) {
                        Ok(i) | Err(i) => i.min(last),
                    };
                    slot * avg / 256
                })
                .collect();
            leaves.dedup();
            assert!(leaves.len() > 1 || stride == 401);
            assert_eq!(c.pages_read, 1 + leaves.len() as u64, "stride {stride}");
        }
    }

    #[test]
    fn a_refused_chunk_drops_the_untested_rest() {
        let t = wide_table(3_000);
        let nids: Vec<NodeId> = (1..=3_000).map(NodeId).collect();
        let buf = BufferHandle::unbounded();
        let mut cost = Cost::new();
        let mut asked = 0;
        let mut kept = nids.clone();
        t.filter_sorted(&buf, &mut cost, &mut kept, "x", || {
            asked += 1;
            asked < 2
        });
        // The first chunk ran; the second check refused the rest.
        assert_eq!(asked, 2);
        assert_eq!(cost.table_probes, PROBE_CHUNK as u64);
        assert!(!kept.is_empty());
        assert!(kept.iter().all(|&n| n.0 as usize <= PROBE_CHUNK));
    }

    #[test]
    fn inverse_index_finds_nodes() {
        let g = moviedb();
        let t = DataTable::build(&g, PageModel::default());
        assert_eq!(t.nodes_with_value("Star Wars"), &[NodeId(10)]);
        assert!(t.nodes_with_value("missing").is_empty());
    }

    #[test]
    fn iter_in_nid_order() {
        let g = moviedb();
        let t = DataTable::build(&g, PageModel::default());
        let nids: Vec<u32> = t.iter().map(|(n, _)| n.0).collect();
        let mut sorted = nids.clone();
        sorted.sort_unstable();
        assert_eq!(nids, sorted);
    }
}
