//! The `nid → value` data table used by QTYPE3 queries.
//!
//! The paper: "the query processor tests the nodes by looking up the data
//! table which keeps all node identifiers (nid) and corresponding data
//! values" (§6.1). This is that table, stored as columns: the valued
//! nids in ascending order, a value id per slot, each distinct value
//! once, and the value→nids inverse as one holder array grouped by
//! value id. The value test ([`DataTable::filter_sorted`]) resolves the
//! expected value to its holders once and merges the candidates through
//! them; the nid column is read only to find the leaf page each probe
//! is charged for.

#![deny(clippy::indexing_slicing, clippy::unreachable)]

use std::collections::HashMap;

use xmlgraph::{NodeId, XmlGraph};

use crate::bufmgr::{BufferHandle, ObjectId, Space};
use crate::cost::Cost;
use crate::pages::PageModel;

/// Candidates [`DataTable::filter_sorted`] tests between two `proceed`
/// checks: the value test's non-preemptible unit.
pub const PROBE_CHUNK: usize = 1024;

/// Sorted `nid → value` table with page-cost-accounted probes.
///
/// Slot `i` holds node `nids[i]` with value `value_ids[i]`. Value ids
/// rank the distinct values in byte order, so a value resolves to its
/// id by binary search. No entry owns an allocation: the table is six
/// flat arrays whatever its size.
#[derive(Debug, Clone)]
pub struct DataTable {
    /// Valued nodes, ascending.
    nids: Vec<NodeId>,
    /// The value id of each slot.
    value_ids: Vec<u32>,
    /// The distinct values in id order, back to back.
    text: String,
    /// Value `v` is `text[text_starts[v]..text_starts[v + 1]]`.
    text_starts: Vec<usize>,
    /// The nodes holding each value, grouped by value id, each group
    /// ascending.
    holders: Vec<NodeId>,
    /// Value `v`'s holders are `holders[holder_starts[v]..holder_starts[v + 1]]`.
    holder_starts: Vec<u32>,
    pages: PageModel,
    avg_entry_bytes: usize,
}

impl DataTable {
    /// Extracts all leaf values of `g`.
    #[expect(
        clippy::indexing_slicing,
        reason = "value ids are positions in `distinct` (minted as `distinct.len() - 1`), ranks are < distinct.len(), and the holder offsets are prefix sums over the same ids, so every index is in bounds"
    )]
    pub fn build(g: &XmlGraph, pages: PageModel) -> Self {
        // `g.nodes()` runs in nid order, so the slots come out sorted.
        let valued: Vec<(NodeId, &str)> = g
            .nodes()
            .filter_map(|n| g.value(n).map(|v| (n, v)))
            .collect();
        let bytes: usize = valued.iter().map(|(_, v)| 8 + v.len()).sum();
        let avg_entry_bytes = if valued.is_empty() {
            16
        } else {
            bytes / valued.len()
        };

        // Intern in order of first use, then renumber by byte order.
        let mut first_use: HashMap<&str, u32> = HashMap::new();
        let mut distinct: Vec<&str> = Vec::new();
        let mut value_ids: Vec<u32> = valued
            .iter()
            .map(|&(_, v)| {
                *first_use.entry(v).or_insert_with(|| {
                    distinct.push(v);
                    to_u32(distinct.len() - 1)
                })
            })
            .collect();
        let mut order: Vec<u32> = (0..to_u32(distinct.len())).collect();
        order.sort_unstable_by_key(|&i| distinct[i as usize]);
        let mut rank = vec![0u32; distinct.len()];
        let mut text = String::with_capacity(distinct.iter().map(|v| v.len()).sum());
        let mut text_starts = Vec::with_capacity(distinct.len() + 1);
        text_starts.push(0);
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = to_u32(r);
            text.push_str(distinct[i as usize]);
            text_starts.push(text.len());
        }
        for id in &mut value_ids {
            *id = rank[*id as usize];
        }

        // Holders by counting sort: slots are visited in nid order, so
        // every group comes out ascending.
        let mut holder_starts = vec![0u32; distinct.len() + 1];
        for &id in &value_ids {
            holder_starts[id as usize + 1] += 1;
        }
        for v in 1..holder_starts.len() {
            holder_starts[v] += holder_starts[v - 1];
        }
        let mut next = holder_starts.clone();
        let mut holders = vec![NodeId(0); valued.len()];
        for (&(n, _), &id) in valued.iter().zip(&value_ids) {
            holders[next[id as usize] as usize] = n;
            next[id as usize] += 1;
        }

        DataTable {
            nids: valued.into_iter().map(|(n, _)| n).collect(),
            value_ids,
            text,
            text_starts,
            holders,
            holder_starts,
            pages,
            avg_entry_bytes,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.nids.len()
    }

    /// True if no leaf carries a value.
    pub fn is_empty(&self) -> bool {
        self.nids.is_empty()
    }

    /// The value of `nid`, without cost accounting (test/inspection use).
    pub fn value(&self, nid: NodeId) -> Option<&str> {
        let slot = self.nids.binary_search(&nid).ok()?;
        self.value_ids
            .get(slot)
            .map(|&id| self.text_of(id as usize))
    }

    /// The QTYPE3 value test over a whole candidate set, through a
    /// shared buffer pool: keeps, in order, the nodes of `nids` (sorted,
    /// distinct) that carry exactly `expected`.
    ///
    /// `expected` resolves to its holder list once (empty when no node
    /// holds it); membership is then one forward merge of the
    /// candidates through that list. Each candidate still counts one
    /// `table_probes`, and the pool sees the root page once and each
    /// distinct leaf page once, where a candidate's leaf is the page of
    /// its slot in the nid column — the insertion point on a miss, which
    /// lives on the page a real probe reads. Slots only grow, so a leaf
    /// repeats only back to back, and the nid column is galloped only
    /// when a candidate passes the last nid of the current leaf.
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
        let holders = self.holders_of(expected);
        let last_slot = self.nids.len().saturating_sub(1);
        let page = self.pages.page_size.max(1);
        let avg = self.avg_entry_bytes.max(1);
        let (mut tested, mut going) = (0usize, true);
        // The leaf read last, one past its last slot, and that slot's nid
        // (`None` until a leaf is read, or when the table is empty).
        let mut leaf: Option<usize> = None;
        let mut leaf_end = 0usize;
        let mut leaf_last: Option<NodeId> = None;
        let mut held = 0usize;
        nids.retain(|&nid| {
            if tested % PROBE_CHUNK == 0 && going {
                going = proceed();
            }
            if !going {
                return false;
            }
            tested += 1;
            cost.table_probes += 1;
            if leaf_last.is_none_or(|last| nid > last) {
                if leaf.is_none() {
                    cost.pages_read += buf.touch(ObjectId::new(Space::TablePage, u64::MAX), 0);
                }
                let slot = lower_bound(&self.nids, leaf_end, nid);
                let at = slot.min(last_slot) * avg / page;
                if leaf != Some(at) {
                    leaf = Some(at);
                    cost.pages_read += buf.touch(ObjectId::new(Space::TablePage, at as u64), 0);
                    // Slot `s` is on leaf `at` while `s * avg < (at + 1) * page`.
                    leaf_end = ((at + 1) * page).div_ceil(avg).min(self.nids.len());
                    leaf_last = leaf_end
                        .checked_sub(1)
                        .and_then(|s| self.nids.get(s))
                        .copied();
                }
            }
            held = lower_bound(holders, held, nid);
            holders.get(held) == Some(&nid)
        });
    }

    /// Nodes carrying `value`, ascending (uncosted: the holder list
    /// [`DataTable::filter_sorted`] merges its candidates through).
    pub fn nodes_with_value(&self, value: &str) -> &[NodeId] {
        self.holders_of(value)
    }

    /// Iterates over `(nid, value)` in nid order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &str)> {
        self.nids
            .iter()
            .zip(&self.value_ids)
            .map(|(&n, &id)| (n, self.text_of(id as usize)))
    }

    /// The holders of `value`; empty when no node holds it.
    fn holders_of(&self, value: &str) -> &[NodeId] {
        self.value_id(value)
            .and_then(|id| {
                let start = *self.holder_starts.get(id)? as usize;
                let end = *self.holder_starts.get(id + 1)? as usize;
                self.holders.get(start..end)
            })
            .unwrap_or(&[])
    }

    /// The id of `value`, by binary search over the byte-ordered
    /// distinct values.
    fn value_id(&self, value: &str) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, self.text_starts.len().saturating_sub(1));
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.text_of(mid).cmp(value) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// The text of value id `id`.
    fn text_of(&self, id: usize) -> &str {
        match (self.text_starts.get(id), self.text_starts.get(id + 1)) {
            (Some(&start), Some(&end)) => self.text.get(start..end),
            _ => None,
        }
        .unwrap_or_default()
    }
}

/// First index `i >= lo` with `xs[i] >= nid`: gallops from `lo`, then
/// binary-searches the bracket.
fn lower_bound(xs: &[NodeId], lo: usize, nid: NodeId) -> usize {
    let (mut base, mut hi, mut step) = (lo, lo, 1usize);
    while let Some(&n) = xs.get(hi) {
        if n >= nid {
            break;
        }
        base = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(xs.len());
    base + xs
        .get(base..hi)
        .map_or(0, |run| run.partition_point(|&n| n < nid))
}

/// A value id or holder offset as stored. Both are at most the number
/// of entries, and entries have distinct `u32` node ids, so this is exact.
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufmgr::BufferStats;
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
                    let slot = match t.nids.binary_search(&NodeId(n)) {
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

    /// The per-candidate value test the columnar pass replaced, kept as
    /// its oracle: each candidate gallops to its slot in the nid column,
    /// charges the slot's leaf when it differs from the last one, and
    /// compares the slot's value with `expected`.
    fn reference_filter(
        t: &DataTable,
        buf: &BufferHandle,
        cost: &mut Cost,
        nids: &mut Vec<NodeId>,
        expected: &str,
        mut proceed: impl FnMut() -> bool,
    ) {
        let last_slot = t.nids.len().saturating_sub(1);
        let page = t.pages.page_size.max(1);
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
            pos = reference_seek(&t.nids, pos, nid);
            let leaf = pos.min(last_slot) * t.avg_entry_bytes / page;
            if leaf_seen != Some(leaf) {
                leaf_seen = Some(leaf);
                cost.pages_read += buf.touch(ObjectId::new(Space::TablePage, leaf as u64), 0);
            }
            t.nids.get(pos) == Some(&nid) && t.text_of(t.value_ids[pos] as usize) == expected
        });
    }

    /// First index `i >= lo` with `nids[i] >= nid`, galloping from `lo`.
    fn reference_seek(nids: &[NodeId], lo: usize, nid: NodeId) -> usize {
        let (mut base, mut hi, mut step) = (lo, lo, 1usize);
        while let Some(n) = nids.get(hi) {
            if *n >= nid {
                break;
            }
            base = hi + 1;
            hi += step;
            step *= 2;
        }
        let hi = hi.min(nids.len());
        base + nids
            .get(base..hi)
            .map_or(0, |run| run.partition_point(|n| *n < nid))
    }

    /// xorshift64: the property tests' seeded source.
    fn next(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// A root with `n` children on `page`-byte pages. About one child in
    /// five carries no value, so the valued nids have holes. Half the
    /// values are "common", one in 200 is "rare", the rest are drawn
    /// from `spread` names of varying length.
    fn random_table(x: &mut u64, n: u32, spread: u64, page: usize) -> DataTable {
        let mut b = xmlgraph::GraphBuilder::new("r");
        let root = b.root();
        for _ in 0..n {
            let r = next(x);
            match r % 200 {
                0 => b.add_value_child(root, "v", "rare"),
                1..=40 => b.add_child(root, "e"),
                41..=120 => b.add_value_child(root, "v", "common"),
                _ => {
                    let k = r / 200 % spread;
                    b.add_value_child(root, "v", &format!("v{k}{}", "-".repeat(k as usize % 9)))
                }
            };
        }
        DataTable::build(&b.finish().unwrap(), PageModel::new(page))
    }

    /// One query's observable footprint: the answer, the cost, the
    /// pool's counters after it, and how often `proceed` was asked.
    type Footprint = (Vec<NodeId>, u64, u64, BufferStats, usize);

    /// Runs `queries` back to back on one bounded pool, through the
    /// columnar pass (`columnar`) or the oracle, with `proceed`
    /// refusing from its `refuse_at`-th call on.
    fn footprints(
        t: &DataTable,
        queries: &[(Vec<NodeId>, &str)],
        refuse_at: usize,
        columnar: bool,
    ) -> Vec<Footprint> {
        let buf = BufferHandle::with_capacity_pages(3);
        queries
            .iter()
            .map(|(cands, value)| {
                let mut cost = Cost::new();
                let mut kept = cands.clone();
                let mut asked = 0usize;
                let proceed = || {
                    asked += 1;
                    asked < refuse_at
                };
                if columnar {
                    t.filter_sorted(&buf, &mut cost, &mut kept, value, proceed);
                } else {
                    reference_filter(t, &buf, &mut cost, &mut kept, value, proceed);
                }
                (kept, cost.table_probes, cost.pages_read, buf.stats(), asked)
            })
            .collect()
    }

    /// Random sorted candidates below `limit`, each id kept with
    /// probability `1 / every`.
    fn candidates(x: &mut u64, limit: u32, every: u64) -> Vec<NodeId> {
        (0..limit)
            .filter(|_| next(x).is_multiple_of(every))
            .map(NodeId)
            .collect()
    }

    #[test]
    fn columnar_filter_matches_the_per_candidate_oracle_count_for_count() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for case in 0..60u64 {
            let page = [64, 256, 4096][(case % 3) as usize];
            // Case 1 is a table no leaf fills.
            let n = if case == 1 {
                0
            } else {
                (next(&mut x) % 3_000) as u32
            };
            let spread = 1 + next(&mut x) % 300;
            let t = random_table(&mut x, n, spread, page);
            let past = n + 1 + (next(&mut x) % 50) as u32;
            let every = 1 + next(&mut x) % 40;
            let common: Vec<NodeId> = t
                .nodes_with_value("common")
                .iter()
                .copied()
                .filter(|_| !next(&mut x).is_multiple_of(3))
                .collect();
            let some = format!("v{}", next(&mut x) % 7);
            let queries = [
                (candidates(&mut x, past, every), "no node holds this"),
                (candidates(&mut x, past, every), "rare"),
                (candidates(&mut x, past, 1), "rare"),
                (candidates(&mut x, past, every), some.as_str()),
                (common, "common"),
                (candidates(&mut x, past, every), "common"),
                ((n..past).map(NodeId).collect(), "common"),
            ];
            let want = footprints(&t, &queries, usize::MAX, false);
            let got = footprints(&t, &queries, usize::MAX, true);
            for (q, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(g, w, "case {case} (page {page}, {n} nodes), query {q}");
            }
            let every_held = &got[4];
            assert_eq!(every_held.0.len() as u64, every_held.1, "case {case}");
        }
    }

    #[test]
    fn a_refusal_at_any_chunk_leaves_the_same_footprint_as_the_oracle() {
        let mut x = 0x0123_4567_89ab_cdefu64;
        for page in [64, 256, 4096] {
            let t = random_table(&mut x, 5_000, 40, page);
            let queries = [
                (candidates(&mut x, 5_100, 1), "common"),
                (candidates(&mut x, 5_100, 1), "rare"),
            ];
            let chunks = 5_100usize.div_ceil(PROBE_CHUNK);
            // Refused at the first, a middle and the last chunk.
            for refuse_at in [1, 3, chunks] {
                let want = footprints(&t, &queries, refuse_at, false);
                let got = footprints(&t, &queries, refuse_at, true);
                assert_eq!(got, want, "page {page}, refused at call {refuse_at}");
                let probes = ((refuse_at - 1) * PROBE_CHUNK) as u64;
                assert_eq!(got[0].1, probes, "page {page}, refused at call {refuse_at}");
            }
        }
    }

    #[test]
    fn values_are_interned_once_and_holders_are_grouped_ascending() {
        let mut x = 7u64;
        let t = random_table(&mut x, 2_000, 25, 256);
        let distinct: std::collections::BTreeSet<&str> = t.iter().map(|(_, v)| v).collect();
        assert_eq!(t.text_starts.len(), distinct.len() + 1);
        for v in &distinct {
            let want: Vec<NodeId> = t.iter().filter(|(_, w)| w == v).map(|(n, _)| n).collect();
            assert_eq!(t.nodes_with_value(v), want.as_slice(), "{v}");
        }
        assert_eq!(t.holders.len(), t.len());
    }
}
