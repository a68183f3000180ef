//! # apex-storage — extents, data table, page model, cost accounting
//!
//! The paper stores index extents and a `nid → value` data table "on a
//! local disk" and reports query *times*. This crate gives the
//! reproduction a deterministic analogue:
//!
//! * [`succinct::SuccinctExtent`] — the *stored* extent (sets of
//!   `<parent, node>` edge pairs, Definition 7): the packed block image
//!   plus a rank/select directory over its blocks. One form in memory,
//!   on disk and under the kernels;
//! * [`block::BlockExtent`] — that image: 128-pair bit-packed frames
//!   (parent and node as fixed-width offsets) grouped into page-sized
//!   blocks under a `(min_parent, max_parent, count)` skip index, with
//!   the byte form `apex::persist` writes, named by its content hash
//!   ([`block::BlockExtent::content_hash`]);
//! * [`edgeset::EdgeSet`] — the *in-flight* edge set: the sorted pair
//!   vector query operators pass between them and index updates mutate
//!   before sealing, with merge/union/difference and the pair-slice
//!   reference semijoins;
//! * [`kernels`] — the adaptive semijoin kernels over stored extents
//!   (linear merge, galloping search, block-skip probing) and the
//!   [`kernels::KernelPolicy`] that picks between them;
//! * [`cost::Cost`] — logical cost counters (edges scanned, hash lookups,
//!   index edges navigated, join output, pages read) accumulated by each
//!   processor so experiments can report machine-independent costs next to
//!   wall-clock times;
//! * [`pages::PageModel`] — an 8 KiB page model that converts extent scans
//!   and data-table probes into page reads (the Index Fabric block size
//!   used in §6.1);
//! * [`bufmgr::BufferManager`] — a cross-query LRU buffer pool over
//!   extents, node-record pages, data-table pages and trie blocks, with
//!   hit/miss/eviction counters;
//! * [`datatable::DataTable`] — the `nid → value` table used by QTYPE3
//!   queries, stored as columns (sorted nids, a value id per slot, each
//!   distinct value once, holders grouped by value) so the value test
//!   merges candidates through one holder list;
//! * [`rank`] — the workspace's lock ranks: every library lock is taken
//!   through [`rank::lock`], which checks in debug builds that ranks
//!   ascend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod bufmgr;
pub mod cost;
pub mod datatable;
pub mod edgeset;
pub mod kernels;
pub mod pages;
pub mod rank;
pub mod succinct;

pub use block::{BlockExtent, BlockHeader, Frame};
pub use bufmgr::{BufferHandle, BufferManager, BufferStats, ObjectId, Space};
pub use cost::{Cost, OpBreakdown, OpCost, OpKind};
pub use datatable::DataTable;
pub use edgeset::{EdgePair, EdgeSet};
pub use kernels::{
    gallop_lower_bound_u32, merge_sorted_into, Kernel, KernelPolicy, KernelReport, MergeScratch,
    SemijoinScratch,
};
pub use pages::PageModel;
pub use succinct::SuccinctExtent;
