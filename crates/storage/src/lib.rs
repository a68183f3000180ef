//! # apex-storage — extents, data table, page model, cost accounting
//!
//! The paper stores index extents and a `nid → value` data table "on a
//! local disk" and reports query *times*. This crate gives the
//! reproduction a deterministic analogue:
//!
//! * [`edgeset::EdgeSet`] — the extent representation (sets of
//!   `<parent, node>` edge pairs, Definition 7), with the merge/union/
//!   semijoin kernels every query processor uses;
//! * [`block::BlockExtent`] — the compressed storage image of an
//!   extent: page-sized blocks of delta+varint encoded pairs under a
//!   `(min_parent, max_parent, count)` skip index;
//! * [`kernels`] — the adaptive semijoin kernels (linear merge,
//!   galloping search, block-skip probing) and the
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
//!   hit/miss/eviction counters ([`pages::PageCache`] is its degenerate
//!   per-query policy);
//! * [`datatable::DataTable`] — the `nid → value` table used by QTYPE3
//!   queries;
//! * [`diskstore::ExtentStore`] — a real file-backed, page-aligned
//!   extent store validating the page model against genuine I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod bufmgr;
pub mod cost;
pub mod datatable;
pub mod diskstore;
pub mod edgeset;
pub mod kernels;
pub mod pages;
pub mod succinct;

pub use block::{BlockExtent, BlockHeader};
pub use bufmgr::{BufferHandle, BufferManager, BufferStats, ObjectId, Space};
pub use cost::{Cost, OpBreakdown, OpCost, OpKind};
pub use datatable::DataTable;
pub use diskstore::{ExtentId, ExtentStore};
pub use edgeset::{EdgePair, EdgeSet};
pub use kernels::{
    gallop_lower_bound_u32, merge_sorted_into, Kernel, KernelPolicy, KernelReport, MergeScratch,
    SemijoinScratch,
};
pub use pages::PageModel;
pub use succinct::{EndCursor, EndIndex, Ends, SuccinctExtent};
