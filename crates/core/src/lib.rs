//! # apex — the Adaptive Path indEx for XML data
//!
//! Reproduction of *Min, Chung, Shim — "APEX: An Adaptive Path Index for
//! XML Data" (SIGMOD 2002)*.
//!
//! APEX is a structural summary over graph-shaped XML data that — unlike
//! a strong DataGuide or 1-index — does **not** materialize every rooted
//! label path. It materializes exactly the *required paths*: every label
//! path of length one, plus the paths whose support in the query workload
//! reaches `minSup` (Definition 6). Two coupled structures implement it:
//!
//! * [`graph::GApex`] — a graph whose nodes carry *extents*: sets
//!   of `<parent, node>` data edges reachable by the node's incoming label
//!   path (the target edge sets `T^R(p)` of Definition 9);
//! * [`hashtree::HashTree`] — `H_APEX`, a tree of hash tables
//!   keyed by labels in **reverse** path order, mapping any label path to
//!   the `G_APEX` node of its longest required suffix (Figure 9).
//!
//! The lifecycle mirrors the paper's Figure 4 architecture:
//!
//! ```text
//! XML data --build_initial()--> APEX⁰ --refine(workload, minSup)--> APEX
//!                                        ^                   |
//!                                        +---- repeat as the workload drifts
//! ```
//!
//! * [`Apex::build_initial`] builds Figure 6's `APEX⁰` (the 1-RO-like
//!   seed) as Figure 11's `updateAPEX` run from a fresh root over the
//!   length-one required paths — the one traversal of [`update`];
//! * [`Apex::refine`] is Figure 8 (one-scan frequent-subpath extraction +
//!   pruning) followed by the same traversal (incremental update), then
//!   a collection of both arenas to their live nodes;
//! * [`Apex::lookup`] is Figure 9;
//! * [`Apex::segment_nodes`] exposes the extent unions that the paper's
//!   query processor joins to answer partial-matching path queries.
//!
//! # Quick example
//!
//! ```
//! use apex::{Apex, Workload};
//! use xmlgraph::builder::moviedb;
//! use xmlgraph::LabelPath;
//!
//! let g = moviedb();
//! // Initial index: every label path of length one.
//! let mut idx = Apex::build_initial(&g);
//! // Adapt to a workload in which //actor/name is hot.
//! let wl = Workload::parse(&g, &["actor.name", "actor.name", "movie.title"]).unwrap();
//! idx.refine(&g, &wl, 0.5);
//! let q = LabelPath::parse(&g, "actor.name").unwrap();
//! let hit = idx.lookup(q.labels());
//! assert!(hit.xnode.is_some());
//! assert_eq!(hit.matched_len, 2); // actor.name is now a required path
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod graph;
pub mod hashtree;
pub mod index;
pub mod monitor;
pub mod persist;
pub mod recover;
pub mod serve;
pub mod update;
pub mod validate;
pub mod wal;
pub mod workload;

pub use graph::{GApex, XNodeId};
pub use hashtree::{EntryRef, HNodeId, HashTree};
pub use index::{Apex, IndexStats, Lookup, SegmentNodes};
pub use monitor::{MonitorState, PlanFeedback, RefreshPolicy, WorkloadMonitor};
pub use persist::PersistError;
pub use recover::{recover, RecoverError, RecoverOptions, Recovered, RecoveryReport};
pub use serve::{
    write_checkpoint, IndexCell, PlanStats, RefreshRecord, Refresher, ServeStats, Snapshot,
};
pub use update::{extent_equivalent, update_apex};
pub use wal::{CrashPlan, CrashSite, DurabilityConfig, Record, Stats, Wal, WalError};
pub use workload::Workload;
