//! # xmlgraph — labeled-digraph model for XML data
//!
//! This crate implements the data substrate of the APEX reproduction:
//!
//! * [`model::XmlGraph`] — the directed labeled edge graph `G_XML` of
//!   Definition 1 of the paper (an OEM-style model): inner nodes (`V_c`),
//!   leaf nodes carrying values (`V_a`), edges `E ⊆ V_c × A × V`, a root,
//!   and per-node document order. ID/IDREF reference relationships are
//!   represented exactly as the paper prescribes: an edge from an element
//!   to an `@attr` node, and an edge from that node to the referenced
//!   element labeled with the *target element's tag*.
//! * [`builder::GraphBuilder`] — an ergonomic constructor that assigns
//!   node identifiers (`nid`s) in document order and resolves ID/IDREF
//!   links at `finish()`.
//! * [`parser`] — a from-scratch XML parser (no external XML crate) that
//!   builds an [`model::XmlGraph`] from a document, with configurable
//!   ID/IDREF attribute names.
//! * [`writer`] — serializes a graph back to XML so parser fidelity can be
//!   round-trip tested.
//! * [`paths`] — label paths and data paths (Definitions 2–5): containment,
//!   suffix tests, and bounded enumeration of all rooted simple label paths
//!   (used by the workload generator).
//! * [`stats`] — structural statistics used to verify that generated
//!   datasets reproduce Table 1 of the paper and its irregularity gradient.
//!
//! The crate is deliberately dependency-free; everything downstream
//! (`apex`, `dataguide`, `oneindex`, `fabric`, `apex-query`) builds on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod dot;
pub mod error;
pub mod interner;
pub mod model;
pub mod parser;
pub mod paths;
pub mod stats;
pub mod writer;

pub use builder::GraphBuilder;
pub use error::{BuildError, ParseError};
pub use interner::Interner;
pub use model::{sort_distinct, Edge, LabelId, NodeId, XmlGraph, NULL_NODE};
pub use paths::LabelPath;
pub use stats::GraphStats;
