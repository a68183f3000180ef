//! # apex-shard — sharded, replicated serving over the APEX index
//!
//! The paper serves one APEX index from one process. This crate scales
//! that out: a cluster of **shards**, each a full serving runtime
//! (graph + index + workload monitor + background refresher + optional
//! WAL) exposed through one or more replicated `apex-net` listeners,
//! fronted by a **scatter-gather router** that speaks the same wire
//! protocol on both sides — clients cannot tell a router from a single
//! server.
//!
//! ```text
//!                      ┌────────────────────────┐
//!        clients ────► │  shard::Router          │  apex-net protocol
//!                      │  scatter │ gather+merge │  (front side)
//!                      └─────┬────┴─────┬────────┘
//!            apex-net protocol (hop side)
//!            ┌───────────────┼───────────────┐
//!        ┌───▼───┐       ┌───▼───┐       ┌───▼───┐
//!        │shard 0│       │shard 1│       │shard 2│    each shard:
//!        │ r0 r1 │       │ r0 r1 │       │ r0 r1 │    replicas share ONE
//!        └───────┘       └───────┘       └───────┘    runtime (cell+refresher)
//! ```
//!
//! * [`ShardMap`] — the partitioner: a stable FNV hash of rooted label
//!   paths assigns every node to exactly one shard; router and shards
//!   hold the same value, so they agree.
//! * [`ShardRuntime`] / [`ShardCluster`] — per-shard serving state and
//!   the in-process harness that runs `shards × replicas` real TCP
//!   listeners over it, with rolling replica swaps.
//! * [`Router`] — accepts client connections, fans each query out to
//!   one replica per shard, merges the per-shard sorted extents with
//!   the storage layer's k-way merge kernel, and enforces the
//!   **generation-vector invariant**: every response carries one
//!   `(shard, generation)` entry per shard, and per client the
//!   generation observed for a shard never goes backwards (the router
//!   pins the highest generation seen and retries stale replies).
//! * [`rolling_swap`] — the zero-downtime rollout: drain → swap →
//!   readmit one replica at a time while the sibling absorbs traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod map;
pub mod router;
pub mod runtime;

pub use cluster::{rolling_swap, ClusterConfig, ClusterStats, RolloutReport, ShardCluster};
pub use map::ShardMap;
pub use router::{Router, RouterConfig, RouterStats, ShardHopStats};
pub use runtime::{RuntimeConfig, ShardRuntime};
