//! # apex-net — networked query serving for the APEX index
//!
//! A std-only TCP serving subsystem layered on [`apex::IndexCell`]:
//! remote clients submit path queries over a framed binary protocol and
//! the server answers them against the *current* index snapshot while
//! the background [`apex::Refresher`] keeps swapping refined
//! generations underneath — the paper's "incremental update without
//! blocking queries" property, extended across a socket.
//!
//! * [`wire`] — the length-prefixed, versioned wire protocol: request
//!   (id, deadline, query text) and response (id, status, rows, cost
//!   summary) frames with total, panic-free decoding;
//! * [`engine`] — the serving bridge: parse → snapshot → evaluate via
//!   the shared `apex_query` operators → record into the workload
//!   monitor → nudge the refresher;
//! * [`server`] — listener + fixed worker pool with admission control
//!   (bounded queue, explicit [`Status::Overloaded`] /
//!   [`Status::Draining`] sheds, never silent drops), per-request
//!   deadlines enforced at dequeue and mid-execution checkpoints, and
//!   graceful drain accounted by [`NetStats`];
//! * [`client`] — a small blocking client library (with bounded
//!   reconnect + shed-retry fault tolerance) used by the CLI, the load
//!   generator, the scatter-gather router and the tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod server;
pub mod wire;

pub use client::{Client, ClientStats, RetryPolicy};
pub use engine::{Engine, ExecOutcome};
pub use server::{read_polling, ConnStats, NetStats, Server, ServerConfig};
pub use wire::{Message, Request, Response, ShardGen, Status, WireError};
