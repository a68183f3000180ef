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
//!   summary) frames with total, panic-free decoding, and the one
//!   buffered [`FrameReader`] every socket is read through, over an
//!   [`AwakeRead`] that polls a live connection before sleeping on it;
//! * [`engine`] — the serving bridge: parse → snapshot → evaluate via
//!   the shared `apex_query` operators → record into the workload
//!   monitor → nudge the refresher;
//! * [`server`] — listener + admission control (a request runs on its
//!   connection's thread when nothing would be gained by a hand-off,
//!   else through a bounded queue and a fixed worker pool; explicit
//!   [`Status::Overloaded`] / [`Status::Draining`] sheds, never silent
//!   drops), per-request deadlines enforced before execution and at
//!   mid-execution checkpoints, and graceful drain accounted by
//!   [`NetStats`];
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
pub use server::{ConnStats, NetStats, Server, ServerConfig};
pub use wire::{AwakeRead, FrameReader, Message, Request, Response, ShardGen, Status, WireError};
