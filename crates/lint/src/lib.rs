//! # apex-lint — the workspace invariant checker
//!
//! PR 1 made per-operator cost attribution a *verified partition* of
//! [`Cost`] — but only runtime tests defended it. `apex-lint` turns the
//! architectural contracts into static rules over the workspace's own
//! sources, in the same build-it-from-scratch spirit as the hand-written
//! XML tokenizer: a small Rust lexer ([`lexer`]) that correctly skips
//! strings and comments, an item-level parser ([`parse`]) that recovers
//! functions, impl owners, parameters and lock-typed fields, a
//! conservative call graph ([`callgraph`]) and lock-acquisition model
//! ([`locks`]) built on top of it, a rule engine ([`engine`], [`rules`])
//! with inline suppressions, and a text reporter ([`report`]).
//!
//! The binary walks `crates/*/src`, applies the catalog, and exits
//! nonzero on any finding; `ci.sh` runs it as a hard gate after clippy.
//!
//! ## Rule catalog
//!
//! See [`rules::RULES`] and `crates/lint/RULES.md`. The per-file rules:
//! `Cost` I/O counters may only be written by `apex-storage`, the
//! executor/planner and the WAL's recovery scan (`cost-io-writes`);
//! semijoin kernel bodies never allocate (`hot-path-alloc`); buffer
//! pools are constructed only by the storage layer (`pool-discipline`).
//! The whole-workspace rules: nothing reachable from the serving roots
//! can panic (`panic-reachability`), and the lock-acquisition graph is
//! cycle-free with no blocking call under two guards (`lock-order`).
//! What rustc and clippy can check themselves — no `unsafe`, no
//! panicking calls in library code, no stray prints or
//! `process::exit` — lives in the root `Cargo.toml`'s
//! `[workspace.lints]` instead.
//!
//! ## Suppressions
//!
//! ```text
//! cost.pages_read += 1; // apex-lint: allow(cost-io-writes): trie blocks are fabric-local storage
//! ```
//!
//! The justification after the second colon is mandatory; a suppression
//! that silences nothing is itself an error (`stale-allow`), so dead
//! allows cannot accumulate as holes in the gate.
//!
//! [`Cost`]: https://example.org/apex-rs (apex_storage::Cost)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod locks;
pub mod parse;
pub mod report;
pub mod rules;

pub use engine::{lint_str, lint_workspace, FileCtx, Finding, Workspace, WorkspaceFile};
pub use report::render_text;
