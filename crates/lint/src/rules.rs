//! The rule catalog.
//!
//! Rules come in two shapes since PR 7: *file* rules match token
//! sequences (plus the file's parsed item structure) over one file at a
//! time, and *workspace* rules run whole-program analyses — the call
//! graph ([`crate::callgraph`]) and the lock-acquisition graph
//! ([`crate::locks`]) — over every file at once. Comments and string
//! contents never match (see [`crate::lexer`]). The catalog encodes the
//! workspace's architectural invariants:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `cost-io-writes` | `Cost` I/O counters are written only by the storage layer (incl. `storage::block` / `storage::kernels`), the shared executor, the planner's attributed operators, and `core::wal`'s recovery scan |
//! | `no-panic` | library code neither `.unwrap()`s, `.expect()`s nor `panic!`s (per-site; the serving-root files are covered transitively by `panic-reachability` instead) |
//! | `panic-reachability` | nothing reachable from the serving roots (`net::server`, `core::serve`, `core::recover`, `query::exec`, `shard::router`) can panic — `panic!`, `unwrap`, `expect`, or `[…]` indexing |
//! | `lock-order` | the lock-acquisition graph is cycle-free and nothing blocks while holding two guards |
//! | `hot-path-alloc` | semijoin kernel bodies never allocate outside `*Scratch` constructors |
//! | `forbid-unsafe` | every crate root carries `#![forbid(unsafe_code)]` |
//! | `no-print` | output macros live in `cli`/`bench` only |
//! | `no-exit` | `std::process::exit` is the CLI's privilege |
//! | `pool-discipline` | buffer pools are constructed by `storage` and the batch layer only |
//!
//! Suppression hygiene is checked by the engine itself: `bad-suppression`
//! (malformed or justification-free allows) and `stale-allow` (an allow
//! that silences nothing), both errors, neither suppressible.
//!
//! To add a rule: write the check, add a [`Rule`] entry to [`RULES`],
//! add triggering / suppressed / clean fixtures under
//! `crates/lint/tests/fixtures/`, and document it in
//! `crates/lint/RULES.md` and `DESIGN.md`.

use crate::callgraph;
use crate::engine::{FileCtx, Finding, Severity, Workspace, WorkspaceFile};
use crate::locks;

/// How a rule inspects the workspace.
pub enum Check {
    /// Runs once per file.
    File(fn(&WorkspaceFile<'_>, &mut Vec<Finding>)),
    /// Runs once over the whole workspace.
    Workspace(fn(&Workspace<'_>, &mut Vec<Finding>)),
}

/// A named invariant check.
pub struct Rule {
    /// Stable kebab-case name, used in reports and `allow(…)`.
    pub name: &'static str,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// The matcher.
    pub check: Check,
}

/// The rule catalog, in report order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "cost-io-writes",
        summary: "Cost I/O counters (pages_read/extent_pairs/table_probes) are written \
                  only in apex-storage (incl. block/kernels), apex_query::exec, \
                  apex_query::plan and apex::wal's recovery scan",
        severity: Severity::Error,
        check: Check::File(cost_io_writes),
    },
    Rule {
        name: "no-panic",
        summary: ".unwrap()/.expect()/panic! are banned in non-test library code \
                  (cli exempt; the serving-root files are covered by panic-reachability)",
        severity: Severity::Error,
        check: Check::File(no_panic),
    },
    Rule {
        name: "panic-reachability",
        summary: "functions reachable from the serving roots (net::server, core::serve, \
                  core::recover, query::exec, shard::router) must not panic!, unwrap, \
                  expect, or index without get",
        severity: Severity::Error,
        check: Check::Workspace(callgraph::panic_reachability),
    },
    Rule {
        name: "lock-order",
        summary: "the Mutex/RwLock acquisition graph must be cycle-free, and nothing may \
                  block (Condvar::wait, channel recv, accept, socket I/O) holding two guards",
        severity: Severity::Error,
        check: Check::Workspace(locks::lock_order),
    },
    Rule {
        name: "hot-path-alloc",
        summary: "storage::kernels, storage::succinct and query::exec semijoin bodies may \
                  not allocate (Vec::new/with_capacity/push-to-fresh/collect/to_vec/clone) \
                  outside *Scratch constructors and succinct builders",
        severity: Severity::Error,
        check: Check::File(hot_path_alloc),
    },
    Rule {
        name: "forbid-unsafe",
        summary: "every crate root must carry #![forbid(unsafe_code)]",
        severity: Severity::Error,
        check: Check::File(forbid_unsafe),
    },
    Rule {
        name: "no-print",
        summary: "println!/eprintln!/print!/eprint! are banned outside cli and bench",
        severity: Severity::Error,
        check: Check::File(no_print),
    },
    Rule {
        name: "no-exit",
        summary: "std::process::exit is banned outside cli",
        severity: Severity::Error,
        check: Check::File(no_exit),
    },
    Rule {
        name: "pool-discipline",
        summary: "BufferManager is constructed only in apex-storage and apex_query::batch",
        severity: Severity::Error,
        check: Check::File(pool_discipline),
    },
];

/// Engine-level hygiene findings that are not catalog rules (and can
/// therefore never be suppressed): listed for `--list-rules`.
pub const META_RULES: &[(&str, &str)] = &[
    (
        "bad-suppression",
        "an apex-lint directive that is malformed, names an unknown rule, or carries \
         no justification",
    ),
    (
        "stale-allow",
        "an `// apex-lint: allow(…)` that silences nothing — dead allows are holes \
         invariants can leak through",
    ),
];

fn emit(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, i: usize, rule: &'static str, message: String) {
    out.push(Finding {
        file: ctx.rel_path.to_string(),
        line: ctx.code_tok(i).line,
        rule,
        severity: Severity::Error,
        message,
    });
}

/// The `Cost` counters that represent storage I/O; attribution breaks if
/// anything outside the storage/executor layers bumps them.
const IO_FIELDS: &[&str] = &["pages_read", "extent_pairs", "table_probes"];

/// Assignment operators (a field followed by one of these is a write).
const ASSIGN_OPS: &[&str] = &["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="];

fn cost_io_writes(file: &WorkspaceFile<'_>, out: &mut Vec<Finding>) {
    let ctx = &file.ctx;
    // The whole storage crate is a permitted writer — that includes the
    // compressed block encoder (`storage::block`) and the semijoin
    // kernels (`storage::kernels`) the executor charges from. The
    // cost-based planner (`query::plan`) is the executor's peer: its
    // backward join order runs reverse semijoins that fault blocks and
    // charge pages/pairs through the same attributed closures.
    // `core::wal` is the one non-query writer: recovery's segment scan
    // charges `pages_read` for the log pages it faults, so a replayed
    // boot reports its I/O through the same attributed counters as a
    // served query.
    if ctx.crate_dir == "storage"
        || ctx.rel_path == "crates/query/src/exec.rs"
        || ctx.rel_path == "crates/query/src/plan.rs"
        || ctx.rel_path == "crates/core/src/wal.rs"
    {
        return;
    }
    for i in 0..ctx.code_len() {
        if ctx.text(i) == "."
            && IO_FIELDS.iter().any(|f| ctx.ident_is(i + 1, f))
            && ASSIGN_OPS.contains(&ctx.text(i + 2))
            && !ctx.is_test(i)
        {
            emit(
                ctx,
                out,
                i + 1,
                "cost-io-writes",
                format!(
                    "write to Cost I/O counter `{}` outside apex-storage / apex_query::exec \
                     breaks per-operator attribution",
                    ctx.text(i + 1)
                ),
            );
        }
    }
}

fn no_panic(file: &WorkspaceFile<'_>, out: &mut Vec<Finding>) {
    let ctx = &file.ctx;
    if ctx.crate_dir == "cli" {
        return;
    }
    // The serving-root files get the transitive treatment instead: one
    // panic-reachability finding per function, not one per site.
    if callgraph::ROOT_FILES.contains(&ctx.rel_path) {
        return;
    }
    for i in 0..ctx.code_len() {
        if ctx.is_test(i) {
            continue;
        }
        if ctx.text(i) == "."
            && (ctx.ident_is(i + 1, "unwrap") || ctx.ident_is(i + 1, "expect"))
            && ctx.text(i + 2) == "("
        {
            emit(
                ctx,
                out,
                i + 1,
                "no-panic",
                format!(
                    "`.{}()` in library code can panic; propagate a Result or restructure",
                    ctx.text(i + 1)
                ),
            );
        } else if ctx.ident_is(i, "panic") && ctx.text(i + 1) == "!" {
            emit(
                ctx,
                out,
                i,
                "no-panic",
                "`panic!` in library code; return an error instead".to_string(),
            );
        }
    }
}

/// Code-token indices belonging to `item`'s own body — nested fn
/// bodies excluded, since those tokens belong to the nested item.
fn own_body_tokens(file: &WorkspaceFile<'_>, item: &crate::parse::FnItem) -> Vec<usize> {
    let Some((open, close)) = item.body else {
        return Vec::new();
    };
    let mut children: Vec<(usize, usize)> = file
        .parsed
        .fns
        .iter()
        .filter_map(|f| f.body)
        .filter(|&(o, c)| o > open && c < close)
        .collect();
    children.sort_unstable();
    let mut toks = Vec::new();
    let mut child = 0usize;
    let mut i = open;
    let last = close.min(file.ctx.code_len().saturating_sub(1));
    while i <= last {
        while child < children.len() && children[child].0 < i {
            child += 1;
        }
        if child < children.len() && children[child].0 == i {
            i = children[child].1 + 1;
            continue;
        }
        toks.push(i);
        i += 1;
    }
    toks
}

/// Constructor/builder names exempt from `hot-path-alloc` in
/// `storage::succinct`: they materialize the succinct form itself
/// (once, at encode or cache-fill time), so their allocations are the
/// point, not a hot-path leak.
fn is_succinct_builder(name: &str) -> bool {
    name == "new"
        || name == "to_vec"
        || ["build", "pack", "from", "encode"]
            .iter()
            .any(|p| name.starts_with(p))
}

fn hot_path_alloc(file: &WorkspaceFile<'_>, out: &mut Vec<Finding>) {
    let ctx = &file.ctx;
    let in_kernels = ctx.rel_path == "crates/storage/src/kernels.rs";
    let in_exec = ctx.rel_path == "crates/query/src/exec.rs";
    let in_succinct = ctx.rel_path == "crates/storage/src/succinct.rs";
    if !in_kernels && !in_exec && !in_succinct {
        return;
    }
    for item in &file.parsed.fns {
        if item.is_test {
            continue;
        }
        let owner = item.owner.as_deref().unwrap_or("");
        // Scratch constructors are *where* the buffers get allocated;
        // everything else on the hot path reuses them.
        if owner.ends_with("Scratch") {
            continue;
        }
        // In succinct.rs the builders own their allocations; the
        // query-time surface (directory probes, sampled restarts,
        // cursor fills) stays covered.
        if in_succinct && is_succinct_builder(&item.name) {
            continue;
        }
        // In exec.rs the hot path is the semijoin/join operators; other
        // operators and plumbing are covered by the per-site rules.
        if in_exec && !owner.contains("Semijoin") && !owner.contains("Join") {
            continue;
        }
        for i in own_body_tokens(file, item) {
            if ctx.is_test(i) {
                continue;
            }
            let t = ctx.text(i);
            if t == "Vec"
                && ctx.text(i + 1) == "::"
                && (ctx.ident_is(i + 2, "new") || ctx.ident_is(i + 2, "with_capacity"))
            {
                emit(
                    ctx,
                    out,
                    i,
                    "hot-path-alloc",
                    format!(
                        "`Vec::{}` allocates on the semijoin hot path; take a *Scratch \
                         buffer instead",
                        ctx.text(i + 2)
                    ),
                );
            } else if t == "vec" && ctx.text(i + 1) == "!" {
                emit(
                    ctx,
                    out,
                    i,
                    "hot-path-alloc",
                    "`vec![…]` allocates on the semijoin hot path; take a *Scratch buffer \
                     instead"
                        .to_string(),
                );
            } else if t == "." && ctx.text(i + 2) == "(" {
                let m = ctx.text(i + 1);
                match m {
                    "collect" | "to_vec" | "clone" => emit(
                        ctx,
                        out,
                        i + 1,
                        "hot-path-alloc",
                        format!(
                            "`.{m}()` allocates on the semijoin hot path; write into a \
                             reused *Scratch buffer instead"
                        ),
                    ),
                    "push" | "extend" if !scratch_receiver(ctx, item, i) => emit(
                        ctx,
                        out,
                        i + 1,
                        "hot-path-alloc",
                        format!(
                            "`.{m}()` into a non-scratch collection allocates on the \
                             semijoin hot path; push into a *Scratch buffer or a &mut \
                             output parameter"
                        ),
                    ),
                    _ => {}
                }
            } else if t == "." && ctx.ident_is(i + 1, "collect") && ctx.text(i + 2) == "::" {
                // Turbofish form: `.collect::<Vec<_>>()`.
                emit(
                    ctx,
                    out,
                    i + 1,
                    "hot-path-alloc",
                    "`.collect::<…>()` allocates on the semijoin hot path; write into a \
                     reused *Scratch buffer instead"
                        .to_string(),
                );
            }
        }
    }
}

/// True when the receiver chain of `<chain> . push/extend (` at dot `i`
/// is rooted in a scratch buffer: the literal `scratch`, `self` inside
/// a `*Scratch` impl, or a `&mut` parameter of the enclosing fn.
fn scratch_receiver(ctx: &FileCtx<'_>, item: &crate::parse::FnItem, i: usize) -> bool {
    // Walk to the root of the `.`-separated receiver chain.
    let mut j = i;
    while j >= 2 && ctx.is_ident(j - 1) && ctx.text(j - 2) == "." {
        j -= 2;
    }
    if j == 0 || !ctx.is_ident(j - 1) {
        return false; // `foo().buf.push(…)` — unresolvable root
    }
    let root = ctx.text(j - 1);
    if root == "scratch" {
        return true;
    }
    if root == "self" {
        return item
            .owner
            .as_deref()
            .is_some_and(|o| o.ends_with("Scratch"));
    }
    item.params.iter().any(|p| p.name == root && p.by_mut_ref())
}

fn forbid_unsafe(file: &WorkspaceFile<'_>, out: &mut Vec<Finding>) {
    let ctx = &file.ctx;
    if !ctx.is_crate_root {
        return;
    }
    for i in 0..ctx.code_len() {
        if ctx.text(i) == "#"
            && ctx.text(i + 1) == "!"
            && ctx.text(i + 2) == "["
            && ctx.ident_is(i + 3, "forbid")
            && ctx.text(i + 4) == "("
        {
            // Accept any ident list containing unsafe_code before `)`.
            let mut j = i + 5;
            while j < ctx.code_len() && ctx.text(j) != ")" {
                if ctx.ident_is(j, "unsafe_code") {
                    return; // satisfied
                }
                j += 1;
            }
        }
    }
    out.push(Finding {
        file: ctx.rel_path.to_string(),
        line: 1,
        rule: "forbid-unsafe",
        severity: Severity::Error,
        message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
    });
}

/// Crates whose job is terminal output.
const PRINT_CRATES: &[&str] = &["cli", "bench"];

fn no_print(file: &WorkspaceFile<'_>, out: &mut Vec<Finding>) {
    let ctx = &file.ctx;
    if PRINT_CRATES.contains(&ctx.crate_dir) {
        return;
    }
    const MACROS: &[&str] = &["println", "eprintln", "print", "eprint"];
    for i in 0..ctx.code_len() {
        if MACROS.iter().any(|m| ctx.ident_is(i, m)) && ctx.text(i + 1) == "!" && !ctx.is_test(i) {
            emit(
                ctx,
                out,
                i,
                "no-print",
                format!(
                    "`{}!` in a library crate; terminal output belongs to cli/bench",
                    ctx.text(i)
                ),
            );
        }
    }
}

fn no_exit(file: &WorkspaceFile<'_>, out: &mut Vec<Finding>) {
    let ctx = &file.ctx;
    if ctx.crate_dir == "cli" {
        return;
    }
    for i in 0..ctx.code_len() {
        if ctx.ident_is(i, "process")
            && ctx.text(i + 1) == "::"
            && ctx.ident_is(i + 2, "exit")
            && !ctx.is_test(i)
        {
            emit(
                ctx,
                out,
                i + 2,
                "no-exit",
                "`std::process::exit` outside cli skips destructors and steals the \
                 exit-code decision"
                    .to_string(),
            );
        }
    }
}

fn pool_discipline(file: &WorkspaceFile<'_>, out: &mut Vec<Finding>) {
    let ctx = &file.ctx;
    if ctx.crate_dir == "storage" || ctx.rel_path == "crates/query/src/batch.rs" {
        return;
    }
    const CTORS: &[&str] = &[
        "new",
        "unbounded",
        "with_capacity",
        "with_capacity_pages",
        "default",
    ];
    for i in 0..ctx.code_len() {
        if ctx.ident_is(i, "BufferManager")
            && ctx.text(i + 1) == "::"
            && CTORS.iter().any(|c| ctx.ident_is(i + 2, c))
            && !ctx.is_test(i)
        {
            emit(
                ctx,
                out,
                i,
                "pool-discipline",
                format!(
                    "direct `{}::{}` outside apex-storage / apex_query::batch bypasses \
                     the shared pool discipline",
                    ctx.text(i),
                    ctx.text(i + 2)
                ),
            );
        }
    }
}
