//! Workspace symbol table, conservative call graph, and the
//! `panic-reachability` analysis.
//!
//! Resolution is *name-based and over-approximate*: a method call
//! `recv.m(…)` whose receiver type cannot be determined resolves to
//! every workspace method named `m` — edges may point at functions the
//! program never calls, but a call the program does make is never
//! dropped (within the subset we model: no trait-object dispatch
//! tables, no function-pointer indirection). Three refinements keep the
//! over-approximation useful:
//!
//! 1. `self.m(…)` prefers the enclosing `impl`'s own method;
//! 2. receivers that are parameters (or `self` fields) with a known
//!    workspace type resolve through that type — and if the type is
//!    known but has no method `m`, the call is std/trait dispatch and
//!    contributes no edge;
//! 3. `cli`/`bench` are leaf binaries nothing imports, so their
//!    functions are never cross-crate resolution candidates.
//!
//! Panic *sites* are direct: `panic!`/`unreachable!`, `.unwrap()`,
//! `.expect()`, and `[…]` indexing (which can exceed bounds; `get`
//! cannot). `panic-reachability` then walks the graph from the serving
//! roots — every non-test function in `net::server`, `core::serve`,
//! `core::recover`, `query::exec`, and `shard::router` — and flags
//! each reachable function that contains a panic site, anchored at its
//! `fn` line so one justified suppression covers the whole function.
//! Recovery is a root because it runs before serving can start: a
//! panic there turns a torn log into a boot loop. The scatter-gather
//! router is a root because a panic in a connection or prober thread
//! silently unroutes every shard behind it.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::engine::{Finding, Workspace};
use crate::parse::FnItem;

/// Files whose non-test functions are serving roots: the worker/reader
/// loops of the socket server, the refresher, the query operators, and
/// the boot-time recovery path (which must survive arbitrarily torn or
/// corrupted logs without panicking).
const ROOT_FILES: &[&str] = &[
    "crates/net/src/server.rs",
    "crates/core/src/serve.rs",
    "crates/core/src/recover.rs",
    "crates/query/src/exec.rs",
    "crates/shard/src/router.rs",
];

/// Crates nothing else imports (binaries, the analyzer, the test
/// suite): their functions are never cross-crate resolution candidates,
/// which keeps name-collision edges from dragging them into the serving
/// path's reachable set.
const LEAF_CRATES: &[&str] = &["cli", "bench", "lint", "suite"];

/// Keywords that look like `ident (` but are not calls.
/// Contract-check macros whose argument lists are exempt from
/// panic-site scanning (the panic is the macro's purpose).
const ASSERT_MACROS: &[&str] = &[
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "ref", "mut", "let", "fn", "pub", "use", "mod", "struct", "enum", "union", "trait",
    "impl", "where", "unsafe", "dyn", "box", "async", "await", "yield", "const", "static", "type",
    "crate", "super", "extern",
];

/// One function in the flattened workspace symbol table.
pub struct FnNode {
    /// Index of the owning file in [`Workspace::files`].
    pub file: usize,
    /// Index into that file's [`crate::parse::ParsedFile::fns`].
    pub item: usize,
    /// Fully qualified display name, e.g. `net::server::Conn::respond`.
    pub qname: String,
}

/// One call edge, anchored at its call site.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee function id.
    pub callee: usize,
    /// Code-token index of the call in the *caller's* file.
    pub tok: usize,
    /// 1-based line of the call site.
    pub line: u32,
    /// True when the callee set came from the all-methods-of-this-name
    /// over-approximation (untyped receiver) rather than a typed
    /// resolution. Both rules traverse only typed edges — a phantom
    /// name-collision edge would manufacture unreachable panics and
    /// impossible deadlocks alike; fallback edges are kept on the graph
    /// for diagnostics and tests.
    pub fallback: bool,
}

/// A direct panic site inside one function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// What panics there: `panic!`, `.unwrap()`, `.expect()`, `indexing`.
    pub what: &'static str,
}

/// The workspace call graph.
pub struct CallGraph {
    /// All functions, id-indexed.
    pub fns: Vec<FnNode>,
    /// Outgoing edges per function id (deduplicated, source order).
    pub edges: Vec<Vec<Edge>>,
    /// Direct panic sites per function id.
    pub panic_sites: Vec<Vec<PanicSite>>,
}

/// `crates/net/src/server.rs` → `net::server::`, `…/src/lib.rs` →
/// `core::` — the qname prefix contributed by the file's path.
fn path_prefix(rel_path: &str, crate_dir: &str) -> String {
    let mut prefix = String::new();
    if !crate_dir.is_empty() {
        prefix.push_str(crate_dir);
        prefix.push_str("::");
    }
    if let Some(after) = rel_path.split("/src/").nth(1) {
        for seg in after.split('/') {
            let seg = seg.strip_suffix(".rs").unwrap_or(seg);
            if seg == "lib" || seg == "main" || seg == "mod" {
                continue;
            }
            prefix.push_str(seg);
            prefix.push_str("::");
        }
    }
    prefix
}

impl CallGraph {
    /// Builds the symbol table and resolves every call site.
    pub fn build(ws: &Workspace<'_>) -> CallGraph {
        let mut fns = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            let prefix = path_prefix(file.ctx.rel_path, file.ctx.crate_dir);
            for (ii, item) in file.parsed.fns.iter().enumerate() {
                let mut qname = prefix.clone();
                for m in &item.modules {
                    qname.push_str(m);
                    qname.push_str("::");
                }
                if let Some(owner) = &item.owner {
                    qname.push_str(owner);
                    qname.push_str("::");
                }
                qname.push_str(&item.name);
                fns.push(FnNode {
                    file: fi,
                    item: ii,
                    qname,
                });
            }
        }

        let mut index = Index::default();
        for (id, node) in fns.iter().enumerate() {
            let item = item_of(ws, node);
            match &item.owner {
                Some(owner) => {
                    index.methods.entry(item.name.clone()).or_default().push(id);
                    index
                        .owner_methods
                        .entry((owner.clone(), item.name.clone()))
                        .or_default()
                        .push(id);
                }
                None => index.free.entry(item.name.clone()).or_default().push(id),
            }
        }
        for file in &ws.files {
            index.types.extend(file.parsed.types.iter().cloned());
            for f in &file.parsed.fields {
                index
                    .field_types
                    .entry((f.owner.clone(), f.name.clone()))
                    .or_insert_with(|| f.ty.clone());
            }
        }

        let mut graph = CallGraph {
            edges: vec![Vec::new(); fns.len()],
            panic_sites: vec![Vec::new(); fns.len()],
            fns,
        };
        for id in 0..graph.fns.len() {
            graph.scan_body(ws, &index, id);
        }
        graph
    }

    /// The function id whose qualified name ends with `suffix` (unique
    /// match required) — a test/diagnostic convenience.
    pub fn fn_id(&self, suffix: &str) -> Option<usize> {
        let mut found = None;
        for (id, node) in self.fns.iter().enumerate() {
            let hit = node.qname == suffix
                || node
                    .qname
                    .strip_suffix(suffix)
                    .is_some_and(|pre| pre.ends_with("::"));
            if hit {
                if found.is_some() {
                    return None;
                }
                found = Some(id);
            }
        }
        found
    }

    /// BFS over the *typed* edge relation from `roots` (fallback edges
    /// are not traversed — see [`Edge::fallback`]). Returns, for each
    /// reached id, its BFS predecessor (roots map to themselves).
    pub fn reach_from(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &r in roots {
            if parent.insert(r, r).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            for e in self.edges[id].iter().filter(|e| !e.fallback) {
                if parent.insert(e.callee, id).is_none() {
                    queue.push_back(e.callee);
                }
            }
        }
        parent
    }

    /// Renders `root → … → target` from a predecessor map.
    pub fn chain(&self, parent: &BTreeMap<usize, usize>, target: usize) -> String {
        let mut hops = vec![target];
        let mut cur = target;
        while let Some(&p) = parent.get(&cur) {
            if p == cur || hops.len() > 12 {
                break;
            }
            hops.push(p);
            cur = p;
        }
        hops.reverse();
        hops.iter()
            .map(|&id| self.fns[id].qname.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    }

    /// Scans one function body for call edges and panic sites.
    fn scan_body(&mut self, ws: &Workspace<'_>, index: &Index, id: usize) {
        let node = &self.fns[id];
        let file = &ws.files[node.file];
        let item = &file.parsed.fns[node.item];
        let Some((open, close)) = item.body else {
            return;
        };
        // Nested fns own their tokens; skip their spans.
        let mut children: Vec<(usize, usize)> = file
            .parsed
            .fns
            .iter()
            .filter_map(|f| f.body)
            .filter(|&(o, c)| o > open && c < close)
            .collect();
        children.sort_unstable();

        let ctx = &file.ctx;
        let locals = local_types(ctx, open, close);
        let mut edges: Vec<Edge> = Vec::new();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut child = 0usize;
        let mut i = open;
        while i <= close.min(ctx.code_len().saturating_sub(1)) {
            while child < children.len() && children[child].0 < i {
                child += 1;
            }
            if child < children.len() && children[child].0 == i {
                i = children[child].1 + 1;
                continue;
            }
            let t = ctx.text(i);

            // The assert family is a deliberate contract check — the
            // macro's own panic is the point, and any indexing inside
            // its arguments is part of the asserted condition. Skip the
            // argument list for panic-site purposes (call edges inside
            // it were already irrelevant: asserts guard, not dispatch).
            if !ctx.is_test(i)
                && !item.is_test
                && ASSERT_MACROS.contains(&t)
                && ctx.text(i + 1) == "!"
                && ctx.text(i + 2) == "("
            {
                let mut depth = 0i32;
                let mut j = i + 2;
                while j <= close {
                    match ctx.text(j) {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }

            // --- panic sites -------------------------------------------------
            if !ctx.is_test(i) && !item.is_test {
                if (t == "panic" || t == "unreachable") && ctx.text(i + 1) == "!" {
                    self.panic_sites[id].push(PanicSite {
                        line: ctx.line(i),
                        what: if t == "panic" {
                            "panic!"
                        } else {
                            "unreachable!"
                        },
                    });
                } else if t == "."
                    && (ctx.ident_is(i + 1, "unwrap") || ctx.ident_is(i + 1, "expect"))
                    && ctx.text(i + 2) == "("
                {
                    self.panic_sites[id].push(PanicSite {
                        line: ctx.line(i + 1),
                        what: if ctx.ident_is(i + 1, "unwrap") {
                            ".unwrap()"
                        } else {
                            ".expect()"
                        },
                    });
                } else if t == "[" && i > open {
                    let prev = ctx.text(i - 1);
                    let indexes_value = (ctx.is_ident(i - 1) && !KEYWORDS.contains(&prev))
                        || prev == ")"
                        || prev == "]";
                    // A full-range slice `[..]` of a Vec/slice cannot panic.
                    let full_range = ctx.text(i + 1) == ".." && ctx.text(i + 2) == "]";
                    if indexes_value && !full_range {
                        self.panic_sites[id].push(PanicSite {
                            line: ctx.line(i),
                            what: "indexing",
                        });
                    }
                }
            }

            // --- call edges --------------------------------------------------
            if ctx.is_ident(i) && !KEYWORDS.contains(&t) {
                let after = self.after_turbofish(ctx, i + 1);
                if ctx.text(after) == "(" {
                    let prev = if i == 0 { "" } else { ctx.text(i - 1) };
                    let (callees, fallback) = if prev == "." {
                        resolve_method(index, item, &locals, ctx, i)
                    } else if prev == "::" {
                        (resolve_qualified(index, item, ctx, i), false)
                    } else {
                        (resolve_bare(index, item, t), false)
                    };
                    for callee in callees {
                        let caller_crate = ctx.crate_dir;
                        let callee_file = &ws.files[self.fns[callee].file];
                        let callee_item = item_of(ws, &self.fns[callee]);
                        // Leaf binaries are never cross-crate targets;
                        // test fns are not compiled into the binary.
                        let leaf = LEAF_CRATES.contains(&callee_file.ctx.crate_dir);
                        if (leaf && callee_file.ctx.crate_dir != caller_crate)
                            || callee_item.is_test && !item.is_test
                        {
                            continue;
                        }
                        if seen.insert(callee) {
                            edges.push(Edge {
                                callee,
                                tok: i,
                                line: ctx.line(i),
                                fallback,
                            });
                        }
                    }
                }
            }
            i += 1;
        }
        self.edges[id] = edges;
    }

    /// If tokens at `i` are a turbofish (`:: < … >`), returns the index
    /// just past it; otherwise `i`.
    fn after_turbofish(&self, ctx: &crate::engine::FileCtx<'_>, i: usize) -> usize {
        if ctx.text(i) != "::" || ctx.text(i + 1) != "<" {
            return i;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < ctx.code_len() {
            match ctx.text(j) {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                "(" | ")" | ";" | "{" => return i,
                _ => {}
            }
            if depth <= 0 {
                return j + 1;
            }
            j += 1;
        }
        i
    }
}

fn item_of<'w>(ws: &'w Workspace<'_>, node: &FnNode) -> &'w FnItem {
    &ws.files[node.file].parsed.fns[node.item]
}

/// The name-resolution index.
#[derive(Default)]
struct Index {
    free: BTreeMap<String, Vec<usize>>,
    methods: BTreeMap<String, Vec<usize>>,
    owner_methods: BTreeMap<(String, String), Vec<usize>>,
    /// All struct/enum/impl/trait type names defined in the workspace.
    types: BTreeSet<String>,
    /// `(owner, field)` → declared type tokens.
    field_types: BTreeMap<(String, String), String>,
}

impl Index {
    /// The workspace types mentioned in a type string, e.g.
    /// `& Arc < Mutex < RefreshShared > >` → `[RefreshShared]`.
    fn known_types_in<'t>(&self, ty: &'t str) -> Vec<&'t str> {
        ty.split(' ').filter(|w| self.types.contains(*w)).collect()
    }
}

/// Declared types of `let`-bound locals in one body: `let x: Foo = …`,
/// `let x = Foo::new(…)`, `let x = Foo { … }`. A flat map — shadowing
/// and block scopes are ignored, and a name bound twice keeps its first
/// type; good enough for receiver resolution, where a collision only
/// costs precision, not soundness.
fn local_types(
    ctx: &crate::engine::FileCtx<'_>,
    open: usize,
    close: usize,
) -> BTreeMap<String, String> {
    let mut out: BTreeMap<String, String> = BTreeMap::new();
    let last = close.min(ctx.code_len().saturating_sub(1));
    for i in open..=last {
        if ctx.text(i) != "let" {
            continue;
        }
        let mut j = i + 1;
        if ctx.text(j) == "mut" {
            j += 1;
        }
        if !ctx.is_ident(j) {
            continue; // destructuring pattern — no single type to record
        }
        let name = ctx.text(j).to_string();
        let ty: Option<String> = if ctx.text(j + 1) == ":" {
            let mut parts = Vec::new();
            let mut k = j + 2;
            while k <= last && ctx.text(k) != "=" && ctx.text(k) != ";" {
                parts.push(ctx.text(k));
                k += 1;
            }
            (!parts.is_empty()).then(|| parts.join(" "))
        } else if ctx.text(j + 1) == "="
            && ctx.is_ident(j + 2)
            && ctx
                .text(j + 2)
                .chars()
                .next()
                .is_some_and(|c| c.is_uppercase())
            && (ctx.text(j + 3) == "::" || ctx.text(j + 3) == "{")
        {
            Some(ctx.text(j + 2).to_string())
        } else {
            None
        };
        if let Some(ty) = ty {
            out.entry(name).or_insert(ty);
        }
    }
    out
}

/// `recv . name (…)` — `i` indexes `name`, `i-1` the dot. Returns the
/// callee set plus whether it came from the untyped all-methods
/// fallback.
fn resolve_method(
    index: &Index,
    caller: &FnItem,
    locals: &BTreeMap<String, String>,
    ctx: &crate::engine::FileCtx<'_>,
    i: usize,
) -> (Vec<usize>, bool) {
    let name = ctx.text(i);
    let recv = if i >= 2 { ctx.text(i - 2) } else { "" };

    // `self.name(…)` — the enclosing impl's method wins.
    if recv == "self" && (i < 3 || ctx.text(i - 3) != ".") {
        if let Some(owner) = &caller.owner {
            if let Some(ids) = index.owner_methods.get(&(owner.clone(), name.to_string())) {
                return (ids.clone(), false);
            }
            // Known owner without such a method: std/derive dispatch.
            if index.types.contains(owner) {
                return (Vec::new(), false);
            }
        }
    }

    // `root.f1.f2.name(…)` — a field chain rooted at `self`, a local or
    // a parameter, walked hop by hop through declared field types.
    if ctx.is_ident(i - 2) {
        if let Some(chain) = receiver_chain(ctx, i - 1) {
            if let Some(ty) = chain_type(index, caller, locals, &chain) {
                return resolve_through_type(index, &ty, name);
            }
        }
    }

    // `Type::ctor(…).name(…)` / `Type { … }.name(…)` — constructor
    // results and struct literals type as the named struct. Only a
    // matching workspace method counts; a miss falls through, since a
    // constructor may return something other than Self.
    if recv == ")" || recv == "}" {
        if let Some(t) = literal_or_ctor_type(ctx, i - 2, recv) {
            let t = if t == "Self" {
                caller.owner.as_deref().unwrap_or("Self")
            } else {
                t
            };
            if index.types.contains(t) {
                if let Some(ids) = index.owner_methods.get(&(t.to_string(), name.to_string())) {
                    return (ids.clone(), false);
                }
            }
        }
    }

    // Unknown receiver: every workspace method with this name.
    (index.methods.get(name).cloned().unwrap_or_default(), true)
}

/// The `.`-separated identifier chain ending at the dot at `i` (the
/// one before the method name): `self . shared . queue . hwm (` with
/// `i` at the last dot → `["self", "shared", "queue"]`. `None` when
/// the chain does not start at a plain identifier.
fn receiver_chain<'t>(ctx: &crate::engine::FileCtx<'t>, i: usize) -> Option<Vec<&'t str>> {
    let mut chain = Vec::new();
    let mut j = i;
    loop {
        if j == 0 || !ctx.is_ident(j - 1) {
            return None;
        }
        chain.push(ctx.text(j - 1));
        if j >= 2 && ctx.text(j - 2) == "." {
            j -= 2;
        } else {
            break;
        }
    }
    chain.reverse();
    Some(chain)
}

/// Types a receiver chain: the root resolves via `self` (enclosing
/// owner), a `let`-bound local, or a parameter; each further hop walks
/// the declared type of that field. Returns the final declared type
/// string, or `None` when any hop is unknown.
fn chain_type(
    index: &Index,
    caller: &FnItem,
    locals: &BTreeMap<String, String>,
    chain: &[&str],
) -> Option<String> {
    let (root, hops) = chain.split_first()?;
    let mut ty: String = if *root == "self" {
        caller.owner.clone()?
    } else if let Some(t) = locals.get(*root) {
        if t == "Self" {
            caller.owner.clone()?
        } else {
            t.clone()
        }
    } else if let Some(p) = caller.params.iter().find(|p| p.name == *root) {
        p.ty.clone()
    } else {
        return None;
    };
    for hop in hops {
        let owner = index.known_types_in(&ty).into_iter().next()?.to_string();
        ty = index.field_types.get(&(owner, hop.to_string()))?.clone();
    }
    Some(ty)
}

/// The struct name of a `Type::ctor(…)` call or `Type { … }` literal
/// whose closing token sits at `close` (`recv` is `")"` or `"}"`).
fn literal_or_ctor_type<'t>(
    ctx: &crate::engine::FileCtx<'t>,
    close: usize,
    recv: &str,
) -> Option<&'t str> {
    let (open_s, close_s) = if recv == ")" { ("(", ")") } else { ("{", "}") };
    // Walk back to the matching opener.
    let mut depth = 0i32;
    let mut j = close;
    let open = loop {
        let t = ctx.text(j);
        if t == close_s {
            depth += 1;
        } else if t == open_s {
            depth -= 1;
            if depth == 0 {
                break j;
            }
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    };
    let ti = if recv == ")" {
        // `Type :: ctor (` — the ctor ident, `::`, then the type.
        if open >= 3 && ctx.is_ident(open - 1) && ctx.text(open - 2) == "::" {
            open - 3
        } else {
            return None;
        }
    } else if open >= 1 {
        open - 1
    } else {
        return None;
    };
    let t = ctx.text(ti);
    (ctx.is_ident(ti) && t.chars().next().is_some_and(|c| c.is_uppercase())).then_some(t)
}

/// Resolution through a known declared type: methods of the workspace
/// types the type string mentions; a known type without the method
/// means std/trait dispatch (no edge); no known type falls back to the
/// all-methods over-approximation (flagged as such).
fn resolve_through_type(index: &Index, ty: &str, name: &str) -> (Vec<usize>, bool) {
    let known = index.known_types_in(ty);
    if known.is_empty() {
        return (index.methods.get(name).cloned().unwrap_or_default(), true);
    }
    let mut out = Vec::new();
    for t in known {
        if let Some(ids) = index.owner_methods.get(&(t.to_string(), name.to_string())) {
            out.extend_from_slice(ids);
        }
    }
    out.sort_unstable();
    out.dedup();
    (out, false)
}

/// `Qual :: name (…)` — `i` indexes `name`.
fn resolve_qualified(
    index: &Index,
    caller: &FnItem,
    ctx: &crate::engine::FileCtx<'_>,
    i: usize,
) -> Vec<usize> {
    let name = ctx.text(i);
    let qual = if i >= 2 { ctx.text(i - 2) } else { "" };
    let qual = if qual == "Self" {
        caller.owner.as_deref().unwrap_or("Self")
    } else {
        qual
    };
    if let Some(ids) = index
        .owner_methods
        .get(&(qual.to_string(), name.to_string()))
    {
        return ids.clone();
    }
    if index.types.contains(qual) {
        return Vec::new(); // known type, assoc fn not ours (derive etc.)
    }
    if qual
        .chars()
        .next()
        .is_some_and(|c| c.is_lowercase() || c == '_')
    {
        // Module-qualified free call (`kernels::semijoin_into(…)`).
        return index.free.get(name).cloned().unwrap_or_default();
    }
    Vec::new() // std type (`Vec::new`, `Instant::now`, …)
}

/// Bare `name (…)` — a free call, unless `name` is a callback param.
fn resolve_bare(index: &Index, caller: &FnItem, name: &str) -> Vec<usize> {
    if caller.params.iter().any(|p| p.name == name) {
        return Vec::new();
    }
    index.free.get(name).cloned().unwrap_or_default()
}

/// The `panic-reachability` rule: see module docs.
pub fn panic_reachability(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    let graph = CallGraph::build(ws);
    let mut roots = Vec::new();
    for (id, node) in graph.fns.iter().enumerate() {
        let file = &ws.files[node.file];
        if ROOT_FILES.contains(&file.ctx.rel_path) && !item_of(ws, node).is_test {
            roots.push(id);
        }
    }
    if roots.is_empty() {
        return;
    }
    let parent = graph.reach_from(&roots);
    for &id in parent.keys() {
        let sites = &graph.panic_sites[id];
        if sites.is_empty() {
            continue;
        }
        let node = &graph.fns[id];
        let item = item_of(ws, node);
        if item.is_test {
            continue;
        }
        let mut shown: Vec<String> = sites
            .iter()
            .take(4)
            .map(|s| format!("{} at line {}", s.what, s.line))
            .collect();
        if sites.len() > 4 {
            shown.push(format!("+{} more", sites.len() - 4));
        }
        out.push(Finding {
            file: ws.files[node.file].ctx.rel_path.to_string(),
            line: item.line,
            rule: "panic-reachability",
            message: format!(
                "`{}` is reachable from the serving path ({}) and can panic: {}",
                node.qname,
                graph.chain(&parent, id),
                shown.join(", ")
            ),
        });
    }
}
