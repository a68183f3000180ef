//! Lock-acquisition analysis and the `lock-order` rule.
//!
//! Guard-held regions are tracked *syntactically* per function body: a
//! `let g = ….lock(…)…;` binding holds its guard until the enclosing
//! block ends, an explicit `drop(g)`, while an un-bound acquisition
//! (`self.lock().closed = true;`, `match q.lock() { … }`) is held to
//! the end of its statement. Lock identity is a *class*, not an
//! instance: `Owner.field` for a `Mutex`/`RwLock` struct field,
//! the inner type name for a `&Mutex<T>` parameter, and — for helper
//! methods that return guards (`JobQueue::lock`) — whatever classes the
//! helper itself acquires, resolved through the call graph.
//!
//! Two failure shapes are rejected:
//!
//! 1. **Order cycles** — every acquisition made while other guards are
//!    held contributes `held → acquired` edges (including through
//!    calls, using each callee's transitive acquisition summary); a
//!    cycle in that graph, self-loops included, means two threads can
//!    acquire the same classes in opposite orders.
//! 2. **Blocking under two guards** — `Condvar::wait` releases *its*
//!    mutex but nothing else, and channel `recv`, `accept`, socket
//!    I/O or `sleep` release nothing; parking a thread that still
//!    holds a second guard stalls every peer of that lock.
//!
//! Classes are over-approximate in the same way the call graph is: a
//! phantom edge can exist, a modeled acquisition cannot be missed
//! (within the syntactic subset — no lock guards smuggled through
//! struct fields or returned collections).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::CallGraph;
use crate::engine::{Finding, Workspace};
use crate::parse::FnItem;

/// Method names that can block the calling thread. `join` is handled
/// separately (only the no-argument thread form, not `slice.join(", ")`).
const BLOCKING: &[&str] = &[
    "wait",
    "wait_timeout",
    "wait_while",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "accept",
    "read_line",
    "read_exact",
    "read_to_end",
    "write_all",
    "flush",
    "connect",
    "sleep",
];

/// A to-be-resolved lock class: either named directly, or "whatever
/// this guard-returning callee acquires".
#[derive(Debug, Clone)]
enum ClassRef {
    Direct(String),
    FromFn(usize),
}

/// One live guard during simulation.
struct Guard {
    name: Option<String>,
    classes: Vec<ClassRef>,
    depth: u32,
    temp: bool,
}

struct AcquireEvent {
    line: u32,
    new: Vec<ClassRef>,
    held_before: Vec<ClassRef>,
}

struct CallEvent {
    line: u32,
    callees: Vec<usize>,
    held: Vec<ClassRef>,
    guards: usize,
}

struct BlockEvent {
    line: u32,
    what: String,
    held: Vec<ClassRef>,
    guards: usize,
}

#[derive(Default)]
struct FnLockInfo {
    acquires: Vec<AcquireEvent>,
    calls: Vec<CallEvent>,
    blocks: Vec<BlockEvent>,
}

/// One `held → acquired` order edge with its first site.
struct OrderEdge {
    file: String,
    line: u32,
    via: String,
}

/// The `lock-order` rule: see module docs.
pub fn lock_order(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    let graph = CallGraph::build(ws);
    let env = LockEnv::build(ws);

    // Phase A: per-function guard simulation.
    let infos: Vec<FnLockInfo> = (0..graph.fns.len())
        .map(|id| simulate(ws, &graph, &env, id))
        .collect();

    // Phase B: transitive acquisition / blocking summaries.
    let mut acquires: Vec<BTreeSet<String>> = infos
        .iter()
        .map(|info| {
            info.acquires
                .iter()
                .flat_map(|e| &e.new)
                .filter_map(|c| match c {
                    ClassRef::Direct(s) => Some(s.clone()),
                    ClassRef::FromFn(_) => None,
                })
                .collect()
        })
        .collect();
    let mut blocks: Vec<Option<String>> = infos
        .iter()
        .enumerate()
        .map(|(id, info)| {
            info.blocks
                .first()
                .map(|b| format!("`{}` in `{}`", b.what, graph.fns[id].qname))
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..graph.fns.len() {
            // Fallback (name-only) edges are excluded throughout the lock
            // analysis: a phantom callee would manufacture deadlock
            // reports out of method-name collisions.
            for e in graph.edges[id].iter().filter(|e| !e.fallback) {
                let callee_acq: Vec<String> = acquires[e.callee].iter().cloned().collect();
                for c in callee_acq {
                    changed |= acquires[id].insert(c);
                }
                if blocks[id].is_none() {
                    if let Some(b) = blocks[e.callee].clone() {
                        blocks[id] = Some(b);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let resolve = |refs: &[ClassRef]| -> BTreeSet<String> {
        let mut set = BTreeSet::new();
        for c in refs {
            match c {
                ClassRef::Direct(s) => {
                    set.insert(s.clone());
                }
                ClassRef::FromFn(id) => set.extend(acquires[*id].iter().cloned()),
            }
        }
        set
    };

    // Phase C: order edges, blocking findings, cycles.
    let mut edges: BTreeMap<(String, String), OrderEdge> = BTreeMap::new();
    for (id, info) in infos.iter().enumerate() {
        let node = &graph.fns[id];
        let file = ws.files[node.file].ctx.rel_path.to_string();
        for e in &info.acquires {
            let held = resolve(&e.held_before);
            let new = resolve(&e.new);
            for h in &held {
                for a in &new {
                    edges
                        .entry((h.clone(), a.clone()))
                        .or_insert_with(|| OrderEdge {
                            file: file.clone(),
                            line: e.line,
                            via: node.qname.clone(),
                        });
                }
            }
        }
        for e in &info.calls {
            if e.held.is_empty() {
                continue;
            }
            let held = resolve(&e.held);
            for &callee in &e.callees {
                for a in &acquires[callee] {
                    for h in &held {
                        edges
                            .entry((h.clone(), a.clone()))
                            .or_insert_with(|| OrderEdge {
                                file: file.clone(),
                                line: e.line,
                                via: format!("{} via `{}`", node.qname, graph.fns[callee].qname),
                            });
                    }
                }
                if e.guards >= 2 {
                    if let Some(b) = &blocks[callee] {
                        out.push(Finding {
                            file: file.clone(),
                            line: e.line,
                            rule: "lock-order",
                            message: format!(
                                "call into `{}` can block ({}) while {} lock guards are held \
                                 ({}); a parked thread holding a second lock can deadlock its \
                                 peers",
                                graph.fns[callee].qname,
                                b,
                                e.guards,
                                join(&held),
                            ),
                        });
                    }
                }
            }
        }
        for b in &info.blocks {
            if b.guards >= 2 {
                let held = resolve(&b.held);
                out.push(Finding {
                    file: file.clone(),
                    line: b.line,
                    rule: "lock-order",
                    message: format!(
                        "`{}` blocks while {} lock guards are held ({}); blocking releases at \
                         most its own mutex, so the second guard deadlocks its peers",
                        b.what,
                        b.guards,
                        join(&held),
                    ),
                });
            }
        }
    }

    report_cycles(&edges, out);
}

fn join(set: &BTreeSet<String>) -> String {
    set.iter().cloned().collect::<Vec<_>>().join(", ")
}

/// Finds cycles in the class order graph and reports each once,
/// anchored at the first edge of its canonical rotation.
fn report_cycles(edges: &BTreeMap<(String, String), OrderEdge>, out: &mut Vec<Finding>) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (h, a) in edges.keys() {
        adj.entry(h.as_str()).or_default().push(a.as_str());
    }
    // DFS cycle collection from each node, smallest-first so the
    // canonical rotation is found first; dedupe by node set.
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let starts: Vec<&str> = adj.keys().copied().collect();
    for start in starts {
        let mut path = vec![start];
        let mut on_path: BTreeSet<&str> = BTreeSet::from([start]);
        dfs_cycles(
            start,
            start,
            &adj,
            &mut path,
            &mut on_path,
            &mut reported,
            out,
            edges,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs_cycles<'g>(
    start: &'g str,
    cur: &'g str,
    adj: &BTreeMap<&'g str, Vec<&'g str>>,
    path: &mut Vec<&'g str>,
    on_path: &mut BTreeSet<&'g str>,
    reported: &mut BTreeSet<Vec<String>>,
    out: &mut Vec<Finding>,
    edges: &BTreeMap<(String, String), OrderEdge>,
) {
    if path.len() > 8 {
        return; // bound the search; real cycles are short
    }
    for &next in adj.get(cur).map(Vec::as_slice).unwrap_or(&[]) {
        if next == start {
            // Canonical form: rotation starting at the smallest class.
            let mut cyc: Vec<String> = path.iter().map(|s| s.to_string()).collect();
            let min = cyc
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.as_str())
                .map(|(i, _)| i)
                .unwrap_or(0);
            cyc.rotate_left(min);
            if !reported.insert(cyc.clone()) {
                continue;
            }
            let mut desc = Vec::new();
            for k in 0..cyc.len() {
                let h = &cyc[k];
                let a = &cyc[(k + 1) % cyc.len()];
                if let Some(e) = edges.get(&(h.clone(), a.clone())) {
                    desc.push(format!("{h} -> {a} ({}:{})", e.file, e.line));
                }
            }
            let Some(first) = edges.get(&(cyc[0].clone(), cyc[1 % cyc.len()].clone())) else {
                continue;
            };
            out.push(Finding {
                file: first.file.clone(),
                line: first.line,
                rule: "lock-order",
                message: format!(
                    "lock acquisition order cycle: {} (first edge in `{}`) — two threads \
                     taking these locks in opposite orders deadlock",
                    desc.join(", "),
                    first.via
                ),
            });
        } else if !on_path.contains(next) && next > start {
            // Only explore nodes greater than `start` so each cycle is
            // discovered exactly once, from its smallest node.
            path.push(next);
            on_path.insert(next);
            dfs_cycles(start, next, adj, path, on_path, reported, out, edges);
            on_path.remove(next);
            path.pop();
        }
    }
}

/// Workspace type knowledge the guard simulation resolves receiver
/// chains against.
struct LockEnv {
    /// `(owner, field) → rw` for every lock field.
    lock_fields: BTreeMap<(String, String), bool>,
    /// `(owner, field) → declared type tokens` for every field.
    field_types: BTreeMap<(String, String), String>,
    /// All workspace type names.
    types: BTreeSet<String>,
}

impl LockEnv {
    fn build(ws: &Workspace<'_>) -> Self {
        let mut env = LockEnv {
            lock_fields: BTreeMap::new(),
            field_types: BTreeMap::new(),
            types: BTreeSet::new(),
        };
        for file in &ws.files {
            env.types.extend(file.parsed.types.iter().cloned());
            for f in &file.parsed.fields {
                if let Some(rw) = f.lock_kind() {
                    env.lock_fields
                        .insert((f.owner.clone(), f.name.clone()), rw);
                }
                env.field_types
                    .insert((f.owner.clone(), f.name.clone()), f.ty.clone());
            }
        }
        env
    }

    /// The workspace type a field hop lands on: the first type name in
    /// the field's declared type (`Arc < SharedState >` → `SharedState`).
    fn field_hop(&self, owner: &str, field: &str) -> Option<&str> {
        let ty = self
            .field_types
            .get(&(owner.to_string(), field.to_string()))?;
        ty.split(' ').find(|w| self.types.contains(*w))
    }

    /// The first workspace type a type string mentions.
    fn known_type_in<'t>(&self, ty: &'t str) -> Option<&'t str> {
        ty.split(' ').find(|w| self.types.contains(*w))
    }
}

/// Simulates guard scopes through one function body.
fn simulate(ws: &Workspace<'_>, graph: &CallGraph, env: &LockEnv, id: usize) -> FnLockInfo {
    let mut info = FnLockInfo::default();
    let node = &graph.fns[id];
    let file = &ws.files[node.file];
    let ctx = &file.ctx;
    let item = &file.parsed.fns[node.item];
    let Some((open, close)) = item.body else {
        return info;
    };
    if item.is_test {
        return info;
    }
    let mut children: Vec<(usize, usize)> = file
        .parsed
        .fns
        .iter()
        .filter_map(|f| f.body)
        .filter(|&(o, c)| o > open && c < close)
        .collect();
    children.sort_unstable();
    // Call sites resolved by the call graph, keyed by name-token index.
    // Fallback (name-only) edges are excluded — see `lock_order`.
    let call_map: BTreeMap<usize, Vec<usize>> = {
        let mut m: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for e in graph.edges[id].iter().filter(|e| !e.fallback) {
            m.entry(e.tok).or_default().push(e.callee);
        }
        m
    };

    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0u32;
    let mut child = 0usize;
    let held = |guards: &[Guard]| -> Vec<ClassRef> {
        guards.iter().flat_map(|g| g.classes.clone()).collect()
    };
    let mut i = open;
    let last = close.min(ctx.code_len().saturating_sub(1));
    while i <= last {
        while child < children.len() && children[child].0 < i {
            child += 1;
        }
        if child < children.len() && children[child].0 == i {
            i = children[child].1 + 1;
            continue;
        }
        match ctx.text(i) {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            ";" => guards.retain(|g| !(g.temp && g.depth == depth)),
            "drop" if ctx.text(i + 1) == "(" && ctx.text(i + 3) == ")" => {
                let name = ctx.text(i + 2);
                guards.retain(|g| g.name.as_deref() != Some(name));
            }
            "." if ctx.text(i + 2) == "("
                && (ctx.ident_is(i + 1, "lock")
                    || ctx.ident_is(i + 1, "read")
                    || ctx.ident_is(i + 1, "write")) =>
            {
                let verb = ctx.text(i + 1);
                let classes = classify_acquisition(ctx, item, env, i, verb)
                    .map(|c| vec![ClassRef::Direct(c)])
                    .or_else(|| {
                        // A guard-returning helper (`JobQueue::lock`):
                        // classes are whatever the callee acquires. Only
                        // when the receiver chain is *typed* (self, a
                        // field, a parameter) — an unresolvable local
                        // like `stdin.lock()` would otherwise pick up
                        // every workspace method of that name and turn a
                        // std guard into a phantom holder of every lock
                        // class.
                        if !typed_receiver(ctx, item, i) {
                            return None;
                        }
                        call_map
                            .get(&(i + 1))
                            .map(|callees| callees.iter().map(|&c| ClassRef::FromFn(c)).collect())
                    });
                if let Some(classes) = classes {
                    if !classes.is_empty() {
                        info.acquires.push(AcquireEvent {
                            line: ctx.line(i + 1),
                            new: classes.clone(),
                            held_before: held(&guards),
                        });
                        let binding = let_binding_for(ctx, open, i);
                        guards.push(Guard {
                            temp: binding.is_none(),
                            name: binding,
                            classes,
                            depth,
                        });
                    }
                }
            }
            "." | "::"
                if BLOCKING.iter().any(|b| ctx.ident_is(i + 1, b)) && ctx.text(i + 2) == "(" =>
            {
                info.blocks.push(BlockEvent {
                    line: ctx.line(i + 1),
                    what: format!(".{}()", ctx.text(i + 1)),
                    held: held(&guards),
                    guards: guards.len(),
                });
            }
            "." if ctx.ident_is(i + 1, "join")
                && ctx.text(i + 2) == "("
                && ctx.text(i + 3) == ")" =>
            {
                // Thread join only: `slice.join(", ")` takes an argument.
                info.blocks.push(BlockEvent {
                    line: ctx.line(i + 1),
                    what: ".join()".to_string(),
                    held: held(&guards),
                    guards: guards.len(),
                });
            }
            _ => {
                if let Some(callees) = call_map.get(&i) {
                    // Guard-returning sites were handled above; they are
                    // keyed at the method name, whose previous token is
                    // the dot the acquisition arm matched on.
                    let is_lock_verb = matches!(ctx.text(i), "lock" | "read" | "write")
                        && i > 0
                        && ctx.text(i - 1) == ".";
                    if !is_lock_verb {
                        info.calls.push(CallEvent {
                            line: ctx.line(i),
                            callees: callees.clone(),
                            held: held(&guards),
                            guards: guards.len(),
                        });
                    }
                }
            }
        }
        i += 1;
    }
    info
}

/// True when the receiver chain of `<chain> . verb (` at dot `i` is
/// rooted in something the analysis can type: `self` or a parameter of
/// the enclosing function.
fn typed_receiver(ctx: &crate::engine::FileCtx<'_>, item: &FnItem, i: usize) -> bool {
    let mut j = i;
    loop {
        if j == 0 || !ctx.is_ident(j - 1) {
            return false;
        }
        if j >= 2 && ctx.text(j - 2) == "." {
            j -= 2;
        } else {
            break;
        }
    }
    let root = ctx.text(j - 1);
    root == "self" || item.params.iter().any(|p| p.name == root)
}

/// Names the lock class of `<chain> . verb (` when the receiver chain
/// resolves to a known `Mutex`/`RwLock`; `i` indexes the dot. Chains of
/// any depth are walked through declared field types
/// (`self.shared.conn_stats.lock()` → `SharedState.conn_stats`).
fn classify_acquisition(
    ctx: &crate::engine::FileCtx<'_>,
    item: &FnItem,
    env: &LockEnv,
    i: usize,
    verb: &str,
) -> Option<String> {
    // Walk the `.`-separated receiver chain backwards.
    let mut chain: Vec<&str> = Vec::new();
    let mut j = i;
    loop {
        if j == 0 || !ctx.is_ident(j - 1) {
            return None; // `foo().lock()` etc — unresolvable chain root
        }
        chain.push(ctx.text(j - 1));
        if j >= 2 && ctx.text(j - 2) == "." {
            j -= 2;
        } else {
            break;
        }
    }
    chain.reverse();
    let verb_ok = |rw: bool| {
        if rw {
            verb == "read" || verb == "write"
        } else {
            verb == "lock"
        }
    };

    // Root: `self` types as the enclosing impl's owner, a parameter as
    // its declared type. A lone Mutex-typed parameter (`m.lock()`) is
    // classed by its inner type — there is no owning struct to name.
    let (root, rest) = chain.split_first()?;
    let root_ty: String = if *root == "self" {
        item.owner.clone()?
    } else {
        let param = item.params.iter().find(|q| q.name == *root)?;
        if rest.is_empty() {
            let inner = param.mutex_inner()?;
            let rw = param.ty.contains("RwLock");
            return verb_ok(rw).then(|| inner.to_string());
        }
        env.known_type_in(&param.ty)
            .or_else(|| param.type_head())?
            .to_string()
    };

    // Intermediate hops through declared field types; the last element
    // must be a lock field of wherever the walk lands.
    let (last, mids) = rest.split_last()?;
    let mut owner = root_ty;
    for mid in mids {
        owner = env.field_hop(&owner, mid)?.to_string();
    }
    let rw = env.lock_fields.get(&(owner.clone(), last.to_string()))?;
    verb_ok(*rw).then(|| format!("{owner}.{last}"))
}

/// If the statement containing token `i` begins `let [mut] name =`,
/// returns the bound name; the statement start is the nearest `;`,
/// `{` or `}` at or after `open`.
fn let_binding_for(ctx: &crate::engine::FileCtx<'_>, open: usize, i: usize) -> Option<String> {
    let mut j = i;
    while j > open {
        match ctx.text(j - 1) {
            ";" | "{" | "}" => break,
            _ => j -= 1,
        }
    }
    if ctx.text(j) != "let" {
        return None;
    }
    let name_at = if ctx.text(j + 1) == "mut" {
        j + 2
    } else {
        j + 1
    };
    ctx.is_ident(name_at).then(|| ctx.text(name_at).to_string())
}
