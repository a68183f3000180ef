//! Golden tests: each rule fires on a violating fixture, stays silent on
//! a clean one, and respects the allow-list paths and suppression
//! comments. Fixtures live under `tests/fixtures/` and are linted under
//! synthetic workspace paths so the path-based allow-lists are exercised
//! without touching the real tree.

use apex_lint::{lint_str, Finding};

const COST_IO_BAD: &str = include_str!("fixtures/cost_io_bad.rs");
const COST_IO_CLEAN: &str = include_str!("fixtures/cost_io_clean.rs");
const POOL_BAD: &str = include_str!("fixtures/pool_bad.rs");
const POOL_CLEAN: &str = include_str!("fixtures/pool_clean.rs");
const SUPPRESSED: &str = include_str!("fixtures/suppressed.rs");
const SUPPRESSION_PROBLEMS: &str = include_str!("fixtures/suppression_problems.rs");
const PANIC_REACH_ROOT: &str = include_str!("fixtures/panic_reach_root.rs");
const PANIC_REACH_BAD: &str = include_str!("fixtures/panic_reach_bad.rs");
const PANIC_REACH_SUPPRESSED: &str = include_str!("fixtures/panic_reach_suppressed.rs");
const PANIC_REACH_CLEAN: &str = include_str!("fixtures/panic_reach_clean.rs");
const LOCK_ORDER_BAD: &str = include_str!("fixtures/lock_order_bad.rs");
const LOCK_ORDER_SUPPRESSED: &str = include_str!("fixtures/lock_order_suppressed.rs");
const LOCK_ORDER_CLEAN: &str = include_str!("fixtures/lock_order_clean.rs");
const HOT_PATH_BAD: &str = include_str!("fixtures/hot_path_bad.rs");
const HOT_PATH_SUPPRESSED: &str = include_str!("fixtures/hot_path_suppressed.rs");
const HOT_PATH_CLEAN: &str = include_str!("fixtures/hot_path_clean.rs");
const HOT_PATH_SUCCINCT: &str = include_str!("fixtures/hot_path_succinct.rs");

/// Lints a multi-file synthetic workspace.
fn lint_files(files: &[(&str, &str)]) -> Vec<Finding> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|&(p, s)| (p.to_string(), s.to_string()))
        .collect();
    apex_lint::engine::lint(&apex_lint::Workspace::from_sources(&sources))
}

/// `(rule, line)` pairs, in report order.
fn hits(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

/// Assert the fixture produces no findings when linted at `rel_path`.
fn assert_clean(rel_path: &str, src: &str) {
    let findings = lint_str(rel_path, src);
    assert!(
        findings.is_empty(),
        "unexpected findings at {rel_path}: {:?}",
        hits(&findings)
    );
}

// --- rule 1: cost-io-writes -------------------------------------------------

#[test]
fn cost_io_writes_fires_outside_storage_and_exec() {
    let findings = lint_str("crates/query/src/apex_qp.rs", COST_IO_BAD);
    assert_eq!(
        hits(&findings),
        [
            ("cost-io-writes", 5),
            ("cost-io-writes", 6),
            ("cost-io-writes", 7),
        ]
    );
}

#[test]
fn cost_io_writes_allows_storage_and_the_executor() {
    assert_clean("crates/storage/src/cost.rs", COST_IO_BAD);
    assert_clean("crates/query/src/exec.rs", COST_IO_BAD);
    // The cost-based planner charges I/O through attributed closures
    // (reverse semijoins fault blocks), so it is an allowed writer too.
    assert_clean("crates/query/src/plan.rs", COST_IO_BAD);
    // Recovery's WAL segment scan reports the log pages it faults
    // through the same counters, so core::wal is an allowed writer.
    assert_clean("crates/core/src/wal.rs", COST_IO_BAD);
}

#[test]
fn cost_io_reads_and_compute_counters_are_clean() {
    assert_clean("crates/query/src/apex_qp.rs", COST_IO_CLEAN);
}

// --- rule 2: pool-discipline ------------------------------------------------

#[test]
fn pool_discipline_fires_outside_storage_and_batch() {
    let findings = lint_str("crates/query/src/plan.rs", POOL_BAD);
    assert_eq!(
        hits(&findings),
        [
            ("pool-discipline", 4),
            ("pool-discipline", 5),
            ("pool-discipline", 6),
            ("pool-discipline", 7),
        ]
    );
}

#[test]
fn pool_discipline_allows_storage_only() {
    assert_clean("crates/storage/src/pool.rs", POOL_BAD);
    let findings = lint_str("crates/query/src/batch.rs", POOL_BAD);
    assert_eq!(
        findings.len(),
        4,
        "batch has no pool exemption: {:?}",
        hits(&findings)
    );
}

#[test]
fn pool_discipline_ignores_handle_use() {
    assert_clean("crates/query/src/plan.rs", POOL_CLEAN);
}

// --- rule 3: panic-reachability ---------------------------------------------

#[test]
fn panic_reachability_flags_reachable_panics_only() {
    let findings = lint_files(&[
        ("crates/net/src/server.rs", PANIC_REACH_ROOT),
        ("crates/net/src/handler.rs", PANIC_REACH_BAD),
    ]);
    // `decode` (fn at line 3) is reached from the root and flagged at
    // its definition line; `orphan` has the same panic site but no
    // caller, so reachability stays silent about it.
    let got: Vec<(&str, &str, u32)> = findings
        .iter()
        .map(|f| (f.file.as_str(), f.rule, f.line))
        .collect();
    assert_eq!(
        got,
        [("crates/net/src/handler.rs", "panic-reachability", 3)]
    );
    assert!(
        findings[0]
            .message
            .contains("net::server::serve -> net::handler::decode"),
        "finding should carry the call chain: {}",
        findings[0].message
    );
}

#[test]
fn panic_reachability_fn_level_suppression_covers_all_sites() {
    let findings = lint_files(&[
        ("crates/net/src/server.rs", PANIC_REACH_ROOT),
        ("crates/net/src/handler.rs", PANIC_REACH_SUPPRESSED),
    ]);
    assert!(findings.is_empty(), "unexpected: {:?}", hits(&findings));
}

#[test]
fn panic_reachability_accepts_total_code() {
    let findings = lint_files(&[
        ("crates/net/src/server.rs", PANIC_REACH_ROOT),
        ("crates/net/src/handler.rs", PANIC_REACH_CLEAN),
    ]);
    assert!(findings.is_empty(), "unexpected: {:?}", hits(&findings));
}

// --- rule 4: lock-order -----------------------------------------------------

#[test]
fn lock_order_reports_cycles_and_blocking_under_two_guards() {
    let findings = lint_str("crates/core/src/sync.rs", LOCK_ORDER_BAD);
    // Line 13: the a→b edge that closes the cycle with backward's b→a.
    // Line 26: sleep while both guards are held.
    assert_eq!(hits(&findings), [("lock-order", 13), ("lock-order", 26)]);
    assert!(findings[0].message.contains("cycle"));
    assert!(findings[1].message.contains("blocks while 2 lock guards"));
}

#[test]
fn lock_order_suppression_at_the_cycle_anchor() {
    assert_clean("crates/core/src/sync.rs", LOCK_ORDER_SUPPRESSED);
}

#[test]
fn lock_order_accepts_consistent_order_and_single_guard_blocking() {
    assert_clean("crates/core/src/sync.rs", LOCK_ORDER_CLEAN);
}

// --- rule 5: hot-path-alloc -------------------------------------------------

#[test]
fn hot_path_alloc_fires_in_kernels_outside_scratch_ctors() {
    let findings = lint_str("crates/storage/src/kernels.rs", HOT_PATH_BAD);
    // to_vec, a fresh Vec::new, and a push into it; the Scratch ctor's
    // Vec::new, the scratch-rooted push and the &mut-param extend pass.
    assert_eq!(
        hits(&findings),
        [
            ("hot-path-alloc", 14),
            ("hot-path-alloc", 15),
            ("hot-path-alloc", 16),
        ]
    );
}

#[test]
fn hot_path_alloc_scopes_to_semijoin_owners_in_exec() {
    // The same fixture linted as exec.rs is clean: its free fns are not
    // semijoin/join operators, and exec's plumbing is out of scope.
    assert_clean("crates/query/src/exec.rs", HOT_PATH_BAD);
    // And entirely out of scope elsewhere in the storage crate.
    assert_clean("crates/storage/src/cost.rs", HOT_PATH_BAD);
}

#[test]
fn hot_path_alloc_covers_succinct_query_surface() {
    // Linted as succinct.rs, the non-builder fn `merge` fires exactly
    // like it does in kernels.rs.
    let findings = lint_str("crates/storage/src/succinct.rs", HOT_PATH_BAD);
    assert_eq!(
        hits(&findings),
        [
            ("hot-path-alloc", 14),
            ("hot-path-alloc", 15),
            ("hot-path-alloc", 16),
        ]
    );
    // Builders (pack/from_sorted/to_vec/new) keep their allocations;
    // the query-time `probe` clone is the only finding, and the window
    // fill writing through a &mut param stays clean.
    let findings = lint_str("crates/storage/src/succinct.rs", HOT_PATH_SUCCINCT);
    assert_eq!(hits(&findings), [("hot-path-alloc", 26)]);
    // The builder exemption is succinct-only: the same shape linted as
    // kernels.rs fires inside the builders too.
    let findings = lint_str("crates/storage/src/kernels.rs", HOT_PATH_SUCCINCT);
    assert!(findings.len() > 1, "builders must fire outside succinct.rs");
}

#[test]
fn hot_path_alloc_suppression_and_clean_shape() {
    assert_clean("crates/storage/src/kernels.rs", HOT_PATH_SUPPRESSED);
    assert_clean("crates/storage/src/kernels.rs", HOT_PATH_CLEAN);
}

// --- suppression behavior ---------------------------------------------------

#[test]
fn justified_suppressions_silence_findings() {
    // Trailing same-line and standalone line-above forms both work.
    assert_clean("crates/query/src/apex_qp.rs", SUPPRESSED);
}

#[test]
fn suppression_hygiene_is_itself_linted() {
    let findings = lint_str("crates/query/src/apex_qp.rs", SUPPRESSION_PROBLEMS);
    assert_eq!(
        hits(&findings),
        [
            // Justification-free allow: the original finding is silenced
            // but the suppression itself is an error.
            ("bad-suppression", 4),
            // Suppression that never fires is dead weight: an error, so
            // the allow-comment inventory can never rot silently.
            ("stale-allow", 6),
            // Unknown rule name.
            ("bad-suppression", 7),
        ]
    );
    // The suppressed cost write on line 4 must not reappear.
    assert!(findings.iter().all(|f| f.rule != "cost-io-writes"));
    // The generic rules are `[workspace.lints]`, not catalog rules: an
    // allow naming one of them is an unknown rule, not a silent no-op.
    for rule in ["forbid-unsafe", "no-panic", "no-print", "no-exit"] {
        let src = format!("// apex-lint: allow({rule}): now a clippy lint\nfn f() {{}}\n");
        let findings = lint_str("crates/core/src/lib.rs", &src);
        assert_eq!(hits(&findings), [("bad-suppression", 1)], "{rule}");
    }
}

// --- the real workspace stays clean ----------------------------------------

/// The workspace root, two levels above this crate.
fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn every_crate_takes_the_workspace_lints() {
    let mut checked = 0;
    for entry in std::fs::read_dir(workspace_root().join("crates")).expect("crates dir") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        let Ok(toml) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        // `workspace = true` inside the `[lints]` table, before the next header.
        let opted_in = toml.split("\n[").any(|table| {
            let mut lines = table.lines().map(str::trim);
            lines.next() == Some("lints]") && lines.any(|l| l == "workspace = true")
        });
        assert!(
            opted_in,
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
        checked += 1;
    }
    assert!(checked > 10, "only {checked} crate manifests found");
}

#[test]
fn workspace_is_lint_clean() {
    let findings = apex_lint::lint_workspace(&workspace_root()).expect("workspace walk");
    let rendered = apex_lint::render_text(&findings);
    assert!(findings.is_empty(), "workspace has findings:\n{rendered}");
}
