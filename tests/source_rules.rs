//! Rules over the workspace's own sources that no compiler lint states.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `(path under the root, the lines before its first #[cfg(test)])` for
/// every `.rs` file under `crates/*/src`.
fn library_sources() -> Vec<(String, Vec<String>)> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(workspace_root().join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("src"))
        .collect();
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let text = fs::read_to_string(&path).unwrap();
                let lines = text.lines().take_while(|l| l.trim() != "#[cfg(test)]");
                let rel = path.strip_prefix(workspace_root()).unwrap();
                out.push((rel.display().to_string(), lines.map(String::from).collect()));
            }
        }
    }
    out
}

/// The files that may charge I/O to a `Cost`: the page layer, the
/// executor and planner, the WAL's recovery scan, the Fabric's own block
/// store and the router's sum of already-charged shard counters.
const COST_WRITERS: &[&str] = &[
    "crates/storage/",
    "crates/query/src/exec.rs",
    "crates/query/src/plan.rs",
    "crates/core/src/wal.rs",
    "crates/fabric/src/trie.rs",
    "crates/shard/src/router.rs",
];

#[test]
fn only_the_page_layer_and_the_executor_charge_io_cost() {
    let mut found = Vec::new();
    for (file, lines) in library_sources() {
        if COST_WRITERS.iter().any(|w| file.starts_with(w)) {
            continue;
        }
        for (n, line) in lines.iter().enumerate() {
            for field in [".pages_read", ".extent_pairs", ".table_probes"] {
                for (at, _) in line.match_indices(field) {
                    // `=`, `+=` or `-=`, but not `==`.
                    let rest = line[at + field.len()..].trim_start();
                    let op = rest.strip_prefix(['+', '-']).unwrap_or(rest);
                    if op.starts_with('=')
                        && !op.starts_with("==")
                        && !line.trim().starts_with("//")
                    {
                        found.push(format!("{file}:{}: {}", n + 1, line.trim()));
                    }
                }
            }
        }
    }
    assert!(
        found.is_empty(),
        "I/O cost charged outside the page layer:\n{found:#?}"
    );
}

#[test]
fn every_crate_takes_the_workspace_lints() {
    let mut checked = 0;
    for entry in fs::read_dir(workspace_root().join("crates")).expect("crates dir") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        let Ok(toml) = fs::read_to_string(&manifest) else {
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
