#!/usr/bin/env bash
# The one command of BENCHMARK.json: build the benchmark package from
# source (a no-op when it is built), then run one workload.
#   bash perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Honors CARGO_TARGET_DIR.
set -euo pipefail
target="${CARGO_TARGET_DIR:-perf/target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml --target-dir "$target" >&2
exec "$target/release/apex-perf" "$@"
