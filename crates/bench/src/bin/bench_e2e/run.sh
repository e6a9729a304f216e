#!/usr/bin/env bash
# Builds the release `dprep` binary and the benchmark from source, then runs
# the benchmark with the given arguments, e.g.
#   bash crates/bench/src/bin/bench_e2e/run.sh --workload detect-bulk --seed 1 --seconds 20 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the repo root).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../../../../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p dprep-cli --bin dprep
cargo build --release --quiet --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml
"$CARGO_TARGET_DIR/release/bench_e2e" "$@"
