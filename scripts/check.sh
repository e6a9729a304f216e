#!/usr/bin/env bash
# Repo health check: formatting, lints, rustdoc, the workspace test suite
# (which holds every robustness drill) and the three bench binaries.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings: broken intra-doc links fail) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test =="
cargo test --workspace -q

echo "== bench_e2e builds and passes its tests against the library crates =="
# The benchmark is a package of its own that uses the daemon and executor
# APIs; --locked fails on any dependency its committed Cargo.lock lacks.
# Its build shares the workspace's target directory, as run.sh does.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
  cargo test -q --locked --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml

echo "== streaming-planner scaling smoke (10k rows, stream vs materialized) =="
# Runs both plan modes at 10k rows, asserts their predictions agree via
# checksum, and gates both runs' peak RSS and throughput: the
# materialized run is the one-shard plan every CLI run uses by default.
# The ceilings are generous (the 10k runs peak around 9-13 MB and 60k+
# rows/sec on a dev container) so only a regression in kind — a plan
# holding every rendered request again, or an order-of-magnitude
# slowdown — trips them.
cargo run --release -q -p dprep-bench --bin bench_scale -- \
  --rows 10000 --shard-size 64 --mode both \
  --max-rss-mb 64 --min-rows-per-sec 2000 --out BENCH_scale.json

echo "== bench-regression gate (pinned Table 3 sweep vs BENCH_baseline.json) =="
# Fails on any billed-token or F1 change or a >20% virtual-latency
# regression, and prints the sweep's per-component cost table.
cargo run --release -q -p dprep-bench --bin bench_report -- \
  --out BENCH_report.json --check BENCH_baseline.json

echo "== router gate (cascade cost/F1 frontier vs BENCH_router_baseline.json) =="
# Table 3 sweep x {sim-gpt-3.5, sim-gpt-4, cascade} at pinned scale/seed
# (~10k billed instances): per-arm billed tokens, escalation-leg counts and
# F1 must match the checked-in baseline exactly; total virtual latency gets
# the same 20% tolerance as bench_report.
cargo run --release -q -p dprep-bench --bin bench_router -- \
  --out BENCH_router.json --check BENCH_router_baseline.json

echo "All checks passed."
