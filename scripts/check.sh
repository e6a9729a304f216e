#!/usr/bin/env bash
# Repo health check: formatting, lints, and the full test suite.
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

echo "== serving-ledger audit invariants =="
cargo test -q --test audit_invariants
cargo test -q -p dprep-core --lib exec::tests::audit_tracer_passes_on_a_faulty_retried_cached_run

echo "== durable runs: journal resume tests + chaos drills =="
cargo test -q --test durable_resume
# One-scenario sweep still runs the route-outage drill (primary route
# hard-down: the router's plan-order breaker shorts its legs unbilled,
# every request served by the secondary, per-route billing reconciled,
# bit-identical at workers 1/2/4) and the full kill-point drill (kill after
# every Nth terminal event, resume, assert bit-identity and exactly-once
# billing), as one shard and in shards of 2 batches.
cargo run --release -q -p dprep-cli --bin dprep -- chaos --scenario partial-batch > /dev/null

echo "== serving e2e suite =="
# The shipped job handler behind a live daemon over TCP: concurrent
# tenants bit-identical to their one-shot runs and billing exactly their
# one-shot tokens, budget-trip isolation, ledger rows and per-tenant
# prometheus series matching the replies, kill+resume with exactly-once
# billing through per-job journals, mismatched journals refused intact,
# and rejected submits (absurd scales and retry budgets, malformed
# cascades) leaving the daemon serving; clean shutdown after each.
cargo test -q --test serve_e2e

echo "== overload protection: storm drill + hostile-wire suite =="
# 16-submit storm at 4x capacity against a live daemon: admitted jobs
# bit-identical with bounded p95, the rest shed with retry_after hints
# billing exactly zero (audit invariant 10 + ledger reconciliation), a
# 1s deadline trips into deterministic partials, and a mid-storm drain
# checkpoints in-flight jobs that then resume bit-identically at
# workers 1/2/4 with exactly-once billing. The wire suite replays an
# oversized frame, binary garbage, a torn frame, a slow loris, and a
# silent client — each costs only its own connection.
cargo run --release -q -p dprep-cli --bin dprep -- chaos --overload on > /dev/null
cargo test -q --test wire_hardening

echo "== live ops plane tests =="
# One breach-inducing workload (latency spikes against a tight latency-p95
# objective) through the shipped job handler at 1/2/4 workers and a
# repeat: the alert timelines and windowed snapshots must be
# byte-identical and must actually reach paging. Also the daemon's health
# op over TCP, the paging postmortem, and transitions through JSONL.
cargo test -q --test ops_plane

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
