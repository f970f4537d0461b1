#!/usr/bin/env bash
# Builds the fleet binaries (snc-server, snc-router) and the benchmark
# binary (ladderbench) from this checkout, then runs it with the given
# arguments, e.g.
#
#   bash ladderbench/run.sh --workload warm-hit --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: .bench_build at the
# checkout root); ladderbench finds the fleet binaries beside itself.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p snc-server -p snc-router --bins >&2
cargo build --release --offline --quiet --manifest-path ladderbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ladderbench" "$@"
