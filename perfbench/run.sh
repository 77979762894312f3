#!/usr/bin/env bash
# Builds the benchmark and the scanguard daemon from this checkout's
# sources, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); the last stdout line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    -p perfbench -p scanguard-serve >&2
exec "$target/release/perfbench" --scanguard "$target/release/scanguard" "$@"
