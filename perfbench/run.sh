#!/usr/bin/env bash
# Build the `iosched` binary (repository release profile) and the
# benchmark program from source, then run the benchmark with the given
# arguments:
#
#   bash perfbench/run.sh --workload fig6_closed --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build logs go to stderr, the report to stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --locked --manifest-path Cargo.toml -p iosched-cli --bin iosched >&2
cargo build --release --quiet --locked --manifest-path perfbench/Cargo.toml >&2
"$CARGO_TARGET_DIR/release/iosched-perfbench" --iosched "$CARGO_TARGET_DIR/release/iosched" "$@"
