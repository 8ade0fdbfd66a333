#!/usr/bin/env bash
# Builds the release `dpcq` server and the benchmark from this checkout,
# then runs one benchmark invocation (arguments are passed through):
#
#   bash servebench/run.sh --workload fresh_analysts --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); working files to .bench_work/.
set -euo pipefail
root="$(pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline -q --manifest-path "$root/Cargo.toml" -p dpcq-server --bin dpcq >&2
cargo build --release --offline -q --manifest-path "$root/servebench/Cargo.toml" >&2
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$root/$CARGO_TARGET_DIR" ;;
esac
exec "$target/release/servebench" --server-bin "$target/release/dpcq" --root "$root" "$@"
