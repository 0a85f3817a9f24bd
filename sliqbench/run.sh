#!/usr/bin/env bash
# Builds the shipped `sliq-serve` binary and the `sliqbench` program from
# source, then runs `sliqbench` with the arguments given:
#
#   bash sliqbench/run.sh --workload batch_paper|serve_cold|serve_hot \
#        --seed N --seconds S --trace 0|1
#
# Run it from the repository root.  Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
  -p sliq-serve --bin sliq-serve 1>&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/sliqbench" --serve-bin "$target/release/sliq-serve" "$@"
