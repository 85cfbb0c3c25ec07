#!/usr/bin/env bash
# Build both benchmark binaries from source, then run `benchmark` with the
# given arguments. Run from the repository root, e.g.
#   bash benchmark/run.sh --workload paper-49d --seed 7 --seconds 20 --trace 0
# Honours CARGO_TARGET_DIR; the default is benchmark/target.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
exec "${CARGO_TARGET_DIR:-$here/target}/release/benchmark" "$@"
