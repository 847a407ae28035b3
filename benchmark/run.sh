#!/usr/bin/env bash
# Build the benchmark package and run it. Everything after the build is
# the binary's doing; see README.md in this directory.
#
#   benchmark/run.sh                          every workload, each in its own process
#   benchmark/run.sh --traced                 the same, per-layer metrics and span files
#   benchmark/run.sh --workload kv-put        one workload; last line is the driver's JSON
#   benchmark/run.sh --self-check             two untraced sets, compared with the bounds
#   benchmark/run.sh compare a.json b.json    parent's set against a change's
#
# Options: --seed N, --seconds S (1..60), --trace 0|1, --out FILE.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# The driver names its own build directory; on a developer's checkout
# the build goes beside the root workspace's, under the ignored target/.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark-build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/stm-benchmark" "$@"
