#!/usr/bin/env bash
# The one command: build the repo's release binaries and the benchmark
# package, then run it. From the root of a checkout:
#
#   bash benchmark/run.sh                      every workload, end to end
#   bash benchmark/run.sh --trace              the traced pass over all workloads (per-layer rows)
#   bash benchmark/run.sh --smoke              every code path in under 20 s
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                              one run; the last line is the JSON result
#
# Everything it writes stays inside the checkout: the cargo target
# directory (CARGO_TARGET_DIR, default target/) and benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Quiet builds, so that a run's output is the benchmark's own; on failure
# cargo's diagnostics still reach stderr and the script stops here.
cargo build --release --offline --quiet
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

target="${CARGO_TARGET_DIR:-}"
export PS_BENCH_SERVE="${target:-target}/release/ps-serve"
export PS_BENCH_OUT="benchmark/out"
export PS_BENCH_RUSTC="$(rustc --version)"
export PS_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "${target:-benchmark/target}/release/ps-benchmark" "$@"
