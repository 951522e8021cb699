#!/usr/bin/env bash
# Tier-1 verification gate, fully offline (the workspace has zero external
# dependencies, so --offline must always succeed).
#
#   scripts/verify.sh
#
# Runs: the `unsafe` allowlist (the files that may contain unsafe code are
# named here with their number of unsafe code lines, so neither the set nor
# a file's count can grow unnoticed), release build, the full test
# suite (unit + integration + doc), the differential suites against the
# `run_naive` oracle (`engine_diff`, `strip_diff`: explicitly, so a tape,
# strip, schedule or window regression names itself, then again with
# `--release`, the build benchmark/ measures, whose addresses carry no
# logical bounds and whose walkers keep no debug assertions), the schedule suites
# (`scc_props`, then ps-scheduler's own unit tests and `pick_policy`, then
# `figures`, `scheduler_props`, `window_props` and `cli`, whose goldens pin
# every builtin's schedule and strip report: likewise for a component-order,
# flowchart, window or strip-eligibility regression), the allocation
# budgets, the verifier suites and the `Affine` reference model
# (`compiled_alloc`, `analyzer_prop`, then ps-analyze's own unit tests,
# whose hand-built tapes are `Insn`s, the instruction set the runtime
# executes, then ps-lang's `affine_props`: likewise for an allocation,
# verifier, tape-IR or bound-algebra regression), the pool's own unit
# tests and the executor schedule-stress suite, debug and then `--release`,
# where the pool's races are tightest (likewise for a pool regression),
# the service suites (ps-support's unit tests, whose `cache` tests race
# two builds of one key and pin the LRU order of the one compile-once
# table, ps-service's unit tests, whose registry is that table, then
# `service_stress`: overlapping solves, bounded-queue shedding; then the
# cache tests again with `--release`), the TCP suite (`serve_tcp`:
# concurrent round trips checked against in-process runs, a traced server
# on a 2-thread solve pool that must publish regions and whose --trace-out
# export the ps-trace CLI validates and summarizes, the cross-connection
# shutdown drain), the seeded chaos suite (fault injection across service,
# executor, and TCP, with retrying clients), then both TCP suites again
# with `--release`, the ps-serve build benchmark/ drives, the
# one bench target (`micro`) in smoke mode and once in reduced full mode
# (the ps-trace disabled-site contract; its row names must be exactly the
# committed BENCH_micro.json's), the
# ps-analyze static verification of every builtin program, the repo
# benchmark's smoke pass (benchmark/ is not a workspace member, so nothing
# else builds it; it also checks every op against the native kernels at the
# real problem size) and its own tests, docs with warnings denied, and
# rustfmt.
#
# The differential/schedule/stress/TCP/chaos suites and both bench steps
# (`micro` drives the pool) run under a hang watchdog: a wedged drain or a
# deadlocked pool fails the gate with a kill instead of hanging CI.
set -euo pipefail
cd "$(dirname "$0")/.."

# Watchdog wrapper for suites that exercise blocking concurrency: SIGTERM
# after $1 seconds, SIGKILL 30 s later if the process ignored it.
bounded() {
    local secs="$1"
    shift
    timeout --kill-after=30 "$secs" "$@" \
        || { echo "watchdog: '$*' exceeded ${secs}s or failed" >&2; exit 1; }
}

echo "==> unsafe allowlist (code lines only: comments and attributes do not count)"
# Each allowed file with its number of unsafe code lines: a new file with
# unsafe fails the gate, and so does a new unsafe line in an allowed file.
unsafe_allowed="4 crates/executor/src/pool.rs
9 crates/runtime/src/ndarray.rs
6 crates/runtime/src/tape/exec.rs"
unsafe_found=$(grep -rnw unsafe crates/*/src --include=*.rs \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*(//|#!?\[)' | cut -d: -f1 | sort | uniq -c \
    | awk '{ print $1, $2 }')
[ "$unsafe_found" = "$unsafe_allowed" ] \
    || { printf 'unsafe code off the allowlist; unsafe code lines per file:\n%s\n' "$unsafe_found" >&2; exit 1; }

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
bounded 1800 cargo test -q --offline

echo "==> cargo test -q --offline --test engine_diff --test strip_diff (bit-identical to the oracle)"
bounded 600 cargo test -q --offline --test engine_diff --test strip_diff

# Release folds addresses without their logical `chk` dimensions and
# compiles out the walkers' debug assertions: what benchmark/ measures.
echo "==> cargo test -q --offline --release --test engine_diff --test strip_diff (the same, optimized)"
bounded 600 cargo test -q --offline --release --test engine_diff --test strip_diff

echo "==> schedule suites: ps-graph scc_props, ps-scheduler, then figures, scheduler_props, window_props, cli"
bounded 600 bash -c 'cargo test -q --offline -p ps-graph --test scc_props \
    && cargo test -q --offline -p ps-scheduler \
    && cargo test -q --offline --test figures --test scheduler_props --test window_props --test cli'

echo "==> allocation budgets + verifier + Affine model: compiled_alloc, analyzer_prop, ps-analyze, then ps-lang affine_props"
bounded 600 bash -c 'cargo test -q --offline --test compiled_alloc --test analyzer_prop \
    && cargo test -q --offline -p ps-analyze \
    && cargo test -q --offline -p ps-lang --test affine_props'

echo "==> executor: ps-executor unit tests, then executor_stress (exactly-once accounting), debug and --release"
bounded 600 bash -c 'cargo test -q --offline -p ps-executor \
    && cargo test -q --offline --test executor_stress \
    && cargo test -q --offline --release --test executor_stress'

echo "==> service: ps-support and ps-service unit tests, then service_stress (oracle-diffed concurrent solves), then the cache tests --release"
bounded 600 bash -c 'cargo test -q --offline -p ps-support \
    && cargo test -q --offline -p ps-service \
    && cargo test -q --offline --test service_stress \
    && cargo test -q --offline --release -p ps-support cache::'

echo "==> cargo test -q --offline --test serve_tcp (TCP round trips, traced export, shutdown drain)"
bounded 600 cargo test -q --offline --test serve_tcp

echo "==> cargo test -q --offline --test chaos (seeded fault injection)"
bounded 600 cargo test -q --offline --test chaos

# The release ps-serve is the binary benchmark/ drives.
echo "==> cargo test -q --offline --release --test serve_tcp --test chaos (the same, optimized)"
bounded 600 cargo test -q --offline --release --test serve_tcp --test chaos

echo "==> cargo test -q --offline --test proto_fuzz (wire-parser properties)"
bounded 300 cargo test -q --offline --test proto_fuzz

echo "==> cargo test -q --offline --benches (micro in smoke mode: every row once, assertions live)"
bounded 600 cargo test -q --offline --benches

echo "==> bench-JSON smoke (micro, reduced sampling; row names must equal BENCH_micro.json's)"
# Absolute path: cargo runs bench binaries with the package dir as cwd.
json_out="$PWD/target/bench_micro_smoke.json"
rm -f "$json_out"
PS_BENCH_WARMUP=1 PS_BENCH_SAMPLES=2 \
    bounded 600 cargo bench --offline --bench micro -- --bench-json "$json_out" >/dev/null
row_names() { grep -o '"name": "[^"]*"' "$1" | sort; }
[ "$(row_names "$json_out")" = "$(row_names BENCH_micro.json)" ] \
    || { echo "bench-json smoke: $json_out rows differ from the committed BENCH_micro.json" >&2; exit 1; }

echo "==> ps-analyze static verification of every builtin (zero diagnostics)"
analyze_out=$(./target/release/ps-analyze) \
    || { echo "ps-analyze rejected a builtin program" >&2; exit 1; }
echo "$analyze_out" | tail -n 1
echo "$analyze_out" | grep -q ' 0 errors$' \
    || { echo "ps-analyze reported diagnostics on builtin programs" >&2; exit 1; }

echo "==> bash benchmark/run.sh --smoke (builds benchmark/, every op checked)"
bounded 600 bash benchmark/run.sh --smoke >/dev/null

# The benchmark is frozen outside benchmark-type PRs and builds `Compilation`
# by struct literal: a change that breaks its view of `ps-core` fails here.
echo "==> benchmark: cargo test --release --offline (its own 29 tests)"
bounded 300 bash -c 'cd benchmark && cargo test --release --offline -q'

echo "==> cargo doc --offline --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: OK"
