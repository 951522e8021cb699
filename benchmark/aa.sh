#!/usr/bin/env bash
# A/A check: two sets of N full passes of the same checkout, alternating
# sets, one seed per pass. Prints per workload × end-to-end metric both
# sets' medians and quartiles, their spreads, the relative difference and
# the bound, and writes the table to benchmark/out/AA.md. Exits non-zero if,
# on a gated workload, the medians differ by more than half the bound or a
# set's spread exceeds the bound (setup_s: medians only, as the driver).
#
#   bash benchmark/aa.sh [--passes N] [--seed S] [--seconds T]   (N >= 5; default 10)
set -euo pipefail
exec "$(dirname "$0")/run.sh" aa "$@"
