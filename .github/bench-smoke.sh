#!/usr/bin/env bash
# Bench smoke: bench/run.py --seed 0 --seconds 1 on each WORKLOAD at each
# trace level in TRACES, from the repository root.
#
#   usage: .github/bench-smoke.sh "TRACES" WORKLOAD...
#   e.g.   .github/bench-smoke.sh "0 1" classify-blobs predict-qek
#
# bench/run.py exits 0 even when its output checks fail, so the verdict is
# read from the JSON object on the report's last line. A "reference: DRIFT"
# line fails the smoke too: a changed winner, call total or failed-trial set
# against bench/reference.json. The traced run (trace 1) rebinds the
# package's public functions by name, so a renamed or re-imported function
# shows up there and nowhere else.
set -eu

traces=$1
shift
for workload in "$@"; do
  for trace in $traces; do
    report=$(python3 bench/run.py --workload "$workload" --seed 0 --seconds 1 --trace "$trace")
    if ! printf '%s\n' "$report" | tail -n 1 | grep -q '"correct": true'; then
      printf '%s\n' "$report"
      echo "bench smoke: $workload (trace $trace) is not correct" >&2
      exit 1
    fi
    if printf '%s\n' "$report" | grep -q '^reference: DRIFT'; then
      printf '%s\n' "$report"
      echo "bench smoke: $workload (trace $trace) drifted from the recorded outcome" >&2
      exit 1
    fi
  done
done
