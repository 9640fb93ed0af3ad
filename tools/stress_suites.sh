#!/usr/bin/env bash
# Oversubscribed repeat runs of test binaries: each suite RUNS times, the
# suites interleaved, with JOBS test processes alive at once until the
# queue drains. Stops launching at the first failing run and prints its
# output. (ctest --repeat until-fail repeats one suite back to back, so it
# never has more processes alive than there are suites.)
#
#   tools/stress_suites.sh BUILD_DIR RUNS JOBS SUITE...
#   tools/stress_suites.sh build 1000 "$(( 2 * $(nproc) ))" twopl_test net_service_test
set -euo pipefail

if [ "$#" -lt 4 ]; then
  echo "usage: $0 BUILD_DIR RUNS JOBS SUITE..." >&2
  exit 2
fi
build=$(cd "$1" && pwd)
runs=$2
jobs=$3
shift 3
for suite in "$@"; do
  if [ ! -x "$build/$suite" ]; then
    echo "no test binary $build/$suite" >&2
    exit 2
  fi
done

# One line per run, round-robin over the suites, so every stretch of the
# queue mixes all of them. xargs stops reading the queue when a run exits
# 255, which the wrapper does on any failure.
start=$SECONDS
for ((i = 0; i < runs; ++i)); do
  printf '%s\n' "$@"
done | STRESS_BUILD=$build xargs -P "$jobs" -n 1 sh -c '
  log=$(mktemp)
  if "$STRESS_BUILD/$1" > "$log" 2>&1; then
    rm -f "$log"
    exit 0
  fi
  echo "FAILED: $1" >&2
  cat "$log" >&2
  rm -f "$log"
  exit 255
' stress
echo "stress: $(( runs * $# )) runs of $# suites passed, $jobs at once, in $(( SECONDS - start )) s"
