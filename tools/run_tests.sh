#!/usr/bin/env bash
# Tier-1 gate: configure + build + ctest in one command. By default the
# statistical acceptance suite (ctest label "slow": chi-square inclusion-
# probability and CLT error-bound tests over repeated seeded draws) is
# excluded so the default lap stays fast; pass --slow to run everything —
# do that before merging changes to src/util/rng.*, src/sample/*, or
# anything feeding sampler allocations (statistics collection, Lemma 1).
#
# --faults adds a fail-point leg: the whole suite re-runs with every
# production injection site armed at policy `off` (substrate active, hit
# counting engaged in the hot paths, nothing injected) — proving the
# instrumented paths behave identically with the substrate live — and the
# dedicated fault-injection suites re-run on top, once per production site
# armed in the environment, exercising env-spec loading alongside their own
# SetForTesting injections.
#
# Usage: tools/run_tests.sh [--slow] [--faults] [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

SLOW=0
FAULTS=0
BUILD_DIR=build
for arg in "$@"; do
  case "$arg" in
    --slow) SLOW=1 ;;
    --faults) FAULTS=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

# Every CVOPT_FAILPOINT site compiled into the library, read from the
# source so a new site cannot be left out of the sweep.
mapfile -t FAULT_SITES < <(grep -rhoE 'CVOPT_FAILPOINT(_STATUS)?\("[^"]+' src |
  cut -d'"' -f2 | sort -u)
if [[ "${#FAULT_SITES[@]}" == "0" ]]; then
  echo "no CVOPT_FAILPOINT sites found under src/" >&2
  exit 1
fi

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"
(
  cd "$BUILD_DIR"
  if [[ "$SLOW" == "1" ]]; then
    ctest --output-on-failure -j"$(nproc)"
  else
    ctest --output-on-failure -j"$(nproc)" -LE slow
  fi
)

if [[ "$FAULTS" == "1" ]]; then
  (
    cd "$BUILD_DIR"
    all_off=$(printf '%s:off,' "${FAULT_SITES[@]}")
    echo "--- fault leg: all sites armed :off (counting, no injection) ---"
    CVOPT_FAILPOINTS="${all_off%,}" \
      ctest --output-on-failure -j"$(nproc)" -LE slow
    for site in "${FAULT_SITES[@]}"; do
      echo "--- fault leg: injection suites with $site armed in env ---"
      CVOPT_FAILPOINTS="$site:off" \
        ctest --output-on-failure -j"$(nproc)" \
          -R 'failpoint_test|governance_exec_test|query_context_test|csv_loader_test'
    done
  )
fi

if [[ "$SLOW" == "1" ]]; then
  echo "tier-1 green (slow suite included)"
else
  echo "tier-1 green (slow suite skipped; rerun with --slow)"
fi
if [[ "$FAULTS" == "1" ]]; then
  echo "fault-point sweep green (${#FAULT_SITES[@]} sites)"
fi
