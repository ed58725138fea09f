#!/usr/bin/env bash
# The repo benchmark: builds benchmark/ (--release --offline) and runs it.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--traced | --trace 0|1]
#   benchmark/run.sh --selfcheck [--runs N] [--seconds S]
#
# Without --workload every workload runs, one process each (peak RSS is
# per process). Each run prints `workload metric value unit n_samples`
# lines and ends with one JSON object; the exit code is non-zero when an
# answer was wrong or a metric could not be measured. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# A relative CARGO_TARGET_DIR means relative to where we were called.
if [[ -n "${CARGO_TARGET_DIR:-}" && "$CARGO_TARGET_DIR" != /* ]]; then
  export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR"
fi
cd "$root"

if [[ "${1:-}" == "--selfcheck" ]]; then
  shift
  exec python3 "$here/selfcheck.py" "$@"
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/smdb-benchmark"

SMDB_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export SMDB_BENCH_COMMIT
echo "# nproc=$(nproc) commit=$SMDB_BENCH_COMMIT" >&2

workload=""
args=()
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

if [[ -n "$workload" ]]; then
  exec "$bin" --workload "$workload" --out "$here/out" ${args[@]+"${args[@]}"}
fi
for workload in events_mix scan_agg tenants_zipf shift_durable; do
  "$bin" --workload "$workload" --out "$here/out" ${args[@]+"${args[@]}"}
done
