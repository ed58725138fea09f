#!/usr/bin/env bash
# CI gate: formatting, release build, full test suite, static analysis,
# benchmarks and the bench-regression gate. Any failing step aborts with
# a non-zero exit code. Every run writes CI_SUMMARY.json with per-step
# timings and pass/fail, even when a step fails.
#
#   ./ci.sh               # full gate (build, tests, benchmark/ package
#                         # build + tests + a 3 s shift_durable smoke run,
#                         # lint, bench + gate)
#   ./ci.sh quick         # release build + tuning experiments + soak
#                         # + concurrency audit -> target/ci/BENCH_*.json
#                         # and AUDIT_concurrency.json, gated vs committed
#   ./ci.sh soak          # online serving soak only -> BENCH_runtime.json
#   ./ci.sh soak-mt       # sharded multi-tenant soak only
#                         # -> BENCH_multitenant.json + TRAIL_mt.json
#   ./ci.sh recover       # kill-and-recover soak against a hermetic
#                         # target/ci store -> BENCH_recovery.json,
#                         # gated vs the committed baseline
#                         # (all three are runs of the one `soak` binary)
#   ./ci.sh bench-gate    # regenerate benches into target/ci and compare
#                         # against the committed BENCH_*.json baselines
#   ./ci.sh bench-gate --update-baselines
#                         # regenerate and bless the committed baselines
set -euo pipefail
cd "$(dirname "$0")"

MODE="${1:-full}"
CI_DIR="target/ci"
SUMMARY="CI_SUMMARY.json"

# --- per-step timing + machine-readable summary -----------------------------
STEP_NAMES=()
STEP_SECS=()
STEP_STATUS=()
CRATES_RS_LINES=""
CRATES_RS_NONTEST_LINES=""

write_summary() {
    local overall="pass"
    {
        echo '{'
        echo "  \"mode\": \"${MODE}\","
        if [[ -n "$CRATES_RS_LINES" ]]; then
            echo "  \"crates_rs_lines\": ${CRATES_RS_LINES},"
        fi
        if [[ -n "$CRATES_RS_NONTEST_LINES" ]]; then
            echo "  \"crates_rs_nontest_lines\": ${CRATES_RS_NONTEST_LINES},"
        fi
        echo '  "steps": ['
        local i last=$((${#STEP_NAMES[@]} - 1))
        for i in "${!STEP_NAMES[@]}"; do
            local comma=','
            [[ "$i" == "$last" ]] && comma=''
            [[ "${STEP_STATUS[$i]}" == "fail" ]] && overall="fail"
            printf '    {"step": "%s", "seconds": %s, "status": "%s"}%s\n' \
                "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}" "${STEP_STATUS[$i]}" "$comma"
        done
        echo '  ],'
        echo "  \"status\": \"${overall}\""
        echo '}'
    } > "$SUMMARY"
    echo "--- step summary ($SUMMARY) ---"
    local i
    for i in "${!STEP_NAMES[@]}"; do
        printf '  %-28s %8ss  %s\n' "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}" "${STEP_STATUS[$i]}"
    done
}
trap write_summary EXIT

step() {
    local name="$1"
    shift
    echo "==> ${name}"
    local t0 t1 rc=0
    t0=$SECONDS
    "$@" || rc=$?
    t1=$SECONDS
    STEP_NAMES+=("$name")
    STEP_SECS+=("$((t1 - t0))")
    if [[ $rc -ne 0 ]]; then
        STEP_STATUS+=("fail")
        echo "step '${name}' FAILED (exit $rc)" >&2
        exit "$rc"
    fi
    STEP_STATUS+=("pass")
}

# --- benchmark helpers -------------------------------------------------------
run_experiments() { # outdir
    cargo run --release -q -p smdb-bench --bin experiments -- \
        e3 e4 e5 calibration --json "$1/BENCH_tuning.json"
}

run_soak() { # outdir
    cargo run --release -q -p smdb-bench --bin soak -- \
        --scan-threads 4 \
        --json "$1/BENCH_runtime.json" --trail "$1/TRAIL_soak.json"
}

run_soak_mt() { # outdir
    cargo run --release -q -p smdb-bench --bin soak -- \
        --shards 4 --tenants 1200 --zipf 1.1 \
        --json "$1/BENCH_multitenant.json" --trail "$1/TRAIL_mt.json"
}

run_recover() { # outdir -> BENCH_recovery.json (hermetic store in outdir)
    cargo run --release -q -p smdb-bench --bin soak -- \
        --dir "$1/recover_store" --json "$1/BENCH_recovery.json"
}

check_trail() { # trail path
    cargo run -q -p smdb-lint -- --check-trail "$1"
}

run_concurrency_audit() { # outdir -> AUDIT_concurrency.json
    cargo run -q -p smdb-lint -- --audit-concurrency --json \
        > "$1/AUDIT_concurrency.json"
}

check_audit() { # audit path
    cargo run -q -p smdb-lint -- --check-audit "$1"
}

count_crates_lines() { # the size number the north star judges by
    CRATES_RS_LINES="$(find crates -name '*.rs' | xargs cat | wc -l)"
    echo "crates_rs_lines: ${CRATES_RS_LINES}"
    # Non-test lines: each file's lines before its test module, the
    # first column-0 `#[cfg(test)]` whose next line starts a `mod`; files
    # under a `tests/` directory are all test. An indented `#[cfg(test)]`
    # on a statement does not end the count. Code moved into tests
    # therefore never counts as a reduction.
    CRATES_RS_NONTEST_LINES="$(find crates -name '*.rs' -not -path '*/tests/*' -print0 |
        xargs -0 awk 'FNR == 1 { t = 0; held = 0 }
            t { next }
            held && /^(pub(\([a-z]+\))? )?mod / { t = 1; next }
            held { n += held; held = 0 }
            /^#\[cfg\(test\)\]/ { held = 1; next }
            { n++ }
            END { print n + 0 }' | awk '{ s += $1 } END { print s + 0 }')"
    echo "crates_rs_nontest_lines: ${CRATES_RS_NONTEST_LINES}"
}

release_predicate_suites() { # overflow checks off: a wrapped bound is a wrong answer, not a panic
    cargo test --release -q --test storage_props &&
        cargo test --release -q -p smdb-bench --test kernel_props &&
        cargo test --release -q -p smdb-storage --lib
}

check_benchmark_builds() { # the frozen yardstick still compiles against the crates
    # `&&`: steps run under `||`, where `set -e` does not apply.
    cargo build --release --offline --manifest-path benchmark/Cargo.toml &&
        (cd benchmark && cargo test --offline)
}

smoke_benchmark_recovery() { # exit code only: the frozen harness's recovery check
    # The one place CI recovers a store from flushed bytes and compares
    # it with the live engine (configuration equal, 200 probe queries
    # oracle-correct). 3 s is too short for its timings to mean anything.
    benchmark/run.sh --workload shift_durable --seconds 3 >/dev/null
}

run_gate() { # candidate dir
    cargo run --release -q -p smdb-bench --bin bench_gate -- \
        --runtime BENCH_runtime.json "$1/BENCH_runtime.json" \
        --tuning BENCH_tuning.json "$1/BENCH_tuning.json" \
        --multitenant BENCH_multitenant.json "$1/BENCH_multitenant.json" \
        --recovery BENCH_recovery.json "$1/BENCH_recovery.json"
}

fresh_bench_and_gate() { # build fresh candidates into target/ci, gate them
    mkdir -p "$CI_DIR"
    step "experiments (e3-e5, calibration)" run_experiments "$CI_DIR"
    step "soak" run_soak "$CI_DIR"
    step "check-trail" check_trail "$CI_DIR/TRAIL_soak.json"
    step "soak-mt" run_soak_mt "$CI_DIR"
    step "check-trail-mt" check_trail "$CI_DIR/TRAIL_mt.json"
    step "recover" run_recover "$CI_DIR"
    step "bench-gate" run_gate "$CI_DIR"
}

concurrency_audit_and_check() { # emit + schema-validate the audit artifact
    mkdir -p "$CI_DIR"
    step "audit-concurrency" run_concurrency_audit "$CI_DIR"
    step "check-audit" check_audit "$CI_DIR/AUDIT_concurrency.json"
}

case "$MODE" in
quick)
    step "build (release, bench)" cargo build --release -p smdb-bench
    fresh_bench_and_gate
    concurrency_audit_and_check
    echo "Quick CI green."
    ;;
soak)
    step "build (release, soak)" cargo build --release -p smdb-bench --bin soak
    step "soak" run_soak .
    echo "Soak CI green."
    ;;
soak-mt)
    step "build (release, soak)" cargo build --release -p smdb-bench --bin soak
    step "soak-mt" run_soak_mt .
    echo "Multi-tenant soak CI green."
    ;;
recover)
    step "build (release, soak)" cargo build --release -p smdb-bench --bin soak --bin bench_gate
    mkdir -p "$CI_DIR"
    step "recover" run_recover "$CI_DIR"
    step "recover-gate" cargo run --release -q -p smdb-bench --bin bench_gate -- \
        --recovery BENCH_recovery.json "$CI_DIR/BENCH_recovery.json"
    echo "Recovery CI green."
    ;;
bench-gate)
    step "build (release, bench)" cargo build --release -p smdb-bench
    mkdir -p "$CI_DIR"
    step "experiments (e3-e5, calibration)" run_experiments "$CI_DIR"
    step "soak" run_soak "$CI_DIR"
    step "soak-mt" run_soak_mt "$CI_DIR"
    step "recover" run_recover "$CI_DIR"
    if [[ "${2:-}" == "--update-baselines" ]]; then
        step "update-baselines" cp "$CI_DIR/BENCH_runtime.json" \
            "$CI_DIR/BENCH_tuning.json" "$CI_DIR/BENCH_multitenant.json" \
            "$CI_DIR/BENCH_recovery.json" .
        echo "Baselines updated from $CI_DIR — commit BENCH_*.json."
    else
        step "bench-gate" run_gate "$CI_DIR"
        echo "Bench gate green."
    fi
    ;;
full)
    step "cargo fmt --check" cargo fmt --all --check
    step "count crates lines" count_crates_lines
    step "cargo build --release" cargo build --workspace --release
    step "cargo test" cargo test -q --workspace
    step "cargo test --release (predicate suites)" release_predicate_suites
    step "benchmark builds + tests" check_benchmark_builds
    step "benchmark recovery smoke" smoke_benchmark_recovery
    fresh_bench_and_gate
    step "smdb-lint" cargo run -q -p smdb-lint
    step "smdb-lint --audit-lp" cargo run -q -p smdb-lint -- --audit-lp
    concurrency_audit_and_check
    echo "CI green."
    ;;
*)
    echo "unknown mode '${MODE}' (valid: full quick soak soak-mt recover bench-gate)" >&2
    exit 2
    ;;
esac
