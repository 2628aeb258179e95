#!/usr/bin/env bash
# Repo health check: configure, build, full test suite, a parallel-harness
# determinism smoke, the sanitize-labelled suites under AddressSanitizer and
# UndefinedBehaviorSanitizer, and a ThreadSanitizer pass over the task pool
# and the sweep harness. Intended as the pre-merge gate; from empty build
# directories (Ninja) it took 7 min 34 s and 7 min 37 s in two runs on 4
# vCPUs at the last measurement.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD_DIR:-build}

# --coverage: standalone mode. Build an instrumented tree, run the full test
# suite, aggregate gcov line coverage over src/, and fail if it fell below
# the recorded baseline. Plain gcov + awk — no gcovr/lcov dependency. To
# re-pin after adding well-tested code: run, then copy the printed value
# into scripts/coverage_baseline.txt.
if [[ "${1:-}" == "--coverage" ]]; then
  COV_BUILD="${BUILD}-cov"
  cmake -B "$COV_BUILD" -DHLS_COVERAGE=ON >/dev/null
  cmake --build "$COV_BUILD" -j "$(nproc)"
  # Stale counters from a previous run would double-count.
  find "$COV_BUILD" -name '*.gcda' -delete
  ctest --test-dir "$COV_BUILD" -j"$(nproc)" --output-on-failure >/dev/null
  # Library objects only: every src/ TU is compiled exactly once there.
  # Headers still show up once per including TU, so awk keeps the maximum
  # per source file before summing (deterministic, slightly conservative).
  pct=$(find "$COV_BUILD/src" -name '*.gcda' -print0 |
    xargs -0 gcov -n -p 2>/dev/null |
    awk '
      /^File / { f = $2; gsub(/'\''/, "", f); next }
      /^Lines executed:/ && f ~ /src\// {
        split($0, a, /[:% ]+/)   # a[3]=percent, a[5]=line count
        covered = a[3] / 100.0 * a[5]
        if (a[5] > lines[f]) { lines[f] = a[5]; hit[f] = covered }
        f = ""
      }
      END {
        total = 0; cov = 0
        for (k in lines) { total += lines[k]; cov += hit[k] }
        printf "%.2f", total ? 100.0 * cov / total : 0
      }')
  baseline=$(cat scripts/coverage_baseline.txt)
  echo "line coverage over src/: ${pct}% (baseline ${baseline}%)"
  awk -v p="$pct" -v b="$baseline" 'BEGIN { exit !(p >= b) }' || {
    echo "coverage: ${pct}% is below the recorded baseline ${baseline}%" >&2
    exit 1
  }
  echo "check.sh --coverage: passed"
  exit 0
fi
# Per-stage wall-time report: mark <name> closes the currently-open stage
# and opens <name>; the table prints before the final verdict so a slow gate
# stage is visible at a glance instead of buried in the total.
STAGE_NAMES=()
STAGE_TIMES=()
_stage_open=""
_stage_t0=0
now_ms() { date +%s%3N; }
mark() {
  local t
  t=$(now_ms)
  if [[ -n "$_stage_open" ]]; then
    STAGE_NAMES+=("$_stage_open")
    STAGE_TIMES+=($((t - _stage_t0)))
  fi
  _stage_open="${1:-}"
  _stage_t0=$t
}

mark build
# Warnings are errors in the gate build, and the compilation database feeds
# the clang-tidy stage below. No configure line names a generator, so each
# tree keeps the one it was made with (CMAKE_GENERATOR picks it for a new
# tree), and every build names its job count: under make, a bare -j has no
# limit.
cmake -B "$BUILD" -DHLS_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build "$BUILD" -j "$(nproc)"

mark test
ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure

mark lint
# Project lint: layering, determinism, convention, callback-epoch and bench
# time-scale rules over the live tree (see docs/LINT.md). The binary was
# built above; a non-zero exit (any finding) fails the gate. The stage
# carries a runtime budget: the linter lexes every file of the tree per run,
# so a pathological slowdown there would quietly dominate every pre-merge
# check.
lint_t0=$(now_ms)
"./$BUILD/tools/hlslint"
lint_ms=$(( $(now_ms) - lint_t0 ))
if (( lint_ms > 5000 )); then
  echo "lint: hlslint took ${lint_ms} ms, over the 5 s stage budget" >&2
  exit 1
fi
echo "lint: hlslint clean over the live tree (${lint_ms} ms, budget 5000)"

mark determinism
# Determinism smoke: every design point is an independent deterministic
# simulation and results land in submission-order slots, so a figure bench
# must emit byte-identical stdout at any HLS_JOBS value.
scale=${HLS_TIME_SCALE:-0.02}
a=$(mktemp) && b=$(mktemp)
trap 'rm -f "$a" "$b"' EXIT
HLS_TIME_SCALE=$scale HLS_JOBS=1 "./$BUILD/bench/fig_4_2_dynamic_schemes" >"$a" 2>/dev/null
HLS_TIME_SCALE=$scale HLS_JOBS=4 "./$BUILD/bench/fig_4_2_dynamic_schemes" >"$b" 2>/dev/null
diff -u "$a" "$b"
echo "determinism smoke: fig_4_2 stdout byte-identical at HLS_JOBS=1 vs 4"

mark fault-smoke
# Fault-tolerance smoke: a quick outage-sweep run of the fault-injection
# ablation. The bench itself verifies that every faulted cell drains to zero
# residency/locks after arrivals stop and exits non-zero otherwise.
HLS_TIME_SCALE=0.05 "./$BUILD/bench/abl_fault_tolerance" >/dev/null 2>&1
echo "fault smoke: abl_fault_tolerance drained every faulted cell"

mark adaptive
# Adaptive-routing gate: the non-stationary ablation self-checks that the
# abort-provenance controller's class-A response time is no worse than the
# best hand-picked static threshold, and that every cell drains to zero.
HLS_TIME_SCALE=0.05 "./$BUILD/bench/abl_adaptive_routing" >/dev/null 2>&1
echo "adaptive gate: abl_adaptive_routing beat the best static F and drained"

mark chaos
# Chaos soak: fixed-seed generated episodes (random config x strategy x
# composed fault schedule) run to drain, twice each, against the full oracle
# stack — invariants, drain-to-zero, conservation, phase-sum, conflict matrix
# vs aborts, dedup drops vs link duplications, byte-identical replay
# (docs/CHAOS.md). A failing episode is auto-shrunk to a minimal repro
# config. HLS_CHAOS_EPISODES overrides the default 100 when iterating.
chaos_episodes=${HLS_CHAOS_EPISODES:-100}
HLS_CHAOS_EPISODES=$chaos_episodes "./$BUILD/tools/chaos_soak" \
  --seed=20260808 --shrink-out="$BUILD/chaos_repro.conf" >/dev/null
echo "chaos soak: ${chaos_episodes} episodes passed the full oracle stack"

# The same soak with every episode forced onto the adaptive controller, so
# its review epochs, backoff and collision-policy flips run under the full
# chaos oracle stack (drain, conservation, byte-identical replay).
HLS_CHAOS_EPISODES=$chaos_episodes "./$BUILD/tools/chaos_soak" \
  --seed=20260808 --strategy=adapt:min-average-nsys \
  --shrink-out="$BUILD/chaos_repro_adapt.conf" >/dev/null
echo "chaos soak: ${chaos_episodes} adapt:-forced episodes passed"

# A repro file is user input: a malformed strategy spec in it must be a
# one-line error and exit status 2, never a crash or a silent run.
bad_repro="$BUILD/chaos_bad_strategy.conf"
printf 'chaos_strategy=static:0.3xyz\nchaos_run_seconds=5\n' >"$bad_repro"
status=0
"./$BUILD/tools/chaos_soak" --repro="$bad_repro" >/dev/null \
  2>"$BUILD/chaos_bad_strategy.err" || status=$?
if [[ $status -ne 2 || $(wc -l <"$BUILD/chaos_bad_strategy.err") -ne 1 ]] ||
    ! grep -q "'0.3xyz'" "$BUILD/chaos_bad_strategy.err"; then
  echo "chaos repro: malformed strategy gave exit $status, expected 2 and one" \
    "line quoting the token:" >&2
  cat "$BUILD/chaos_bad_strategy.err" >&2
  exit 1
fi
echo "chaos repro: malformed strategy spec rejected with exit 2"

# The same for a value its config key does not allow: num_sites=0 must not
# reach an HLS_ASSERT and num_sites=2.7 must not run as 2 sites; each is one
# line naming the key and exit status 2.
for value in 0 2.7; do
  bad_repro="$BUILD/chaos_bad_sites.conf"
  printf 'num_sites=%s\nchaos_strategy=static:0.3\nchaos_run_seconds=5\n' \
    "$value" >"$bad_repro"
  status=0
  "./$BUILD/tools/chaos_soak" --repro="$bad_repro" >/dev/null \
    2>"$BUILD/chaos_bad_sites.err" || status=$?
  if [[ $status -ne 2 || $(wc -l <"$BUILD/chaos_bad_sites.err") -ne 1 ]] ||
      ! grep -q "num_sites" "$BUILD/chaos_bad_sites.err"; then
    echo "chaos repro: num_sites=$value gave exit $status, expected 2 and" \
      "one line naming num_sites:" >&2
    cat "$BUILD/chaos_bad_sites.err" >&2
    exit 1
  fi
done
echo "chaos repro: num_sites=0 and num_sites=2.7 rejected with exit 2"

mark cli
# Numeric command-line values are user input too: text, trailing characters
# and values out of range must be one line naming the argument and the
# program's error status (1 from the examples, the usage status 2 from
# hlsreport and chaos_soak), never an uncaught exception, an HLS_ASSERT
# abort, or a run with 0 or a truncated value in their place.
check_bad_value() {  # <status> <argument name> <program> <args...>
  local want=$1 name=$2 prog=$3
  shift 3
  local status=0
  "./$BUILD/$prog" "$@" >/dev/null 2>"$BUILD/cli_bad_value.err" || status=$?
  if [[ $status -ne $want || $(wc -l <"$BUILD/cli_bad_value.err") -ne 1 ]] ||
      ! grep -qF -- "$name" "$BUILD/cli_bad_value.err"; then
    echo "$prog $*: gave exit $status, expected $want and one line naming" \
      "$name:" >&2
    cat "$BUILD/cli_bad_value.err" >&2
    exit 1
  fi
}
check_bad_value 1 --tps examples/strategy_explorer --tps=abc no-load-sharing
check_bad_value 1 --sites examples/strategy_explorer --sites=2.7 no-load-sharing
check_bad_value 1 total_tps examples/quickstart abc
check_bad_value 1 total_tps examples/quickstart -5
check_bad_value 2 --tol tools/hlsreport diff scripts/artifact_baseline.json \
  scripts/artifact_baseline.json --tol abc
check_bad_value 2 --seed tools/chaos_soak --seed=abc
echo "cli: strategy_explorer --tps=abc/--sites=2.7, quickstart abc/-5," \
  "hlsreport --tol abc and chaos_soak --seed=abc rejected"

# A document is user input too: 50,000 levels of '[' once overflowed the
# stack of hlsreport's recursive parser (exit 139). Nesting is capped, and
# past the cap the document is one line and the parse status 2.
deep_json="$BUILD/cli_deep.json"
head -c 50000 /dev/zero | tr '\0' '[' >"$deep_json"
check_bad_value 2 "nesting deeper" tools/hlsreport show "$deep_json"
echo "cli: hlsreport show rejects a document nested 50,000 levels deep"

# An output path that cannot be opened is user input too: once an
# HLS_ASSERT abort (exit 134), after the whole run in hlsreport's case. It
# must be one line naming the path, with hlsreport's I/O status 2 and
# trace_inspector's 1 (as for its csv path).
missing_dir="$BUILD/cli_missing_dir"
rm -rf "$missing_dir"
HLS_TIME_SCALE=0.05 check_bad_value 2 "$missing_dir/a.json" tools/hlsreport \
  gen "$missing_dir/a.json"
check_bad_value 1 "$missing_dir/t.json" examples/trace_inspector 2.2 - \
  "$missing_dir/t.json"
echo "cli: hlsreport gen and trace_inspector name an unopenable output path"

# The environment is user input too: HLS_TIME_SCALE=inf once made every
# window endless. It must run at the default scale (about 0.1 s here), with
# one stderr line naming the variable.
status=0
HLS_TIME_SCALE=inf timeout 60 "./$BUILD/examples/trace_inspector" >/dev/null \
  2>"$BUILD/cli_bad_env.err" || status=$?
if [[ $status -ne 0 || $(wc -l <"$BUILD/cli_bad_env.err") -ne 1 ]] ||
    ! grep -q HLS_TIME_SCALE "$BUILD/cli_bad_env.err"; then
  echo "HLS_TIME_SCALE=inf trace_inspector: gave exit $status, expected 0 and" \
    "one line naming HLS_TIME_SCALE:" >&2
  cat "$BUILD/cli_bad_env.err" >&2
  exit 1
fi
echo "cli: HLS_TIME_SCALE=inf ran at the default scale with one warning"

# HLS_CHAOS_EPISODES=2x once ran 2 episodes and 0x2 the default 100, both
# silently: a value that is not all a whole number in [1, INT_MAX] must be
# one stderr line naming the variable, and the soak runs as if it were
# unset (here --episodes=1 sets the count).
status=0
HLS_CHAOS_EPISODES=2x "./$BUILD/tools/chaos_soak" --episodes=1 \
  --shrink-out="$BUILD/chaos_repro_env.conf" >/dev/null \
  2>"$BUILD/cli_bad_env.err" || status=$?
if [[ $status -ne 0 || $(wc -l <"$BUILD/cli_bad_env.err") -ne 1 ]] ||
    ! grep -q HLS_CHAOS_EPISODES "$BUILD/cli_bad_env.err"; then
  echo "HLS_CHAOS_EPISODES=2x chaos_soak --episodes=1: gave exit $status," \
    "expected 0 and one line naming HLS_CHAOS_EPISODES:" >&2
  cat "$BUILD/cli_bad_env.err" >&2
  exit 1
fi
echo "cli: HLS_CHAOS_EPISODES=2x rejected with one warning"

mark trace
# Span-trace smoke: trace_inspector end to end on its faulted run with the
# Perfetto exporter attached, then read the whole export back with
# hlsreport's JSON reader (exit 2 if it does not parse). The export's
# structure (record fields, B/E pairing per track, whole-number timestamps)
# is asserted by SpanTrace.FaultedRunExportIsStructurallySound.
trace_json=$(mktemp)
HLS_TIME_SCALE=0.2 "./$BUILD/examples/trace_inspector" 2.2 - "$trace_json" >/dev/null
"./$BUILD/tools/hlsreport" show "$trace_json" >/dev/null
rm -f "$trace_json"
echo "trace smoke: perfetto export parses end to end"

mark artifact
# Run-artifact gate: generate the canonical artifact at the baseline's
# pinned time scale under two HLS_JOBS values (must be byte-identical),
# self-diff to zero deltas, then gate against the committed baseline. The
# registry's accounting identities are checked in ctest (artifact_test).
# After an intended metrics change, re-pin with:
#   HLS_TIME_SCALE=0.05 ./build/tools/hlsreport gen scripts/artifact_baseline.json
art_a=$(mktemp) && art_b=$(mktemp)
HLS_TIME_SCALE=0.05 HLS_JOBS=1 "./$BUILD/tools/hlsreport" gen "$art_a" >/dev/null
HLS_TIME_SCALE=0.05 HLS_JOBS=4 "./$BUILD/tools/hlsreport" gen "$art_b" >/dev/null
cmp "$art_a" "$art_b"
"./$BUILD/tools/hlsreport" diff "$art_a" "$art_a" --gate >/dev/null
"./$BUILD/tools/hlsreport" diff scripts/artifact_baseline.json "$art_a" --gate
rm -f "$art_a" "$art_b"
echo "artifact gate: canonical artifact HLS_JOBS-invariant, matches baseline"

mark perf
# Release perf smoke: the event kernel must sustain a conservative floor on
# the 100-site large-topology scenario (~2.5M events/s on a 1-CPU dev box at
# RelWithDebInfo; the floor absorbs slow CI machines while still catching an
# order-of-magnitude kernel regression). Full time scale: at bench scales
# the run is sub-millisecond and the rate would be pure noise.
floor=250000
rate=$(HLS_TIME_SCALE=1 "./$BUILD/bench/micro_kernel" --large-only 2>/dev/null |
  awk -F, '$1 == "csv" && $2 == "100" { r = int($7) } END { print r + 0 }')
if [ "$rate" -lt "$floor" ]; then
  echo "perf smoke: micro_kernel 100-site rate ${rate} events/s below floor ${floor}" >&2
  exit 1
fi
echo "perf smoke: micro_kernel 100-site ${rate} events/s (floor ${floor})"

# A sanitizer stage is skipped only when the toolchain cannot compile and
# link a one-line program with the stage's -fsanitize flag. Past that probe,
# the configure, the build and every run fail the gate, and a failed build
# prints its output.
sanitizer_links() {  # <-fsanitize value>
  echo 'int main() { return 0; }' |
    "${CXX:-c++}" -fsanitize="$1" -x c++ - -o "$BUILD/sanitizer_probe" \
      >/dev/null 2>&1
}
sanitizer_build() {  # <build dir> <HLS_SANITIZE value> <targets...>
  local dir=$1 kind=$2
  shift 2
  cmake -B "$dir" -DHLS_SANITIZE="$kind" -DHLS_WERROR=ON >/dev/null
  if ! cmake --build "$dir" -j "$(nproc)" --target "$@" \
      >"$dir/gate_build.log" 2>&1; then
    cat "$dir/gate_build.log" >&2
    echo "$kind: the instrumented build failed" >&2
    exit 1
  fi
}

mark asan
# The address build: AddressSanitizer and UndefinedBehaviorSanitizer, and
# neither recovers, so a lifetime bug or any UB aborts the run. The crash,
# recovery and chaos paths juggle queued closures for reclaimed
# transactions, exactly where lifetime bugs would hide. The suites run are
# the ones labelled `sanitize`: hls_test(<name> SANITIZE ...) in
# tests/CMakeLists.txt, plus the fixed-seed chaos soak. --no-tests=error
# fails the stage when the label selects nothing, so a misspelt or emptied
# label cannot pass with zero tests.
ASAN_BUILD="${BUILD}-asan"
if sanitizer_links address,undefined; then
  sanitizer_build "$ASAN_BUILD" address sanitizer_suites abl_fault_tolerance \
    abl_adaptive_routing
  HLS_TIME_SCALE=0.05 "./$ASAN_BUILD/bench/abl_fault_tolerance" >/dev/null
  HLS_TIME_SCALE=0.05 "./$ASAN_BUILD/bench/abl_adaptive_routing" >/dev/null
  HLS_CHAOS_EPISODES=$chaos_episodes ctest --test-dir "$ASAN_BUILD" \
    -L sanitize --no-tests=error -j"$(nproc)" --output-on-failure
  echo "asan: abl_fault_tolerance + adaptive gate + every sanitize-labelled suite clean"
else
  echo "asan: -fsanitize=address,undefined does not link here; skipped"
fi

mark tsan
# ThreadSanitizer pass over the threaded pieces.
TSAN_BUILD="${BUILD}-tsan"
if sanitizer_links thread; then
  sanitizer_build "$TSAN_BUILD" thread task_pool_test sweep_parallel_test
  "./$TSAN_BUILD/tests/task_pool_test"
  HLS_JOBS=4 "./$TSAN_BUILD/tests/sweep_parallel_test"
  echo "tsan: task_pool_test + sweep_parallel_test clean"
else
  echo "tsan: -fsanitize=thread does not link here; skipped"
fi

mark tidy
# clang-tidy over src/ with the curated .clang-tidy check set, driven by the
# compilation database exported above. Skipped with a notice when the tool
# is not on PATH (it is not part of the baked-in toolchain).
if command -v clang-tidy >/dev/null 2>&1; then
  find src -name '*.cpp' -print0 |
    xargs -0 -P "$(nproc)" -n 4 clang-tidy -p "$BUILD" --quiet
  echo "tidy: clang-tidy clean over src/"
else
  echo "tidy: clang-tidy not on PATH; skipped (install LLVM tools to enable)"
fi

mark ""  # close the last stage
echo "stage wall times:"
for i in "${!STAGE_NAMES[@]}"; do
  printf '  %-12s %7d ms\n' "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}"
done
echo "check.sh: all stages passed"
