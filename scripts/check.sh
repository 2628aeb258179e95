#!/usr/bin/env bash
# Repo health check: configure, build, full test suite, a parallel-harness
# determinism smoke, and a ThreadSanitizer pass over the task pool and the
# sweep harness. Intended as the pre-merge gate; ~1 min on a laptop.
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
  cmake -B "$COV_BUILD" -G Ninja -DHLS_COVERAGE=ON >/dev/null
  cmake --build "$COV_BUILD" -j
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
# the clang-tidy stage below.
cmake -B "$BUILD" -G Ninja -DHLS_WERROR=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build "$BUILD" -j

mark test
ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure

mark lint
# Project lint: layering, determinism, convention, callback-epoch and the
# cross-artifact contract rules over the live tree (see docs/LINT.md). The
# binary was built above; a non-zero exit (findings or stale baseline
# entries) fails the gate. The stage carries a runtime budget: the linter
# rebuilds the whole repo model per run, so a pathological slowdown there
# would quietly dominate every pre-merge check.
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
# stack — invariants, drain-to-zero, conservation, phase-sum, provenance and
# dedup double entries, byte-identical replay (docs/CHAOS.md). A failing
# episode is auto-shrunk to a minimal repro config. HLS_CHAOS_EPISODES
# overrides the default 100 when iterating.
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

mark trace
# Span-trace smoke: trace_inspector end to end on its faulted run with the
# Perfetto exporter attached, then schema-check the JSON (parses, pid/tid/
# ph/ts present, every B matched by an E). The csv splitter's selftest
# rides along since it gates the same plotting pipeline.
trace_json=$(mktemp)
HLS_TIME_SCALE=0.2 "./$BUILD/examples/trace_inspector" 2.2 - "$trace_json" >/dev/null
python3 -m json.tool "$trace_json" >/dev/null
python3 scripts/validate_trace.py "$trace_json"
rm -f "$trace_json"
python3 scripts/extract_csv.py --selftest
echo "trace smoke: perfetto export schema-valid end to end"

mark artifact
# Run-artifact gate: generate the canonical artifact at the baseline's
# pinned time scale under two HLS_JOBS values (must be byte-identical),
# schema- and identity-check it (validate_artifact.py), self-diff to zero
# deltas, then gate against the committed baseline. After an intended
# metrics change, re-pin with:
#   HLS_TIME_SCALE=0.05 ./build/tools/hlsreport gen scripts/artifact_baseline.json
art_a=$(mktemp) && art_b=$(mktemp)
HLS_TIME_SCALE=0.05 HLS_JOBS=1 "./$BUILD/tools/hlsreport" gen "$art_a" >/dev/null
HLS_TIME_SCALE=0.05 HLS_JOBS=4 "./$BUILD/tools/hlsreport" gen "$art_b" >/dev/null
cmp "$art_a" "$art_b"
python3 scripts/validate_artifact.py "$art_a"
"./$BUILD/tools/hlsreport" diff "$art_a" "$art_a" --gate >/dev/null
"./$BUILD/tools/hlsreport" diff scripts/artifact_baseline.json "$art_a" --gate
rm -f "$art_a" "$art_b"
echo "artifact gate: canonical artifact valid, HLS_JOBS-invariant, matches baseline"

mark snapshot
# Snapshot completeness: the newest committed BENCH_<N>.json must contain
# data keys for every bench its own _meta.benches lists, so a snapshot
# regenerated by a script that silently dropped a bench cannot merge. The
# newest snapshot must also carry full provenance (git_sha, time_scale,
# hls_jobs) so a measured regression can be traced to the commit and
# environment that produced the baseline numbers.
python3 - <<'EOF'
import glob, json, sys

snaps = sorted(glob.glob("BENCH_*.json"))
if not snaps:
    sys.exit("snapshot: no BENCH_*.json at the repo root")
path = max(snaps, key=lambda p: json.load(open(p)).get("_meta", {}).get("snapshot", -1))
data = json.load(open(path))
meta = data.get("_meta", {})
benches = meta.get("benches", [])
if not benches:
    sys.exit(f"snapshot: {path} has no _meta.benches list")
prefixes = {k.split(".")[0] for k in data if k != "_meta"}
missing = [b for b in benches if not any(b.startswith(p) for p in prefixes)]
if missing:
    sys.exit(f"snapshot: {path} lists benches with no data keys: {missing}")
missing_meta = [k for k in ("git_sha", "time_scale", "hls_jobs") if k not in meta]
if missing_meta:
    sys.exit(f"snapshot: {path} _meta is missing provenance keys: {missing_meta}")
print(f"snapshot: {path} covers all {len(benches)} _meta benches "
      f"(git_sha {meta['git_sha']}, scale {meta['time_scale']})")
EOF

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

mark asan
# Same smoke under AddressSanitizer: the crash/recovery paths juggle queued
# closures for reclaimed transactions, exactly where lifetime bugs would
# hide. Skipped gracefully when the toolchain has no asan runtime.
ASAN_BUILD="${BUILD}-asan"
if cmake -B "$ASAN_BUILD" -G Ninja -DHLS_SANITIZE=address -DHLS_WERROR=ON \
      >/dev/null 2>&1 &&
    cmake --build "$ASAN_BUILD" -j --target abl_fault_tolerance \
      golden_metrics_test conservation_test phase_breakdown_test \
      abort_provenance_test span_trace_test report_test chaos_soak \
      adaptive_test adaptive_controller_test abl_adaptive_routing \
      rfc_mode_test deadlock_policy_test >/dev/null 2>&1; then
  HLS_TIME_SCALE=0.05 "./$ASAN_BUILD/bench/abl_fault_tolerance" >/dev/null
  HLS_TIME_SCALE=0.05 "./$ASAN_BUILD/bench/abl_adaptive_routing" >/dev/null
  # The same fixed-seed soak under asan: chaos episodes walk the dedup /
  # resequencing / crash-replay paths where lifetime bugs would hide.
  HLS_CHAOS_EPISODES=$chaos_episodes "./$ASAN_BUILD/tools/chaos_soak" \
    --seed=20260808 --shrink-out="$ASAN_BUILD/chaos_repro.conf" >/dev/null
  # The pinned-value and conservation-law suites under asan: the pins prove
  # determinism survives instrumentation, and the property grid walks every
  # abort/fault path where lifetime bugs would hide. The provenance and
  # span suites exercise the tracer's cross-attempt bookkeeping the same way.
  "./$ASAN_BUILD/tests/golden_metrics_test" >/dev/null
  "./$ASAN_BUILD/tests/conservation_test" >/dev/null
  "./$ASAN_BUILD/tests/phase_breakdown_test" >/dev/null
  "./$ASAN_BUILD/tests/abort_provenance_test" >/dev/null
  "./$ASAN_BUILD/tests/span_trace_test" >/dev/null
  "./$ASAN_BUILD/tests/report_test" >/dev/null
  # The adaptive-controller suites: review epochs mutate routing state from
  # inside the event loop, the exact place a lifetime bug would hide.
  "./$ASAN_BUILD/tests/adaptive_test" >/dev/null
  "./$ASAN_BUILD/tests/adaptive_controller_test" >/dev/null
  # Force-aborted waiting deadlock victims and remote-call replies reaching
  # an aborted epoch: the closures of the shared step sequence that outlive
  # the run they were armed for.
  "./$ASAN_BUILD/tests/rfc_mode_test" >/dev/null
  "./$ASAN_BUILD/tests/deadlock_policy_test" >/dev/null
  echo "asan: abl_fault_tolerance + adaptive gate + chaos soak + golden/conservation/phase/provenance/adaptive/rfc/deadlock suites clean"
else
  echo "asan: unavailable in this toolchain; skipped"
fi

mark ubsan
# UndefinedBehaviorSanitizer, non-recoverable: any UB (signed overflow,
# invalid shifts, misaligned/null access, bad enum loads) aborts the test.
# Runs the pinned-value, property-grid, and core protocol suites — the
# arithmetic-heavy paths where UB would silently skew results.
UBSAN_BUILD="${BUILD}-ubsan"
if cmake -B "$UBSAN_BUILD" -G Ninja -DHLS_SANITIZE=undefined -DHLS_WERROR=ON \
      >/dev/null 2>&1 &&
    cmake --build "$UBSAN_BUILD" -j --target golden_metrics_test \
      conservation_test system_test single_txn_test analytic_model_test \
      paper_properties_test >/dev/null 2>&1; then
  "./$UBSAN_BUILD/tests/golden_metrics_test" >/dev/null
  "./$UBSAN_BUILD/tests/conservation_test" >/dev/null
  "./$UBSAN_BUILD/tests/system_test" >/dev/null
  "./$UBSAN_BUILD/tests/single_txn_test" >/dev/null
  "./$UBSAN_BUILD/tests/analytic_model_test" >/dev/null
  "./$UBSAN_BUILD/tests/paper_properties_test" >/dev/null
  echo "ubsan: golden/conservation/system/single_txn/model/properties clean"
else
  echo "ubsan: unavailable in this toolchain; skipped"
fi

mark tsan
# ThreadSanitizer pass over the threaded pieces; skipped gracefully when the
# toolchain has no tsan runtime.
TSAN_BUILD="${BUILD}-tsan"
if cmake -B "$TSAN_BUILD" -G Ninja -DHLS_SANITIZE=thread -DHLS_WERROR=ON \
      >/dev/null 2>&1 &&
    cmake --build "$TSAN_BUILD" -j --target task_pool_test sweep_parallel_test \
      >/dev/null 2>&1; then
  "./$TSAN_BUILD/tests/task_pool_test"
  HLS_JOBS=4 "./$TSAN_BUILD/tests/sweep_parallel_test"
  echo "tsan: task_pool_test + sweep_parallel_test clean"
else
  echo "tsan: unavailable in this toolchain; skipped"
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
