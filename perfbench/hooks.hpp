// Host-time probes shared by the benchmark program (bench.cpp) and the
// link-time interposers (hooks.cpp, layer_hooks.cpp).
//
// The interposers use GNU ld's --wrap: a call from one object file to a
// wrapped library function lands in __wrap_<symbol>, which records host time
// and forwards to __real_<symbol>. CMakeLists.txt collects the symbols from
// the __wrap_ definitions in these sources, so src/ is never edited. Calls
// inside the defining translation unit, and inlined calls, are not seen:
// a function's "self" time is its inclusive time minus the wrapped calls it
// makes.
//
// Two binaries are built from the same sources. `hlsbench` installs only
// the per-run boundary hooks (a few clock reads per run). `hlsbench_traced`
// (PERFBENCH_TRACED=1) adds the per-layer hooks, slices every advance of
// simulated time, and counts heap allocations.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Timestamp for the per-call hooks, which run millions of times per
/// second: the invariant TSC on x86-64 (about half the cost of a
/// steady_clock read), steady_clock nanoseconds elsewhere.
inline std::uint64_t ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
#endif
}

/// Seconds per tick, calibrated against steady_clock over the process
/// lifetime so far (call it after the measurement, not before).
[[nodiscard]] double tick_seconds();

/// Host-time boundaries of one simulation run (one HybridSystem lifetime).
struct RunTimes {
  double setup_s = 0.0;    ///< run start -> first HybridSystem::run_for
  double advance_s = 0.0;  ///< inside run_for: advancing simulated time
  double job_s = 0.0;      ///< run start -> run end
};

/// Opens and closes a run on the calling thread. The run_simulation
/// interposer calls these; the chaos workload, which drives HybridSystem
/// itself, calls them directly.
void run_begin();
void run_end();

/// Runs finished since the previous call, in completion order.
[[nodiscard]] std::vector<RunTimes> take_run_times();

// ---- per-layer ledger (filled only by hlsbench_traced) ----

/// Wrapped entry points. Each belongs to one layer (see bench.cpp).
enum Hook : int {
  kScheduleAt,
  kScheduleAfter,
  kCancel,
  kPop,
  kSubmit,
  kLockRequest,
  kLockRelease,
  kLockReleaseAll,
  kLockCancelWaits,
  kLockGrab,
  kLinkSend,
  kDecide,
  kEstimate,
  kOptimize,
  kTxnFill,
  kTxnMake,
  kExport,
  kHookCount,
};

[[nodiscard]] const char* hook_name(Hook hook);

struct HookStat {
  std::uint64_t calls = 0;
  std::uint64_t self_ticks = 0;  ///< inclusive minus nested wrapped calls
  std::uint64_t incl_ticks = 0;
};

/// Log-bucketed histogram of non-negative integers (32 buckets per octave,
/// so quantiles are within ~2%). Fixed storage: recording never allocates.
class LogHistogram {
 public:
  void record(std::uint64_t v);
  void merge(const LogHistogram& other);
  [[nodiscard]] std::uint64_t max() const { return max_; }
  /// Lower edge of the bucket holding the q-quantile (0 when empty).
  [[nodiscard]] double quantile(double q) const;

 private:
  static constexpr int kSubBits = 5;
  static constexpr int kBuckets = (64 - kSubBits + 1) << kSubBits;
  static int bucket_of(std::uint64_t v);
  static std::uint64_t lower_edge(int bucket);

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

/// Counts and tick sums the traced hooks accumulate over a set of runs.
struct LayerTotals {
  HookStat hooks[kHookCount];
  std::uint64_t events = 0;              ///< events executed inside run_for
  std::uint64_t advance_hook_ticks = 0;  ///< outermost hook time inside run_for
  std::uint64_t window_allocs = 0;       ///< operator new calls, measured window
  std::uint64_t window_alloc_bytes = 0;

  void merge(const LayerTotals& other);
};

/// Everything the traced hooks measured over a set of runs.
struct Ledger {
  LayerTotals totals;
  LogHistogram decide_ticks;  ///< inclusive ticks per RoutingStrategy::decide
  LogHistogram slice_ticks;   ///< ticks per simulated slice
  LogHistogram pending;       ///< Simulator::pending_events() between slices
  std::uint64_t central_locks_held_max = 0;

  void merge(const Ledger& other);
};

/// Sum of the ledgers of the runs finished since the previous call.
[[nodiscard]] Ledger take_ledger();

/// Times one wrapped call while a run is open on the calling thread:
/// counts it and books its inclusive and self time to `hook`.
class Span {
 public:
  explicit Span(Hook hook);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// Counts one heap allocation of `bytes` on the calling thread (called by
/// the traced build's global operator new).
void note_alloc(std::size_t bytes);

}  // namespace perfbench
