// Per-thread run state, the ledger, and the per-run boundary interposers
// (installed in both binaries).
#include "hooks.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <utility>

#include "core/api.hpp"

namespace perfbench {
namespace {

constexpr int kMaxDepth = 64;

struct Frame {
  Hook hook = kScheduleAt;
  std::uint64_t start = 0;
  std::uint64_t child_ticks = 0;
};

/// The run open on this thread. One run lives on one thread: a sweep's
/// pool hands each whole run_simulation call to one worker.
struct ThreadRun {
  bool open = false;
  Clock::time_point start;
  int run_for_calls = 0;
  RunTimes times;
  Ledger ledger;
  bool in_advance = false;
  int depth = 0;
  Frame stack[kMaxDepth];
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

// constinit: no lazy-initialization guard on the hook and operator new paths.
constinit thread_local ThreadRun tl_run;

std::mutex g_mu;
std::vector<RunTimes> g_times;  // guarded by g_mu
Ledger g_ledger;                // guarded by g_mu

// Calibration origin for tick_seconds().
const std::uint64_t g_tick0 = ticks();
const Clock::time_point g_clock0 = Clock::now();

}  // namespace

const char* hook_name(Hook hook) {
  static constexpr const char* kNames[kHookCount] = {
      "Simulator::schedule_at",         "Simulator::schedule_after",
      "Simulator::cancel",              "EventQueue::pop",
      "FcfsResource::submit",           "LockManager::request",
      "LockManager::release",           "LockManager::release_all",
      "LockManager::cancel_waits",      "LockManager::grab_for_authentication",
      "Link::send",                     "RoutingStrategy::decide",
      "DynamicEstimator::estimate",     "StaticOptimizer::optimize",
      "TxnFactory::fill",               "TxnFactory::make",
      "HybridSystem::export_registry",
  };
  return kNames[hook];
}

double tick_seconds() {
  const std::uint64_t t = ticks();
  const double elapsed = seconds(g_clock0, Clock::now());
  return t > g_tick0 ? elapsed / static_cast<double>(t - g_tick0) : 1e-9;
}

int LogHistogram::bucket_of(std::uint64_t v) {
  if (v < (1u << kSubBits)) {
    return static_cast<int>(v);
  }
  const int octave = std::bit_width(v) - 1;  // >= kSubBits
  const int shift = octave - kSubBits;
  const auto sub = static_cast<int>((v >> shift) & ((1u << kSubBits) - 1));
  return ((shift + 1) << kSubBits) + sub;
}

std::uint64_t LogHistogram::lower_edge(int bucket) {
  if (bucket < (1 << kSubBits)) {
    return static_cast<std::uint64_t>(bucket);
  }
  const int shift = (bucket >> kSubBits) - 1;
  const auto sub = static_cast<std::uint64_t>(bucket & ((1 << kSubBits) - 1));
  return ((std::uint64_t{1} << kSubBits) + sub) << shift;
}

void LogHistogram::record(std::uint64_t v) {
  ++buckets_[bucket_of(v)];
  ++count_;
  max_ = std::max(max_, v);
}

void LogHistogram::merge(const LogHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
  max_ = std::max(max_, other.max_);
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen > rank) {
      return static_cast<double>(lower_edge(b));
    }
  }
  return static_cast<double>(max_);
}

void LayerTotals::merge(const LayerTotals& other) {
  for (int h = 0; h < kHookCount; ++h) {
    hooks[h].calls += other.hooks[h].calls;
    hooks[h].self_ticks += other.hooks[h].self_ticks;
    hooks[h].incl_ticks += other.hooks[h].incl_ticks;
  }
  events += other.events;
  advance_hook_ticks += other.advance_hook_ticks;
  window_allocs += other.window_allocs;
  window_alloc_bytes += other.window_alloc_bytes;
}

void Ledger::merge(const Ledger& other) {
  totals.merge(other.totals);
  decide_ticks.merge(other.decide_ticks);
  slice_ticks.merge(other.slice_ticks);
  pending.merge(other.pending);
  central_locks_held_max = std::max(central_locks_held_max, other.central_locks_held_max);
}

void run_begin() {
  ThreadRun& r = tl_run;
  r.open = true;
  r.run_for_calls = 0;
  r.times = RunTimes{};
  r.ledger = Ledger{};
  r.in_advance = false;
  r.depth = 0;
  r.start = Clock::now();
}

void run_end() {
  ThreadRun& r = tl_run;
  r.times.job_s = seconds(r.start, Clock::now());
  r.open = false;
  const std::lock_guard<std::mutex> lock(g_mu);
  g_times.push_back(r.times);
  g_ledger.merge(r.ledger);
}

std::vector<RunTimes> take_run_times() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return std::exchange(g_times, {});
}

Ledger take_ledger() {
  const std::lock_guard<std::mutex> lock(g_mu);
  Ledger out = g_ledger;
  g_ledger = Ledger{};
  return out;
}

Span::Span(Hook hook) : on_(tl_run.open && tl_run.depth < kMaxDepth) {
  if (on_) {
    ThreadRun& r = tl_run;
    r.stack[r.depth++] = Frame{hook, ticks(), 0};
  }
}

Span::~Span() {
  if (!on_) {
    return;
  }
  const std::uint64_t end = ticks();
  ThreadRun& r = tl_run;
  const Frame& frame = r.stack[--r.depth];
  const std::uint64_t incl = end - frame.start;
  HookStat& stat = r.ledger.totals.hooks[frame.hook];
  ++stat.calls;
  stat.incl_ticks += incl;
  stat.self_ticks += incl - std::min(incl, frame.child_ticks);
  if (frame.hook == kDecide) {
    r.ledger.decide_ticks.record(incl);
  }
  if (r.depth > 0) {
    r.stack[r.depth - 1].child_ticks += incl;
  } else if (r.in_advance) {
    r.ledger.totals.advance_hook_ticks += incl;
  }
}

void note_alloc(std::size_t bytes) {
  ThreadRun& r = tl_run;
  ++r.allocs;
  r.alloc_bytes += bytes;
}

namespace {

#if PERFBENCH_TRACED
constexpr double kSliceSeconds = 1.0;

/// Advances `system` by `span` simulated seconds in absolute-time slices of
/// kSliceSeconds, timing each slice and sampling the event population
/// between slices. The end target is computed exactly as
/// HybridSystem::run_for computes it, so the event sequence is the same as
/// one unsliced run_for; the traced-vs-untraced digest check confirms it.
void advance_in_slices(hls::HybridSystem& system, double span, bool measured) {
  ThreadRun& r = tl_run;
  hls::Simulator& sim = system.simulator();
  const double begin = sim.now();
  const double end = begin + span;
  const std::uint64_t events0 = sim.executed_events();
  const std::uint64_t allocs0 = r.allocs;
  const std::uint64_t bytes0 = r.alloc_bytes;
  r.in_advance = true;
  for (int k = 1;; ++k) {
    const double target = std::min(begin + k * kSliceSeconds, end);
    const std::uint64_t t0 = ticks();
    sim.run_until(target);
    r.ledger.slice_ticks.record(ticks() - t0);
    r.ledger.pending.record(sim.pending_events());
    r.ledger.central_locks_held_max =
        std::max<std::uint64_t>(r.ledger.central_locks_held_max,
                                system.central_locks().locks_held());
    if (target >= end) {
      break;
    }
  }
  r.in_advance = false;
  r.ledger.totals.events += sim.executed_events() - events0;
  if (measured) {
    r.ledger.totals.window_allocs += r.allocs - allocs0;
    r.ledger.totals.window_alloc_bytes += r.alloc_bytes - bytes0;
  }
}
#endif

}  // namespace
}  // namespace perfbench

// ---- boundary interposers ----
//
// __real_ references are weak: if a wrapped signature changes, the binary
// still links, the hook simply never fires, and bench.cpp reports the run
// as unmeasured instead of silently dropping it.
extern "C" {

__attribute__((weak)) hls::RunResult
__real__ZN3hls14run_simulationERKNS_12SystemConfigERKNS_12StrategySpecERKNS_10RunOptionsE(
    const hls::SystemConfig& config, const hls::StrategySpec& spec,
    const hls::RunOptions& options);

hls::RunResult
__wrap__ZN3hls14run_simulationERKNS_12SystemConfigERKNS_12StrategySpecERKNS_10RunOptionsE(
    const hls::SystemConfig& config, const hls::StrategySpec& spec,
    const hls::RunOptions& options) {
  perfbench::run_begin();
  hls::RunResult result =
      __real__ZN3hls14run_simulationERKNS_12SystemConfigERKNS_12StrategySpecERKNS_10RunOptionsE(
          config, spec, options);
  perfbench::run_end();
  return result;
}

__attribute__((weak)) void __real__ZN3hls12HybridSystem7run_forEd(hls::HybridSystem* self,
                                                                  double span);

/// The first run_for of a run ends its set-up; every run_for advances
/// simulated time. run_simulation (and the chaos workload) warm up and then
/// measure, so the second call is the measurement window.
void __wrap__ZN3hls12HybridSystem7run_forEd(hls::HybridSystem* self, double span) {
  perfbench::ThreadRun& r = perfbench::tl_run;
  if (!r.open) {
    __real__ZN3hls12HybridSystem7run_forEd(self, span);
    return;
  }
  const perfbench::Clock::time_point start = perfbench::Clock::now();
  if (r.run_for_calls++ == 0) {
    r.times.setup_s = perfbench::seconds(r.start, start);
  }
#if PERFBENCH_TRACED
  perfbench::advance_in_slices(*self, span, r.run_for_calls == 2);
#else
  __real__ZN3hls12HybridSystem7run_forEd(self, span);
#endif
  r.times.advance_s += perfbench::seconds(start, perfbench::Clock::now());
}

__attribute__((weak)) void __real__ZN3hls12HybridSystem15end_measurementEv(
    hls::HybridSystem* self);

/// Every run closes its window through end_measurement, so this is where
/// each run's bookkeeping is cross-checked (HLS_ASSERT aborts on a
/// violation).
void __wrap__ZN3hls12HybridSystem15end_measurementEv(hls::HybridSystem* self) {
  __real__ZN3hls12HybridSystem15end_measurementEv(self);
  self->check_invariants();
}

}  // extern "C"
