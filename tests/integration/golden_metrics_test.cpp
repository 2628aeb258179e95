// Golden metrics: pinned runs per architecture and protocol variant.
//
// The simulator is deterministic by contract, so for a fixed configuration
// the exact event counts and the exact (to double round-off) response-time
// sums are part of the observable behavior. These tests pin them. Any
// change to the protocol, the RNG stream layout, or the event ordering
// shows up here first — as a crisp numeric diff instead of a vague drift
// in a distributional assertion.
//
// Re-pin procedure (only after convincing yourself the behavior change is
// intended, e.g. a deliberate protocol fix):
//
//     HLS_REPIN=1 ./build/tests/golden_metrics_test
//
// prints a fresh constants block for each scenario; paste it over the
// matching `Golden` initializer below and note the cause in the commit.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "baseline/centralized_system.hpp"
#include "baseline/distributed_system.hpp"
#include "core/driver.hpp"

namespace hls {
namespace {

bool repin_mode() { return std::getenv("HLS_REPIN") != nullptr; }

SystemConfig golden_config() {
  SystemConfig cfg;
  cfg.seed = 20240117;
  cfg.arrival_rate_per_site = 1.8;
  cfg.comm_delay = 0.2;
  return cfg;
}

struct Golden {
  std::uint64_t completions;
  std::uint64_t aborts_or_deadlocks;
  double rt_sum;   ///< exact double: sum of measured response times
  double rt_mean;  ///< redundant with (rt_sum, completions); human-readable
};

void check_or_print(const char* name, std::uint64_t completions,
                    std::uint64_t aborts, double rt_sum, const Golden& want) {
  if (repin_mode()) {
    std::printf("  // %s\n  const Golden want{%lluu, %lluu, %.17g, %.17g};\n",
                name, static_cast<unsigned long long>(completions),
                static_cast<unsigned long long>(aborts), rt_sum,
                completions > 0 ? rt_sum / static_cast<double>(completions)
                                : 0.0);
    return;
  }
  EXPECT_EQ(completions, want.completions) << name;
  EXPECT_EQ(aborts, want.aborts_or_deadlocks) << name;
  // The sum is reproduced term-for-term in the same order, so it matches to
  // the last bit; 1e-9 absolute leaves headroom for compiler FP contraction.
  EXPECT_NEAR(rt_sum, want.rt_sum, 1e-9) << name;
  if (want.completions > 0) {
    EXPECT_NEAR(rt_sum / static_cast<double>(completions), want.rt_mean, 1e-9)
        << name;
  }
}

/// Per-cause abort pins: the provenance counters are part of the observable
/// behavior too, so a protocol change that shifts *why* transactions abort
/// (not just how many) is caught here. Same HLS_REPIN procedure.
struct GoldenCauses {
  std::uint64_t by_cause[static_cast<int>(AbortCause::kCount)];
  std::uint64_t with_winner;
};

void check_or_print_causes(const char* name, const Metrics& m,
                           const GoldenCauses& want) {
  if (repin_mode()) {
    std::printf("  const GoldenCauses want_causes{{");
    for (int c = 0; c < static_cast<int>(AbortCause::kCount); ++c) {
      const auto cause = static_cast<AbortCause>(c);
      std::printf("%s%lluu", c ? ", " : "",
                  static_cast<unsigned long long>(m.aborts(cause)));
    }
    std::printf("}, %lluu};  // %s\n",
                static_cast<unsigned long long>(m.aborts_with_winner()), name);
    return;
  }
  for (int c = 0; c < static_cast<int>(AbortCause::kCount); ++c) {
    EXPECT_EQ(m.aborts(static_cast<AbortCause>(c)), want.by_cause[c])
        << name << " cause " << c;
  }
  EXPECT_EQ(m.aborts_with_winner(), want.with_winner) << name;
  EXPECT_EQ(m.conflict_matrix_total(), m.aborts_total()) << name;
}

TEST(GoldenMetrics, Hybrid) {
  RunOptions opts;
  opts.warmup_seconds = 40.0;
  opts.measure_seconds = 200.0;
  const RunResult r =
      run_simulation(golden_config(), {StrategyKind::MinAverageNsys, 0.0}, opts);
  const Golden want{3451u, 16u, 3509.8352350586042, 1.017048749654768};
  check_or_print("hybrid/min-avg-nsys", r.metrics.completions,
                 r.metrics.aborts_total(), r.metrics.rt_all.sum(), want);
  const GoldenCauses want_causes{{2u, 4u, 10u, 0u, 0u, 0u}, 6u};
  check_or_print_causes("hybrid/min-avg-nsys", r.metrics, want_causes);
  if (!repin_mode()) {
    // The paper's headline composition holds exactly: every completion is
    // in exactly one of the three route/class buckets.
    EXPECT_EQ(r.metrics.completions,
              r.metrics.completions_local_a + r.metrics.completions_shipped_a +
                  r.metrics.completions_class_b);
  }
}

/// Lock-conflict-heavy variant: a small lock space and mostly exclusive
/// requests make deadlocks, preemptions and invalidations common.
SystemConfig conflict_heavy_config() {
  SystemConfig cfg = golden_config();
  cfg.lockspace = 2000;
  cfg.prob_write_lock = 0.6;
  return cfg;
}

RunResult run_golden(const SystemConfig& cfg) {
  RunOptions opts;
  opts.warmup_seconds = 40.0;
  opts.measure_seconds = 200.0;
  return run_simulation(cfg, {StrategyKind::MinAverageNsys, 0.0}, opts);
}

TEST(GoldenMetrics, HybridRemoteCallsClassB) {
  // Remote-call class B: home-site execution, every DB call a round trip to
  // the central lock table, authentication after a remote commit request.
  SystemConfig cfg = conflict_heavy_config();
  cfg.class_b_mode = ClassBMode::RemoteCalls;
  const RunResult r = run_golden(cfg);
  const Golden want{2547u, 1056u, 11320.324593662615, 4.4445718860080943};
  check_or_print("hybrid/remote-calls", r.metrics.completions,
                 r.metrics.aborts_total(), r.metrics.rt_all.sum(), want);
  const GoldenCauses want_causes{{41u, 697u, 12u, 306u, 0u, 0u}, 1044u};
  check_or_print_causes("hybrid/remote-calls", r.metrics, want_causes);
  if (!repin_mode()) {
    EXPECT_GT(r.metrics.completions_class_b, 0u);
    EXPECT_GT(r.metrics.aborts(AbortCause::Deadlock), 0u);
  }
}

TEST(GoldenMetrics, HybridYoungestDeadlockVictim) {
  // Youngest-victim deadlock resolution force-aborts a waiting cycle member
  // instead of the requester whenever that member arrived later.
  SystemConfig cfg = conflict_heavy_config();
  cfg.deadlock_victim = DeadlockVictim::Youngest;
  const RunResult r = run_golden(cfg);
  const Golden want{3454u, 454u, 4286.3132189521939, 1.2409708219317295};
  check_or_print("hybrid/youngest-victim", r.metrics.completions,
                 r.metrics.aborts_total(), r.metrics.rt_all.sum(), want);
  const GoldenCauses want_causes{{198u, 73u, 174u, 9u, 0u, 0u}, 280u};
  check_or_print_causes("hybrid/youngest-victim", r.metrics, want_causes);
  if (!repin_mode()) {
    EXPECT_GT(r.metrics.aborts(AbortCause::Deadlock), 0u);
  }
}

TEST(GoldenMetrics, HybridRemoteCallsYoungestDeadlockVictim) {
  // Both at once: force-aborted victims are local class A, remote-call
  // class B and shipped class A transactions alike.
  SystemConfig cfg = conflict_heavy_config();
  cfg.class_b_mode = ClassBMode::RemoteCalls;
  cfg.deadlock_victim = DeadlockVictim::Youngest;
  const RunResult r = run_golden(cfg);
  const Golden want{2569u, 985u, 9240.5253341621665, 3.5969347349794343};
  check_or_print("hybrid/remote-calls+youngest", r.metrics.completions,
                 r.metrics.aborts_total(), r.metrics.rt_all.sum(), want);
  const GoldenCauses want_causes{{34u, 698u, 11u, 242u, 0u, 0u}, 974u};
  check_or_print_causes("hybrid/remote-calls+youngest", r.metrics,
                        want_causes);
  if (!repin_mode()) {
    EXPECT_GT(r.metrics.aborts(AbortCause::Deadlock), 0u);
  }
}

TEST(GoldenMetrics, Centralized) {
  CentralizedSystem sys(golden_config());
  sys.enable_arrivals();
  sys.run_for(40.0);
  sys.begin_measurement();
  sys.run_for(200.0);
  sys.end_measurement();
  const Golden want{3555u, 1u, 2603.4694828701604, 0.73234022021664147};
  check_or_print("centralized", sys.metrics().completions,
                 sys.metrics().deadlock_aborts, sys.metrics().rt_all.sum(),
                 want);
}

TEST(GoldenMetrics, Distributed) {
  DistributedSystem sys(golden_config());
  sys.enable_arrivals();
  sys.run_for(40.0);
  sys.begin_measurement();
  sys.run_for(200.0);
  sys.end_measurement();
  const Golden want{3326u, 89u, 45681.472424492189, 13.73465797489242};
  check_or_print("distributed", sys.metrics().completions,
                 sys.metrics().deadlock_aborts + sys.metrics().timeout_aborts,
                 sys.metrics().rt_all.sum(), want);
}

TEST(GoldenMetrics, HybridWithFaultsAndSampler) {
  // The faulted + sampled variant pins the interaction of fault injection,
  // the timeout ladder, and the (read-only) time-series sampler: if the
  // sampler ever perturbs the event sequence, this diverges from the
  // equivalent run in determinism_test.
  SystemConfig cfg = golden_config();
  cfg.ship_timeout = 2.0;
  cfg.obs_sample_interval = 1.0;
  cfg.faults.windows.push_back(
      {FaultKind::CentralOutage, -1, 60.0, 15.0, 1.0, 0.0});
  cfg.faults.windows.push_back({FaultKind::SiteOutage, 2, 120.0, 10.0, 1.0, 0.0});
  RunOptions opts;
  opts.warmup_seconds = 40.0;
  opts.measure_seconds = 200.0;
  const RunResult r = run_simulation(
      cfg, {StrategyKind::MinAverageNsys, 0.0, /*failure_aware=*/true}, opts);
  const Golden want{3435u, 52u, 4492.9985187539987, 1.3080053911947596};
  check_or_print("hybrid/faults+sampler", r.metrics.completions,
                 r.metrics.aborts_total(), r.metrics.rt_all.sum(), want);
  const GoldenCauses want_causes{{8u, 4u, 9u, 0u, 25u, 6u}, 12u};
  check_or_print_causes("hybrid/faults+sampler", r.metrics, want_causes);
  if (!repin_mode()) {
    // One sample per second of the 200 s window (begin_measurement clears
    // the warmup samples; the edge sample at window close may or may not
    // land inside depending on event ordering at the boundary).
    EXPECT_GE(r.series.size(), 199u);
    EXPECT_LE(r.series.size(), 201u);
    EXPECT_GT(r.metrics.ship_timeouts(), 0u);
  }
}

}  // namespace
}  // namespace hls
