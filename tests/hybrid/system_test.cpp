// Whole-system stochastic tests: conservation, liveness (drain to empty),
// determinism, and invariant preservation under every routing strategy.
#include <gtest/gtest.h>

#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"
#include "routing/factory.hpp"

namespace hls {
namespace {

SystemConfig loaded_config(double total_tps, std::uint64_t seed = 7) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = total_tps / cfg.num_sites;
  cfg.seed = seed;
  return cfg;
}

std::unique_ptr<RoutingStrategy> build(const StrategySpec& spec,
                                       const SystemConfig& cfg) {
  return make_strategy(spec, ModelParams::from_config(cfg), cfg.seed);
}

// Run under load, stop arrivals, drain, and verify the system empties with
// every resource and counter back to zero — the strongest liveness check.
class DrainTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(DrainTest, SystemDrainsCleanlyUnderLoad) {
  const SystemConfig cfg = loaded_config(24.0);
  StrategySpec spec{GetParam(), GetParam() == StrategyKind::UtilThreshold ? -0.2
                    : GetParam() == StrategyKind::StaticProbability ? 0.5
                                                                    : 0.0};
  HybridSystem sys(cfg, build(spec, cfg));
  sys.enable_arrivals();
  sys.run_for(120.0);
  sys.check_invariants();
  sys.stop_arrivals();
  sys.drain();

  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(sys.central_resident(), 0);
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
  EXPECT_EQ(sys.central_locks().waiters(), 0u);
  for (int s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(sys.local_resident(s), 0);
    EXPECT_EQ(sys.shipped_in_flight(s), 0);
    EXPECT_EQ(sys.local_locks(s).locks_held(), 0u);
    EXPECT_EQ(sys.local_locks(s).waiters(), 0u);
    EXPECT_EQ(sys.local_locks(s).pending_coherence_entities(), 0u);
  }
  sys.check_invariants();

  // Conservation: every arrival completed.
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, m.arrivals_class_a() + m.arrivals_class_b);
  EXPECT_EQ(m.completions, m.completions_local_a + m.completions_shipped_a +
                               m.completions_class_b);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, DrainTest,
    ::testing::Values(StrategyKind::NoLoadSharing, StrategyKind::AlwaysCentral,
                      StrategyKind::StaticProbability, StrategyKind::MeasuredRt,
                      StrategyKind::QueueLength, StrategyKind::UtilThreshold,
                      StrategyKind::MinIncomingQueue, StrategyKind::MinIncomingNsys,
                      StrategyKind::MinAverageQueue, StrategyKind::MinAverageNsys));

TEST(SystemTest, DeterministicForIdenticalSeeds) {
  auto run_once = [] {
    const SystemConfig cfg = loaded_config(20.0, 99);
    HybridSystem sys(cfg, build({StrategyKind::MinAverageNsys, 0.0}, cfg));
    sys.enable_arrivals();
    sys.run_for(150.0);
    return std::make_tuple(sys.metrics().completions,
                           sys.metrics().rt_all.mean(),
                           sys.metrics().shipped_class_a());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SystemTest, DifferentSeedsDiffer) {
  auto run_once = [](std::uint64_t seed) {
    const SystemConfig cfg = loaded_config(20.0, seed);
    HybridSystem sys(cfg, build({StrategyKind::QueueLength, 0.0}, cfg));
    sys.enable_arrivals();
    sys.run_for(150.0);
    return sys.metrics().rt_all.mean();
  };
  EXPECT_NE(run_once(1), run_once(2));
}

TEST(SystemTest, ThroughputTracksOfferedLoadBelowSaturation) {
  const SystemConfig cfg = loaded_config(15.0);
  HybridSystem sys(cfg, build({StrategyKind::StaticProbability, 0.4}, cfg));
  sys.enable_arrivals();
  sys.run_for(100.0);
  sys.begin_measurement();
  sys.run_for(600.0);
  sys.end_measurement();
  EXPECT_NEAR(sys.metrics().throughput(), 15.0, 1.0);
}

TEST(SystemTest, ResponseTimeCategoriesPartitionCompletions) {
  const SystemConfig cfg = loaded_config(20.0);
  HybridSystem sys(cfg, build({StrategyKind::StaticProbability, 0.5}, cfg));
  sys.enable_arrivals();
  sys.run_for(200.0);
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.rt_all.count(), m.completions);
  EXPECT_EQ(m.rt_local_a.count() + m.rt_shipped_a.count() + m.rt_class_b.count(),
            m.completions);
  EXPECT_EQ(m.rt_first_try.count() + m.rt_rerun.count(), m.completions);
  EXPECT_GT(m.completions_shipped_a, 0u);
  EXPECT_GT(m.completions_local_a, 0u);
}

TEST(SystemTest, WarmupResetDiscardsHistory) {
  const SystemConfig cfg = loaded_config(20.0);
  HybridSystem sys(cfg, build({StrategyKind::NoLoadSharing, 0.0}, cfg));
  sys.enable_arrivals();
  sys.run_for(100.0);
  const auto before = sys.metrics().completions;
  EXPECT_GT(before, 0u);
  sys.begin_measurement();
  EXPECT_EQ(sys.metrics().completions, 0u);
  EXPECT_DOUBLE_EQ(sys.metrics().measure_start, sys.simulator().now());
  sys.run_for(100.0);
  sys.end_measurement();
  EXPECT_GT(sys.metrics().completions, 0u);
  EXPECT_GT(sys.metrics().mean_local_utilization, 0.0);
}

TEST(SystemTest, ShipFractionZeroWithoutLoadSharing) {
  const SystemConfig cfg = loaded_config(20.0);
  HybridSystem sys(cfg, build({StrategyKind::NoLoadSharing, 0.0}, cfg));
  sys.enable_arrivals();
  sys.run_for(200.0);
  EXPECT_DOUBLE_EQ(sys.metrics().ship_fraction(), 0.0);
  EXPECT_EQ(sys.metrics().completions_shipped_a, 0u);
}

TEST(SystemTest, ShipFractionOneWhenAlwaysCentral) {
  const SystemConfig cfg = loaded_config(15.0);
  HybridSystem sys(cfg, build({StrategyKind::AlwaysCentral, 0.0}, cfg));
  sys.enable_arrivals();
  sys.run_for(200.0);
  EXPECT_DOUBLE_EQ(sys.metrics().ship_fraction(), 1.0);
}

TEST(SystemTest, ClassMixApproximatelyRespected) {
  const SystemConfig cfg = loaded_config(20.0);
  HybridSystem sys(cfg, build({StrategyKind::NoLoadSharing, 0.0}, cfg));
  sys.enable_arrivals();
  sys.run_for(500.0);
  const Metrics& m = sys.metrics();
  const double frac_a =
      static_cast<double>(m.arrivals_class_a()) /
      static_cast<double>(m.arrivals_class_a() + m.arrivals_class_b);
  EXPECT_NEAR(frac_a, 0.75, 0.03);
}

TEST(SystemTest, AbortsOccurUnderHighContention) {
  SystemConfig cfg = loaded_config(24.0);
  // Small lock space + write-heavy mix: heavy contention yet still feasible
  // (500 locks / 80% writes would thrash into pure deadlock collapse).
  cfg.lockspace = 4000;
  cfg.prob_write_lock = 0.6;
  HybridSystem sys(cfg, build({StrategyKind::StaticProbability, 0.5}, cfg));
  sys.enable_arrivals();
  sys.run_for(150.0);
  sys.stop_arrivals();
  sys.drain();
  const Metrics& m = sys.metrics();
  EXPECT_GT(m.aborts_total(), 0u);
  EXPECT_EQ(m.completions, m.arrivals_class_a() + m.arrivals_class_b);
  sys.check_invariants();
}

TEST(SystemTest, TimeVaryingArrivalSurgeShiftsLoad) {
  SystemConfig cfg = loaded_config(10.0);
  HybridSystem sys(cfg, build({StrategyKind::MinAverageNsys, 0.0}, cfg));
  // Site 0 surges to 8 tps for t in [50, 150); others stay at 1 tps.
  sys.set_arrival_rate_function(
      0, [](SimTime t) { return (t >= 50.0 && t < 150.0) ? 8.0 : 1.0; }, 8.0);
  sys.enable_arrivals();
  sys.run_for(300.0);
  sys.stop_arrivals();
  sys.drain();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, m.arrivals_class_a() + m.arrivals_class_b);
  // The surge forces shipping even though the baseline load would not.
  EXPECT_GT(m.shipped_class_a(), 0u);
}

TEST(SystemTest, InjectDuringStochasticLoadIsSafe) {
  const SystemConfig cfg = loaded_config(18.0);
  HybridSystem sys(cfg, build({StrategyKind::QueueLength, 0.0}, cfg));
  sys.enable_arrivals();
  sys.run_for(50.0);
  sys.inject(TxnClass::A, 3);
  sys.inject(TxnClass::B, 5);
  sys.run_for(50.0);
  sys.stop_arrivals();
  sys.drain();
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

// Property sweep: invariants hold across seeds and loads for the flagship
// strategy.
struct SweepCase {
  std::uint64_t seed;
  double tps;
};

class InvariantSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(InvariantSweep, DrainAndConservation) {
  const SweepCase c = GetParam();
  const SystemConfig cfg = loaded_config(c.tps, c.seed);
  HybridSystem sys(cfg, build({StrategyKind::MinAverageNsys, 0.0}, cfg));
  sys.enable_arrivals();
  sys.run_for(80.0);
  sys.stop_arrivals();
  sys.drain();
  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(sys.metrics().completions,
            sys.metrics().arrivals_class_a() + sys.metrics().arrivals_class_b);
  sys.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLoads, InvariantSweep,
    ::testing::Values(SweepCase{1, 8.0}, SweepCase{2, 16.0}, SweepCase{3, 24.0},
                      SweepCase{4, 32.0}, SweepCase{5, 40.0}, SweepCase{6, 24.0},
                      SweepCase{7, 36.0}, SweepCase{8, 12.0}));

}  // namespace
}  // namespace hls
