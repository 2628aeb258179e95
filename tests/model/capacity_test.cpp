#include "model/capacity.hpp"

#include <gtest/gtest.h>

#include "core/driver.hpp"

namespace hls {
namespace {

ModelParams paper_baseline(double delay = 0.2) {
  ModelParams p;
  p.comm_delay = delay;
  return p;
}

TEST(Capacity, NoSharingCapacityNearTwentyTps) {
  // The paper's headline: "the maximum transaction rate supportable is
  // limited to about 20 transactions per second" without load sharing.
  const auto r = CapacityAnalyzer().capacity_fixed_ship(paper_baseline(), 0.0);
  EXPECT_GT(r.max_total_tps, 15.0);
  EXPECT_LT(r.max_total_tps, 30.0);
  EXPECT_GT(r.rt_unloaded, 0.5);
  EXPECT_LE(r.rt_at_capacity, 5.0 * r.rt_unloaded * 1.01);
}

TEST(Capacity, StaticSharingExtendsCapacitySubstantially) {
  const CapacityAnalyzer analyzer;
  const auto none = analyzer.capacity_fixed_ship(paper_baseline(), 0.0);
  const auto opt = analyzer.capacity_static_optimal(paper_baseline());
  EXPECT_GT(opt.max_total_tps, none.max_total_tps * 1.3);
  EXPECT_GT(opt.p_ship_at_capacity, 0.3);
}

TEST(Capacity, StaticOptimalCapacityKeepsItsBits) {
  // Hexfloat pins recorded before the fixed point's two abort splits shared
  // one Simpson pass: the bisection re-optimizes p_ship at every load, so
  // these carry every optimizer result along its path.
  const auto r = CapacityAnalyzer().capacity_static_optimal(paper_baseline());
  EXPECT_EQ(r.max_total_tps, 0x1.5b651401b2056p+5);
  EXPECT_EQ(r.rt_at_capacity, 0x1.aa9749c482ba7p+0);
  EXPECT_EQ(r.p_ship_at_capacity, 0x1.2cbbb3350ffap-1);
  EXPECT_EQ(r.rt_unloaded, 0x1.b12be2b08bf8cp-1);
}

TEST(Capacity, LargerDelayReducesSharedCapacityGain) {
  const CapacityAnalyzer analyzer;
  const auto near_opt = analyzer.capacity_static_optimal(paper_baseline(0.2));
  const auto far_opt = analyzer.capacity_static_optimal(paper_baseline(0.5));
  const auto near_none = analyzer.capacity_fixed_ship(paper_baseline(0.2), 0.0);
  const auto far_none = analyzer.capacity_fixed_ship(paper_baseline(0.5), 0.0);
  const double gain_near = near_opt.max_total_tps / near_none.max_total_tps;
  const double gain_far = far_opt.max_total_tps / far_none.max_total_tps;
  EXPECT_GE(gain_near, gain_far * 0.95);  // §4.2: benefit shrinks with delay
}

TEST(Capacity, FullShippingLimitedByCentralComplex) {
  // With everything shipped, capacity is bounded by central CPU:
  // 15 MIPS / ~480K instr per txn plus overheads -> low-30s tps.
  const auto r = CapacityAnalyzer().capacity_fixed_ship(paper_baseline(), 1.0);
  EXPECT_GT(r.max_total_tps, 20.0);
  EXPECT_LT(r.max_total_tps, 40.0);
}

TEST(Capacity, MoreLocalMipsRaisesNoSharingCapacity) {
  ModelParams fast = paper_baseline();
  fast.local_mips = 2.0;
  const CapacityAnalyzer analyzer;
  EXPECT_GT(analyzer.capacity_fixed_ship(fast, 0.0).max_total_tps,
            analyzer.capacity_fixed_ship(paper_baseline(), 0.0).max_total_tps * 1.5);
}

TEST(Capacity, StricterKneeLowersCapacity) {
  CapacityAnalyzer::Options tight;
  tight.rt_limit_factor = 2.0;
  CapacityAnalyzer::Options loose;
  loose.rt_limit_factor = 8.0;
  const auto t = CapacityAnalyzer(tight).capacity_fixed_ship(paper_baseline(), 0.0);
  const auto l = CapacityAnalyzer(loose).capacity_fixed_ship(paper_baseline(), 0.0);
  EXPECT_LT(t.max_total_tps, l.max_total_tps);
}

TEST(Capacity, SimulationConfirmsModelCapacity) {
  // At the model's no-sharing capacity the simulator must still deliver the
  // offered load; 30% beyond it, it must not.
  const auto cap = CapacityAnalyzer().capacity_fixed_ship(paper_baseline(), 0.0);
  SystemConfig cfg;
  cfg.seed = 5;
  RunOptions opts;
  opts.warmup_seconds = 100.0;
  opts.measure_seconds = 500.0;

  cfg.arrival_rate_per_site = cap.max_total_tps / cfg.num_sites;
  const RunResult at_cap =
      run_simulation(cfg, {StrategyKind::NoLoadSharing, 0.0}, opts);
  EXPECT_NEAR(at_cap.metrics.throughput(), cap.max_total_tps,
              0.08 * cap.max_total_tps);

  cfg.arrival_rate_per_site = 1.3 * cap.max_total_tps / cfg.num_sites;
  const RunResult beyond =
      run_simulation(cfg, {StrategyKind::NoLoadSharing, 0.0}, opts);
  EXPECT_LT(beyond.metrics.throughput(), 1.25 * cap.max_total_tps);
  EXPECT_GT(beyond.metrics.rt_all.mean(), 3.0 * at_cap.metrics.rt_all.mean());
}

}  // namespace
}  // namespace hls
