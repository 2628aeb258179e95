// Degenerate and extreme configurations: the system must stay correct (and
// live) at the edges of its parameter space.
#include <gtest/gtest.h>

#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"
#include "routing/factory.hpp"

namespace hls {
namespace {

std::unique_ptr<RoutingStrategy> strat(const SystemConfig& cfg, StrategyKind kind,
                                       double param = 0.0) {
  return make_strategy({kind, param}, ModelParams::from_config(cfg), cfg.seed);
}

void run_and_drain(HybridSystem& sys, double seconds) {
  sys.enable_arrivals();
  sys.run_for(seconds);
  sys.stop_arrivals();
  sys.drain();
  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(sys.metrics().completions,
            sys.metrics().arrivals_class_a() + sys.metrics().arrivals_class_b);
  sys.check_invariants();
}

TEST(EdgeConfig, SingleSiteSystem) {
  SystemConfig cfg;
  cfg.num_sites = 1;
  cfg.arrival_rate_per_site = 1.0;
  cfg.seed = 41;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::MinAverageNsys));
  run_and_drain(sys, 100.0);
}

TEST(EdgeConfig, ZeroCommDelay) {
  SystemConfig cfg;
  cfg.comm_delay = 0.0;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 42;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::QueueLength));
  run_and_drain(sys, 100.0);
  // With free communication and a 15x CPU, shipping should dominate.
  EXPECT_GT(sys.metrics().ship_fraction(), 0.3);
}

TEST(EdgeConfig, AllTransactionsLocalClass) {
  SystemConfig cfg;
  cfg.prob_class_a = 1.0;
  cfg.arrival_rate_per_site = 1.5;
  cfg.seed = 43;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::NoLoadSharing));
  run_and_drain(sys, 100.0);
  EXPECT_EQ(sys.metrics().arrivals_class_b, 0u);
  EXPECT_EQ(sys.metrics().aborts_total(), 0u);  // nothing central: no conflicts
}

TEST(EdgeConfig, AllTransactionsGlobalClass) {
  SystemConfig cfg;
  cfg.prob_class_a = 0.0;
  cfg.arrival_rate_per_site = 1.5;
  cfg.seed = 44;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::MinAverageNsys));
  run_and_drain(sys, 100.0);
  EXPECT_EQ(sys.metrics().arrivals_class_a(), 0u);
  EXPECT_DOUBLE_EQ(sys.metrics().ship_fraction(), 0.0);
  EXPECT_EQ(sys.metrics().completions, sys.metrics().completions_class_b);
}

TEST(EdgeConfig, ReadOnlyWorkloadNeverAborts) {
  SystemConfig cfg;
  cfg.prob_write_lock = 0.0;  // shared locks everywhere, no updates
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 45;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::StaticProbability, 0.5));
  run_and_drain(sys, 100.0);
  EXPECT_EQ(sys.metrics().aborts_total(), 0u);
  EXPECT_EQ(sys.metrics().async_updates_sent, 0u);
}

TEST(EdgeConfig, WriteEverythingWorkload) {
  SystemConfig cfg;
  cfg.prob_write_lock = 1.0;
  cfg.arrival_rate_per_site = 1.5;
  cfg.seed = 46;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::StaticProbability, 0.4));
  run_and_drain(sys, 100.0);
  EXPECT_GT(sys.metrics().async_updates_sent, 0u);
}

TEST(EdgeConfig, NoCallIo) {
  SystemConfig cfg;
  cfg.prob_call_io = 0.0;
  cfg.setup_io_time = 0.0;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 47;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::MinIncomingNsys));
  run_and_drain(sys, 100.0);
}

TEST(EdgeConfig, SingleCallTransactions) {
  SystemConfig cfg;
  cfg.db_calls_per_txn = 1;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 48;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::MinAverageQueue));
  run_and_drain(sys, 100.0);
}

TEST(EdgeConfig, ManySites) {
  SystemConfig cfg;
  cfg.num_sites = 25;
  cfg.arrival_rate_per_site = 0.8;
  cfg.seed = 49;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::MinAverageNsys));
  run_and_drain(sys, 60.0);
}

TEST(EdgeConfig, RestartBackoffDelaysReruns) {
  SystemConfig cfg;
  cfg.abort_restart_delay = 0.5;
  cfg.lockspace = 4000;
  cfg.prob_write_lock = 0.6;
  cfg.arrival_rate_per_site = 2.4;
  cfg.seed = 50;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::StaticProbability, 0.5));
  run_and_drain(sys, 100.0);
  EXPECT_GT(sys.metrics().aborts_total(), 0u);  // backoff path exercised
}

TEST(EdgeConfig, TinyLockSpaceStillDrains) {
  SystemConfig cfg;
  cfg.lockspace = 200;  // 20 entities per site: hot but feasible at low rate
  cfg.arrival_rate_per_site = 0.5;
  cfg.seed = 51;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::StaticProbability, 0.3));
  run_and_drain(sys, 150.0);
}

TEST(EdgeConfig, AsymmetricMips) {
  SystemConfig cfg;
  cfg.central_mips = 2.0;  // barely faster than a local site
  cfg.arrival_rate_per_site = 1.0;
  cfg.seed = 52;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::MinAverageNsys));
  run_and_drain(sys, 100.0);
  // With a weak central complex the strategy should ship very little.
  EXPECT_LT(sys.metrics().ship_fraction(), 0.35);
}

TEST(EdgeConfig, LongDelayHighLoad) {
  SystemConfig cfg;
  cfg.comm_delay = 1.0;
  cfg.arrival_rate_per_site = 2.4;
  cfg.seed = 53;
  HybridSystem sys(cfg, strat(cfg, StrategyKind::MinAverageNsys));
  run_and_drain(sys, 100.0);
}

class EveryStrategyEdge
    : public ::testing::TestWithParam<std::tuple<StrategyKind, int>> {};

TEST_P(EveryStrategyEdge, SingleSiteZeroDelayDrains) {
  const auto [kind, seed] = GetParam();
  SystemConfig cfg;
  cfg.num_sites = 1;
  cfg.comm_delay = 0.0;
  cfg.arrival_rate_per_site = 1.0;
  cfg.seed = static_cast<std::uint64_t>(seed);
  HybridSystem sys(cfg, strat(cfg, kind, kind == StrategyKind::UtilThreshold
                                             ? -0.1
                                             : 0.0));
  run_and_drain(sys, 60.0);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, EveryStrategyEdge,
    ::testing::Combine(
        ::testing::Values(StrategyKind::NoLoadSharing, StrategyKind::MeasuredRt,
                          StrategyKind::QueueLength, StrategyKind::UtilThreshold,
                          StrategyKind::MinIncomingQueue,
                          StrategyKind::MinAverageNsys),
        ::testing::Values(1, 2)));

}  // namespace
}  // namespace hls
