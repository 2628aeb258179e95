// Heterogeneous site speeds and variable transaction lengths (workload
// extensions used by the sensitivity ablations).
#include <gtest/gtest.h>

#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"
#include "routing/analytic_strategies.hpp"
#include "routing/basic_strategies.hpp"
#include "workload/txn_factory.hpp"

namespace hls {
namespace {

TEST(Heterogeneous, PerSiteMipsChangesLocalResponseTime) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  cfg.num_sites = 2;
  cfg.local_mips_per_site = {1.0, 4.0};
  cfg.validate();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  Transaction slow;
  slow.id = 1;
  slow.cls = TxnClass::A;
  slow.home_site = 0;
  slow.locks = {{5, LockMode::Shared}};
  slow.call_io = {true};
  Transaction fast = slow;
  fast.id = 2;
  fast.home_site = 1;
  fast.locks = {{cfg.partition_size() + 5, LockMode::Shared}};
  sys.inject_transaction(slow);
  sys.inject_transaction(fast);
  sys.simulator().run();
  // Site 0 at 1 MIPS: 0.075 + 0.035 + 0.055 + 0.075 = 0.240.
  // Site 1 at 4 MIPS: CPU terms quartered: 0.01875+0.035+(0.0075+0.025)+0.01875.
  EXPECT_NEAR(sys.site_metrics(0).rt_local_a.mean(), 0.240, 1e-9);
  EXPECT_NEAR(sys.site_metrics(1).rt_local_a.mean(),
              0.01875 + 0.035 + 0.0325 + 0.01875, 1e-9);
}

TEST(Heterogeneous, ValidateRejectsWrongVectorLength) {
  SystemConfig cfg;
  cfg.num_sites = 3;
  cfg.local_mips_per_site = {1.0, 2.0};  // wrong length
  EXPECT_DEATH(cfg.validate(), "local_mips_per_site");
}

TEST(Heterogeneous, SlowSiteShipsMoreUnderDynamicRouting) {
  SystemConfig cfg;
  cfg.num_sites = 4;
  cfg.arrival_rate_per_site = 1.2;
  cfg.local_mips_per_site = {0.5, 2.0, 2.0, 2.0};  // site 0 is the weakling
  cfg.seed = 91;
  const ModelParams base = ModelParams::from_config(cfg);
  HybridSystem sys(cfg, std::make_unique<MinAverageRtStrategy>(
                            base, UtilSource::NumInSystem));
  sys.enable_arrivals();
  sys.run_for(400.0);
  const double weak_ship = sys.site_metrics(0).ship_fraction();
  double strong_ship = 0.0;
  for (int s = 1; s < 4; ++s) {
    strong_ship += sys.site_metrics(s).ship_fraction();
  }
  strong_ship /= 3.0;
  EXPECT_GT(weak_ship, strong_ship + 0.15);
}

TEST(Heterogeneous, DrainsCleanly) {
  SystemConfig cfg;
  cfg.num_sites = 5;
  cfg.arrival_rate_per_site = 1.0;
  cfg.local_mips_per_site = {0.6, 0.8, 1.0, 1.5, 3.0};
  cfg.seed = 92;
  const ModelParams base = ModelParams::from_config(cfg);
  HybridSystem sys(cfg, std::make_unique<MinAverageRtStrategy>(
                            base, UtilSource::CpuQueue));
  sys.enable_arrivals();
  sys.run_for(120.0);
  sys.stop_arrivals();
  sys.drain();
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(GeometricCalls, MeanLengthMatchesConfig) {
  SystemConfig cfg;
  cfg.geometric_call_count = true;
  cfg.db_calls_per_txn = 10;
  TxnFactory factory(cfg, Rng(5));
  double total = 0.0;
  int min_len = 1 << 30;
  int max_len = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Transaction txn = factory.make(0, 0.0);
    const int len = static_cast<int>(txn.locks.size());
    total += len;
    min_len = std::min(min_len, len);
    max_len = std::max(max_len, len);
    ASSERT_EQ(txn.call_io.size(), txn.locks.size());
  }
  EXPECT_NEAR(total / n, 10.0, 0.3);
  EXPECT_EQ(min_len, 1);
  EXPECT_GT(max_len, 25);
  EXPECT_LE(max_len, 80);  // truncation at 8x mean
}

TEST(GeometricCalls, SystemRunsAndDrains) {
  SystemConfig cfg;
  cfg.geometric_call_count = true;
  cfg.arrival_rate_per_site = 1.5;
  cfg.seed = 93;
  HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.4, 93));
  sys.enable_arrivals();
  sys.run_for(120.0);
  sys.stop_arrivals();
  sys.drain();
  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(sys.metrics().completions,
            sys.metrics().arrivals_class_a() + sys.metrics().arrivals_class_b);
  sys.check_invariants();
}

TEST(GeometricCalls, VarianceRaisesTailResponseTimes) {
  auto p99 = [](bool geometric) {
    SystemConfig cfg;
    cfg.geometric_call_count = geometric;
    cfg.arrival_rate_per_site = 1.8;
    cfg.seed = 94;
    HybridSystem sys(cfg,
                     std::make_unique<StaticProbabilisticStrategy>(0.4, 94));
    sys.enable_arrivals();
    sys.run_for(400.0);
    return sys.metrics().rt_histogram.quantile(0.99);
  };
  EXPECT_GT(p99(true), p99(false) * 1.3);
}

}  // namespace
}  // namespace hls
