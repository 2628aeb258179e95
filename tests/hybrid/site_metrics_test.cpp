#include <gtest/gtest.h>

#include "hybrid/hybrid_system.hpp"
#include "routing/analytic_strategies.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

TEST(SiteMetrics, PerSiteCountsSumToGlobal) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 17;
  HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.4, 17));
  sys.enable_arrivals();
  sys.run_for(200.0);
  sys.stop_arrivals();
  sys.drain();

  std::uint64_t arrivals = 0;
  std::uint64_t shipped = 0;
  std::uint64_t local_completions = 0;
  std::uint64_t shipped_completions = 0;
  for (int s = 0; s < cfg.num_sites; ++s) {
    const SiteMetrics& sm = sys.site_metrics(s);
    arrivals += sm.arrivals_class_a;
    shipped += sm.shipped_class_a;
    local_completions += sm.rt_local_a.count();
    shipped_completions += sm.rt_shipped_a.count();
  }
  const Metrics& m = sys.metrics();
  EXPECT_EQ(arrivals, m.arrivals_class_a());
  EXPECT_EQ(shipped, m.shipped_class_a());
  EXPECT_EQ(local_completions, m.completions_local_a);
  EXPECT_EQ(shipped_completions, m.completions_shipped_a);
}

TEST(SiteMetrics, ShipFractionPerSiteNearGlobal) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 18;
  HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.5, 18));
  sys.enable_arrivals();
  sys.run_for(500.0);
  for (int s = 0; s < cfg.num_sites; ++s) {
    EXPECT_NEAR(sys.site_metrics(s).ship_fraction(), 0.5, 0.1);
  }
}

TEST(SiteMetrics, SurgingSiteShipsMoreThanQuietOnes) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 1.2;
  cfg.seed = 19;
  const ModelParams base = ModelParams::from_config(cfg);
  HybridSystem sys(cfg, std::make_unique<MinAverageRtStrategy>(
                            base, UtilSource::NumInSystem));
  sys.set_arrival_rate_function(0, [](SimTime) { return 5.0; }, 5.0);
  sys.enable_arrivals();
  sys.run_for(400.0);
  const double surge_ship = sys.site_metrics(0).ship_fraction();
  double quiet_ship = 0.0;
  for (int s = 1; s < cfg.num_sites; ++s) {
    quiet_ship += sys.site_metrics(s).ship_fraction();
  }
  quiet_ship /= cfg.num_sites - 1;
  EXPECT_GT(surge_ship, quiet_ship + 0.1);
}

TEST(SiteMetrics, ShipFaultCountersSumToGlobalAndLandOnTheHomeSite) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  cfg.ship_timeout = 1.0;
  cfg.ship_backoff = 2.0;
  cfg.ship_max_retries = 2;
  cfg.faults.windows.push_back(
      {FaultKind::CentralOutage, -1, 0.0, 100.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  // One doomed shipped transaction from site 3: the whole timeout ladder is
  // attributed to that home site and to no other.
  Transaction txn;
  txn.id = 1;
  txn.cls = TxnClass::A;
  txn.home_site = 3;
  txn.locks = {{5, LockMode::Exclusive}};
  txn.call_io.assign(1, true);
  sys.inject_transaction(std::move(txn));
  sys.simulator().run();

  const SiteMetrics& home = sys.site_metrics(3);
  EXPECT_EQ(home.ship_timeouts, 3u);
  EXPECT_EQ(home.ship_retries, 2u);
  EXPECT_EQ(home.ship_fallbacks, 1u);
  for (int s = 0; s < cfg.num_sites; ++s) {
    if (s == 3) {
      continue;
    }
    EXPECT_EQ(sys.site_metrics(s).ship_timeouts, 0u);
    EXPECT_EQ(sys.site_metrics(s).ship_retries, 0u);
    EXPECT_EQ(sys.site_metrics(s).ship_fallbacks, 0u);
  }
  EXPECT_EQ(sys.metrics().ship_timeouts(), 3u);
  EXPECT_EQ(sys.metrics().ship_retries(), 2u);
  EXPECT_EQ(sys.metrics().ship_fallbacks(), 1u);
  sys.check_invariants();
}

TEST(SiteMetrics, ShipFaultCountersSumToGlobalUnderLoad) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 1.6;
  cfg.seed = 21;
  cfg.ship_timeout = 2.0;
  cfg.faults.windows.push_back(
      {FaultKind::CentralOutage, -1, 10.0, 8.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.5, 21));
  sys.enable_arrivals();
  sys.run_for(60.0);
  sys.stop_arrivals();
  sys.drain();

  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t fallbacks = 0;
  for (int s = 0; s < cfg.num_sites; ++s) {
    const SiteMetrics& sm = sys.site_metrics(s);
    timeouts += sm.ship_timeouts;
    retries += sm.ship_retries;
    fallbacks += sm.ship_fallbacks;
  }
  const Metrics& m = sys.metrics();
  EXPECT_GT(m.ship_timeouts(), 0u);  // the outage actually bit
  EXPECT_EQ(timeouts, m.ship_timeouts());
  EXPECT_EQ(retries, m.ship_retries());
  EXPECT_EQ(fallbacks, m.ship_fallbacks());
  sys.check_invariants();
}

TEST(SiteMetrics, PhaseBreakdownSumsToGlobalPerPhase) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 22;
  HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.4, 22));
  sys.enable_arrivals();
  sys.run_for(80.0);
  sys.stop_arrivals();
  sys.drain();
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    double site_sum = 0.0;
    std::uint64_t site_count = 0;
    for (int s = 0; s < cfg.num_sites; ++s) {
      site_sum += sys.site_metrics(s).rt_phase[static_cast<std::size_t>(p)].sum();
      site_count +=
          sys.site_metrics(s).rt_phase[static_cast<std::size_t>(p)].count();
    }
    const SampleStat& global =
        sys.metrics().rt_phase[static_cast<std::size_t>(p)];
    EXPECT_EQ(site_count, global.count());
    EXPECT_NEAR(site_sum, global.sum(), 1e-9 * (1.0 + global.sum()));
  }
}

TEST(SiteMetrics, ResetOnBeginMeasurement) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 20;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.enable_arrivals();
  sys.run_for(50.0);
  EXPECT_GT(sys.site_metrics(0).arrivals_class_a, 0u);
  sys.begin_measurement();
  EXPECT_EQ(sys.site_metrics(0).arrivals_class_a, 0u);
  EXPECT_EQ(sys.site_metrics(0).rt_local_a.count(), 0u);
}

}  // namespace
}  // namespace hls
