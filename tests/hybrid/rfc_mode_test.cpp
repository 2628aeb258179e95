// Class B via remote function calls (ClassBMode::RemoteCalls) — the §3
// alternative the paper mentions but does not analyze.
#include <gtest/gtest.h>

#include "hybrid/hybrid_system.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

SystemConfig rfc_config() {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  cfg.class_b_mode = ClassBMode::RemoteCalls;
  return cfg;
}

Transaction class_b(TxnId id, int site, std::vector<LockNeed> locks) {
  Transaction txn;
  txn.id = id;
  txn.cls = TxnClass::B;
  txn.home_site = site;
  txn.locks = std::move(locks);
  txn.call_io.assign(txn.locks.size(), true);
  return txn;
}

TEST(RfcMode, SingleCallExactResponseTime) {
  HybridSystem sys(rfc_config(), std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(class_b(1, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();
  // home init 0.075 + setup 0.035 + call cpu 0.03
  // + D 0.2 + remote serve 0.001 + io 0.025 + D 0.2 + reply cpu 0.002
  // + commit cpu 0.075 + D 0.2 + central commit 0.005
  // + auth (0.2 + 0.01 + 0.2) + response leg 0.2.
  const double expected = 0.075 + 0.035 + 0.03 + 0.2 + 0.001 + 0.025 + 0.2 +
                          0.002 + 0.075 + 0.2 + 0.005 + (0.2 + 0.01 + 0.2) +
                          0.2;
  ASSERT_EQ(sys.metrics().completions_class_b, 1u);
  EXPECT_NEAR(sys.metrics().rt_class_b.mean(), expected, 1e-9);
  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
}

TEST(RfcMode, EachCallPaysARoundTrip) {
  HybridSystem sys(rfc_config(), std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(class_b(1, 0,
                                 {{5, LockMode::Shared},
                                  {3300, LockMode::Shared},
                                  {6600, LockMode::Shared}}));
  HybridSystem one_call(rfc_config(), std::make_unique<AlwaysLocalStrategy>());
  one_call.inject_transaction(class_b(1, 0, {{5, LockMode::Shared}}));
  sys.simulator().run();
  one_call.simulator().run();
  const double delta =
      sys.metrics().rt_class_b.mean() - one_call.metrics().rt_class_b.mean();
  // Two extra calls at >= 0.4 s round trip each.
  EXPECT_GT(delta, 0.8);
}

TEST(RfcMode, ShippingBeatsRemoteCallsForClassB) {
  // The quantitative reason the paper ships class B instead.
  SystemConfig ship_cfg = rfc_config();
  ship_cfg.class_b_mode = ClassBMode::Ship;
  HybridSystem shipped(ship_cfg, std::make_unique<AlwaysLocalStrategy>());
  shipped.inject(TxnClass::B, 0);
  shipped.simulator().run();

  HybridSystem rfc(rfc_config(), std::make_unique<AlwaysLocalStrategy>());
  rfc.inject(TxnClass::B, 0);
  rfc.simulator().run();

  EXPECT_LT(shipped.metrics().rt_class_b.mean(),
            rfc.metrics().rt_class_b.mean() / 3.0);
}

TEST(RfcMode, InvalidationForcesRerunFromHome) {
  SystemConfig cfg = rfc_config();
  cfg.call_io_time = 0.5;  // slow calls: wide invalidation window
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(class_b(2, 5,
                                 {{5, LockMode::Exclusive},
                                  {3300, LockMode::Exclusive},
                                  {6600, LockMode::Exclusive}}));
  // A local class A transaction updates entity 5 while the remote-call
  // transaction is mid-flight.
  Transaction local;
  local.id = 1;
  local.cls = TxnClass::A;
  local.home_site = 0;
  local.locks = {{5, LockMode::Exclusive}};
  local.call_io = {true};
  sys.inject_transaction(local);
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_GE(m.aborts(AbortCause::CentralInvalidated), 1u);
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
  sys.check_invariants();
}

TEST(RfcMode, StochasticLoadDrainsCleanly) {
  SystemConfig cfg = rfc_config();
  cfg.arrival_rate_per_site = 0.8;  // remote calls are slow; keep load modest
  cfg.seed = 61;
  HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.3, 61));
  sys.enable_arrivals();
  sys.run_for(120.0);
  sys.stop_arrivals();
  sys.drain();
  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(sys.metrics().completions,
            sys.metrics().arrivals_class_a() + sys.metrics().arrivals_class_b);
  EXPECT_EQ(sys.central_resident(), 0);
  sys.check_invariants();
}

TEST(RfcMode, ClassAUnaffectedByMode) {
  HybridSystem sys(rfc_config(), std::make_unique<AlwaysLocalStrategy>());
  Transaction txn;
  txn.id = 1;
  txn.cls = TxnClass::A;
  txn.home_site = 0;
  txn.locks = {{5, LockMode::Exclusive}};
  txn.call_io = {true};
  sys.inject_transaction(txn);
  sys.simulator().run();
  const double expected = 0.075 + 0.035 + 0.055 + 0.080;  // as in Ship mode
  EXPECT_NEAR(sys.metrics().rt_local_a.mean(), expected, 1e-9);
}

}  // namespace
}  // namespace hls
