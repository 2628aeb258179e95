// FailureAwareStrategy unit tests: reachability override, staleness
// override, deference to the wrapped strategy, and spec parsing.
#include <gtest/gtest.h>

#include "routing/basic_strategies.hpp"
#include "routing/factory.hpp"
#include "routing/failure_aware.hpp"

namespace hls {
namespace {

SystemStateView view_with(const SystemConfig& cfg) {
  SystemStateView v;
  v.config = &cfg;
  return v;
}

Transaction class_a_txn() {
  Transaction t;
  t.id = 1;
  t.cls = TxnClass::A;
  return t;
}

TEST(FailureAware, DegradesToLocalWhenCentralUnreachable) {
  FailureAwareStrategy s(std::make_unique<AlwaysCentralStrategy>());
  const SystemConfig cfg;
  auto v = view_with(cfg);
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Central);
  v.central_reachable = false;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Local);
  v.central_reachable = true;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Central);  // auto-recovers
}

TEST(FailureAware, StaleInformationForcesLocal) {
  FailureAwareStrategy s(std::make_unique<AlwaysCentralStrategy>(),
                         /*max_info_age=*/2.0);
  const SystemConfig cfg;
  auto v = view_with(cfg);
  v.central_info_age = 1.5;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Central);  // fresh enough
  v.central_info_age = 3.0;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Local);  // stale
}

TEST(FailureAware, IdealStateInfoBypassesStalenessCheck) {
  FailureAwareStrategy s(std::make_unique<AlwaysCentralStrategy>(),
                         /*max_info_age=*/2.0);
  SystemConfig cfg;
  cfg.ideal_state_info = true;  // the age field is meaningless here
  auto v = view_with(cfg);
  v.central_info_age = 100.0;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Central);
  v.central_reachable = false;  // reachability still applies
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Local);
}

TEST(FailureAware, ZeroMaxAgeDisablesStalenessCheck) {
  FailureAwareStrategy s(std::make_unique<AlwaysCentralStrategy>());
  const SystemConfig cfg;
  auto v = view_with(cfg);
  v.central_info_age = 1e6;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Central);
}

TEST(FailureAware, NameWrapsInnerName) {
  FailureAwareStrategy s(std::make_unique<AlwaysCentralStrategy>());
  EXPECT_EQ(s.name(), "failsafe(always-central)");
  EXPECT_EQ(s.inner().name(), "always-central");
}

TEST(FailureAware, SpecParsingAndFactoryWrap) {
  const StrategySpec plain = parse_strategy_spec("min-average-nsys").value();
  EXPECT_FALSE(plain.failure_aware);

  const StrategySpec wrapped =
      parse_strategy_spec("failsafe:min-average-nsys").value();
  EXPECT_TRUE(wrapped.failure_aware);
  EXPECT_EQ(wrapped.kind, StrategyKind::MinAverageNsys);
  EXPECT_DOUBLE_EQ(wrapped.failsafe_max_info_age, 0.0);

  const StrategySpec aged =
      parse_strategy_spec("failsafe@2.5:queue-length").value();
  EXPECT_TRUE(aged.failure_aware);
  EXPECT_EQ(aged.kind, StrategyKind::QueueLength);
  EXPECT_DOUBLE_EQ(aged.failsafe_max_info_age, 2.5);

  const ModelParams p = ModelParams::from_config(SystemConfig{});
  const auto s = make_strategy(aged, p, 1);
  EXPECT_EQ(s->name(), "failsafe(queue-length)");
}

}  // namespace
}  // namespace hls
