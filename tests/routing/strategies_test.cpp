#include <gtest/gtest.h>

#include "routing/analytic_strategies.hpp"
#include "routing/basic_strategies.hpp"
#include "routing/factory.hpp"
#include "routing/heuristics.hpp"

namespace hls {
namespace {

SystemConfig cfg_default() { return SystemConfig{}; }

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

TEST(AlwaysLocal, NeverShips) {
  AlwaysLocalStrategy s;
  const SystemConfig cfg = cfg_default();
  auto v = view_with(cfg);
  v.central_cpu_queue = 0;
  v.local_cpu_queue = 100;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Local);
  EXPECT_EQ(s.name(), "no-load-sharing");
}

TEST(AlwaysCentral, AlwaysShips) {
  AlwaysCentralStrategy s;
  const SystemConfig cfg = cfg_default();
  EXPECT_EQ(s.decide(class_a_txn(), view_with(cfg)), Route::Central);
}

TEST(StaticProbabilistic, ExtremesAreDeterministic) {
  const SystemConfig cfg = cfg_default();
  StaticProbabilisticStrategy never(0.0, 1);
  StaticProbabilisticStrategy always(1.0, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(never.decide(class_a_txn(), view_with(cfg)), Route::Local);
    EXPECT_EQ(always.decide(class_a_txn(), view_with(cfg)), Route::Central);
  }
}

TEST(StaticProbabilistic, FrequencyMatchesP) {
  const SystemConfig cfg = cfg_default();
  StaticProbabilisticStrategy s(0.3, 7);
  int shipped = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    shipped += s.decide(class_a_txn(), view_with(cfg)) == Route::Central ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(shipped) / n, 0.3, 0.01);
  EXPECT_EQ(s.p_ship(), 0.3);
  EXPECT_EQ(s.name(), "static-p0.300");
}

TEST(MeasuredRt, ShipsWhenShippedPathWasFaster) {
  MeasuredResponseTimeStrategy s;
  const SystemConfig cfg = cfg_default();
  auto v = view_with(cfg);
  v.last_local_rt = 2.0;
  v.last_shipped_rt = 1.0;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Central);
  v.last_shipped_rt = 3.0;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Local);
}

TEST(MeasuredRt, TieGoesLocal) {
  MeasuredResponseTimeStrategy s;
  const SystemConfig cfg = cfg_default();
  auto v = view_with(cfg);
  v.last_local_rt = 1.5;
  v.last_shipped_rt = 1.5;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Local);
}

TEST(QueueLength, ShipsToShorterQueue) {
  QueueLengthStrategy s;
  const SystemConfig cfg = cfg_default();
  auto v = view_with(cfg);
  v.local_cpu_queue = 5;
  v.central_cpu_queue = 2;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Central);
  v.central_cpu_queue = 5;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Local);
  v.central_cpu_queue = 9;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Local);
}

TEST(ThresholdUtilization, RespectsThresholdSign) {
  const SystemConfig cfg = cfg_default();
  auto v = view_with(cfg);
  v.local_cpu_queue = 1;   // rho_l = 0.5
  v.central_cpu_queue = 3; // rho_c = 0.75
  // rho_l - rho_c = -0.25.
  ThresholdUtilizationStrategy t0(0.0);
  EXPECT_EQ(t0.decide(class_a_txn(), v), Route::Local);
  ThresholdUtilizationStrategy tm02(-0.2);
  EXPECT_EQ(tm02.decide(class_a_txn(), v), Route::Local);
  ThresholdUtilizationStrategy tm03(-0.3);
  EXPECT_EQ(tm03.decide(class_a_txn(), v), Route::Central);
  EXPECT_EQ(tm03.threshold(), -0.3);
}

TEST(ThresholdUtilization, ZeroThresholdNeedsStrictlyHigherLocalUtil) {
  const SystemConfig cfg = cfg_default();
  auto v = view_with(cfg);
  v.local_cpu_queue = 4;
  v.central_cpu_queue = 4;
  ThresholdUtilizationStrategy t0(0.0);
  EXPECT_EQ(t0.decide(class_a_txn(), v), Route::Local);
  v.local_cpu_queue = 9;
  EXPECT_EQ(t0.decide(class_a_txn(), v), Route::Central);
}

TEST(AnalyticStrategies, NamesIdentifyVariant) {
  const ModelParams p = ModelParams::from_config(cfg_default());
  EXPECT_EQ(MinIncomingRtStrategy(p, UtilSource::CpuQueue).name(),
            "min-incoming-queue");
  EXPECT_EQ(MinIncomingRtStrategy(p, UtilSource::NumInSystem).name(),
            "min-incoming-nsys");
  EXPECT_EQ(MinAverageRtStrategy(p, UtilSource::CpuQueue).name(),
            "min-average-queue");
  EXPECT_EQ(MinAverageRtStrategy(p, UtilSource::NumInSystem).name(),
            "min-average-nsys");
}

TEST(AnalyticStrategies, IdleSystemRunsLocal) {
  const SystemConfig cfg = cfg_default();
  const ModelParams p = ModelParams::from_config(cfg);
  MinIncomingRtStrategy inc(p, UtilSource::NumInSystem);
  MinAverageRtStrategy avg(p, UtilSource::NumInSystem);
  const auto v = view_with(cfg);
  EXPECT_EQ(inc.decide(class_a_txn(), v), Route::Local);
  EXPECT_EQ(avg.decide(class_a_txn(), v), Route::Local);
}

TEST(AnalyticStrategies, SwampedLocalSiteShips) {
  const SystemConfig cfg = cfg_default();
  const ModelParams p = ModelParams::from_config(cfg);
  MinIncomingRtStrategy inc(p, UtilSource::CpuQueue);
  MinAverageRtStrategy avg(p, UtilSource::CpuQueue);
  auto v = view_with(cfg);
  v.local_cpu_queue = 50;
  v.local_num_txns = 60;
  EXPECT_EQ(inc.decide(class_a_txn(), v), Route::Central);
  EXPECT_EQ(avg.decide(class_a_txn(), v), Route::Central);
}

// ---- factory ----

TEST(Factory, BuildsEveryKind) {
  const ModelParams p = ModelParams::from_config(cfg_default());
  for (const auto& [spec, label] : paper_strategy_set()) {
    auto s = make_strategy(spec, p, 1);
    ASSERT_NE(s, nullptr) << label;
    EXPECT_FALSE(s->name().empty());
  }
}

TEST(Factory, ParseRoundTrips) {
  EXPECT_EQ(parse_strategy_spec("no-load-sharing").value().kind,
            StrategyKind::NoLoadSharing);
  EXPECT_EQ(parse_strategy_spec("always-central").value().kind,
            StrategyKind::AlwaysCentral);
  EXPECT_EQ(parse_strategy_spec("static-optimal").value().kind,
            StrategyKind::StaticOptimal);
  const auto st = parse_strategy_spec("static:0.4").value();
  EXPECT_EQ(st.kind, StrategyKind::StaticProbability);
  EXPECT_DOUBLE_EQ(st.parameter, 0.4);
  const auto th = parse_strategy_spec("util-threshold:-0.2").value();
  EXPECT_EQ(th.kind, StrategyKind::UtilThreshold);
  EXPECT_DOUBLE_EQ(th.parameter, -0.2);
  EXPECT_EQ(parse_strategy_spec("measured-rt").value().kind,
            StrategyKind::MeasuredRt);
  EXPECT_EQ(parse_strategy_spec("queue-length").value().kind,
            StrategyKind::QueueLength);
  EXPECT_EQ(parse_strategy_spec("min-incoming-queue").value().kind,
            StrategyKind::MinIncomingQueue);
  EXPECT_EQ(parse_strategy_spec("min-incoming-nsys").value().kind,
            StrategyKind::MinIncomingNsys);
  EXPECT_EQ(parse_strategy_spec("min-average-queue").value().kind,
            StrategyKind::MinAverageQueue);
  EXPECT_EQ(parse_strategy_spec("min-average-nsys").value().kind,
            StrategyKind::MinAverageNsys);
}

TEST(Factory, StaticOptimalShipsNothingAtLowRate) {
  ModelParams p = ModelParams::from_config(cfg_default());
  p.lambda_site = 0.2;  // 2 tps total
  auto s = make_strategy({StrategyKind::StaticOptimal, 0.0}, p, 1);
  const SystemConfig cfg = cfg_default();
  int shipped = 0;
  for (int i = 0; i < 200; ++i) {
    shipped += s->decide(class_a_txn(), view_with(cfg)) == Route::Central;
  }
  EXPECT_LE(shipped, 10);
}

TEST(Factory, PaperSetHasEightEntries) {
  EXPECT_EQ(paper_strategy_set().size(), 8u);
}

}  // namespace
}  // namespace hls
