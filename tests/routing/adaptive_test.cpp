// Unit tests for the adaptive routing controller (routing/adaptive.hpp):
// spec parsing and wrapper discovery, the unknown-spec error message, and
// synthetic-feed trajectories for all three levers. System-level behaviour
// (review-epoch scheduling, lock-wait protocol effect, replay determinism)
// lives in tests/hybrid/adaptive_controller_test.cpp.
#include <gtest/gtest.h>

#include "model/params.hpp"
#include "routing/adaptive.hpp"
#include "routing/basic_strategies.hpp"
#include "routing/factory.hpp"
#include "routing/failure_aware.hpp"
#include "routing/heuristics.hpp"

namespace hls {
namespace {

constexpr int kRefused = static_cast<int>(AbortCause::AuthRefused);
constexpr int kPreempted = static_cast<int>(AbortCause::LocalPreempted);

ControllerFeed feed_at(double now, int num_sites = 2) {
  ControllerFeed f;
  f.now = now;
  f.num_sites = num_sites;
  f.conflict_matrix.assign(
      static_cast<std::size_t>(num_sites) *
          static_cast<std::size_t>(num_sites + 1),
      0);
  return f;
}

void set_conflict(ControllerFeed& f, int victim, int winner,
                  std::uint64_t count) {
  f.conflict_matrix[static_cast<std::size_t>(victim) *
                        static_cast<std::size_t>(f.num_sites + 1) +
                    static_cast<std::size_t>(winner)] = count;
}

ControllerParams test_params() {
  ControllerParams p;
  p.threshold_step = 0.1;
  p.threshold_min = -0.3;
  p.threshold_max = 0.3;
  p.refusal_frac = 0.5;
  p.refusal_floor = 4;
  p.hot_conflicts = 8;
  p.min_epoch_completions = 10;
  return p;
}

SystemConfig cfg_default() { return SystemConfig{}; }

Transaction class_a_txn() {
  Transaction t;
  t.id = 1;
  t.cls = TxnClass::A;
  return t;
}

// ---- factory specs ------------------------------------------------------

TEST(AdaptiveSpec, ParsesAdaptPrefix) {
  const StrategySpec spec =
      parse_strategy_spec("adapt:util-threshold:-0.2").value();
  EXPECT_TRUE(spec.adaptive);
  EXPECT_EQ(spec.kind, StrategyKind::UtilThreshold);
  EXPECT_DOUBLE_EQ(spec.parameter, -0.2);
  EXPECT_DOUBLE_EQ(spec.adapt_interval_override, 0.0);
  EXPECT_FALSE(spec.failure_aware);
}

TEST(AdaptiveSpec, ParsesIntervalOverride) {
  const StrategySpec spec =
      parse_strategy_spec("adapt@2.5:min-average-nsys").value();
  EXPECT_TRUE(spec.adaptive);
  EXPECT_EQ(spec.kind, StrategyKind::MinAverageNsys);
  EXPECT_DOUBLE_EQ(spec.adapt_interval_override, 2.5);
}

TEST(AdaptiveSpec, ComposesWithFailsafeInEitherOrder) {
  const StrategySpec outer =
      parse_strategy_spec("adapt:failsafe@1.5:queue-length").value();
  EXPECT_TRUE(outer.adaptive);
  EXPECT_TRUE(outer.failure_aware);
  EXPECT_DOUBLE_EQ(outer.failsafe_max_info_age, 1.5);
  EXPECT_EQ(outer.kind, StrategyKind::QueueLength);

  const StrategySpec inner =
      parse_strategy_spec("failsafe:adapt:util-threshold:0").value();
  EXPECT_TRUE(inner.adaptive);
  EXPECT_TRUE(inner.failure_aware);
  EXPECT_EQ(inner.kind, StrategyKind::UtilThreshold);
}

/// The error parse_strategy_spec reports for `text`; empty if it parsed.
std::string spec_error(const std::string& text) {
  std::string error;
  if (parse_strategy_spec(text, &error).has_value()) {
    return "";
  }
  return error;
}

TEST(AdaptiveSpec, UnknownSpecErrorQuotesTheOffendingToken) {
  EXPECT_EQ(spec_error("bogus-name"), "unknown strategy spec 'bogus-name'");
  // Nested: the message quotes the token that failed, not the whole spec.
  EXPECT_EQ(spec_error("failsafe:nope"), "unknown strategy spec 'nope'");
  // Malformed failsafe head quotes the full spec.
  EXPECT_EQ(spec_error("failsafex:queue-length"),
            "unknown strategy spec 'failsafex:queue-length'");
  EXPECT_EQ(spec_error("min-averge-nsys"),
            "unknown strategy spec 'min-averge-nsys'");
  // Numbers must parse whole: no letters, no trailing characters.
  EXPECT_EQ(spec_error("static:abc"),
            "bad number 'abc' in strategy spec 'static:abc'");
  EXPECT_EQ(spec_error("failsafe@x:queue-length"),
            "bad number 'x' in strategy spec 'failsafe@x:queue-length'");
  EXPECT_EQ(spec_error("static:0.3xyz"),
            "bad number '0.3xyz' in strategy spec 'static:0.3xyz'");
  // Values the strategies would reject are caught at parse time too.
  EXPECT_NE(spec_error("static:1.5").find("'static:1.5'"), std::string::npos);
  EXPECT_NE(spec_error("failsafe@-1:queue-length").find("'-1'"),
            std::string::npos);
  EXPECT_NE(spec_error("adapt@0:queue-length").find("'0'"), std::string::npos);
  EXPECT_NE(spec_error("adapt").find("needs an inner strategy"),
            std::string::npos);
  EXPECT_EQ(spec_error("static:0.3"), "");
}

TEST(AdaptiveSpec, FactoryWrapsBaseThenAdaptThenFailsafe) {
  const ModelParams base = ModelParams::from_config(SystemConfig{});
  auto strategy =
      make_strategy(
          parse_strategy_spec("failsafe:adapt:util-threshold:-0.1").value(),
          base, 42);
  // Wrap order is base -> adapt -> failsafe regardless of prefix order.
  const std::string expected =
      "failsafe(adapt(" + ThresholdUtilizationStrategy(-0.1).name() + "))";
  EXPECT_EQ(strategy->name(), expected);
  // Both adaptive surfaces stay discoverable through the failsafe wrapper.
  ASSERT_NE(strategy->controller(), nullptr);
  ASSERT_NE(strategy->tunable_threshold(), nullptr);
  EXPECT_DOUBLE_EQ(strategy->tunable_threshold()->threshold(), -0.1);
}

TEST(AdaptiveSpec, NonAdaptiveStrategiesExposeNoController) {
  const ModelParams base = ModelParams::from_config(SystemConfig{});
  auto plain =
      make_strategy(parse_strategy_spec("min-average-nsys").value(), base, 42);
  EXPECT_EQ(plain->controller(), nullptr);
  EXPECT_EQ(plain->tunable_threshold(), nullptr);
  auto failsafe =
      make_strategy(parse_strategy_spec("failsafe:queue-length").value(), base,
                    42);
  EXPECT_EQ(failsafe->controller(), nullptr);
}

// ---- decide() forwarding ------------------------------------------------

TEST(AdaptiveStrategy, ForwardsDecideToBase) {
  AdaptiveControllerStrategy s(std::make_unique<AlwaysCentralStrategy>());
  const SystemConfig cfg = cfg_default();
  SystemStateView v;
  v.config = &cfg;
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Central);
  EXPECT_EQ(s.name(), "adapt(always-central)");
}

// ---- lever (a): threshold hill-climb ------------------------------------

// Appends one data epoch with the given class-A mean rt over 20 completions
// (both legs exercised, so the estimate fold runs) and reviews it.
void data_epoch(AdaptiveControllerStrategy& s, ControllerFeed& f, double now,
                double mean_rt) {
  f.now = now;
  f.completions_local_a += 10;
  f.rt_local_a_sum += 10.0 * mean_rt;
  f.completions_shipped_a += 10;
  f.rt_shipped_a_sum += 10.0 * mean_rt;
  s.on_review(f);
}

TEST(AdaptiveController, HillClimbExploresThenSettlesOnBestThreshold) {
  AdaptiveControllerStrategy s(
      std::make_unique<ThresholdUtilizationStrategy>(0.0));
  s.bind(2, test_params());
  TunableThreshold* t = s.tunable_threshold();
  ASSERT_NE(t, nullptr);

  // First review only baselines: no decision, threshold untouched.
  s.on_review(feed_at(1.0));
  EXPECT_TRUE(s.decisions().empty());
  EXPECT_DOUBLE_EQ(t->threshold(), 0.0);

  // Exploration: each data epoch probes the next unvisited lower-F bucket.
  ControllerFeed f = feed_at(1.0);
  data_epoch(s, f, 2.0, 1.0);  // observed at F=0.0  -> explore -0.1
  ASSERT_EQ(s.decisions().size(), 1u);
  EXPECT_EQ(s.decisions()[0].kind, ControllerDecision::Kind::ThresholdStep);
  EXPECT_DOUBLE_EQ(s.decisions()[0].old_value, 0.0);
  EXPECT_DOUBLE_EQ(s.decisions()[0].new_value, -0.1);
  EXPECT_NE(s.decisions()[0].evidence.find("exploring unvisited F=-0.10"),
            std::string::npos);
  data_epoch(s, f, 3.0, 0.8);  // observed at F=-0.1 -> explore -0.2
  data_epoch(s, f, 4.0, 1.2);  // observed at F=-0.2 -> explore -0.3 (clamp)
  EXPECT_DOUBLE_EQ(t->threshold(), -0.3);

  // Settling: -0.3 observes 1.5, every neighbor is visited, and the best
  // estimate walks the lever back to the F=-0.1 bucket (estimate 0.8).
  data_epoch(s, f, 5.0, 1.5);  // at -0.3: right neighbor -0.2 (1.2) is better
  EXPECT_DOUBLE_EQ(t->threshold(), -0.2);
  data_epoch(s, f, 6.0, 1.2);  // at -0.2: right neighbor -0.1 (0.8) is better
  EXPECT_DOUBLE_EQ(t->threshold(), -0.1);
  const std::size_t decided = s.decisions().size();
  EXPECT_NE(s.decisions().back().evidence.find("estimated class-A rt"),
            std::string::npos);

  // At the argmin (0.8 beats both 1.2 and the 1.0 estimate at F=0): hold.
  data_epoch(s, f, 7.0, 0.8);
  EXPECT_EQ(s.decisions().size(), decided);
  EXPECT_DOUBLE_EQ(t->threshold(), -0.1);
}

TEST(AdaptiveController, HillClimbHoldsBelowCompletionFloor) {
  AdaptiveControllerStrategy s(
      std::make_unique<ThresholdUtilizationStrategy>(0.0));
  s.bind(2, test_params());
  s.on_review(feed_at(1.0));
  ControllerFeed f = feed_at(2.0);
  f.completions_local_a = 5;  // below min_epoch_completions = 10
  f.rt_local_a_sum = 5.0;
  s.on_review(f);
  EXPECT_TRUE(s.decisions().empty());
  EXPECT_DOUBLE_EQ(s.tunable_threshold()->threshold(), 0.0);
}

TEST(AdaptiveController, HillClimbParksAtClampOnFlatEstimates) {
  AdaptiveControllerStrategy s(
      std::make_unique<ThresholdUtilizationStrategy>(0.0));
  s.bind(2, test_params());
  ControllerFeed f = feed_at(0.0);
  // Identical observations everywhere: the lever explores down to the
  // clamp (three 0.1 steps to threshold_min = -0.3), then parks — a tied
  // neighbor estimate never beats the current bucket, so no chatter.
  for (int epoch = 1; epoch <= 8; ++epoch) {
    data_epoch(s, f, epoch, 1.0);
    const double threshold = s.tunable_threshold()->threshold();
    EXPECT_GE(threshold, test_params().threshold_min);
    EXPECT_LE(threshold, test_params().threshold_max);
  }
  EXPECT_DOUBLE_EQ(s.tunable_threshold()->threshold(),
                   test_params().threshold_min);
  EXPECT_EQ(s.decisions().size(), 3u);
}

TEST(AdaptiveController, ProbesTowardShippingWhenShippedLegIsSilent) {
  AdaptiveControllerStrategy s(
      std::make_unique<ThresholdUtilizationStrategy>(0.0));
  s.bind(2, test_params());
  s.on_review(feed_at(0.0));
  // Local-only epochs never exercise the threshold, so the estimates stay
  // untouched and the lever probes one untried lower bucket per epoch
  // until the clamp, then holds.
  ControllerFeed f = feed_at(0.0);
  for (int epoch = 1; epoch <= 5; ++epoch) {
    f.now = epoch;
    f.completions_local_a += 20;
    f.rt_local_a_sum += 20.0;
    s.on_review(f);
  }
  ASSERT_EQ(s.decisions().size(), 3u);
  EXPECT_NE(s.decisions()[0].evidence.find("no shipped class-A completions"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(s.tunable_threshold()->threshold(),
                   test_params().threshold_min);
}

TEST(AdaptiveController, NoThresholdLeverWithoutTunableBase) {
  AdaptiveControllerStrategy s(std::make_unique<AlwaysLocalStrategy>());
  s.bind(2, test_params());
  s.on_review(feed_at(1.0));
  ControllerFeed f = feed_at(2.0);
  f.completions_local_a = 100;
  f.rt_local_a_sum = 100.0;
  s.on_review(f);
  EXPECT_TRUE(s.decisions().empty());
}

// ---- lever (b): refusal-dominated backoff -------------------------------

TEST(AdaptiveController, BacksOffWhenRefusalWasteDominates) {
  AdaptiveControllerStrategy s(std::make_unique<AlwaysCentralStrategy>());
  s.bind(2, test_params());
  const SystemConfig cfg = cfg_default();
  SystemStateView v;
  v.config = &cfg;

  s.on_review(feed_at(1.0));
  EXPECT_FALSE(s.ship_backoff_active());
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Central);

  // Refusals waste 5.0s of a 6.0s epoch ledger (> 50%): back off.
  ControllerFeed f = feed_at(2.0);
  f.aborts_by_cause[kRefused] = 10;
  f.wasted_cpu_by_cause[kRefused] = 5.0;
  f.wasted_io_by_cause[kPreempted] = 1.0;
  s.on_review(f);
  ASSERT_EQ(s.decisions().size(), 1u);
  EXPECT_EQ(s.decisions()[0].kind, ControllerDecision::Kind::BackoffOn);
  EXPECT_TRUE(s.ship_backoff_active());
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Local);

  // Still refusal-heavy (40% > the 25% release point): hold the backoff.
  f.now = 3.0;
  f.aborts_by_cause[kRefused] = 20;
  f.wasted_cpu_by_cause[kRefused] = 7.0;   // +2.0
  f.wasted_io_by_cause[kPreempted] = 4.0;  // +3.0
  s.on_review(f);
  EXPECT_EQ(s.decisions().size(), 1u);
  EXPECT_TRUE(s.ship_backoff_active());

  // Refusal share falls to 10% (<= 25%): release.
  f.now = 4.0;
  f.aborts_by_cause[kRefused] = 21;
  f.wasted_cpu_by_cause[kRefused] = 7.5;   // +0.5
  f.wasted_io_by_cause[kPreempted] = 8.5;  // +4.5
  s.on_review(f);
  ASSERT_EQ(s.decisions().size(), 2u);
  EXPECT_EQ(s.decisions()[1].kind, ControllerDecision::Kind::BackoffOff);
  EXPECT_FALSE(s.ship_backoff_active());
  EXPECT_EQ(s.decide(class_a_txn(), v), Route::Central);
}

TEST(AdaptiveController, RefusalFloorSuppressesBackoffOnThinEvidence) {
  AdaptiveControllerStrategy s(std::make_unique<AlwaysCentralStrategy>());
  s.bind(2, test_params());
  s.on_review(feed_at(1.0));
  // 100% refusal share but only 2 refusals (< floor of 4): no backoff.
  ControllerFeed f = feed_at(2.0);
  f.aborts_by_cause[kRefused] = 2;
  f.wasted_cpu_by_cause[kRefused] = 1.0;
  s.on_review(f);
  EXPECT_TRUE(s.decisions().empty());
  EXPECT_FALSE(s.ship_backoff_active());
}

// ---- lever (c): per-site collision-policy flip --------------------------

TEST(AdaptiveController, FlipsToLockWaitOnSustainedHotPairAndBack) {
  AdaptiveControllerStrategy s(std::make_unique<AlwaysLocalStrategy>());
  s.bind(2, test_params());
  s.on_review(feed_at(1.0));

  // Epoch 1 hot (8 >= hot_conflicts): streak 1, no flip yet.
  ControllerFeed f = feed_at(2.0);
  set_conflict(f, 0, 1, 8);
  s.on_review(f);
  EXPECT_TRUE(s.decisions().empty());
  EXPECT_EQ(s.site_policy(0), CollisionPolicy::OptimisticAbort);

  // Epoch 2 hot again: sustained -> LockWait at the victim site only.
  f.now = 3.0;
  set_conflict(f, 0, 1, 16);
  s.on_review(f);
  ASSERT_EQ(s.decisions().size(), 1u);
  EXPECT_EQ(s.decisions()[0].kind, ControllerDecision::Kind::LockWaitOn);
  EXPECT_EQ(s.decisions()[0].site, 0);
  EXPECT_EQ(s.site_policy(0), CollisionPolicy::LockWait);
  EXPECT_EQ(s.site_policy(1), CollisionPolicy::OptimisticAbort);

  // A lukewarm epoch (+5: neither hot nor below half) holds the policy.
  f.now = 4.0;
  set_conflict(f, 0, 1, 21);
  s.on_review(f);
  EXPECT_EQ(s.decisions().size(), 1u);
  EXPECT_EQ(s.site_policy(0), CollisionPolicy::LockWait);

  // Two cold epochs (+0 each, below hot_conflicts/2) release it.
  f.now = 5.0;
  s.on_review(f);
  EXPECT_EQ(s.site_policy(0), CollisionPolicy::LockWait);
  f.now = 6.0;
  s.on_review(f);
  ASSERT_EQ(s.decisions().size(), 2u);
  EXPECT_EQ(s.decisions()[1].kind, ControllerDecision::Kind::LockWaitOff);
  EXPECT_EQ(s.site_policy(0), CollisionPolicy::OptimisticAbort);
}

// ---- epoch accounting ---------------------------------------------------

TEST(AdaptiveController, RebaselinesWhenCountersRegress) {
  AdaptiveControllerStrategy s(
      std::make_unique<ThresholdUtilizationStrategy>(0.0));
  s.bind(2, test_params());
  s.on_review(feed_at(1.0));
  ControllerFeed f = feed_at(2.0);
  f.completions_local_a = 50;
  f.rt_local_a_sum = 50.0;
  s.on_review(f);
  const std::size_t decided = s.decisions().size();

  // begin_measurement() reset the books: counters jump backwards. The
  // review must re-baseline, not act on negative deltas.
  ControllerFeed reset = feed_at(3.0);
  reset.completions_local_a = 5;
  reset.rt_local_a_sum = 5.0;
  s.on_review(reset);
  EXPECT_EQ(s.decisions().size(), decided);

  // Deltas now measure from the reset baseline.
  reset.now = 4.0;
  reset.completions_local_a = 25;
  reset.rt_local_a_sum = 25.0;
  s.on_review(reset);
  EXPECT_EQ(s.decisions().size(), decided + 1);
}

TEST(AdaptiveController, DecisionLogIsAPureFunctionOfTheFeedSequence) {
  auto run = [] {
    AdaptiveControllerStrategy s(
        std::make_unique<ThresholdUtilizationStrategy>(0.0));
    s.bind(2, test_params());
    ControllerFeed f = feed_at(0.0);
    for (int epoch = 1; epoch <= 12; ++epoch) {
      f.now = epoch;
      f.completions_local_a += 20;
      f.rt_local_a_sum += (epoch % 3 == 0) ? 26.0 : 18.0;
      f.aborts_by_cause[kRefused] += (epoch == 5) ? 10 : 0;
      f.wasted_cpu_by_cause[kRefused] += (epoch == 5) ? 5.0 : 0.1;
      f.wasted_io_by_cause[kPreempted] += 0.2;
      set_conflict(f, 1, 2, static_cast<std::uint64_t>(epoch) * 9);
      s.on_review(f);
    }
    return s.decisions();
  };
  const std::vector<ControllerDecision> a = run();
  const std::vector<ControllerDecision> b = run();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].site, b[i].site);
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_DOUBLE_EQ(a[i].old_value, b[i].old_value);
    EXPECT_DOUBLE_EQ(a[i].new_value, b[i].new_value);
    EXPECT_EQ(a[i].evidence, b[i].evidence);
  }
}

}  // namespace
}  // namespace hls
