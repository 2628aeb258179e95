// System-level behaviour of the adaptive routing controller: exact review
// epoch timing, the inertness guarantee at adapt_interval=0, drain safety,
// the lock-wait collision policy's protocol effect, replay determinism with
// the controller active under a msg_fault window, and a pinned hill-climb
// trajectory (HLS_REPIN=1 re-pins, as in golden_metrics_test).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"
#include "routing/basic_strategies.hpp"
#include "routing/factory.hpp"

namespace hls {
namespace {

bool repin_mode() { return std::getenv("HLS_REPIN") != nullptr; }

std::unique_ptr<RoutingStrategy> spec_strategy(const SystemConfig& cfg,
                                               const char* spec) {
  // Same seed derivation as core/driver so trajectories match driver runs.
  return make_strategy(parse_strategy_spec(spec).value(),
                       ModelParams::from_config(cfg), cfg.seed ^ 0x51CA5EEDULL);
}

Transaction custom_txn(TxnId id, TxnClass cls, int site,
                       std::vector<LockNeed> locks, bool io_per_call) {
  Transaction txn;
  txn.id = id;
  txn.cls = cls;
  txn.home_site = site;
  txn.locks = std::move(locks);
  txn.call_io.assign(txn.locks.size(), io_per_call);
  return txn;
}

// ---- exact review-epoch timing ------------------------------------------

TEST(AdaptiveControllerSystem, ReviewEpochFiresOnTheExactCadence) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  cfg.adapt_interval = 0.5;
  HybridSystem sys(cfg, spec_strategy(cfg, "adapt:util-threshold:0"));
  ASSERT_NE(sys.controller(), nullptr);
  sys.inject(TxnClass::A, 0);
  sys.simulator().run();

  // One idle-system transaction keeps the review chain alive only while it
  // lives; every review must land on an exact multiple of the interval.
  const std::vector<double>& reviews = sys.controller()->review_times();
  ASSERT_GE(reviews.size(), 1u);
  for (std::size_t k = 0; k < reviews.size(); ++k) {
    EXPECT_NEAR(reviews[k], 0.5 * static_cast<double>(k + 1), 1e-9);
  }
  EXPECT_EQ(sys.metrics().completions, 1u);

  // Reviews only read state: the transaction's response time is identical
  // to a run without the controller, to 1e-9.
  SystemConfig off = cfg;
  off.adapt_interval = 0.0;
  HybridSystem base(off, spec_strategy(off, "util-threshold:0"));
  base.inject(TxnClass::A, 0);
  base.simulator().run();
  EXPECT_NEAR(sys.metrics().rt_all.sum(), base.metrics().rt_all.sum(), 1e-9);
}

// ---- inertness at adapt_interval = 0 ------------------------------------

TEST(AdaptiveControllerSystem, InertWhenIntervalIsZero) {
  // Byte-parity contract (mirrors the sampler's test): the default
  // adapt_interval of 0 must leave the executed event count identical to a
  // plain strategy, while a positive interval strictly adds review events.
  auto events_with = [](const char* spec, double interval) {
    SystemConfig cfg;
    cfg.arrival_rate_per_site = 1.0;
    cfg.seed = 11;
    cfg.adapt_interval = interval;
    HybridSystem sys(cfg, spec_strategy(cfg, spec));
    sys.enable_arrivals();
    sys.run_for(30.0);
    sys.stop_arrivals();
    sys.drain();
    if (sys.controller() != nullptr && interval <= 0.0) {
      EXPECT_TRUE(sys.controller()->decisions().empty());
      EXPECT_TRUE(sys.controller()->review_times().empty());
    }
    return sys.simulator().executed_events();
  };
  const std::uint64_t plain = events_with("util-threshold:0", 0.0);
  const std::uint64_t inert = events_with("adapt:util-threshold:0", 0.0);
  const std::uint64_t active = events_with("adapt:util-threshold:0", 1.0);
  EXPECT_EQ(inert, plain);
  EXPECT_GT(active, plain);
}

// ---- drain safety -------------------------------------------------------

TEST(AdaptiveControllerSystem, ControllerActiveSystemDrainsToZero) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 1.6;
  cfg.seed = 7;
  HybridSystem sys(cfg, spec_strategy(cfg, "adapt@1:util-threshold:0"));
  sys.enable_arrivals();
  sys.run_for(30.0);
  sys.stop_arrivals();
  sys.drain();
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
  ASSERT_NE(sys.controller(), nullptr);
  // The spec override (not the config key, left at 0) drove the cadence.
  EXPECT_GE(sys.controller()->review_times().size(), 30u);
  EXPECT_LE(sys.controller()->review_times().back(),
            sys.simulator().now() + 1e-9);
}

// ---- lever (c) protocol effect ------------------------------------------

// Builds an adapt wrapper whose controller has already flipped `site` to
// LockWait via synthetic hot-conflict feeds. With the config key left at 0
// the system discovers the controller but never rebinds it, so the standing
// policy applies while no review event is ever scheduled.
std::unique_ptr<RoutingStrategy> lockwait_strategy(int num_sites, int site) {
  auto s = std::make_unique<AdaptiveControllerStrategy>(
      std::make_unique<AlwaysLocalStrategy>());
  ControllerParams p;
  p.hot_conflicts = 1;
  s->bind(num_sites, p);
  ControllerFeed f;
  f.num_sites = num_sites;
  f.conflict_matrix.assign(static_cast<std::size_t>(num_sites) *
                               static_cast<std::size_t>(num_sites + 1),
                           0);
  s->on_review(f);  // baseline
  const std::size_t hot_cell =
      static_cast<std::size_t>(site) * static_cast<std::size_t>(num_sites + 1) +
      static_cast<std::size_t>(num_sites);  // winner: central column
  f.now = 1.0;
  f.conflict_matrix[hot_cell] = 1;
  s->on_review(f);
  f.now = 2.0;
  f.conflict_matrix[hot_cell] = 2;
  s->on_review(f);
  EXPECT_EQ(s->site_policy(site), CollisionPolicy::LockWait);
  return s;
}

TEST(AdaptiveControllerSystem, LockWaitPolicyRefusesInsteadOfPreempting) {
  // Same choreography as Conflict.AuthenticationPreemptsLocalHolder: a
  // local class A holds lock 5 through a 1 s I/O while a class B's
  // authentication arrives for the same entity.
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  cfg.call_io_time = 1.0;

  // Optimistic-abort (paper behaviour): the holder is preempted.
  HybridSystem optimistic(cfg, std::make_unique<AlwaysLocalStrategy>());
  optimistic.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}, true));
  optimistic.inject_transaction(
      custom_txn(2, TxnClass::B, 0, {{5, LockMode::Exclusive}}, false));
  optimistic.simulator().run();
  EXPECT_GE(
      optimistic.metrics().aborts(AbortCause::LocalPreempted),
      1u);

  // Lock-wait at site 0: the holder survives untouched, the central
  // transaction is refused with the holder named and reruns instead.
  HybridSystem lockwait(cfg, lockwait_strategy(cfg.num_sites, 0));
  EXPECT_EQ(lockwait.collision_policy(0), CollisionPolicy::LockWait);
  lockwait.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}, true));
  lockwait.inject_transaction(
      custom_txn(2, TxnClass::B, 0, {{5, LockMode::Exclusive}}, false));
  lockwait.simulator().run();
  const Metrics& m = lockwait.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_EQ(m.aborts(AbortCause::LocalPreempted), 0u);
  EXPECT_GE(m.aborts(AbortCause::AuthRefused), 1u);
  EXPECT_GE(m.aborts_with_winner(), 1u);  // the refusal names the holder
  lockwait.check_invariants();
}

// ---- replay determinism under message faults ----------------------------

struct ControllerFingerprint {
  std::uint64_t events = 0;
  std::uint64_t completions = 0;
  double rt_sum = 0.0;
  std::vector<double> review_times;
  std::vector<ControllerDecision> decisions;
};

ControllerFingerprint faulted_controller_run() {
  SystemConfig cfg;
  cfg.seed = 20260808;
  cfg.arrival_rate_per_site = 2.0;
  cfg.ship_timeout = 2.0;
  cfg.faults.dup_prob = 0.1;
  cfg.faults.reorder_prob = 0.1;
  cfg.faults.reorder_window = 0.3;
  cfg.faults.windows.push_back(
      {FaultKind::MsgFault, -1, 10.0, 8.0, 1.0, 0.0, 0.45, 0.45, 0.2, 5.0});
  HybridSystem sys(cfg, spec_strategy(cfg, "adapt@2:failsafe:util-threshold:0"));
  sys.enable_arrivals();
  sys.run_for(40.0);
  sys.stop_arrivals();
  sys.drain();
  sys.check_invariants();
  ControllerFingerprint fp;
  fp.events = sys.simulator().executed_events();
  fp.completions = sys.metrics().completions;
  fp.rt_sum = sys.metrics().rt_all.sum();
  fp.review_times = sys.controller()->review_times();
  fp.decisions = sys.controller()->decisions();
  return fp;
}

TEST(AdaptiveControllerSystem, DecisionsReplayDeterministicallyUnderMsgFaults) {
  const ControllerFingerprint a = faulted_controller_run();
  const ControllerFingerprint b = faulted_controller_run();
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.rt_sum, b.rt_sum);  // hlslint:allow(float-eq) exact replay
  ASSERT_EQ(a.review_times.size(), b.review_times.size());
  ASSERT_FALSE(a.review_times.empty());
  ASSERT_EQ(a.decisions.size(), b.decisions.size());
  ASSERT_FALSE(a.decisions.empty());
  for (std::size_t i = 0; i < a.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].kind, b.decisions[i].kind);
    EXPECT_EQ(a.decisions[i].site, b.decisions[i].site);
    EXPECT_EQ(a.decisions[i].evidence, b.decisions[i].evidence);
    // hlslint:allow(float-eq) exact replay of the identical event sequence
    EXPECT_EQ(a.decisions[i].time, b.decisions[i].time);
    EXPECT_EQ(a.decisions[i].new_value, b.decisions[i].new_value);
  }
}

// ---- pinned hill-climb trajectory ---------------------------------------

struct GoldenTrajectory {
  std::uint64_t completions;
  std::size_t decision_count;
  double final_threshold;
  const char* kinds;  ///< one char per decision: T/B/b/L/l
};

char kind_char(ControllerDecision::Kind k) {
  switch (k) {
    case ControllerDecision::Kind::ThresholdStep: return 'T';
    case ControllerDecision::Kind::BackoffOn: return 'B';
    case ControllerDecision::Kind::BackoffOff: return 'b';
    case ControllerDecision::Kind::LockWaitOn: return 'L';
    case ControllerDecision::Kind::LockWaitOff: return 'l';
  }
  return '?';
}

TEST(AdaptiveControllerSystem, GoldenHillClimbTrajectory) {
  SystemConfig cfg;
  cfg.seed = 20260808;
  cfg.arrival_rate_per_site = 2.0;
  cfg.adapt_interval = 2.0;
  HybridSystem sys(cfg, spec_strategy(cfg, "adapt:util-threshold:0"));
  sys.enable_arrivals();
  sys.run_for(40.0);
  sys.stop_arrivals();
  sys.drain();

  ASSERT_NE(sys.strategy().tunable_threshold(), nullptr);
  const double final_threshold = sys.strategy().tunable_threshold()->threshold();
  const std::vector<ControllerDecision>& decisions =
      sys.controller()->decisions();
  std::string kinds;
  for (const ControllerDecision& d : decisions) kinds += kind_char(d.kind);

  if (repin_mode()) {
    std::printf(
        "  const GoldenTrajectory want{%lluu, %zuu, %.17g, \"%s\"};\n",
        static_cast<unsigned long long>(sys.metrics().completions),
        decisions.size(), final_threshold, kinds.c_str());
    return;
  }
  const GoldenTrajectory want{784u, 10u, -0.5, "TTTTTTTTTT"};
  EXPECT_EQ(sys.metrics().completions, want.completions);
  EXPECT_EQ(decisions.size(), want.decision_count);
  EXPECT_NEAR(final_threshold, want.final_threshold, 1e-9);
  EXPECT_EQ(kinds, want.kinds);
}

}  // namespace
}  // namespace hls
