// Deadlock victim-selection policies (DESIGN.md ablation: requester vs
// youngest-on-cycle).
#include <gtest/gtest.h>

#include <cmath>

#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

SystemConfig quiet_config(DeadlockVictim policy) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  cfg.deadlock_victim = policy;
  cfg.call_io_time = 0.2;  // slow calls: the two transactions interleave
  return cfg;
}

Transaction two_lock_txn(TxnId id, int site, LockId a, LockId b) {
  Transaction txn;
  txn.id = id;
  txn.cls = TxnClass::A;
  txn.home_site = site;
  txn.locks = {{a, LockMode::Exclusive}, {b, LockMode::Exclusive}};
  txn.call_io = {true, true};
  return txn;
}

TEST(DeadlockPolicy, RequesterPolicyAbortsTheRequester) {
  HybridSystem sys(quiet_config(DeadlockVictim::Requester),
                   std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(two_lock_txn(1, 0, 5, 6));
  sys.inject_transaction(two_lock_txn(2, 0, 6, 5));
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_GE(m.aborts(AbortCause::Deadlock), 1u);
  sys.check_invariants();
}

TEST(DeadlockPolicy, YoungestPolicyResolvesSameDeadlock) {
  HybridSystem sys(quiet_config(DeadlockVictim::Youngest),
                   std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(two_lock_txn(1, 0, 5, 6));
  HybridSystem* raw = &sys;
  // Transaction 2 arrives strictly later: with the Youngest policy it must
  // be the victim regardless of who closes the cycle.
  sys.simulator().schedule_at(0.01, [raw] {
    raw->inject_transaction(two_lock_txn(2, 0, 6, 5));
  });
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_GE(m.aborts(AbortCause::Deadlock), 1u);
  // The older transaction (id 1) commits on its first run.
  EXPECT_EQ(m.rt_first_try.count(), 1u);
  EXPECT_EQ(m.rt_rerun.count(), 1u);
  sys.check_invariants();
}

TEST(DeadlockPolicy, YoungestVictimIsTheWaiterNotTheRequester) {
  // Arrange the cycle so the YOUNGER transaction blocks first and the OLDER
  // one closes the cycle: the requester policy would abort the older txn,
  // the youngest policy must abort the younger (waiting) one instead,
  // exercising force-abort of a blocked transaction.
  HybridSystem sys(quiet_config(DeadlockVictim::Youngest),
                   std::make_unique<AlwaysLocalStrategy>());
  HybridSystem* raw = &sys;
  // Old txn: locks 5 then (slowly) 6. Young txn: locks 6 then 5, timed so
  // the young one waits on 5 first, then the old one requests 6 and closes
  // the cycle.
  sys.inject_transaction(two_lock_txn(1, 0, 5, 6));
  sys.simulator().schedule_at(0.02, [raw] {
    raw->inject_transaction(two_lock_txn(2, 0, 6, 5));
  });
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_GE(m.aborts(AbortCause::Deadlock), 1u);
  EXPECT_EQ(m.rt_rerun.count(), 1u);
  sys.check_invariants();
}

TEST(DeadlockPolicy, BothPoliciesDrainUnderContendedLoad) {
  for (DeadlockVictim policy :
       {DeadlockVictim::Requester, DeadlockVictim::Youngest}) {
    SystemConfig cfg;
    cfg.arrival_rate_per_site = 2.0;
    cfg.lockspace = 2000;
    cfg.prob_write_lock = 0.7;
    cfg.deadlock_victim = policy;
    cfg.seed = 77;
    HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.4, 77));
    sys.enable_arrivals();
    sys.run_for(120.0);
    sys.stop_arrivals();
    sys.drain();
    EXPECT_EQ(sys.live_transactions(), 0);
    const Metrics& m = sys.metrics();
    EXPECT_EQ(m.completions, m.arrivals_class_a() + m.arrivals_class_b);
    EXPECT_GT(m.aborts(AbortCause::Deadlock), 0u);
    sys.check_invariants();
  }
}

TEST(DeadlockPolicy, CentralDeadlocksHonourThePolicy) {
  SystemConfig cfg = quiet_config(DeadlockVictim::Youngest);
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  auto class_b = [](TxnId id, int site, LockId a, LockId b) {
    Transaction txn;
    txn.id = id;
    txn.cls = TxnClass::B;
    txn.home_site = site;
    txn.locks = {{a, LockMode::Exclusive}, {b, LockMode::Exclusive}};
    txn.call_io = {true, true};
    return txn;
  };
  sys.inject_transaction(class_b(1, 0, 100, 200));
  HybridSystem* raw = &sys;
  sys.simulator().schedule_at(0.01, [raw, class_b] {
    raw->inject_transaction(class_b(2, 1, 200, 100));
  });
  sys.simulator().run();
  EXPECT_EQ(sys.metrics().completions, 2u);
  EXPECT_GE(sys.metrics().aborts(AbortCause::Deadlock), 1u);
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
}

// ---- livelock breaker ----
//
// HybridSystem::restart adds livelock_backoff * (run_count -
// livelock_backoff_after) to every restart once run_count passes the
// threshold. Pinned by exact equivalence: the victim of a single deadlock
// carries run_count 1, so with threshold 0 its one stall must equal a plain
// abort_restart_delay of the same magnitude — the two whole schedules are
// identical to 1e-9 — and with threshold 1 the breaker must be perfectly
// inert. The cumulative (growing) behavior is pinned by the chaos repro
// regression in tests/core/chaos_test.cpp.

double deadlock_pair_rt_sum(const SystemConfig& cfg) {
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(two_lock_txn(1, 0, 5, 6));
  sys.inject_transaction(two_lock_txn(2, 0, 6, 5));
  sys.simulator().run();
  EXPECT_EQ(sys.metrics().completions, 2u);
  EXPECT_GE(sys.metrics().aborts(AbortCause::Deadlock), 1u);
  sys.check_invariants();
  return sys.metrics().rt_all.sum();
}

TEST(LivelockBreaker, PastThresholdStallsExactlyLikeAbortRestartDelay) {
  SystemConfig plain = quiet_config(DeadlockVictim::Requester);
  plain.abort_restart_delay = 0.37;
  plain.livelock_backoff = 0.0;

  SystemConfig breaker = quiet_config(DeadlockVictim::Requester);
  breaker.livelock_backoff_after = 0;  // every rerun is past the threshold
  breaker.livelock_backoff = 0.37;     // x (run_count - 0) = 0.37 on run 1

  const double rt_plain = deadlock_pair_rt_sum(plain);
  const double rt_breaker = deadlock_pair_rt_sum(breaker);
  EXPECT_NEAR(rt_breaker, rt_plain, 1e-9);

  // Sanity: the stall is real — dropping it changes the schedule.
  SystemConfig none = quiet_config(DeadlockVictim::Requester);
  none.livelock_backoff = 0.0;
  EXPECT_GT(std::abs(deadlock_pair_rt_sum(none) - rt_plain), 1e-3);
}

TEST(LivelockBreaker, BelowThresholdIsPerfectlyInert) {
  SystemConfig none = quiet_config(DeadlockVictim::Requester);
  none.livelock_backoff = 0.0;

  // Threshold 1: the victim's run_count of 1 is not > 1, so no stall.
  SystemConfig below = quiet_config(DeadlockVictim::Requester);
  below.livelock_backoff_after = 1;
  below.livelock_backoff = 0.37;

  // Defaults (threshold 20) are equally untouched in non-pathological runs.
  const SystemConfig defaults = quiet_config(DeadlockVictim::Requester);

  const double rt_none = deadlock_pair_rt_sum(none);
  EXPECT_NEAR(deadlock_pair_rt_sum(below), rt_none, 1e-9);
  EXPECT_NEAR(deadlock_pair_rt_sum(defaults), rt_none, 1e-9);
}

TEST(LivelockBreaker, CentralRestartPathHonoursTheBackoff) {
  // Same equivalence on the central role's restart (abort_run ->
  // restart): a class B deadlock at the central complex (requester victim).
  auto class_b = [](TxnId id, int site, LockId a, LockId b) {
    Transaction txn;
    txn.id = id;
    txn.cls = TxnClass::B;
    txn.home_site = site;
    txn.locks = {{a, LockMode::Exclusive}, {b, LockMode::Exclusive}};
    txn.call_io = {true, true};
    return txn;
  };
  auto rt_sum = [&class_b](const SystemConfig& cfg) {
    HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
    sys.inject_transaction(class_b(1, 0, 100, 200));
    sys.inject_transaction(class_b(2, 1, 200, 100));
    sys.simulator().run();
    EXPECT_EQ(sys.metrics().completions, 2u);
    EXPECT_GE(sys.metrics().aborts(AbortCause::Deadlock),
              1u);
    sys.check_invariants();
    return sys.metrics().rt_all.sum();
  };
  SystemConfig plain = quiet_config(DeadlockVictim::Requester);
  plain.abort_restart_delay = 0.41;
  plain.livelock_backoff = 0.0;
  SystemConfig breaker = quiet_config(DeadlockVictim::Requester);
  breaker.livelock_backoff_after = 0;
  breaker.livelock_backoff = 0.41;
  EXPECT_NEAR(rt_sum(breaker), rt_sum(plain), 1e-9);
}

TEST(FindCycle, ReportsMembersInOrder) {
  Simulator sim;
  LockManager lm(sim, "t");
  lm.request(1, 10, LockMode::Exclusive, nullptr);
  lm.request(2, 20, LockMode::Exclusive, nullptr);
  lm.request(3, 30, LockMode::Exclusive, nullptr);
  lm.request(1, 20, LockMode::Exclusive, [] {});
  lm.request(2, 30, LockMode::Exclusive, [] {});
  // 3 -> 10 closes 3 -> 1 -> 2 -> 3.
  const auto cycle = lm.find_cycle(3, 10);
  ASSERT_EQ(cycle.size(), 3u);
  EXPECT_EQ(cycle[0], 3u);  // requester first
  EXPECT_EQ(cycle[1], 1u);
  EXPECT_EQ(cycle[2], 2u);
}

TEST(FindCycle, EmptyWhenSafe) {
  Simulator sim;
  LockManager lm(sim, "t");
  lm.request(1, 10, LockMode::Exclusive, nullptr);
  EXPECT_TRUE(lm.find_cycle(2, 10).empty());
}

}  // namespace
}  // namespace hls
