// Fault-injection behavior of HybridSystem: exact timeout/retry/fallback
// timing, crash + recovery of the central complex and of local sites, backlog
// replay, failure-aware routing, and drain/determinism under faults.
//
// The exact-timing tests follow the single_txn_test recipe: one transaction
// in an otherwise idle system, response time asserted to 1e-9 from the
// configuration constants.
#include <gtest/gtest.h>

#include <vector>

#include "hybrid/hybrid_system.hpp"
#include "routing/basic_strategies.hpp"
#include "routing/failure_aware.hpp"
#include "util/random.hpp"

namespace hls {
namespace {

SystemConfig quiet_config() {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;  // only injected transactions
  return cfg;
}

Transaction custom_txn(TxnId id, TxnClass cls, int site,
                       std::vector<LockNeed> locks, bool io_per_call = true) {
  Transaction txn;
  txn.id = id;
  txn.cls = cls;
  txn.home_site = site;
  txn.locks = std::move(locks);
  txn.call_io.assign(txn.locks.size(), io_per_call);
  return txn;
}

// Full first-run cost of a one-call exclusive local transaction; a
// crash/timeout restart pays the same (its data is no longer memory-resident).
constexpr double kLocalXCost = 0.075 + 0.035 + (0.030 + 0.025) + 0.080;

// Central-side cost of a one-call exclusive shipped transaction from
// start-of-run to completion at the home site: init, setup I/O, call, commit,
// authentication round trip, response leg.
constexpr double kCentralRunCost =
    0.005 + 0.035 + (0.002 + 0.025) + 0.005 + (0.2 + 0.010 + 0.2) + 0.2;

// Central apply burst for a one-item async update: (10K + 2K) / 15 MIPS.
constexpr double kApplyCpu = (10e3 + 2e3) / 15e6;
// Home-site ack-processing burst: 2K / 1 MIPS.
constexpr double kRecvAckCpu = 2e3 / 1e6;

TEST(FaultInjection, ShipTimeoutLadderFallsBackToLocalExactTiming) {
  SystemConfig cfg = quiet_config();
  cfg.ship_timeout = 1.0;
  cfg.ship_backoff = 2.0;
  cfg.ship_max_retries = 2;
  // Central is down for the whole timeout ladder.
  cfg.faults.windows.push_back({FaultKind::CentralOutage, -1, 0.0, 100.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();

  // Timeouts fire at t = 1, 1+2, 1+2+4 = 7; the third exhausts the retry
  // budget and the home site reruns the transaction locally — behind the
  // failure detector's 0.005 s hold-expiry burst on the same CPU — paying
  // the I/O again. The three dead shipped copies plus the fallback's
  // asynchronous update replay from the central backlog at recovery
  // (t = 100).
  ASSERT_EQ(sys.metrics().completions, 1u);
  EXPECT_EQ(sys.metrics().ship_timeouts(), 3u);
  EXPECT_EQ(sys.metrics().ship_retries(), 2u);
  EXPECT_EQ(sys.metrics().ship_fallbacks(), 1u);
  EXPECT_EQ(sys.metrics().aborts(AbortCause::ShipTimeout), 3u);
  EXPECT_EQ(sys.metrics().completions_local_a, 1u);  // fallback books as local
  EXPECT_EQ(sys.metrics().completions_shipped_a, 0u);
  EXPECT_NEAR(sys.metrics().rt_local_a.mean(), 7.0 + 0.005 + kLocalXCost, 1e-9);
  EXPECT_EQ(sys.metrics().central_crashes, 1u);
  EXPECT_EQ(sys.metrics().central_recoveries, 1u);
  EXPECT_EQ(sys.metrics().backlog_replayed, 4u);
  EXPECT_EQ(sys.local_locks(0).coherence_count(5), 0u);  // update acknowledged
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(FaultInjection, ShipTimeoutJitterLadderExactTiming) {
  SystemConfig cfg = quiet_config();
  cfg.seed = 3;
  cfg.ship_timeout = 1.0;
  cfg.ship_backoff = 2.0;
  cfg.ship_max_retries = 1;
  cfg.ship_jitter = 0.5;
  cfg.faults.windows.push_back({FaultKind::CentralOutage, -1, 0.0, 100.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());

  // Replica of the dedicated jitter stream, reconstructed with the
  // constructor's documented fork order: num_sites arrival forks off the
  // root, the two fault-schedule forks (the schedule is non-empty), then
  // the jitter fork. Each armed timer draws exactly once.
  Rng root(cfg.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  for (int s = 0; s < cfg.num_sites; ++s) {
    (void)root.fork();  // per-site arrival process
  }
  (void)root.fork();  // FaultSchedule expansion
  (void)root.fork();  // link fault-stream parent
  Rng jitter = root.fork();
  const double u0 = jitter.next_double();
  const double u1 = jitter.next_double();

  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();

  // Timer i sleeps ship_timeout * backoff^i * (1 + jitter * u_i): the first
  // timeout lands at t1, the retry's at t1 + 2 * (1 + 0.5 * u1), which
  // exhausts the budget and falls back to the local rerun behind the 0.005 s
  // hold-expiry burst — the fixed-backoff ladder shifted by the two draws.
  const double t1 = 1.0 * (1.0 + 0.5 * u0);
  const double t2 = t1 + 2.0 * (1.0 + 0.5 * u1);
  ASSERT_EQ(sys.metrics().completions, 1u);
  EXPECT_EQ(sys.metrics().ship_timeouts(), 2u);
  EXPECT_EQ(sys.metrics().ship_retries(), 1u);
  EXPECT_EQ(sys.metrics().ship_fallbacks(), 1u);
  EXPECT_EQ(sys.metrics().completions_local_a, 1u);
  EXPECT_NEAR(sys.metrics().rt_local_a.mean(), t2 + 0.005 + kLocalXCost, 1e-9);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(FaultInjection, ShipTimeoutRetrySucceedsOnceCentralRecovers) {
  SystemConfig cfg = quiet_config();
  cfg.ship_timeout = 1.0;
  cfg.ship_backoff = 2.0;
  cfg.ship_max_retries = 2;
  cfg.faults.windows.push_back({FaultKind::CentralOutage, -1, 0.0, 2.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();

  // The first copy parks in the central backlog and is reclaimed by the
  // t = 1 timeout; the retry parks too, survives (its epoch is current), and
  // starts when recovery replays the backlog at t = 2. The rerun lost its
  // memory residency, so the central run pays the setup and call I/O. The
  // second timer (t = 3) finds the transaction completed and dies.
  ASSERT_EQ(sys.metrics().completions_shipped_a, 1u);
  EXPECT_EQ(sys.metrics().ship_timeouts(), 1u);
  EXPECT_EQ(sys.metrics().ship_retries(), 1u);
  EXPECT_EQ(sys.metrics().ship_fallbacks(), 0u);
  EXPECT_NEAR(sys.metrics().rt_shipped_a.mean(), 2.0 + kCentralRunCost, 1e-9);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(FaultInjection, CentralCrashMidRunRestartsAtRecoveryExactTiming) {
  SystemConfig cfg = quiet_config();
  // No ship timeout: recovery alone restarts the resident transaction.
  cfg.faults.windows.push_back({FaultKind::CentralOutage, -1, 0.5, 1.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();

  // Fault-free the transaction would finish at 0.897; the crash at t = 0.5
  // catches it mid-authentication (the home site granted the hold at 0.497;
  // failure-detector cleanup expires it, and the in-flight ack replays as a
  // dead letter). It restarts when the central complex recovers at t = 1.5
  // and pays the full central run again.
  ASSERT_EQ(sys.metrics().completions_shipped_a, 1u);
  EXPECT_EQ(sys.metrics().aborts(AbortCause::Crash), 1u);
  EXPECT_EQ(sys.metrics().central_crashes, 1u);
  EXPECT_EQ(sys.metrics().central_recoveries, 1u);
  EXPECT_NEAR(sys.metrics().rt_shipped_a.mean(), 1.5 + kCentralRunCost, 1e-9);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(FaultInjection, SiteCrashRestartsLocalTransactionAtRecoveryExactTiming) {
  SystemConfig cfg = quiet_config();
  cfg.faults.windows.push_back({FaultKind::SiteOutage, 2, 0.1, 1.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  std::vector<LockNeed> locks;
  for (LockId i = 0; i < 10; ++i) {
    locks.push_back({i, LockMode::Shared});
  }
  sys.inject_transaction(custom_txn(1, TxnClass::A, 2, std::move(locks)));
  sys.simulator().run();

  // Crash at t = 0.1 (mid-setup-I/O), restart at recovery t = 1.1 with the
  // full first-run cost of the read-only ten-call transaction.
  const double run_cost = 0.075 + 0.035 + 10 * 0.055 + 0.075;
  ASSERT_EQ(sys.metrics().completions_local_a, 1u);
  EXPECT_EQ(sys.metrics().aborts(AbortCause::Crash), 1u);
  EXPECT_EQ(sys.metrics().site_crashes, 1u);
  EXPECT_EQ(sys.metrics().site_recoveries, 1u);
  EXPECT_NEAR(sys.metrics().rt_local_a.mean(), 1.1 + run_cost, 1e-9);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(FaultInjection, AsyncUpdateBacklogsThroughOutageAndCoherenceDrains) {
  SystemConfig cfg = quiet_config();
  cfg.faults.windows.push_back({FaultKind::CentralOutage, -1, 0.0, 1.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{7, LockMode::Exclusive}}));

  // The local commit at 0.245 raises the coherence count and ships the
  // update; it arrives at the crashed central and parks in the backlog.
  sys.simulator().run_until(0.5);
  EXPECT_EQ(sys.metrics().completions, 1u);
  EXPECT_EQ(sys.local_locks(0).coherence_count(7), 1u);
  EXPECT_FALSE(sys.central_up());

  // Recovery replays the update; the acknowledgement clears the count.
  sys.simulator().run();
  EXPECT_TRUE(sys.central_up());
  EXPECT_EQ(sys.metrics().backlog_replayed, 1u);
  EXPECT_EQ(sys.local_locks(0).coherence_count(7), 0u);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(FaultInjection, AckParkedAtCrashedSiteKeepsItsSendTimeSnapshot) {
  SystemConfig cfg = quiet_config();
  // Site 0 is down from 0.3 to 1.0: after its local commit (0.245), before
  // the acknowledgement of the update arrives (0.6458).
  cfg.faults.windows.push_back({FaultKind::SiteOutage, 0, 0.3, 0.7, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{7, LockMode::Exclusive}}));

  // The update reaches central at 0.445; the ack leaves when its apply burst
  // ends and parks in the crashed site's backlog. The site still knows only
  // the initial snapshot, taken at t = 0.
  const double ack_sent = 0.245 + 0.2 + kApplyCpu;
  sys.simulator().run_until(0.9);
  EXPECT_NEAR(sys.make_state_view(0).central_info_age, 0.9, 1e-12);
  EXPECT_EQ(sys.local_locks(0).coherence_count(7), 1u);

  // Recovery replays the ack with the snapshot taken when it was sent, not
  // one taken at delivery or at recovery.
  sys.simulator().run_until(1.5);
  EXPECT_TRUE(sys.site_up(0));
  EXPECT_EQ(sys.metrics().backlog_replayed, 1u);
  EXPECT_NEAR(sys.make_state_view(0).central_info_age, 1.5 - ack_sent, 1e-9);
  EXPECT_NEAR(ack_sent, 0.4458, 1e-12);
  EXPECT_EQ(sys.local_locks(0).coherence_count(7), 0u);
  sys.simulator().run();
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(FaultInjection, CentralBacklogReplaysUpdatesInArrivalOrder) {
  SystemConfig cfg = quiet_config();
  cfg.faults.windows.push_back(
      {FaultKind::CentralOutage, -1, 0.0, 1.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  // Site 1 commits first (0.245), site 0 second (0.345): their updates park
  // in the central backlog in that arrival order (0.445, 0.545).
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 1, {{11, LockMode::Exclusive}}));
  sys.simulator().schedule_at(0.1, [&sys] {
    sys.inject_transaction(
        custom_txn(2, TxnClass::A, 0, {{7, LockMode::Exclusive}}));
  });
  sys.simulator().run_until(0.9);
  ASSERT_EQ(sys.local_locks(1).coherence_count(11), 1u);
  ASSERT_EQ(sys.local_locks(0).coherence_count(7), 1u);

  // Record when each site's coherence count drains.
  double drained[2] = {-1.0, -1.0};
  while (sys.simulator().step()) {
    const double now = sys.simulator().now();
    if (drained[1] < 0.0 && sys.local_locks(1).coherence_count(11) == 0) {
      drained[1] = now;
    }
    if (drained[0] < 0.0 && sys.local_locks(0).coherence_count(7) == 0) {
      drained[0] = now;
    }
  }

  // Recovery at t = 1 replays site 1's update first: its apply burst runs
  // first on the FCFS central CPU, and site 0's queues behind it. Each ack
  // then takes one link delay and one ack-processing burst at its site.
  EXPECT_EQ(sys.metrics().backlog_replayed, 2u);
  EXPECT_NEAR(drained[1], 1.0 + kApplyCpu + 0.2 + kRecvAckCpu, 1e-9);
  EXPECT_NEAR(drained[0], 1.0 + 2 * kApplyCpu + 0.2 + kRecvAckCpu, 1e-9);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(FaultInjection, LinkOutageDelaysShippedTransactionExactly) {
  SystemConfig cfg = quiet_config();
  // Outage covers the forward ship message (sent at t = 0.015): it holds in
  // the link until recovery at t = 1 and arrives one link delay later.
  cfg.faults.windows.push_back({FaultKind::LinkOutage, 0, 0.01, 0.99, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();

  // Fault-free arrival at central would be 0.215; held, it arrives at 1.2
  // and the central run proceeds unchanged from there. No abort happened, so
  // this is still the (I/O-paying) first run.
  ASSERT_EQ(sys.metrics().completions_shipped_a, 1u);
  EXPECT_EQ(sys.metrics().aborts_total(), 0u);
  EXPECT_NEAR(sys.metrics().rt_shipped_a.mean(), 1.2 + kCentralRunCost, 1e-9);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(FaultInjection, FailureAwareRoutingDegradesToLocalAndRecovers) {
  SystemConfig cfg = quiet_config();
  cfg.faults.windows.push_back({FaultKind::CentralOutage, -1, 1.0, 2.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<FailureAwareStrategy>(
                            std::make_unique<AlwaysCentralStrategy>()));

  // Before the outage the wrapped strategy decides: shipped.
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run_until(1.5);
  EXPECT_EQ(sys.metrics().completions_shipped_a, 1u);

  // During the outage the wrapper overrides to local — no timeout ladder.
  EXPECT_FALSE(sys.make_state_view(0).central_reachable);
  sys.inject_transaction(
      custom_txn(2, TxnClass::A, 0, {{6, LockMode::Exclusive}}));
  sys.simulator().run_until(2.5);
  EXPECT_EQ(sys.metrics().completions_local_a, 1u);

  // After recovery, control returns to the wrapped strategy: shipped again.
  sys.simulator().run_until(3.5);
  EXPECT_TRUE(sys.make_state_view(0).central_reachable);
  sys.inject_transaction(
      custom_txn(3, TxnClass::A, 0, {{8, LockMode::Exclusive}}));
  sys.simulator().run();
  EXPECT_EQ(sys.metrics().completions_shipped_a, 2u);
  EXPECT_EQ(sys.metrics().shipped_class_a(), 2u);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

// Drain test under load: arrivals run through a central outage, a site
// outage, a link outage, and a lossy degraded period; after stopping
// arrivals everything drains to zero and the strengthened invariants hold at
// every step along the way.
TEST(FaultInjection, LoadedRunWithCrashesDrainsCompletely) {
  SystemConfig cfg;
  cfg.num_sites = 4;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 11;
  cfg.ship_timeout = 0.8;
  cfg.ship_backoff = 2.0;
  cfg.ship_max_retries = 1;
  cfg.faults.windows.push_back({FaultKind::CentralOutage, -1, 2.0, 1.5, 1.0, 0.0});
  cfg.faults.windows.push_back({FaultKind::SiteOutage, 1, 4.0, 1.0, 1.0, 0.0});
  cfg.faults.windows.push_back({FaultKind::LinkOutage, 0, 5.5, 0.5, 1.0, 0.0});
  cfg.faults.windows.push_back({FaultKind::LinkDegrade, -1, 6.5, 1.0, 2.0, 0.1});
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  sys.enable_arrivals();
  for (int step = 0; step < 32; ++step) {
    sys.run_for(0.25);
    sys.check_invariants();  // exact residency cross-checks at every step
  }
  sys.stop_arrivals();
  sys.drain();
  sys.check_invariants();

  const Metrics& m = sys.metrics();
  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(m.central_crashes, 1u);
  EXPECT_EQ(m.central_recoveries, 1u);
  EXPECT_EQ(m.site_crashes, 1u);
  EXPECT_EQ(m.site_recoveries, 1u);
  // The 1.5 s outage outlasts the 0.8 s timer.
  EXPECT_GT(m.ship_timeouts(), 0u);
  EXPECT_GT(m.backlog_replayed, 0u);
  EXPECT_GT(m.arrivals_rejected, 0u);  // site 1 rejects during its outage
  EXPECT_EQ(m.completions,
            m.completions_local_a + m.completions_shipped_a + m.completions_class_b);
  for (int s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(sys.local_resident(s), 0);
    EXPECT_EQ(sys.shipped_in_flight(s), 0);
    EXPECT_EQ(sys.local_locks(s).locks_held(), 0u);
  }
  EXPECT_EQ(sys.central_resident(), 0);
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
}

// Two same-seed runs of a faulted configuration (scheduled windows plus
// random link outages plus message loss) are bit-identical.
TEST(FaultInjection, FaultedRunsAreDeterministic) {
  auto fingerprint = [] {
    SystemConfig cfg;
    cfg.num_sites = 4;
    cfg.arrival_rate_per_site = 2.0;
    cfg.seed = 7;
    cfg.ship_timeout = 0.8;
    cfg.ship_max_retries = 1;
    cfg.faults.windows.push_back(
        {FaultKind::CentralOutage, -1, 2.0, 1.0, 1.0, 0.0});
    cfg.faults.windows.push_back(
        {FaultKind::LinkDegrade, -1, 4.0, 1.0, 3.0, 0.2});
    cfg.faults.random_link_outage_rate = 0.2;
    cfg.faults.random_link_outage_mean = 0.5;
    cfg.faults.random_horizon = 6.0;
    HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
    sys.enable_arrivals();
    sys.run_for(7.0);
    sys.stop_arrivals();
    sys.drain();
    sys.check_invariants();
    const Metrics& m = sys.metrics();
    EXPECT_GT(m.completions, 0u);
    return std::vector<double>{
        m.rt_all.mean(),  // bit-exact, not approximate, under determinism
        static_cast<double>(m.completions),
        static_cast<double>(m.ship_timeouts()),
        static_cast<double>(m.aborts_total()),
        static_cast<double>(m.backlog_replayed),
        static_cast<double>(m.arrivals_rejected),
    };
  };
  const std::vector<double> first = fingerprint();
  const std::vector<double> second = fingerprint();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace hls
