// Message-level chaos behavior of HybridSystem: duplicate deliveries are
// deduplicated without perturbing protocol timing, straggled (reordered)
// messages shift the asynchronous update pipeline by exactly the drawn slip,
// and an overtaken update is buffered by the sequencer and applied in send
// order, even when a copy of it arrives while it waits.
//
// The exact-timing tests follow the single_txn_test recipe: one or two
// transactions in an otherwise idle system, every event time derived from
// the configuration constants plus replica RNG streams reconstructed with
// the documented fork order (hybrid_system.cpp constructor), asserted to
// 1e-9.
#include <gtest/gtest.h>

#include <vector>

#include "hybrid/hybrid_system.hpp"
#include "routing/basic_strategies.hpp"
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

// Exact fault-free costs (see single_txn_test for the derivations).
constexpr double kLocalXCost = 0.075 + 0.035 + (0.030 + 0.025) + 0.080;
constexpr double kShippedACost = 0.015 + 0.2 + 0.005 + 0.035 +
                                 (0.002 + 0.025) + 0.005 +
                                 (0.2 + 0.010 + 0.2) + 0.2;

// Central apply burst for a one-item async update: (10K + 2K) / 15 MIPS.
constexpr double kApplyCpu = (10e3 + 2e3) / 15e6;
// Home-site ack-processing burst: 2K / 1 MIPS.
constexpr double kRecvAckCpu = 2e3 / 1e6;

/// Replica of the site-0 link fault streams, following the constructor's
/// documented fork order: num_sites arrival forks off the root, then (when
/// the schedule is non-empty) the FaultSchedule fork, the link parent fork,
/// and per-site {up, down} forks off the parent.
struct LinkStreams {
  Rng up0;
  Rng down0;
};

LinkStreams replica_link_streams(const SystemConfig& cfg) {
  Rng root(cfg.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  for (int s = 0; s < cfg.num_sites; ++s) {
    (void)root.fork();  // per-site arrival process
  }
  (void)root.fork();  // FaultSchedule expansion
  Rng link_parent = root.fork();
  Rng up0 = link_parent.fork();
  Rng down0 = link_parent.fork();
  return {up0, down0};
}

TEST(MsgChaos, DuplicateDeliveriesNeverPerturbShippedTiming) {
  SystemConfig cfg = quiet_config();
  cfg.seed = 2;
  cfg.faults.dup_prob = 0.9;
  cfg.faults.dup_extra = 0.03;
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();

  // A duplicated copy is delivered dup_extra after its primary and carries
  // the same sequence number, so the sequencer drops every copy and the
  // primary path — and therefore the response time — is bit-identical to
  // the fault-free run.
  ASSERT_EQ(sys.metrics().completions_shipped_a, 1u);
  EXPECT_NEAR(sys.metrics().rt_shipped_a.mean(), kShippedACost, 1e-9);

  // Dedup double-entry: every link-level duplication shows up as exactly one
  // dropped delivery, all attributed to site 0 (the only active link pair).
  const HybridSystem::LinkFaultTotals faults = sys.link_fault_totals();
  EXPECT_GT(faults.duplicated, 0u);
  EXPECT_EQ(sys.metrics().dup_msgs_dropped(), faults.duplicated);
  EXPECT_EQ(sys.site_metrics(0).dup_msgs_dropped, faults.duplicated);
  EXPECT_EQ(sys.metrics().msgs_resequenced(), 0u);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(MsgChaos, StraggledAsyncUpdatePipelineExactTiming) {
  SystemConfig cfg = quiet_config();
  cfg.seed = 2;  // chosen so both chaos draws below come out true
  cfg.faults.reorder_prob = 0.5;
  cfg.faults.reorder_window = 0.4;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{7, LockMode::Exclusive}}));

  // Replica of the only chaos draws in this run: the async update on the up
  // link (dispatched at local commit, t = 0.245) and its acknowledgement on
  // the down link. Seed 2 straggles both.
  LinkStreams streams = replica_link_streams(cfg);
  ASSERT_TRUE(streams.up0.bernoulli(cfg.faults.reorder_prob));
  const double slip_up = streams.up0.uniform(0.0, cfg.faults.reorder_window);
  ASSERT_TRUE(streams.down0.bernoulli(cfg.faults.reorder_prob));
  const double slip_down =
      streams.down0.uniform(0.0, cfg.faults.reorder_window);

  // The local response is untouched: chaos only stretches the asynchronous
  // coherence pipeline behind the commit.
  sys.simulator().run();
  ASSERT_EQ(sys.metrics().completions_local_a, 1u);
  EXPECT_NEAR(sys.metrics().rt_local_a.mean(), kLocalXCost, 1e-9);

  // Update leaves at 0.245, arrives one delay plus the slip later; apply
  // burst, ack leg with its own slip, ack-processing burst. The final event
  // is the coherence decrement.
  const double expected_end = kLocalXCost + 0.2 + slip_up + kApplyCpu + 0.2 +
                              slip_down + kRecvAckCpu;
  EXPECT_NEAR(sys.simulator().now(), expected_end, 1e-9);
  EXPECT_EQ(sys.local_locks(0).coherence_count(7), 0u);

  // Two straggled messages, but each was the only in-flight message on its
  // link: arrival order never inverted, so nothing was resequenced.
  const HybridSystem::LinkFaultTotals faults = sys.link_fault_totals();
  EXPECT_EQ(faults.reordered, 2u);
  EXPECT_EQ(sys.metrics().msgs_resequenced(), 0u);
  EXPECT_EQ(sys.metrics().dup_msgs_dropped(), 0u);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(MsgChaos, OvertakenUpdateIsResequencedExactTiming) {
  SystemConfig cfg = quiet_config();
  cfg.seed = 2;
  cfg.faults.reorder_window = 0.4;
  // The msg_fault window covers only the first update's dispatch (t = 0.245):
  // the second update, sent at 0.495, sees the restored fault-free link.
  cfg.faults.windows.push_back(
      {FaultKind::MsgFault, 0, 0.2, 0.1, 1.0, 0.0, 0.0, 0.9, 0.0, 1.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());

  // Replica of the single chaos draw: update 1 straggles far enough
  // (> 0.25) that update 2's fault-free arrival at 0.695 overtakes it.
  LinkStreams streams = replica_link_streams(cfg);
  ASSERT_TRUE(streams.up0.bernoulli(0.9));
  const double slip = streams.up0.uniform(0.0, cfg.faults.reorder_window);
  ASSERT_GT(slip, 0.25);

  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{7, LockMode::Exclusive}}));
  sys.simulator().schedule_at(0.25, [&sys] {
    sys.inject_transaction(
        custom_txn(2, TxnClass::A, 0, {{9, LockMode::Exclusive}}));
  });

  // At t = 0.70 both commits are done (0.245 and 0.495), update 2 has
  // arrived out of order (0.695) and sits buffered in the sequencer —
  // counted as resequenced, not yet applied — while update 1 is still in
  // flight until 0.445 + slip.
  sys.simulator().run_until(0.70);
  EXPECT_EQ(sys.metrics().completions_local_a, 2u);
  EXPECT_EQ(sys.metrics().async_updates_sent, 2u);
  EXPECT_EQ(sys.metrics().msgs_resequenced(), 1u);
  EXPECT_EQ(sys.local_locks(0).coherence_count(7), 1u);
  EXPECT_EQ(sys.local_locks(0).coherence_count(9), 1u);

  // Update 1 arrives at T = 0.445 + slip; the sequencer releases both
  // updates in send order at that instant. FCFS central CPU: applies finish
  // at T + kApplyCpu and T + 2*kApplyCpu, each ack leaving as its apply
  // ends. Ack 2 reaches the home site while ack 1's 2 ms burst is still
  // running (the applies are only 0.8 ms apart), so the critical path is
  // one apply burst, one down leg, and the two ack bursts back to back.
  sys.simulator().run();
  const double t_arrive = 0.245 + 0.2 + slip;
  const double expected_end = t_arrive + kApplyCpu + 0.2 + 2 * kRecvAckCpu;
  EXPECT_NEAR(sys.simulator().now(), expected_end, 1e-9);

  // Both responses are the undisturbed local cost; all chaos landed in the
  // asynchronous pipeline.
  EXPECT_NEAR(sys.metrics().rt_local_a.mean(), kLocalXCost, 1e-9);
  EXPECT_EQ(sys.local_locks(0).coherence_count(7), 0u);
  EXPECT_EQ(sys.local_locks(0).coherence_count(9), 0u);
  EXPECT_EQ(sys.local_locks(0).pending_coherence_entities(), 0u);

  const HybridSystem::LinkFaultTotals faults = sys.link_fault_totals();
  EXPECT_EQ(faults.reordered, 1u);
  EXPECT_EQ(sys.metrics().msgs_resequenced(), 1u);
  EXPECT_EQ(sys.site_metrics(0).msgs_resequenced, 1u);
  EXPECT_EQ(sys.metrics().dup_msgs_dropped(), 0u);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

TEST(MsgChaos, DuplicateOfResequencedUpdateIsDroppedExactTiming) {
  SystemConfig cfg = quiet_config();
  cfg.seed = 2;
  cfg.faults.reorder_window = 0.4;
  cfg.faults.dup_extra = 0.02;
  // The first window straggles update 1 (dispatched at 0.245) as in
  // OvertakenUpdateIsResequencedExactTiming; the second covers only update
  // 2's dispatch (0.495) and duplicates it.
  cfg.faults.windows.push_back(
      {FaultKind::MsgFault, 0, 0.2, 0.1, 1.0, 0.0, 0.0, 0.9, 0.0, 1.0});
  cfg.faults.windows.push_back(
      {FaultKind::MsgFault, 0, 0.45, 0.1, 1.0, 0.0, 0.9, 0.0, 0.0, 1.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());

  // Replica of the three chaos draws on the up link: update 1 straggles
  // past update 2's arrival (0.695), and update 2 is duplicated. Its copy
  // lands at 0.715, while the primary still waits behind update 1.
  LinkStreams streams = replica_link_streams(cfg);
  ASSERT_TRUE(streams.up0.bernoulli(0.9));
  const double slip = streams.up0.uniform(0.0, cfg.faults.reorder_window);
  ASSERT_TRUE(streams.up0.bernoulli(0.9));
  ASSERT_GT(0.445 + slip, 0.695 + cfg.faults.dup_extra);

  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{7, LockMode::Exclusive}}));
  sys.simulator().schedule_at(0.25, [&sys] {
    sys.inject_transaction(
        custom_txn(2, TxnClass::A, 0, {{9, LockMode::Exclusive}}));
  });

  // Just after the copy of update 2 arrived: the primary is buffered
  // (resequenced) and the copy was dropped; nothing has been applied yet.
  sys.simulator().run_until(0.695 + cfg.faults.dup_extra + 1e-6);
  EXPECT_EQ(sys.metrics().msgs_resequenced(), 1u);
  EXPECT_EQ(sys.metrics().dup_msgs_dropped(), 1u);
  EXPECT_EQ(sys.central_cpu().busy_seconds(), 0.0);

  // Update 1 fills the gap and both updates run once, in send order: the
  // same critical path as the test above.
  sys.simulator().run();
  const double t_arrive = 0.245 + 0.2 + slip;
  const double expected_end = t_arrive + kApplyCpu + 0.2 + 2 * kRecvAckCpu;
  EXPECT_NEAR(sys.simulator().now(), expected_end, 1e-9);
  EXPECT_NEAR(sys.central_cpu().busy_seconds(), 2 * kApplyCpu, 1e-12);
  EXPECT_EQ(sys.local_locks(0).coherence_count(7), 0u);
  EXPECT_EQ(sys.local_locks(0).coherence_count(9), 0u);

  const HybridSystem::LinkFaultTotals faults = sys.link_fault_totals();
  EXPECT_EQ(faults.reordered, 1u);
  EXPECT_EQ(faults.duplicated, 1u);
  EXPECT_EQ(sys.site_metrics(0).msgs_resequenced, 1u);
  EXPECT_EQ(sys.site_metrics(0).dup_msgs_dropped, 1u);
  EXPECT_EQ(sys.live_transactions(), 0);
  sys.check_invariants();
}

// Drain test for the new fault modes: sustained arrivals under steady
// duplicate + reorder + spike chaos, then stop arrivals and drain — all
// residency counters return to zero and the dedup double-entry holds.
TEST(MsgChaos, LoadedChaosRunDrainsCompletely) {
  SystemConfig cfg;
  cfg.num_sites = 4;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 13;
  cfg.faults.dup_prob = 0.3;
  cfg.faults.dup_extra = 0.05;
  cfg.faults.reorder_prob = 0.3;
  cfg.faults.reorder_window = 0.5;
  cfg.faults.spike_prob = 0.2;
  cfg.faults.spike_factor = 3.0;
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  sys.enable_arrivals();
  for (int step = 0; step < 16; ++step) {
    sys.run_for(0.5);
    sys.check_invariants();
  }
  sys.stop_arrivals();
  sys.drain();
  sys.check_invariants();

  const Metrics& m = sys.metrics();
  const HybridSystem::LinkFaultTotals faults = sys.link_fault_totals();
  EXPECT_GT(m.completions, 0u);
  EXPECT_GT(faults.duplicated, 0u);
  EXPECT_GT(faults.reordered, 0u);
  EXPECT_GT(faults.delay_spikes, 0u);
  EXPECT_EQ(m.dup_msgs_dropped(), faults.duplicated);
  EXPECT_GT(m.msgs_resequenced(), 0u);

  // Per-site counters sum to the global ones.
  std::uint64_t dup_sum = 0;
  std::uint64_t reseq_sum = 0;
  for (int s = 0; s < cfg.num_sites; ++s) {
    dup_sum += sys.site_metrics(s).dup_msgs_dropped;
    reseq_sum += sys.site_metrics(s).msgs_resequenced;
  }
  EXPECT_EQ(dup_sum, m.dup_msgs_dropped());
  EXPECT_EQ(reseq_sum, m.msgs_resequenced());

  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(sys.central_resident(), 0);
  for (int s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(sys.local_resident(s), 0);
    EXPECT_EQ(sys.shipped_in_flight(s), 0);
    EXPECT_EQ(sys.local_locks(s).locks_held(), 0u);
    EXPECT_EQ(sys.local_locks(s).pending_coherence_entities(), 0u);
  }
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
}

// Two same-seed runs under composed message chaos are bit-identical.
TEST(MsgChaos, ChaosRunsAreDeterministic) {
  auto fingerprint = [] {
    SystemConfig cfg;
    cfg.num_sites = 4;
    cfg.arrival_rate_per_site = 2.0;
    cfg.seed = 29;
    cfg.faults.dup_prob = 0.25;
    cfg.faults.dup_extra = 0.04;
    cfg.faults.reorder_prob = 0.25;
    cfg.faults.reorder_window = 0.4;
    cfg.faults.spike_prob = 0.15;
    cfg.faults.spike_factor = 4.0;
    cfg.faults.windows.push_back(
        {FaultKind::MsgFault, -1, 2.0, 2.0, 1.0, 0.0, 0.5, 0.5, 0.3, 6.0});
    HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
    sys.enable_arrivals();
    sys.run_for(6.0);
    sys.stop_arrivals();
    sys.drain();
    sys.check_invariants();
    const Metrics& m = sys.metrics();
    EXPECT_GT(m.completions, 0u);
    return std::vector<double>{
        m.rt_all.mean(),
        static_cast<double>(m.completions),
        static_cast<double>(m.dup_msgs_dropped()),
        static_cast<double>(m.msgs_resequenced()),
        static_cast<double>(m.aborts_total()),
    };
  };
  const std::vector<double> first = fingerprint();
  const std::vector<double> second = fingerprint();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace hls
