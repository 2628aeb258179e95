// Abort provenance: every abort carries a typed cause, the identity of the
// transaction that won the conflict (when one exists), and the exact work
// the aborted attempt threw away. Crafted single-conflict scenarios in an
// otherwise idle system make all three assertable to numeric precision.
#include <gtest/gtest.h>

#include <vector>

#include "hybrid/hybrid_system.hpp"
#include "obs/event.hpp"
#include "obs/ring_sink.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

SystemConfig quiet_config() {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
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

/// The abort events a run emitted, in order.
std::vector<obs::Event> abort_events(const obs::RingSink& ring) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : ring.events()) {
    if (e.kind == obs::EventKind::Abort) {
      out.push_back(e);
    }
  }
  return out;
}

// ---- local preemption: the authenticating class B names itself winner ----

TEST(AbortProvenance, LocalPreemptionNamesAuthWinnerAndExactWaste) {
  SystemConfig cfg = quiet_config();
  cfg.call_io_time = 1.0;  // the local holder sits in I/O while auth lands
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  obs::RingSink ring(16, obs::kind_bit(obs::EventKind::Abort));
  sys.add_trace_sink(&ring);
  sys.inject_transaction(custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/true));
  sys.inject_transaction(custom_txn(2, TxnClass::B, 0, {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/false));
  sys.simulator().run();

  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  ASSERT_EQ(m.aborts(AbortCause::LocalPreempted), 1u);
  EXPECT_EQ(m.aborts_with_winner(), 1u);
  // Victim homed at site 0, winner homed at site 0.
  EXPECT_EQ(m.conflict(0, 0), 1u);
  EXPECT_EQ(m.conflict_matrix_total(), 1u);

  const std::vector<obs::Event> aborts = abort_events(ring);
  ASSERT_EQ(aborts.size(), 1u);
  const obs::Event& e = aborts[0];
  EXPECT_EQ(e.txn, 1u);
  EXPECT_EQ(e.cause, AbortCause::LocalPreempted);
  EXPECT_EQ(e.winner, 2u);
  EXPECT_EQ(e.winner_site, 0);
  // The aborted attempt burned init (0.075) + the call's CPU (0.030); the
  // preemption mark is honored at the commit check, after the setup I/O
  // (0.035) and the full 1 s call I/O have completed — all of it wasted.
  EXPECT_NEAR(e.wasted_cpu, 0.075 + 0.030, 1e-9);
  EXPECT_NEAR(e.wasted_io, 0.035 + 1.0, 1e-9);
  // Event fields and the per-cause ledger are the same bookkeeping entry.
  EXPECT_NEAR(m.wasted_cpu_by_cause[static_cast<int>(AbortCause::LocalPreempted)],
              e.wasted_cpu, 1e-12);
  EXPECT_NEAR(m.wasted_io_by_cause[static_cast<int>(AbortCause::LocalPreempted)],
              e.wasted_io, 1e-12);
  sys.check_invariants();
}

// ---- central invalidation: the committing local update is the winner ----

TEST(AbortProvenance, CentralInvalidationNamesTheCommitter) {
  SystemConfig cfg = quiet_config();
  cfg.call_io_time = 0.5;  // stretch the class B execution window
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  obs::RingSink ring(16, obs::kind_bit(obs::EventKind::Abort));
  sys.add_trace_sink(&ring);
  // Class B homed at site 5 acquires entity 5 centrally and keeps executing.
  sys.inject_transaction(custom_txn(2, TxnClass::B, 5,
                                    {{5, LockMode::Exclusive},
                                     {3300, LockMode::Exclusive},
                                     {6600, LockMode::Exclusive},
                                     {9900, LockMode::Exclusive},
                                     {13200, LockMode::Exclusive}}));
  // The local update of entity 5 commits mid-execution; its asynchronous
  // update invalidates the central holder.
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();

  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  ASSERT_GE(m.aborts(AbortCause::CentralInvalidated), 1u);

  const std::vector<obs::Event> aborts = abort_events(ring);
  ASSERT_FALSE(aborts.empty());
  const obs::Event& e = aborts[0];
  EXPECT_EQ(e.txn, 2u);
  EXPECT_EQ(e.cause, AbortCause::CentralInvalidated);
  EXPECT_EQ(e.winner, 1u);       // the committed local transaction
  EXPECT_EQ(e.winner_site, 0);   // homed at site 0
  EXPECT_GT(e.wasted_cpu + e.wasted_io, 0.0);
  // Victim row 5, winner column 0.
  EXPECT_GE(m.conflict(5, 0), 1u);
  EXPECT_GE(m.aborts_with_winner(), 1u);
  sys.check_invariants();
}

// ---- winner-attribution consistency over a contended stochastic run ----

TEST(AbortProvenance, WinnerAttributionIsConsistentUnderContention) {
  // A hot run with a small lockspace produces every collision-type abort.
  // For each abort event the attribution rules must hold: preemption,
  // invalidation, and deadlock always name a live winner with a valid home
  // site; crash and ship-timeout never do; auth refusal names one only when
  // a live non-preemptible holder refused (optional).
  SystemConfig cfg;
  cfg.seed = 99;
  cfg.arrival_rate_per_site = 2.0;
  cfg.lockspace = 4000;  // ~8x hotter than the default database
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  obs::RingSink ring(100000, obs::kind_bit(obs::EventKind::Abort));
  sys.add_trace_sink(&ring);
  sys.enable_arrivals();
  sys.run_for(60.0);
  sys.stop_arrivals();
  sys.drain();

  const Metrics& m = sys.metrics();
  ASSERT_GT(m.aborts_total(), 0u);
  std::uint64_t named = 0;
  for (const obs::Event& e : abort_events(ring)) {
    switch (e.cause) {
      case AbortCause::LocalPreempted:
      case AbortCause::CentralInvalidated:
      case AbortCause::Deadlock:
        ASSERT_NE(e.winner, kInvalidTxn)
            << obs::abort_cause_name(e.cause) << " abort without a winner";
        ASSERT_NE(e.winner, e.txn);
        ASSERT_GE(e.winner_site, 0);
        ASSERT_LT(e.winner_site, cfg.num_sites);
        ++named;
        break;
      case AbortCause::Crash:
      case AbortCause::ShipTimeout:
        ASSERT_EQ(e.winner, kInvalidTxn);
        break;
      case AbortCause::AuthRefused:
        if (e.winner != kInvalidTxn) {
          ASSERT_GE(e.winner_site, 0);
          ++named;
        }
        break;
      default:
        break;
    }
    // Wasted work is never negative and never exceeds the abort's age.
    ASSERT_GE(e.wasted_cpu, 0.0);
    ASSERT_GE(e.wasted_io, 0.0);
    ASSERT_LE(e.wasted_cpu + e.wasted_io, e.time - e.arrival_time + 1e-9);
  }
  EXPECT_EQ(named, m.aborts_with_winner());
  EXPECT_GT(named, 0u);
  sys.check_invariants();
}

// ---- auth refusal by coherence-in-flight: no winning transaction ----

TEST(AbortProvenance, CoherenceRefusalHasNoWinner) {
  SystemConfig cfg = quiet_config();
  cfg.comm_delay = 2.0;  // long coherence window
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  obs::RingSink ring(16, obs::kind_bit(obs::EventKind::Abort));
  sys.add_trace_sink(&ring);
  // The committed local update is long gone by the time the class B auth
  // hits the pending-coherence window; nobody holds the lock, so the
  // refusal names no winner and lands in the matrix's none column.
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.inject_transaction(custom_txn(2, TxnClass::B, 0, {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/false));
  sys.simulator().run();

  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  ASSERT_GE(m.aborts(AbortCause::AuthRefused), 1u);
  EXPECT_EQ(m.aborts_with_winner(), 0u);
  EXPECT_GE(m.conflict(0, m.num_sites()), 1u);  // the `-` column

  const std::vector<obs::Event> aborts = abort_events(ring);
  ASSERT_FALSE(aborts.empty());
  EXPECT_EQ(aborts[0].cause, AbortCause::AuthRefused);
  EXPECT_EQ(aborts[0].winner, kInvalidTxn);
  EXPECT_EQ(aborts[0].winner_site, -2);
  sys.check_invariants();
}

// ---- deadlock: the surviving cycle member is the winner ----

TEST(AbortProvenance, DeadlockVictimNamesSurvivingCycleMember) {
  SystemConfig cfg = quiet_config();
  cfg.call_io_time = 0.2;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  obs::RingSink ring(16, obs::kind_bit(obs::EventKind::Abort));
  sys.add_trace_sink(&ring);
  sys.inject_transaction(custom_txn(
      1, TxnClass::A, 0, {{5, LockMode::Exclusive}, {6, LockMode::Exclusive}}));
  sys.inject_transaction(custom_txn(
      2, TxnClass::A, 0, {{6, LockMode::Exclusive}, {5, LockMode::Exclusive}}));
  sys.simulator().run();

  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  ASSERT_GE(m.aborts(AbortCause::Deadlock), 1u);

  const std::vector<obs::Event> aborts = abort_events(ring);
  ASSERT_FALSE(aborts.empty());
  const obs::Event& e = aborts[0];
  EXPECT_EQ(e.cause, AbortCause::Deadlock);
  // The winner is the *other* transaction in the two-cycle.
  ASSERT_NE(e.winner, kInvalidTxn);
  EXPECT_NE(e.winner, e.txn);
  EXPECT_TRUE(e.winner == 1u || e.winner == 2u);
  EXPECT_EQ(e.winner_site, 0);
  EXPECT_GE(m.aborts_with_winner(), 1u);
  sys.check_invariants();
}

// ---- crash sweeps abort without a winner ----

TEST(AbortProvenance, CrashAbortHasNoWinner) {
  SystemConfig cfg = quiet_config();
  // The shipped transaction is resident at the central complex from ~0.22;
  // the outage at 0.3 sweeps it, and it reruns after recovery.
  cfg.faults.windows.push_back(
      {FaultKind::CentralOutage, -1, 0.3, 1.0, 1.0, 0.0});
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  obs::RingSink ring(16, obs::kind_bit(obs::EventKind::Abort));
  sys.add_trace_sink(&ring);
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();

  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 1u);
  ASSERT_GE(m.aborts(AbortCause::Crash), 1u);
  EXPECT_EQ(m.aborts_with_winner(), 0u);
  EXPECT_GE(m.conflict(0, m.num_sites()), 1u);

  const std::vector<obs::Event> aborts = abort_events(ring);
  ASSERT_FALSE(aborts.empty());
  EXPECT_EQ(aborts[0].cause, AbortCause::Crash);
  EXPECT_EQ(aborts[0].winner, kInvalidTxn);
  sys.check_invariants();
}

// ---- wasted work is conserved through the victim's completion ----

TEST(AbortProvenance, WastedWorkLedgersAgreeWithPerTxnSamples) {
  SystemConfig cfg = quiet_config();
  cfg.call_io_time = 1.0;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/true));
  sys.inject_transaction(custom_txn(2, TxnClass::B, 0, {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/false));
  sys.simulator().run();

  const Metrics& m = sys.metrics();
  ASSERT_EQ(m.completions, 2u);
  // One sample per completion: the winner contributes an exact zero, the
  // victim its wasted total; CPU + I/O is a lower bound on the total (the
  // attempt may also have wasted lock-wait or queueing time).
  EXPECT_EQ(m.wasted_per_txn.count(), 2u);
  EXPECT_DOUBLE_EQ(m.wasted_per_txn.min(), 0.0);
  EXPECT_GE(m.wasted_per_txn.sum() + 1e-12,
            m.wasted_cpu_total() + m.wasted_io_total());
  EXPECT_GT(m.wasted_per_txn.max(), 0.0);
  sys.check_invariants();
}

}  // namespace
}  // namespace hls
