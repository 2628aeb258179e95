// Cross-tier conflict choreography: crafted transactions drive each abort
// path of the protocol (preemption, invalidation, negative acknowledgement,
// deadlock) and the tests assert the exact cause and eventual completion.
#include <gtest/gtest.h>

#include "hybrid/hybrid_system.hpp"
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

// ---- local-local contention ----

TEST(Conflict, LocalContentionSerializesConflictingTransactions) {
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.inject_transaction(custom_txn(2, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_EQ(m.aborts_total(), 0u);  // waits, not aborts, within a tier
  // The second transaction waited: its response time exceeds the first's.
  EXPECT_GT(m.rt_local_a.max(), m.rt_local_a.min());
  sys.check_invariants();
}

TEST(Conflict, SharedLocalTransactionsDoNotWait) {
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(custom_txn(1, TxnClass::A, 0, {{5, LockMode::Shared}}));
  sys.inject_transaction(custom_txn(2, TxnClass::A, 0, {{5, LockMode::Shared}}));
  sys.simulator().run();
  // Both serialize only on the CPU, never on the lock: the spread between
  // the two response times is exactly the CPU interference, which is far
  // smaller than a full lock wait (the holder keeps the lock ~0.1 s).
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_EQ(m.aborts_total(), 0u);
}

// ---- deadlock ----

TEST(Conflict, LocalDeadlockAbortsOneAndBothComplete) {
  SystemConfig cfg = quiet_config();
  cfg.call_io_time = 0.2;  // long I/O holds locks long enough to interleave
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(custom_txn(
      1, TxnClass::A, 0, {{5, LockMode::Exclusive}, {6, LockMode::Exclusive}}));
  sys.inject_transaction(custom_txn(
      2, TxnClass::A, 0, {{6, LockMode::Exclusive}, {5, LockMode::Exclusive}}));
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_GE(m.aborts(AbortCause::Deadlock), 1u);
  EXPECT_EQ(sys.local_locks(0).locks_held(), 0u);
  sys.check_invariants();
}

TEST(Conflict, CentralDeadlockBetweenClassBTransactions) {
  SystemConfig cfg = quiet_config();
  cfg.call_io_time = 0.2;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(custom_txn(
      1, TxnClass::B, 0, {{100, LockMode::Exclusive}, {200, LockMode::Exclusive}}));
  sys.inject_transaction(custom_txn(
      2, TxnClass::B, 1, {{200, LockMode::Exclusive}, {100, LockMode::Exclusive}}));
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_GE(m.aborts(AbortCause::Deadlock), 1u);
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
}

// ---- local preemption by authentication ----

TEST(Conflict, AuthenticationPreemptsLocalHolder) {
  SystemConfig cfg = quiet_config();
  cfg.call_io_time = 1.0;  // the local transaction holds its lock for >1 s
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  // Local transaction takes lock 5 exclusively at t ~ 0.14, then sits in I/O
  // until ~1.14; commit check happens after that.
  sys.inject_transaction(custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/true));
  // Class B transaction wants the same entity; its authentication reaches
  // site 0 at t ~ 0.46 — while the local transaction still holds the lock.
  sys.inject_transaction(custom_txn(2, TxnClass::B, 0, {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/false));
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_GE(m.aborts(AbortCause::LocalPreempted), 1u);
  // The local transaction reran: it completed after more than one run.
  EXPECT_EQ(m.rt_rerun.count(), 1u);
  sys.check_invariants();
}

TEST(Conflict, SharedAuthDoesNotPreemptSharedHolder) {
  SystemConfig cfg = quiet_config();
  cfg.call_io_time = 1.0;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(custom_txn(1, TxnClass::A, 0, {{5, LockMode::Shared}}));
  sys.inject_transaction(custom_txn(2, TxnClass::B, 0, {{5, LockMode::Shared}},
                                    /*io_per_call=*/false));
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_EQ(m.aborts_total(), 0u);
}

// ---- central invalidation by an asynchronous update ----

TEST(Conflict, LocalCommitInvalidatesCentralHolder) {
  SystemConfig cfg = quiet_config();
  cfg.call_io_time = 0.5;  // stretch execution so windows overlap
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  // Class B acquires entity 5 at the central site at t ~ 0.26 and keeps
  // executing (five 0.5 s I/Os) until past t ~ 2.7.
  sys.inject_transaction(custom_txn(2, TxnClass::B, 5,
                                    {{5, LockMode::Exclusive},
                                     {3300, LockMode::Exclusive},
                                     {6600, LockMode::Exclusive},
                                     {9900, LockMode::Exclusive},
                                     {13200, LockMode::Exclusive}}));
  // The local transaction updates entity 5 and commits at t ~ 0.72; its
  // asynchronous update reaches the central site at ~0.92, mid-execution of
  // the class B transaction, which must be marked and rerun.
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_GE(m.aborts(AbortCause::CentralInvalidated), 1u);
  sys.check_invariants();
}

// ---- negative acknowledgement (coherence in flight) ----

TEST(Conflict, AuthRefusedWhileUpdatePropagationInFlight) {
  SystemConfig cfg = quiet_config();
  cfg.comm_delay = 2.0;  // long coherence window: ack takes 4+ s round trip
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  // Local update commits at ~0.245; coherence stays pending until ~4.25
  // (two 2-second legs plus processing).
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  // Class B reaches its authentication of entity 5 at ~4.15, inside the
  // coherence window -> negative ack, rerun, then success on the retry.
  sys.inject_transaction(custom_txn(2, TxnClass::B, 0,
                                    {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/false));
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_GE(m.aborts(AbortCause::AuthRefused), 1u);
  EXPECT_GE(m.auth_negative_acks, 1u);
  EXPECT_GE(m.auth_rounds, 2u);  // refused round + successful retry
  for (int s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(sys.local_locks(s).pending_coherence_entities(), 0u);
  }
}

// ---- partial grant across sites: release-then-retry ordering ----

TEST(Conflict, PartialAuthGrantReleasedBeforeRetry) {
  // A class B transaction authenticates at two master sites; site 1 refuses
  // (coherence in flight from a just-committed local update) while site 0
  // grants. The failed round must release site 0's grant, and the retry's
  // grabs must observe that release (FIFO links + FCFS CPUs guarantee the
  // ordering); the transaction then commits on the retry.
  SystemConfig cfg = quiet_config();
  cfg.comm_delay = 2.0;
  const std::uint32_t part = cfg.partition_size();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  // Local update at site 1: commits ~0.245, coherence pending until ~4.25.
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 1, {{part + 5, LockMode::Exclusive}}));
  // Class B touching both partitions; its auth lands ~4.14, inside site 1's
  // coherence window.
  sys.inject_transaction(custom_txn(2, TxnClass::B, 0,
                                    {{5, LockMode::Exclusive},
                                     {part + 5, LockMode::Exclusive}},
                                    /*io_per_call=*/false));
  sys.simulator().run();
  const Metrics& m = sys.metrics();
  EXPECT_EQ(m.completions, 2u);
  EXPECT_GE(m.auth_negative_acks, 1u);
  EXPECT_GE(m.auth_rounds, 2u);  // the refused round plus the retry
  EXPECT_EQ(sys.local_locks(0).locks_held(), 0u);
  EXPECT_EQ(sys.local_locks(1).locks_held(), 0u);
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
  for (int s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(sys.local_locks(s).pending_coherence_entities(), 0u);
  }
  sys.check_invariants();
}

TEST(Conflict, ProtocolMessagesRefreshTheCentralView) {
  // Site 0 exchanges authentication traffic with the central site; its
  // cached central state must be refreshed by those messages while a
  // bystander site's view stays stale.
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(custom_txn(1, TxnClass::B, 0, {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/false));
  sys.simulator().run();
  const double now = sys.simulator().now();
  const SystemStateView near_view = sys.make_state_view(0);
  const SystemStateView far_view = sys.make_state_view(7);
  EXPECT_LT(near_view.central_info_age, now);
  EXPECT_DOUBLE_EQ(far_view.central_info_age, now);  // never heard anything
}

// ---- waiting on an authentication hold ----

TEST(Conflict, LocalTransactionWaitsOutCentralAuthHold) {
  SystemConfig cfg = quiet_config();
  cfg.comm_delay = 1.0;  // auth holds the lock at site 0 for ~2 s
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  HybridSystem* raw = &sys;
  sys.inject_transaction(custom_txn(2, TxnClass::B, 0, {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/false));
  // Class B's auth grabs lock 5 at site 0 at t ~ 2.07 and releases it with
  // the commit message at t ~ 4.08. A local transaction arriving at 2.2
  // requests the same entity at ~2.34 and must wait, not deadlock.
  double local_rt = 0.0;
  sys.simulator().schedule_at(2.2, [raw] {
    raw->inject_transaction(
        custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  });
  sys.simulator().run();
  local_rt = sys.metrics().rt_local_a.mean();
  EXPECT_EQ(sys.metrics().completions, 2u);
  EXPECT_EQ(sys.metrics().aborts_total(), 0u);
  // Without the wait the local transaction takes ~0.245 s; the auth hold
  // stretches it beyond one second.
  EXPECT_GT(local_rt, 1.0);
  sys.check_invariants();
}

}  // namespace
}  // namespace hls
