// Asynchronous-update batching (§2's batching suggestion).
#include <gtest/gtest.h>

#include "hybrid/hybrid_system.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

SystemConfig quiet_config(double batch_window) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  cfg.async_batch_window = batch_window;
  return cfg;
}

Transaction write_txn(TxnId id, int site, LockId lock) {
  Transaction txn;
  txn.id = id;
  txn.cls = TxnClass::A;
  txn.home_site = site;
  txn.locks = {{lock, LockMode::Exclusive}};
  txn.call_io = {true};
  return txn;
}

TEST(Batching, DisabledSendsOneMessagePerCommit) {
  HybridSystem sys(quiet_config(0.0), std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(write_txn(1, 0, 5));
  sys.inject_transaction(write_txn(2, 0, 6));
  sys.simulator().run();
  EXPECT_EQ(sys.metrics().async_updates_sent, 2u);
}

TEST(Batching, WindowCoalescesCommitsIntoOneMessage) {
  // Both transactions commit within ~0.1 s of each other; a 1 s window must
  // merge their updates into a single message.
  HybridSystem sys(quiet_config(1.0), std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(write_txn(1, 0, 5));
  sys.inject_transaction(write_txn(2, 0, 6));
  sys.simulator().run();
  EXPECT_EQ(sys.metrics().async_updates_sent, 1u);
  // Coherence fully cleared after the batch's acknowledgement.
  EXPECT_EQ(sys.local_locks(0).pending_coherence_entities(), 0u);
  EXPECT_EQ(sys.live_transactions(), 0);
}

TEST(Batching, SeparateSitesBatchIndependently) {
  HybridSystem sys(quiet_config(1.0), std::make_unique<AlwaysLocalStrategy>());
  const std::uint32_t part = SystemConfig{}.partition_size();
  sys.inject_transaction(write_txn(1, 0, 5));
  sys.inject_transaction(write_txn(2, 1, part + 5));
  sys.simulator().run();
  EXPECT_EQ(sys.metrics().async_updates_sent, 2u);  // one per site
}

TEST(Batching, CoherenceHeldUntilBatchAcknowledged) {
  HybridSystem sys(quiet_config(2.0), std::make_unique<AlwaysLocalStrategy>());
  sys.inject_transaction(write_txn(1, 0, 5));
  // Commit at ~0.245; flush at ~2.245; ack at ~2.245 + 0.4 + processing.
  sys.simulator().run_until(2.0);
  EXPECT_EQ(sys.metrics().completions, 1u);  // commit did not wait for flush
  EXPECT_EQ(sys.local_locks(0).coherence_count(5), 1u);
  sys.simulator().run_until(2.3);
  EXPECT_EQ(sys.metrics().async_updates_sent, 1u);  // flushed
  EXPECT_EQ(sys.local_locks(0).coherence_count(5), 1u);  // ack still in flight
  sys.simulator().run();
  EXPECT_EQ(sys.local_locks(0).coherence_count(5), 0u);
}

TEST(Batching, BatchedUpdateStillInvalidatesCentralHolders) {
  SystemConfig cfg = quiet_config(0.5);
  cfg.call_io_time = 0.5;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  // Slow class B holds entity 5 at central; the batched local update must
  // still mark it for abort when the flush arrives.
  Transaction b;
  b.id = 2;
  b.cls = TxnClass::B;
  b.home_site = 5;
  b.locks = {{5, LockMode::Exclusive},
             {3300, LockMode::Exclusive},
             {6600, LockMode::Exclusive},
             {9900, LockMode::Exclusive},
             {13200, LockMode::Exclusive}};
  b.call_io.assign(5, true);
  sys.inject_transaction(b);
  sys.inject_transaction(write_txn(1, 0, 5));
  sys.simulator().run();
  EXPECT_EQ(sys.metrics().completions, 2u);
  EXPECT_GE(sys.metrics().aborts(AbortCause::CentralInvalidated),
            1u);
}

TEST(Batching, ManyCommitsRollIntoFewMessages) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.0;
  cfg.async_batch_window = 0.5;
  cfg.prob_write_lock = 1.0;  // every transaction updates
  cfg.seed = 3;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  sys.enable_arrivals();
  sys.run_for(100.0);
  sys.stop_arrivals();
  sys.drain();
  const Metrics& m = sys.metrics();
  // ~2 commits/site/second against a 0.5 s window: messages should be well
  // below one per commit (every flush carries >= 1, usually several).
  EXPECT_GT(m.completions, 0u);
  EXPECT_LT(m.async_updates_sent, m.completions_local_a);
  EXPECT_EQ(sys.live_transactions(), 0);
  for (int s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(sys.local_locks(s).pending_coherence_entities(), 0u);
  }
  sys.check_invariants();
}

TEST(Batching, SystemDrainsWithBatchingUnderLoad) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.4;
  cfg.async_batch_window = 0.2;
  cfg.seed = 5;
  HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.5, 5));
  sys.enable_arrivals();
  sys.run_for(100.0);
  sys.stop_arrivals();
  sys.drain();
  EXPECT_EQ(sys.live_transactions(), 0);
  EXPECT_EQ(sys.metrics().completions,
            sys.metrics().arrivals_class_a() + sys.metrics().arrivals_class_b);
  sys.check_invariants();
}

}  // namespace
}  // namespace hls
