// Randomized-configuration property test: sample valid configurations from
// a wide envelope, run every class of strategy, and require the systemic
// invariants (drain to empty, conservation, consistent lock tables) to
// hold. This is the broadest net for protocol bugs that only appear under
// odd parameter combinations.
#include <gtest/gtest.h>

#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"
#include "routing/factory.hpp"
#include "util/random.hpp"

namespace hls {
namespace {

SystemConfig random_config(Rng& rng) {
  SystemConfig cfg;
  cfg.num_sites = static_cast<int>(rng.uniform_int(1, 16));
  cfg.local_mips = rng.uniform(0.5, 3.0);
  cfg.central_mips = rng.uniform(2.0, 30.0);
  cfg.comm_delay = rng.uniform(0.0, 0.8);
  cfg.prob_class_a = rng.uniform(0.3, 1.0);
  cfg.db_calls_per_txn = static_cast<int>(rng.uniform_int(1, 14));
  cfg.setup_io_time = rng.uniform(0.0, 0.06);
  cfg.call_io_time = rng.uniform(0.0, 0.05);
  cfg.prob_call_io = rng.uniform(0.0, 1.0);
  cfg.prob_write_lock = rng.uniform(0.0, 1.0);
  // Lock space scaled to keep contention heavy-but-feasible.
  cfg.lockspace = static_cast<std::uint32_t>(
      cfg.num_sites * rng.uniform_int(300, 4000));
  cfg.async_batch_window = rng.bernoulli(0.3) ? rng.uniform(0.05, 0.5) : 0.0;
  cfg.deadlock_victim =
      rng.bernoulli(0.5) ? DeadlockVictim::Requester : DeadlockVictim::Youngest;
  cfg.class_b_mode =
      rng.bernoulli(0.2) ? ClassBMode::RemoteCalls : ClassBMode::Ship;
  cfg.abort_restart_delay = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.3) : 0.0;
  cfg.ideal_state_info = rng.bernoulli(0.2);
  cfg.seed = rng.next_u64();

  // Offered load: a conservative fraction of the local-CPU bound so every
  // sampled system is stable (we are testing correctness, not overload).
  const double cpu_per_txn =
      (cfg.instr_msg_init + cfg.db_calls_per_txn * cfg.instr_per_call +
       cfg.instr_msg_commit) /
      (cfg.local_mips * 1e6);
  cfg.arrival_rate_per_site = rng.uniform(0.2, 0.55) / cpu_per_txn;
  return cfg;
}

StrategyKind random_strategy(Rng& rng) {
  static constexpr StrategyKind kKinds[] = {
      StrategyKind::NoLoadSharing,    StrategyKind::AlwaysCentral,
      StrategyKind::StaticProbability, StrategyKind::MeasuredRt,
      StrategyKind::QueueLength,      StrategyKind::UtilThreshold,
      StrategyKind::MinIncomingQueue, StrategyKind::MinIncomingNsys,
      StrategyKind::MinAverageQueue,  StrategyKind::MinAverageNsys,
  };
  return kKinds[rng.next_below(std::size(kKinds))];
}

class ConfigFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigFuzz, RandomConfigDrainsWithInvariants) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 1);
  const SystemConfig cfg = random_config(rng);
  const StrategyKind kind = random_strategy(rng);
  StrategySpec spec{kind, 0.0};
  if (kind == StrategyKind::StaticProbability) {
    spec.parameter = rng.uniform(0.0, 1.0);
  } else if (kind == StrategyKind::UtilThreshold) {
    spec.parameter = rng.uniform(-0.4, 0.4);
  }
  // AlwaysCentral at high rates can overload the central complex; scale the
  // load down for the all-central baseline so the run stays feasible.
  SystemConfig run_cfg = cfg;
  if (kind == StrategyKind::AlwaysCentral ||
      run_cfg.class_b_mode == ClassBMode::RemoteCalls) {
    run_cfg.arrival_rate_per_site *= 0.3;
  }

  HybridSystem sys(run_cfg,
                   make_strategy(spec, ModelParams::from_config(run_cfg),
                                 run_cfg.seed));
  sys.enable_arrivals();
  sys.run_for(60.0);
  sys.check_invariants();
  sys.stop_arrivals();
  sys.drain();

  EXPECT_EQ(sys.live_transactions(), 0)
      << "kind=" << static_cast<int>(kind) << " sites=" << run_cfg.num_sites;
  EXPECT_EQ(sys.metrics().completions,
            sys.metrics().arrivals_class_a() + sys.metrics().arrivals_class_b);
  EXPECT_EQ(sys.central_locks().locks_held(), 0u);
  EXPECT_EQ(sys.central_locks().waiters(), 0u);
  for (int s = 0; s < run_cfg.num_sites; ++s) {
    EXPECT_EQ(sys.local_locks(s).locks_held(), 0u);
    EXPECT_EQ(sys.local_locks(s).waiters(), 0u);
    EXPECT_EQ(sys.local_locks(s).pending_coherence_entities(), 0u);
  }
  sys.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz, ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace hls
