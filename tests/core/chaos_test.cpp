// Chaos harness unit tests (core/chaos.hpp): deterministic episode
// generation, the oracle stack on clean episodes, the shrinker on a
// deliberately injected bug (pinned to reach a minimal repro), and the repro
// file round trip. The injected-bug fixture is the self-test demanded by
// docs/CHAOS.md: an oracle that trips on any ship fallback plus a fault
// schedule where exactly one of four windows causes a fallback — the
// shrinker must isolate that window.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/chaos.hpp"
#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"

namespace hls {
namespace {

constexpr std::uint64_t kSoakSeed = 20260808;

TEST(Chaos, EpisodeGenerationIsDeterministic) {
  for (int i = 0; i < 8; ++i) {
    const ChaosEpisode a = make_chaos_episode(kSoakSeed, i);
    const ChaosEpisode b = make_chaos_episode(kSoakSeed, i);
    EXPECT_EQ(describe_chaos_episode(a), describe_chaos_episode(b));
    EXPECT_EQ(a.config.seed, b.config.seed);
    EXPECT_EQ(a.config.num_sites, b.config.num_sites);
    EXPECT_EQ(a.config.faults.windows.size(), b.config.faults.windows.size());
    EXPECT_EQ(a.strategy.kind, b.strategy.kind);
  }
  // Different indices explore different configurations.
  EXPECT_NE(describe_chaos_episode(make_chaos_episode(kSoakSeed, 0)),
            describe_chaos_episode(make_chaos_episode(kSoakSeed, 1)));
}

TEST(Chaos, EpisodesStayInsideTheDocumentedRanges) {
  for (int i = 0; i < 16; ++i) {
    const ChaosEpisode e = make_chaos_episode(kSoakSeed, i);
    EXPECT_GE(e.config.num_sites, 3);
    EXPECT_LE(e.config.num_sites, 8);
    EXPECT_GT(e.config.arrival_rate_per_site, 0.0);
    EXPECT_GT(e.config.chaos_run_seconds, 0.0);
    EXPECT_FALSE(e.config.chaos_strategy.empty());
    EXPECT_GE(e.config.faults.windows.size(), 1u);
    EXPECT_LE(e.config.faults.windows.size(), 4u);
  }
}

TEST(Chaos, CleanEpisodesPassTheOracleStack) {
  for (int i = 0; i < 3; ++i) {
    const ChaosEpisode e = make_chaos_episode(kSoakSeed, i);
    const ChaosVerdict verdict = run_chaos_episode(e);
    EXPECT_TRUE(verdict.passed())
        << describe_chaos_episode(e) << ": " << verdict.failures.size()
        << " failures, first: "
        << (verdict.failures.empty() ? "" : verdict.failures.front());
    EXPECT_GT(verdict.completions, 0u);
  }
}

TEST(Chaos, ExtraOracleFailureIsReported) {
  const ChaosEpisode e = make_chaos_episode(kSoakSeed, 0);
  const ChaosVerdict verdict = run_chaos_episode(
      e, [](const HybridSystem&, std::vector<std::string>& failures) {
        failures.push_back("injected failure");
      });
  ASSERT_FALSE(verdict.passed());
  // Reported once per run of the twice-run replay check.
  EXPECT_EQ(verdict.failures.front(), "injected failure");
}

/// Fixture for the shrinker self-test: four fault windows, of which only the
/// long central outage can produce a ship fallback. Exhausting the ladder
/// (1.5 s timeout, one retry at 3 s backoff) needs ~4.5 s of central
/// unresponsiveness after a ship — far more than the fault-free shipped
/// response of ~0.9 s or anything the mild decoy windows (brief link
/// degrade, one site outage, a message-chaos burst) and the steady message
/// chaos can cause. The shrinker must discard all that noise.
ChaosEpisode injected_bug_episode() {
  ChaosEpisode e;
  e.config.num_sites = 4;
  e.config.arrival_rate_per_site = 1.0;
  e.config.seed = 5;
  e.config.ship_timeout = 1.5;
  e.config.ship_backoff = 2.0;
  e.config.ship_max_retries = 1;
  e.config.faults.dup_prob = 0.2;
  e.config.faults.dup_extra = 0.05;
  e.config.faults.reorder_prob = 0.2;
  e.config.faults.reorder_window = 0.3;
  e.config.faults.windows.push_back(
      {FaultKind::LinkDegrade, -1, 0.0, 0.4, 1.5, 0.05});
  e.config.faults.windows.push_back(
      {FaultKind::CentralOutage, -1, 0.5, 5.0, 1.0, 0.0});
  e.config.faults.windows.push_back(
      {FaultKind::SiteOutage, 2, 6.0, 0.4, 1.0, 0.0});
  e.config.faults.windows.push_back(
      {FaultKind::MsgFault, -1, 6.5, 0.5, 1.0, 0.0, 0.4, 0.4, 0.2, 2.0});
  e.config.chaos_strategy = "always-central";
  e.config.chaos_run_seconds = 8.0;
  e.strategy = parse_strategy_spec(e.config.chaos_strategy).value();
  return e;
}

ChaosOracle no_fallback_oracle() {
  return [](const HybridSystem& sys, std::vector<std::string>& failures) {
    if (sys.metrics().ship_fallbacks() > 0) {
      failures.push_back("injected bug: ship fallback observed");
    }
  };
}

TEST(Chaos, InjectedBugShrinksToTheSingleCausalWindow) {
  const ChaosEpisode failing = injected_bug_episode();
  const ChaosFailurePredicate predicate =
      make_inprocess_predicate(no_fallback_oracle());
  ASSERT_TRUE(predicate(failing));

  const ChaosShrinkResult shrunk = shrink_chaos_episode(failing, predicate);
  EXPECT_GT(shrunk.evaluations, 0);
  // The acceptance bar is <= 3 windows; the shrinker actually isolates the
  // one causal central outage and strips the steady chaos knobs.
  ASSERT_LE(shrunk.episode.config.faults.windows.size(), 3u);
  ASSERT_EQ(shrunk.episode.config.faults.windows.size(), 1u);
  EXPECT_EQ(shrunk.episode.config.faults.windows[0].kind,
            FaultKind::CentralOutage);
  EXPECT_EQ(shrunk.episode.config.faults.dup_prob, 0.0);
  EXPECT_EQ(shrunk.episode.config.faults.reorder_prob, 0.0);
  // Narrowing phases only keep changes that still fail.
  EXPECT_TRUE(predicate(shrunk.episode));
  EXPECT_LE(shrunk.episode.config.chaos_run_seconds,
            failing.config.chaos_run_seconds);
}

TEST(Chaos, ReproFileRoundTripsAndStillFails) {
  const ChaosFailurePredicate predicate =
      make_inprocess_predicate(no_fallback_oracle());
  const ChaosShrinkResult shrunk =
      shrink_chaos_episode(injected_bug_episode(), predicate);

  std::ostringstream out;
  write_chaos_repro(out, shrunk.episode);
  std::istringstream in(out.str());
  std::string error;
  const std::optional<ChaosEpisode> parsed = parse_chaos_repro(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->config.num_sites, shrunk.episode.config.num_sites);
  EXPECT_EQ(parsed->config.faults.windows.size(),
            shrunk.episode.config.faults.windows.size());
  EXPECT_EQ(parsed->strategy.kind, shrunk.episode.strategy.kind);
  EXPECT_EQ(describe_chaos_episode(*parsed),
            describe_chaos_episode(shrunk.episode));
  // The emitted repro is self-contained: re-running it reproduces the bug.
  EXPECT_TRUE(predicate(*parsed));
}

TEST(Chaos, GeneratedEpisodeReproRoundTrips) {
  const ChaosEpisode e = make_chaos_episode(kSoakSeed, 2);
  std::ostringstream out;
  write_chaos_repro(out, e);
  std::istringstream in(out.str());
  std::string error;
  const std::optional<ChaosEpisode> parsed = parse_chaos_repro(in, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(describe_chaos_episode(*parsed), describe_chaos_episode(e));
  const ChaosVerdict verdict = run_chaos_episode(*parsed);
  EXPECT_TRUE(verdict.passed());
  // The repro replays the episode itself, not a rounded neighbour of it.
  EXPECT_EQ(verdict.fingerprint, run_chaos_once(e).fingerprint);
}

TEST(Chaos, EpisodeCountsParseWholeNumbersInRange) {
  EXPECT_EQ(parse_chaos_episodes("1"), 1);
  EXPECT_EQ(parse_chaos_episodes("100"), 100);
  EXPECT_EQ(parse_chaos_episodes("2147483647"), kMaxChaosEpisodes);
  // A leading number no longer passes for the whole value: "2x" once ran 2
  // episodes and "0x2" the default 100, both silently.
  for (const char* bad : {"2x", "0x2", "0", "", " 3", "3 ", "-1", "+4", "1.5",
                          "1e3", "2147483648", "18446744073709551616", "abc"}) {
    EXPECT_EQ(parse_chaos_episodes(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(Chaos, ParseReproRejectsMissingEnvelope) {
  std::istringstream in("num_sites = 4\nseed = 1\n");
  std::string error;
  EXPECT_FALSE(parse_chaos_repro(in, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(Chaos, ParseReproRejectsMalformedConfig) {
  std::istringstream in("definitely_not_a_key = 3\n");
  std::string error;
  EXPECT_FALSE(parse_chaos_repro(in, &error).has_value());
  EXPECT_NE(error.find("definitely_not_a_key"), std::string::npos);
}

TEST(Chaos, ParseReproRejectsMalformedStrategy) {
  // Each of these used to kill the process (an uncaught std::stod exception
  // or an HLS_ASSERT) or, for the trailing characters, silently run as
  // static:0.3.
  const std::pair<const char*, const char*> cases[] = {
      {"static:abc", "'abc'"},
      {"failsafe@x:queue-length", "'x'"},
      {"min-averge-nsys", "'min-averge-nsys'"},
      {"static:0.3xyz", "'0.3xyz'"},
  };
  for (const auto& [spec, token] : cases) {
    std::istringstream in(std::string("chaos_strategy=") + spec +
                          "\nchaos_run_seconds=5\n");
    std::string error;
    EXPECT_FALSE(parse_chaos_repro(in, &error).has_value()) << spec;
    EXPECT_NE(error.find(token), std::string::npos) << spec << ": " << error;
    EXPECT_EQ(error.find('\n'), std::string::npos) << error;
  }
}

// Regression pin for the first real bug the soak found (seed 99, episode
// index 2, shrunk by the delta debugger to this config): two long local
// class A transactions at one site fell into a perfectly periodic mutual
// deadlock — requester-victim policy, zero restart delay, and identical
// re-run lock sequences made each abort replay into the same cycle every
// 1.47 s until the max_reruns valve tripped. The deterministic livelock
// breaker (config: livelock_backoff_after / livelock_backoff) now stalls
// restarts past the rerun threshold by a linearly growing delay, so the
// cycle de-synchronizes and the episode drains through the full oracle
// stack.
TEST(Chaos, SoakFoundDeadlockLivelockNowDrains) {
  // Verbatim shrunk repro (minus the comment envelope); defaults supply the
  // livelock-breaker keys under test.
  static constexpr const char* kRepro = R"(num_sites=8
local_mips=1
central_mips=15
comm_delay=0.2
arrival_rate_per_site=1.95092
prob_class_a=0.863027
db_calls_per_txn=9
instr_per_call=30000
prob_call_io=1
prob_write_lock=0.25
lockspace=1024
deadlock_victim=requester
class_b_mode=ship
seed=17043500889311013062
abort_restart_delay=0
geometric_call_count=1
ship_timeout=2.07656
ship_backoff=2
ship_max_retries=2
ship_jitter=0.481644
obs_sample_interval=0.25
fault_dup_prob=0.209098
fault_dup_delay=0.129612
fault_reorder_prob=0.0901231
fault_reorder_window=0
fault_spike_prob=0.143587
fault_spike_factor=4.53449
chaos_strategy=min-average-nsys
chaos_run_seconds=17.5861
fault=site_outage:4:12.2733:0.842866
fault=central_outage:4.8901:4.27419
)";
  std::istringstream in(kRepro);
  std::string error;
  const auto episode = parse_chaos_repro(in, &error);
  ASSERT_TRUE(episode.has_value()) << error;
  EXPECT_GT(episode->config.livelock_backoff, 0.0);
  const ChaosVerdict v = run_chaos_episode(*episode, nullptr);
  EXPECT_TRUE(v.passed()) << (v.failures.empty() ? "" : v.failures.front());
  EXPECT_GT(v.completions, 0u);
}

TEST(Chaos, LivelockBreakerDisabledStillLivelocksTheRepro) {
  // The same episode with the breaker off must still wedge: two live
  // transactions deadlocking each other forever. Probe a bounded slice of
  // the drain directly (run_chaos_episode would spin to the max_reruns
  // abort) to keep the regression honest about what the breaker fixes.
  std::istringstream in(
      "num_sites=8\nlocal_mips=1\ncentral_mips=15\ncomm_delay=0.2\n"
      "arrival_rate_per_site=1.95092\nprob_class_a=0.863027\n"
      "db_calls_per_txn=9\ninstr_per_call=30000\nprob_call_io=1\n"
      "prob_write_lock=0.25\nlockspace=1024\ndeadlock_victim=requester\n"
      "class_b_mode=ship\nseed=17043500889311013062\nabort_restart_delay=0\n"
      "geometric_call_count=1\nship_timeout=2.07656\nship_backoff=2\n"
      "ship_max_retries=2\nship_jitter=0.481644\nobs_sample_interval=0.25\n"
      "fault_dup_prob=0.209098\nfault_dup_delay=0.129612\n"
      "fault_reorder_prob=0.0901231\nfault_reorder_window=0\n"
      "fault_spike_prob=0.143587\nfault_spike_factor=4.53449\n"
      "livelock_backoff=0\n"
      "chaos_strategy=min-average-nsys\nchaos_run_seconds=17.5861\n"
      "fault=site_outage:4:12.2733:0.842866\n"
      "fault=central_outage:4.8901:4.27419\n");
  std::string error;
  const auto episode = parse_chaos_repro(in, &error);
  ASSERT_TRUE(episode.has_value()) << error;
  auto strategy =
      make_strategy(episode->strategy,
                    ModelParams::from_config(episode->config),
                    episode->config.seed ^ 0x51CA5EEDULL);
  HybridSystem sys(episode->config, std::move(strategy));
  sys.enable_arrivals();
  sys.run_for(episode->config.chaos_run_seconds);
  sys.stop_arrivals();
  sys.run_for(50.0);  // plenty of drain time for every healthy transaction
  EXPECT_EQ(sys.live_transactions(), 2);
}

}  // namespace
}  // namespace hls
