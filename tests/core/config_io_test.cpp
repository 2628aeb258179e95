#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace hls {
namespace {

/// Every double a config holds, key-list fields then fault-window fields:
/// equal vectors mean no value was rounded on the way through text.
std::vector<double> all_doubles(const SystemConfig& c) {
  std::vector<double> out;
  for_each_config_key(c, [&out](const char*, const auto& value, const auto&) {
    if constexpr (std::is_same_v<std::decay_t<decltype(value)>, double>) {
      out.push_back(value);
    }
  });
  for (const FaultWindow& w : c.faults.windows) {
    out.insert(out.end(), {w.start, w.duration, w.delay_factor, w.loss_prob,
                           w.dup_prob, w.reorder_prob, w.spike_prob,
                           w.spike_factor});
  }
  return out;
}

TEST(ConfigIo, AppliesNumericOverrides) {
  SystemConfig cfg;
  EXPECT_TRUE(apply_config_override(cfg, "comm_delay=0.5"));
  EXPECT_TRUE(apply_config_override(cfg, "num_sites=4"));
  EXPECT_TRUE(apply_config_override(cfg, "lockspace=1024"));
  EXPECT_TRUE(apply_config_override(cfg, "prob_write_lock=0.4"));
  EXPECT_DOUBLE_EQ(cfg.comm_delay, 0.5);
  EXPECT_EQ(cfg.num_sites, 4);
  EXPECT_EQ(cfg.lockspace, 1024u);
  EXPECT_DOUBLE_EQ(cfg.prob_write_lock, 0.4);
}

TEST(ConfigIo, AppliesEnumOverrides) {
  SystemConfig cfg;
  EXPECT_TRUE(apply_config_override(cfg, "deadlock_victim=youngest"));
  EXPECT_EQ(cfg.deadlock_victim, DeadlockVictim::Youngest);
  EXPECT_TRUE(apply_config_override(cfg, "class_b_mode=remote-calls"));
  EXPECT_EQ(cfg.class_b_mode, ClassBMode::RemoteCalls);
  EXPECT_TRUE(apply_config_override(cfg, "class_b_mode=ship"));
  EXPECT_EQ(cfg.class_b_mode, ClassBMode::Ship);
  EXPECT_TRUE(apply_config_override(cfg, "ideal_state_info=1"));
  EXPECT_TRUE(cfg.ideal_state_info);
}

TEST(ConfigIo, RejectsBadInput) {
  SystemConfig cfg;
  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "no_equals_sign", &error));
  EXPECT_FALSE(apply_config_override(cfg, "unknown_key=1", &error));
  EXPECT_NE(error.find("unknown config key"), std::string::npos);
  EXPECT_FALSE(apply_config_override(cfg, "comm_delay=abc", &error));
  EXPECT_FALSE(apply_config_override(cfg, "deadlock_victim=alphabetical", &error));
  // The config is untouched by failed overrides.
  EXPECT_DOUBLE_EQ(cfg.comm_delay, 0.2);
}

TEST(ConfigIo, ParsesFileWithCommentsAndWhitespace) {
  const std::string text =
      "# experiment configuration\n"
      "\n"
      "  comm_delay=0.5  \n"
      "arrival_rate_per_site=2.4\n"
      "deadlock_victim=youngest\n";
  std::istringstream in(text);
  const auto cfg = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(cfg.has_value());
  EXPECT_DOUBLE_EQ(cfg->comm_delay, 0.5);
  EXPECT_DOUBLE_EQ(cfg->arrival_rate_per_site, 2.4);
  EXPECT_EQ(cfg->deadlock_victim, DeadlockVictim::Youngest);
  // Untouched fields keep the base values.
  EXPECT_EQ(cfg->num_sites, 10);
}

TEST(ConfigIo, FileErrorsCarryLineNumbers) {
  std::istringstream in("comm_delay=0.5\nbogus_key=1\n");
  std::string error;
  EXPECT_FALSE(parse_config_file(in, SystemConfig{}, &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(ConfigIo, DescribeRoundTrips) {
  SystemConfig cfg;
  cfg.comm_delay = 0.5;
  cfg.num_sites = 7;
  cfg.class_b_mode = ClassBMode::RemoteCalls;
  cfg.deadlock_victim = DeadlockVictim::Youngest;
  cfg.async_batch_window = 0.25;
  cfg.seed = 777;
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->comm_delay, 0.5);
  EXPECT_EQ(parsed->num_sites, 7);
  EXPECT_EQ(parsed->class_b_mode, ClassBMode::RemoteCalls);
  EXPECT_EQ(parsed->deadlock_victim, DeadlockVictim::Youngest);
  EXPECT_DOUBLE_EQ(parsed->async_batch_window, 0.25);
  EXPECT_EQ(parsed->seed, 777u);
}

TEST(ConfigIo, EveryDescribedKeyIsAccepted) {
  // describe_config must never emit a key apply_config_override rejects.
  std::ostringstream out;
  describe_config(out, SystemConfig{});
  std::istringstream in(out.str());
  std::string line;
  SystemConfig cfg;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::string error;
    EXPECT_TRUE(apply_config_override(cfg, line, &error)) << line << ": " << error;
  }
}

/// Converts to any field type, so `T{AnyField{}...}` compiles exactly when
/// the aggregate T has at least that many fields.
struct AnyField {
  template <class T>
  operator T() const;  // NOLINT(google-explicit-constructor)
};

/// The number of fields of the aggregate T, by brace-initialization probe.
template <class T, class... Fields>
constexpr std::size_t field_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return field_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

// A SystemConfig field with no key cannot be set from config text, and a
// described run silently drops it. Every field has a key but the two named
// here: the per-site speeds (a list, set in code) and the fault schedule,
// whose scalar members have keys of their own (read below as members of
// `faults`, not of the config) and whose windows the repeatable `fault=` key
// appends.
TEST(ConfigIo, EveryFieldHasAKeyButTheNamedOnes) {
  SystemConfig c;
  const std::set<const void*> unlisted = {&c.local_mips_per_site, &c.faults};
  const char* const faults = reinterpret_cast<const char*>(&c.faults);
  const std::less<const char*> before;
  std::set<const void*> direct;
  for_each_config_key(c, [&](const char* key, const auto& field, const auto&) {
    const char* const at = reinterpret_cast<const char*>(&field);
    if (before(at, faults) || !before(at, faults + sizeof c.faults)) {
      EXPECT_EQ(unlisted.count(at), 0u) << key;
      direct.insert(at);
    }
  });
  EXPECT_EQ(field_count<SystemConfig>(), direct.size() + unlisted.size())
      << "a SystemConfig field has no key in for_each_config_key";
}

/// True when `word` occurs in `text` with no identifier character on either
/// side, so `seed` is not found in `reseed`.
bool mentions_word(const std::string& text, const std::string& word) {
  const auto ident = [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '_';
  };
  for (std::size_t p = text.find(word); p != std::string::npos;
       p = text.find(word, p + 1)) {
    const std::size_t end = p + word.size();
    if ((p == 0 || !ident(text[p - 1])) &&
        (end == text.size() || !ident(text[end]))) {
      return true;
    }
  }
  return false;
}

TEST(ConfigIo, DocsNameEveryKey) {
  std::ifstream in(std::string(HLS_REPO_ROOT) + "/docs/CONFIG.md");
  ASSERT_TRUE(in.is_open());
  std::ostringstream docs;
  docs << in.rdbuf();
  const SystemConfig c;
  int keys = 0;
  for_each_config_key(c, [&](const char* key, const auto&, const auto&) {
    ++keys;
    EXPECT_TRUE(mentions_word(docs.str(), key))
        << key << " is not named in docs/CONFIG.md";
  });
  EXPECT_GT(keys, 50);
}

TEST(ConfigIo, EveryKeyRoundTrips) {
  // Every listed key gets a non-default allowed value. Doubles sit one ulp
  // below a short decimal, so they need all 17 significant digits to
  // survive the trip through text.
  SystemConfig cfg;
  int n = 0;
  for_each_config_key(cfg, [&n](const char* key, auto& field,
                                const auto& allowed) {
    using T = std::decay_t<decltype(field)>;
    using Allowed = std::decay_t<decltype(allowed)>;
    ++n;
    if constexpr (std::is_same_v<T, double>) {
      field = std::nextafter(allowed.lo + 0.25 + 0.01 * n, 0.0);
    } else if constexpr (std::is_same_v<T, bool>) {
      field = !field;
    } else if constexpr (std::is_enum_v<T>) {
      field = static_cast<T>((static_cast<std::size_t>(field) + 1) %
                             std::size(allowed.names));
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      field = 18364758544493064720ULL;  // above 2^53
    } else if constexpr (std::is_same_v<T, std::string>) {
      if constexpr (std::is_same_v<Allowed, KeyAny>) {
        field = std::string("text-for-") + key;
      } else {
        field = std::string(allowed.prefixes[0]) + "out/spans.json";
      }
    } else {
      field += 3;
    }
  });
  cfg.faults.windows.push_back({FaultKind::MsgFault, 1,
                                std::nextafter(1.1, 0.0), 2.0 / 3.0, 1.0, 0.0,
                                0.1 / 3.0, 0.2 / 3.0, 0.3 / 3.0, 10.0 / 3.0});
  ASSERT_FALSE(cfg.check().has_value()) << *cfg.check();

  std::ostringstream first;
  describe_config(first, cfg);
  std::istringstream in(first.str());
  std::string error;
  const auto parsed = parse_config_file(in, SystemConfig{}, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  std::ostringstream second;
  describe_config(second, *parsed);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(all_doubles(*parsed), all_doubles(cfg));

  // Each key line differs from the default config's line.
  std::ostringstream defaults;
  describe_config(defaults, SystemConfig{});
  std::istringstream changed_lines(first.str());
  std::istringstream default_lines(defaults.str());
  std::string changed;
  std::string unchanged;
  int keys = 0;
  while (std::getline(default_lines, unchanged) &&
         std::getline(changed_lines, changed)) {
    if (unchanged[0] != '#') {
      ++keys;
      EXPECT_NE(changed, unchanged);
    }
  }
  EXPECT_EQ(keys, n);
}

TEST(ConfigIo, RejectsOutOfRangeValues) {
  const std::pair<const char*, const char*> cases[] = {
      {"num_sites=0", "num_sites"},
      {"local_mips=-1", "local_mips"},
      {"prob_class_a=2", "prob_class_a"},
      {"db_calls_per_txn=0", "db_calls_per_txn"},
      {"comm_delay=nan", "comm_delay"},
      {"instr_per_call=-1", "instr_per_call"},
      {"num_sites=2.7", "num_sites"},
      {"num_sites=1e12", "num_sites"},
      {"ideal_state_info=2", "ideal_state_info"},
      {"fault=central_outage:nan:2", "fault"},
      {"fault=central_outage:1:inf", "fault"},
  };
  for (const auto& [assignment, key] : cases) {
    SystemConfig cfg;
    std::string error;
    EXPECT_FALSE(apply_config_override(cfg, assignment, &error)) << assignment;
    EXPECT_NE(error.find(key), std::string::npos) << assignment << ": " << error;
  }
  // A whole number written with an exponent is still a whole number.
  SystemConfig cfg;
  EXPECT_TRUE(apply_config_override(cfg, "lockspace=1e4"));
  EXPECT_EQ(cfg.lockspace, 10000u);

  // Cross-field rules run once the whole file is read.
  std::istringstream in("lockspace=3\n");
  std::string error;
  EXPECT_FALSE(parse_config_file(in, SystemConfig{}, &error).has_value());
  EXPECT_NE(error.find("lockspace"), std::string::npos) << error;
}

TEST(ConfigIo, FaultWindowsAccumulateAndClear) {
  SystemConfig cfg;
  EXPECT_TRUE(apply_config_override(cfg, "fault=central_outage:10:2"));
  EXPECT_TRUE(apply_config_override(cfg, "fault=link_degrade:3:5:10:4:0.25"));
  ASSERT_EQ(cfg.faults.windows.size(), 2u);
  EXPECT_EQ(cfg.faults.windows[0].kind, FaultKind::CentralOutage);
  EXPECT_EQ(cfg.faults.windows[1].kind, FaultKind::LinkDegrade);
  EXPECT_EQ(cfg.faults.windows[1].site, 3);
  EXPECT_DOUBLE_EQ(cfg.faults.windows[1].delay_factor, 4.0);
  EXPECT_DOUBLE_EQ(cfg.faults.windows[1].loss_prob, 0.25);
  EXPECT_TRUE(apply_config_override(cfg, "fault=clear"));
  EXPECT_TRUE(cfg.faults.windows.empty());
}

TEST(ConfigIo, FaultAndShipKeysRejectBadValues) {
  SystemConfig cfg;
  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "fault=central_outage:bad", &error));
  EXPECT_NE(error.find("fault: "), std::string::npos);
  EXPECT_FALSE(apply_config_override(cfg, "ship_timeout=-1", &error));
  EXPECT_NE(error.find("non-negative"), std::string::npos);
  EXPECT_FALSE(apply_config_override(cfg, "ship_backoff=0.5", &error));
  EXPECT_NE(error.find("at least 1"), std::string::npos);
  EXPECT_FALSE(apply_config_override(cfg, "ship_max_retries=-2", &error));
}

TEST(ConfigIo, FaultConfigRoundTripsThroughDescribe) {
  SystemConfig cfg;
  cfg.ship_timeout = 1.5;
  cfg.ship_backoff = 3.0;
  cfg.ship_max_retries = 4;
  cfg.faults.windows.push_back({FaultKind::SiteOutage, 2, 10.0, 1.0, 1.0, 0.0});
  cfg.faults.windows.push_back({FaultKind::LinkDegrade, -1, 0.0, 50.0, 2.0, 0.1});
  cfg.faults.random_link_outage_rate = 0.01;
  cfg.faults.random_link_outage_mean = 2.0;
  cfg.faults.random_horizon = 400.0;
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->ship_timeout, 1.5);
  EXPECT_DOUBLE_EQ(parsed->ship_backoff, 3.0);
  EXPECT_EQ(parsed->ship_max_retries, 4);
  ASSERT_EQ(parsed->faults.windows.size(), 2u);
  EXPECT_EQ(parsed->faults.windows[0].kind, FaultKind::SiteOutage);
  EXPECT_EQ(parsed->faults.windows[0].site, 2);
  EXPECT_DOUBLE_EQ(parsed->faults.windows[1].loss_prob, 0.1);
  EXPECT_DOUBLE_EQ(parsed->faults.random_link_outage_rate, 0.01);
  EXPECT_DOUBLE_EQ(parsed->faults.random_horizon, 400.0);
}

TEST(ConfigIo, SpanSinkAndReportTopKRoundTrip) {
  SystemConfig cfg;
  EXPECT_TRUE(apply_config_override(cfg, "obs_span_sink=perfetto:/tmp/t.json"));
  EXPECT_EQ(cfg.obs_span_sink, "perfetto:/tmp/t.json");
  EXPECT_TRUE(apply_config_override(cfg, "obs_span_sink=csv:spans.csv"));
  EXPECT_EQ(cfg.obs_span_sink, "csv:spans.csv");
  EXPECT_TRUE(apply_config_override(cfg, "obs_span_sink="));  // disable again
  EXPECT_TRUE(cfg.obs_span_sink.empty());
  EXPECT_TRUE(apply_config_override(cfg, "report_top_k=9"));
  EXPECT_EQ(cfg.report_top_k, 9);

  cfg.obs_span_sink = "perfetto:out/trace.json";
  cfg.report_top_k = 12;
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->obs_span_sink, "perfetto:out/trace.json");
  EXPECT_EQ(parsed->report_top_k, 12);
}

TEST(ConfigIo, RegistryTelemetryKeysRoundTrip) {
  SystemConfig cfg;
  EXPECT_TRUE(apply_config_override(cfg, "obs_resource_telemetry=1"));
  EXPECT_TRUE(cfg.obs_resource_telemetry);
  EXPECT_TRUE(apply_config_override(cfg, "obs_heat_buckets=48"));
  EXPECT_EQ(cfg.obs_heat_buckets, 48);
  EXPECT_TRUE(apply_config_override(cfg, "obs_artifact=out/run.json"));
  EXPECT_EQ(cfg.obs_artifact, "out/run.json");
  EXPECT_TRUE(apply_config_override(cfg, "obs_artifact="));  // disable again
  EXPECT_TRUE(cfg.obs_artifact.empty());

  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "obs_heat_buckets=-4", &error));
  EXPECT_NE(error.find("non-negative"), std::string::npos);
  EXPECT_EQ(cfg.obs_heat_buckets, 48);  // untouched by the failure

  cfg.obs_resource_telemetry = true;
  cfg.obs_heat_buckets = 16;
  cfg.obs_artifact = "artifacts/a.json";
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->obs_resource_telemetry);
  EXPECT_EQ(parsed->obs_heat_buckets, 16);
  EXPECT_EQ(parsed->obs_artifact, "artifacts/a.json");

  // Defaults: observation is absent unless asked for.
  const SystemConfig fresh;
  EXPECT_FALSE(fresh.obs_resource_telemetry);
  EXPECT_EQ(fresh.obs_heat_buckets, 0);
  EXPECT_TRUE(fresh.obs_artifact.empty());
}

TEST(ConfigIo, SpanSinkRejectsUnknownSchemeAndNegativeTopK) {
  SystemConfig cfg;
  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "obs_span_sink=bogus:/x", &error));
  EXPECT_NE(error.find("perfetto:PATH"), std::string::npos);
  EXPECT_TRUE(cfg.obs_span_sink.empty());  // untouched by the failure
  EXPECT_FALSE(apply_config_override(cfg, "report_top_k=-1", &error));
  EXPECT_NE(error.find("non-negative"), std::string::npos);
}

TEST(ConfigIo, FaultSiteRangeIsValidatedAfterWholeFile) {
  // num_sites appears after the fault line; validation must still see the
  // final value and reject the out-of-range site.
  std::istringstream in("fault=site_outage:5:1:2\nnum_sites=3\n");
  std::string error;
  EXPECT_FALSE(parse_config_file(in, SystemConfig{}, &error).has_value());
  EXPECT_NE(error.find("fault schedule:"), std::string::npos);

  std::istringstream ok("fault=site_outage:5:1:2\nnum_sites=8\n");
  EXPECT_TRUE(parse_config_file(ok, SystemConfig{}).has_value());
}

TEST(ConfigIo, MessageChaosAndJitterKeysRoundTrip) {
  SystemConfig cfg;
  cfg.faults.dup_prob = 0.25;
  cfg.faults.dup_extra = 0.04;
  cfg.faults.reorder_prob = 0.3;
  cfg.faults.reorder_window = 0.45;
  cfg.faults.spike_prob = 0.1;
  cfg.faults.spike_factor = 3.5;
  cfg.ship_jitter = 0.2;
  cfg.chaos_strategy = "failsafe@2.5:queue-length";
  cfg.chaos_run_seconds = 12.5;
  cfg.faults.windows.push_back(
      {FaultKind::MsgFault, 2, 1.0, 2.0, 1.0, 0.0, 0.5, 0.4, 0.3, 6.0});

  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->faults.dup_prob, 0.25);
  EXPECT_DOUBLE_EQ(parsed->faults.dup_extra, 0.04);
  EXPECT_DOUBLE_EQ(parsed->faults.reorder_prob, 0.3);
  EXPECT_DOUBLE_EQ(parsed->faults.reorder_window, 0.45);
  EXPECT_DOUBLE_EQ(parsed->faults.spike_prob, 0.1);
  EXPECT_DOUBLE_EQ(parsed->faults.spike_factor, 3.5);
  EXPECT_DOUBLE_EQ(parsed->ship_jitter, 0.2);
  EXPECT_EQ(parsed->chaos_strategy, "failsafe@2.5:queue-length");
  EXPECT_DOUBLE_EQ(parsed->chaos_run_seconds, 12.5);
  ASSERT_EQ(parsed->faults.windows.size(), 1u);
  EXPECT_EQ(parsed->faults.windows[0].kind, FaultKind::MsgFault);
  EXPECT_DOUBLE_EQ(parsed->faults.windows[0].dup_prob, 0.5);
  EXPECT_DOUBLE_EQ(parsed->faults.windows[0].reorder_prob, 0.4);
  EXPECT_DOUBLE_EQ(parsed->faults.windows[0].spike_prob, 0.3);
  EXPECT_DOUBLE_EQ(parsed->faults.windows[0].spike_factor, 6.0);
}

TEST(ConfigIo, MessageChaosKeysRejectBadValues) {
  SystemConfig cfg;
  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "fault_dup_prob=1.0", &error));
  EXPECT_NE(error.find("fault_dup_prob"), std::string::npos);
  EXPECT_FALSE(apply_config_override(cfg, "fault_dup_delay=-0.1", &error));
  EXPECT_FALSE(apply_config_override(cfg, "fault_reorder_prob=-0.2", &error));
  EXPECT_FALSE(apply_config_override(cfg, "fault_reorder_window=-1", &error));
  EXPECT_FALSE(apply_config_override(cfg, "fault_spike_prob=2", &error));
  EXPECT_FALSE(apply_config_override(cfg, "fault_spike_factor=-3", &error));
  EXPECT_FALSE(apply_config_override(cfg, "ship_jitter=-0.5", &error));
  EXPECT_FALSE(apply_config_override(cfg, "chaos_run_seconds=-1", &error));
  // Failed overrides leave the config untouched.
  EXPECT_DOUBLE_EQ(cfg.faults.dup_prob, 0.0);
  EXPECT_DOUBLE_EQ(cfg.ship_jitter, 0.0);
}

TEST(ConfigIo, UnknownKeyErrorQuotesTheOffendingLine) {
  SystemConfig cfg;
  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "fault_dup_probe=0.3", &error));
  EXPECT_NE(error.find("'fault_dup_probe'"), std::string::npos);
  EXPECT_NE(error.find("'fault_dup_probe=0.3'"), std::string::npos);
}

TEST(ConfigIo, SeedRoundTripsFullSixtyFourBits) {
  // Chaos repros draw seeds from the whole 64-bit range; the parser must not
  // route them through a double (2^53 mantissa) on the way back in.
  SystemConfig cfg;
  cfg.seed = 5057277406479545829ULL;  // > 2^62, not representable in double
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, 5057277406479545829ULL);

  std::string error;
  EXPECT_FALSE(apply_config_override(cfg, "seed=abc", &error));
  EXPECT_FALSE(apply_config_override(cfg, "seed=-3", &error));
  EXPECT_EQ(cfg.seed, 5057277406479545829ULL);
}

TEST(ConfigIo, LivelockBreakerKeysRoundTripAndValidate) {
  SystemConfig cfg;
  cfg.livelock_backoff_after = 7;
  cfg.livelock_backoff = 0.25;
  std::ostringstream out;
  describe_config(out, cfg);
  std::istringstream in(out.str());
  const auto parsed = parse_config_file(in, SystemConfig{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->livelock_backoff_after, 7);
  EXPECT_DOUBLE_EQ(parsed->livelock_backoff, 0.25);

  std::string error;
  EXPECT_FALSE(
      apply_config_override(cfg, "livelock_backoff_after=-1", &error));
  EXPECT_FALSE(apply_config_override(cfg, "livelock_backoff=-0.5", &error));
  EXPECT_EQ(cfg.livelock_backoff_after, 7);
  EXPECT_DOUBLE_EQ(cfg.livelock_backoff, 0.25);
}

}  // namespace
}  // namespace hls
