#include "core/trace_replay.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/csv_sink.hpp"
#include "obs/perfetto_sink.hpp"
#include "obs/ring_sink.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

/// The completion trace the faulted replays compare: every completion and
/// every abort, with its cause, winner and wasted work.
constexpr unsigned kTraceKinds = obs::kind_bit(obs::EventKind::Completion) |
                                 obs::kind_bit(obs::EventKind::Abort);

SystemConfig quiet_config() {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  return cfg;
}

TEST(TraceParse, ParsesMinimalTrace) {
  const SystemConfig cfg = quiet_config();
  const auto trace = parse_trace("0.5 0 A\n1.25 3 B\n", cfg);
  ASSERT_TRUE(trace.has_value());
  ASSERT_EQ(trace->size(), 2u);
  EXPECT_DOUBLE_EQ((*trace)[0].time, 0.5);
  EXPECT_EQ((*trace)[0].site, 0);
  EXPECT_EQ((*trace)[0].cls, TxnClass::A);
  EXPECT_EQ((*trace)[1].cls, TxnClass::B);
  EXPECT_TRUE((*trace)[0].locks.empty());
}

TEST(TraceParse, ParsesExplicitLocks) {
  const SystemConfig cfg = quiet_config();
  const auto trace = parse_trace("1.0 2 A 5:X,17:S\n", cfg);
  ASSERT_TRUE(trace.has_value());
  ASSERT_EQ((*trace)[0].locks.size(), 2u);
  EXPECT_EQ((*trace)[0].locks[0].id, 5u);
  EXPECT_EQ((*trace)[0].locks[0].mode, LockMode::Exclusive);
  EXPECT_EQ((*trace)[0].locks[1].mode, LockMode::Shared);
}

TEST(TraceParse, IgnoresCommentsAndBlankLines) {
  const SystemConfig cfg = quiet_config();
  const auto trace =
      parse_trace("# header\n\n  # indented comment\n2.0 1 B\n", cfg);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->size(), 1u);
}

TEST(TraceParse, RejectsBadInput) {
  const SystemConfig cfg = quiet_config();
  std::string error;
  EXPECT_FALSE(parse_trace("abc 0 A\n", cfg, &error).has_value());
  EXPECT_FALSE(parse_trace("1.0 99 A\n", cfg, &error).has_value());
  EXPECT_NE(error.find("site out of range"), std::string::npos);
  EXPECT_FALSE(parse_trace("1.0 0 C\n", cfg, &error).has_value());
  EXPECT_FALSE(parse_trace("2.0 0 A\n1.0 0 A\n", cfg, &error).has_value());
  EXPECT_NE(error.find("time decreases"), std::string::npos);
  EXPECT_FALSE(parse_trace("1.0 0 A 5:Y\n", cfg, &error).has_value());
  EXPECT_FALSE(parse_trace("1.0 0 A 99999999:X\n", cfg, &error).has_value());
}

TEST(TraceParse, RejectsNegativeTime) {
  const SystemConfig cfg = quiet_config();
  std::string error;
  EXPECT_FALSE(parse_trace("-0.5 0 A\n", cfg, &error).has_value());
  EXPECT_EQ(error, "line 1: time is negative");
  EXPECT_FALSE(parse_trace("# header\n-1e-9 0 B\n2.0 1 A\n", cfg, &error)
                   .has_value());
  EXPECT_EQ(error, "line 2: time is negative");
  // Time zero is the earliest arrival a trace may schedule.
  const auto trace = parse_trace("0 0 A\n", cfg);
  ASSERT_TRUE(trace.has_value());
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  EXPECT_EQ(replay_trace(sys, *trace), 1u);
  sys.simulator().run();
  EXPECT_EQ(sys.metrics().completions, 1u);
}

TEST(TraceReplay, InjectsAtScheduledTimes) {
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  const auto trace = parse_trace("1.0 0 A\n5.0 1 A\n", cfg);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(replay_trace(sys, *trace), 2u);
  sys.simulator().run_until(0.9);
  EXPECT_EQ(sys.metrics().arrivals_class_a(), 0u);
  sys.simulator().run_until(1.1);
  EXPECT_EQ(sys.metrics().arrivals_class_a(), 1u);
  sys.simulator().run();
  EXPECT_EQ(sys.metrics().completions, 2u);
}

TEST(TraceReplay, ExplicitLocksAreHonoured) {
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  // Two class A transactions colliding on entity 7: the second must wait,
  // which is only possible if the explicit locks were used.
  const auto trace = parse_trace("0.0 0 A 7:X\n0.0 0 A 7:X\n", cfg);
  ASSERT_TRUE(trace.has_value());
  replay_trace(sys, *trace);
  sys.simulator().run();
  EXPECT_EQ(sys.metrics().completions, 2u);
  EXPECT_GT(sys.metrics().rt_local_a.max(), sys.metrics().rt_local_a.min());
}

TEST(TraceReplay, DeterministicAcrossRuns) {
  auto run_once = [] {
    const SystemConfig cfg = quiet_config();
    HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
    const auto trace =
        parse_trace("0.0 0 A\n0.1 1 B\n0.2 2 A\n1.0 3 B\n", cfg);
    replay_trace(sys, *trace);
    sys.simulator().run();
    return sys.metrics().rt_all.mean();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(TraceReplay, RoundTripsThroughWriter) {
  const SystemConfig cfg = quiet_config();
  std::vector<TraceArrival> trace;
  TraceArrival a;
  a.time = 0.25;
  a.site = 2;
  a.cls = TxnClass::B;
  a.locks = {{10, LockMode::Exclusive}, {20, LockMode::Shared}};
  trace.push_back(a);
  TraceArrival b;
  b.time = 1.5;
  b.site = 0;
  b.cls = TxnClass::A;
  trace.push_back(b);

  std::ostringstream out;
  write_trace(out, trace);
  const auto parsed = parse_trace(out.str(), cfg);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_DOUBLE_EQ((*parsed)[0].time, 0.25);
  EXPECT_EQ((*parsed)[0].locks.size(), 2u);
  EXPECT_EQ((*parsed)[1].locks.size(), 0u);
}

TEST(TraceReplay, FaultedReplayReproducesCompletionRecordsByteForByte) {
  // Same arrival trace, same fault schedule, two independent systems (one
  // with an extra do-nothing ring observer): the completion trace — every
  // field of every record, serialized — must be byte-identical. This is the
  // replay contract under the harshest determinism conditions: outages,
  // timeout reclaims, backlog replay and reruns.
  SystemConfig cfg = quiet_config();
  cfg.ship_timeout = 1.5;
  cfg.ship_backoff = 2.0;
  cfg.ship_max_retries = 1;
  cfg.faults.windows.push_back(
      {FaultKind::CentralOutage, -1, 0.5, 3.0, 1.0, 0.0});
  cfg.faults.windows.push_back({FaultKind::SiteOutage, 1, 2.0, 2.0, 1.0, 0.0});

  std::ostringstream trace_text;
  for (int i = 0; i < 40; ++i) {
    trace_text << 0.2 * i << ' ' << i % 8 << ' ' << (i % 3 == 0 ? 'B' : 'A')
               << '\n';
  }
  const auto trace = parse_trace(trace_text.str(), cfg);
  ASSERT_TRUE(trace.has_value());

  auto run_once = [&](bool with_ring_observer) {
    HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
    std::ostringstream out;
    obs::CsvSink writer(out, kTraceKinds);
    sys.add_trace_sink(&writer);
    obs::RingSink ring(4);  // deliberately tiny: wraps, reads, changes nothing
    if (with_ring_observer) {
      sys.add_trace_sink(&ring);
    }
    replay_trace(sys, *trace);
    sys.simulator().run();
    EXPECT_EQ(sys.live_transactions(), 0);
    writer.flush();
    return out.str();
  };

  const std::string first = run_once(false);
  const std::string second = run_once(true);
  EXPECT_GT(first.size(), std::string(obs::CsvSink::header()).size());
  EXPECT_EQ(first, second);
  // The run actually exercised the fault machinery.
  EXPECT_NE(first.find(",central,"), std::string::npos);
}

TEST(TraceReplay, FaultedReplayUnchangedByPerfettoSpanSink) {
  // The harshest "observation is free or absent" check: the same faulted
  // replay as above, but with the full span tracer + Perfetto exporter
  // attached. Span emission turns on every fine-grained code path in the
  // tracer, yet the completion records must stay byte-identical, and the
  // exported trace itself must be byte-identical across runs.
  SystemConfig cfg = quiet_config();
  cfg.ship_timeout = 1.5;
  cfg.ship_backoff = 2.0;
  cfg.ship_max_retries = 1;
  cfg.faults.windows.push_back(
      {FaultKind::CentralOutage, -1, 0.5, 3.0, 1.0, 0.0});
  cfg.faults.windows.push_back({FaultKind::SiteOutage, 1, 2.0, 2.0, 1.0, 0.0});

  std::ostringstream trace_text;
  for (int i = 0; i < 40; ++i) {
    trace_text << 0.2 * i << ' ' << i % 8 << ' ' << (i % 3 == 0 ? 'B' : 'A')
               << '\n';
  }
  const auto trace = parse_trace(trace_text.str(), cfg);
  ASSERT_TRUE(trace.has_value());

  struct Outputs {
    std::string completions;
    std::string perfetto;
  };
  auto run_once = [&](bool with_span_sink) {
    HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
    std::ostringstream out;
    obs::CsvSink writer(out, kTraceKinds);
    sys.add_trace_sink(&writer);
    std::ostringstream json;
    obs::PerfettoSink perfetto(json);
    if (with_span_sink) {
      sys.add_trace_sink(&perfetto);
    }
    replay_trace(sys, *trace);
    sys.simulator().run();
    perfetto.close();
    writer.flush();
    EXPECT_EQ(sys.live_transactions(), 0);
    return Outputs{out.str(), json.str()};
  };

  const Outputs bare = run_once(false);
  const Outputs traced = run_once(true);
  const Outputs traced_again = run_once(true);
  EXPECT_EQ(bare.completions, traced.completions);
  EXPECT_EQ(traced.perfetto, traced_again.perfetto);
  // The faulted run actually produced spans across both tiers.
  EXPECT_NE(traced.perfetto.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(traced.perfetto.find("\"ph\":\"s\""), std::string::npos);
}

TEST(TraceReplay, BurstTraceStressesOneSite) {
  // 50 simultaneous arrivals at one site: all must complete, strictly
  // serialized on that site's CPU.
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  std::vector<TraceArrival> trace;
  for (int i = 0; i < 50; ++i) {
    TraceArrival a;
    a.time = 1.0;
    a.site = 4;
    a.cls = TxnClass::A;
    trace.push_back(a);
  }
  replay_trace(sys, trace);
  sys.simulator().run();
  EXPECT_EQ(sys.metrics().completions, 50u);
  sys.check_invariants();
}

}  // namespace
}  // namespace hls
