#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/ring_sink.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

TEST(TraceWriter, HeaderWrittenOnConstruction) {
  std::ostringstream out;
  TraceWriter writer(out);
  EXPECT_EQ(out.str(), std::string(TraceWriter::header()) + "\n");
  EXPECT_EQ(writer.rows_written(), 0u);
}

TEST(TraceWriter, WritesOneRowPerCompletion) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 1.0;
  cfg.seed = 2;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  std::ostringstream out;
  TraceWriter writer(out);
  writer.attach(sys);
  sys.enable_arrivals();
  sys.run_for(50.0);
  sys.stop_arrivals();
  sys.drain();
  EXPECT_EQ(writer.rows_written(), sys.metrics().completions);
  // header + one line per row
  std::size_t lines = 0;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
  }
  EXPECT_EQ(lines, writer.rows_written() + 1);
}

TEST(TraceWriter, RecordFieldsRoundTrip) {
  std::ostringstream out;
  TraceWriter writer(out);
  obs::Event event;
  event.kind = obs::EventKind::Completion;
  event.txn = 42;
  event.cls = TxnClass::B;
  event.route = Route::Central;
  event.home_site = 3;
  event.arrival_time = 1.5;
  event.time = 2.75;
  event.response_time = 1.25;
  event.runs = 2;
  event.aborts[static_cast<int>(AbortCause::AuthRefused)] = 1;
  writer.on_event(event);
  const std::string text = out.str();
  EXPECT_NE(text.find("42,B,central,3,1.5,2.75,1.25,2,0,0,1,0"),
            std::string::npos);
}

TEST(TraceWriter, CompletionEventsMatchMetrics) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 3;
  HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.5, 3));
  obs::RingSink sink(4096, obs::kind_bit(obs::EventKind::Completion));
  sys.add_trace_sink(&sink);
  sys.enable_arrivals();
  sys.run_for(60.0);
  sys.stop_arrivals();
  sys.drain();
  ASSERT_EQ(sink.dropped(), 0u);
  double rt_sum = 0.0;
  std::uint64_t n = 0;
  for (const obs::Event& e : sink.events()) {
    rt_sum += e.response_time;
    ++n;
    EXPECT_GE(e.response_time, 0.0);
    EXPECT_NEAR(e.time - e.arrival_time, e.response_time, 1e-9);
    EXPECT_GE(e.runs, 1);
  }
  EXPECT_EQ(n, sys.metrics().completions);
  EXPECT_NEAR(rt_sum / static_cast<double>(n), sys.metrics().rt_all.mean(),
              1e-9);
}

TEST(TraceWriter, RemovedSinkStopsReceiving) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  obs::RingSink sink(8, obs::kind_bit(obs::EventKind::Completion));
  std::ostringstream out;
  TraceWriter writer(out);
  sys.add_trace_sink(&sink);
  writer.attach(sys);
  sys.inject(TxnClass::A, 0);
  sys.simulator().run();
  EXPECT_EQ(sink.total_seen(), 1u);
  EXPECT_EQ(writer.rows_written(), 1u);
  // Removing one sink stops its deliveries and leaves the other's intact.
  sys.remove_trace_sink(&sink);
  sys.inject(TxnClass::A, 0);
  sys.simulator().run();
  EXPECT_EQ(sink.total_seen(), 1u);
  EXPECT_EQ(writer.rows_written(), 2u);
  sys.remove_trace_sink(&writer);
  sys.inject(TxnClass::A, 0);
  sys.simulator().run();
  EXPECT_EQ(writer.rows_written(), 2u);
  EXPECT_EQ(sys.metrics().completions, 3u);
}

}  // namespace
}  // namespace hls
