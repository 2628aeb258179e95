// Trace-sink implementations: ring buffer semantics, CSV shape, the
// kind-mask filtering contract shared by all sinks, and sinks registered on
// a running system.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hybrid/hybrid_system.hpp"
#include "obs/csv_sink.hpp"
#include "obs/ring_sink.hpp"
#include "obs/sample.hpp"
#include "obs/sink.hpp"
#include "routing/basic_strategies.hpp"

namespace hls::obs {
namespace {

Event completion_at(double t, TxnId id) {
  Event e;
  e.kind = EventKind::Completion;
  e.time = t;
  e.txn = id;
  e.response_time = t;
  return e;
}

int count_char(const std::string& s, char c) {
  int n = 0;
  for (char x : s) {
    n += (x == c);
  }
  return n;
}

TEST(NullSink, AcceptsNothing) {
  NullSink sink;
  EXPECT_EQ(sink.kind_mask(), 0u);
}

TEST(RingSink, RetainsEventsInArrivalOrder) {
  RingSink ring(8);
  for (int i = 0; i < 5; ++i) {
    ring.on_event(completion_at(i, i));
  }
  const std::vector<Event> events = ring.events();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].txn, static_cast<TxnId>(i));
  }
  EXPECT_EQ(ring.total_seen(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(RingSink, WrapsKeepingTheNewestAndCountsDrops) {
  RingSink ring(3);
  for (int i = 0; i < 7; ++i) {
    ring.on_event(completion_at(i, i));
  }
  const std::vector<Event> events = ring.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].txn, 4u);
  EXPECT_EQ(events[1].txn, 5u);
  EXPECT_EQ(events[2].txn, 6u);
  EXPECT_EQ(ring.total_seen(), 7u);
  EXPECT_EQ(ring.dropped(), 4u);
}

TEST(RingSink, ClearResets) {
  RingSink ring(2);
  ring.on_event(completion_at(1.0, 1));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_seen(), 0u);
  ring.on_event(completion_at(2.0, 2));
  EXPECT_EQ(ring.events().at(0).txn, 2u);
}

TEST(RingSink, MaskRestrictsSubscription) {
  RingSink ring(4, kind_bit(EventKind::Fault));
  EXPECT_EQ(ring.kind_mask(), kind_bit(EventKind::Fault));
}

TEST(CsvSink, EveryRowHasTheHeaderColumnCount) {
  std::ostringstream out;
  CsvSink sink(out);

  Event completion = completion_at(1.5, 42);
  completion.phase[static_cast<int>(Phase::CpuService)] = 1.5;
  sink.on_event(completion);

  Event abort;
  abort.kind = EventKind::Abort;
  abort.time = 2.0;
  abort.txn = 43;
  abort.cause = AbortCause::Deadlock;
  sink.on_event(abort);

  Event fault;
  fault.kind = EventKind::Fault;
  fault.time = 3.0;
  fault.site = 2;
  fault.up = false;
  sink.on_event(fault);

  Event sample;
  sample.kind = EventKind::Sample;
  sample.time = 4.0;
  sample.central_cpu_queue = 9;
  sample.live_txns = 17;
  sink.on_event(sample);

  EXPECT_EQ(sink.rows_written(), 4u);
  sink.flush();
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, CsvSink::header());
  const int commas = count_char(line, ',');
  int rows = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(count_char(line, ','), commas) << "row: " << line;
    ++rows;
  }
  EXPECT_EQ(rows, 4);
}

TEST(CsvSink, RowsCarryKindDiscriminatorAndPayload) {
  std::ostringstream out;
  CsvSink sink(out);
  Event fault;
  fault.kind = EventKind::Fault;
  fault.time = 3.25;
  fault.site = -1;  // central complex
  fault.up = false;
  sink.on_event(fault);
  sink.flush();
  const std::string text = out.str();
  EXPECT_NE(text.find("\nfault,3.25,"), std::string::npos);
  EXPECT_NE(text.find(",-1,0,"), std::string::npos);  // site,up columns
}

TEST(TraceSink, CompletionEventsMatchMetrics) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.0;
  cfg.seed = 3;
  HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.5, 3));
  RingSink sink(4096, kind_bit(EventKind::Completion));
  sys.add_trace_sink(&sink);
  sys.enable_arrivals();
  sys.run_for(60.0);
  sys.stop_arrivals();
  sys.drain();
  ASSERT_EQ(sink.dropped(), 0u);
  double rt_sum = 0.0;
  std::uint64_t n = 0;
  for (const Event& e : sink.events()) {
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

TEST(TraceSink, RemovedSinkStopsReceiving) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  RingSink first(8, kind_bit(EventKind::Completion));
  RingSink second(8, kind_bit(EventKind::Completion));
  sys.add_trace_sink(&first);
  sys.add_trace_sink(&second);
  sys.inject(TxnClass::A, 0);
  sys.simulator().run();
  EXPECT_EQ(first.total_seen(), 1u);
  EXPECT_EQ(second.total_seen(), 1u);
  // Removing one sink stops its deliveries and leaves the other's intact.
  sys.remove_trace_sink(&first);
  sys.inject(TxnClass::A, 0);
  sys.simulator().run();
  EXPECT_EQ(first.total_seen(), 1u);
  EXPECT_EQ(second.total_seen(), 2u);
  sys.remove_trace_sink(&second);
  sys.inject(TxnClass::A, 0);
  sys.simulator().run();
  EXPECT_EQ(second.total_seen(), 2u);
  EXPECT_EQ(sys.metrics().completions, 3u);
}

TEST(WriteSeriesCsv, FlattensPerSiteColumnsAndPrefixesRows) {
  SampleRow row;
  row.time = 12.5;
  row.central_utilization = 0.75;
  row.central_cpu_queue = 3;
  row.central_resident = 4;
  row.central_up = true;
  row.live_txns = 11;
  row.sites.resize(2);
  row.sites[1].utilization = 0.5;
  row.sites[1].shipped_in_flight = 2;
  row.sites[1].up = false;

  std::ostringstream out;
  write_series_csv(out, {row});
  std::istringstream in(out.str());
  std::string header;
  std::string data;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, data));
  EXPECT_EQ(header.rfind("csv,", 0), 0u);
  EXPECT_NE(header.find("site1_shipped"), std::string::npos);
  EXPECT_EQ(data, "csv,12.5,0.75,3,4,1,11,0,0,0,0,1,0.5,0,0,2,0");
  EXPECT_EQ(count_char(header, ','), count_char(data, ','));
}

TEST(WriteSeriesCsv, EmptySeriesWritesHeaderOnly) {
  std::ostringstream out;
  write_series_csv(out, {});
  EXPECT_EQ(count_char(out.str(), '\n'), 1);
}

}  // namespace
}  // namespace hls::obs
