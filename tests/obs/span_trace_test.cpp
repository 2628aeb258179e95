// Span tracer contract: settled spans tile each transaction's response time
// exactly, the Perfetto exporter's JSON is structurally sound and
// byte-deterministic, and attaching either sink never perturbs the
// simulation's timing.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/driver.hpp"
#include "hybrid/hybrid_system.hpp"
#include "json.hpp"
#include "obs/event.hpp"
#include "obs/perfetto_sink.hpp"
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

int count_substr(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// ---- span stream semantics ----

TEST(SpanTrace, SpansTileTheResponseTimeExactly) {
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  obs::RingSink spans(256, obs::kind_bit(obs::EventKind::Span));
  sys.add_trace_sink(&spans);
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();
  ASSERT_EQ(sys.metrics().completions, 1u);

  double covered = 0.0;
  double last_end = 0.0;
  for (const obs::Event& e : spans.events()) {
    ASSERT_EQ(e.kind, obs::EventKind::Span);
    EXPECT_EQ(e.txn, 1u);
    EXPECT_EQ(e.runs, 1);  // single attempt
    EXPECT_EQ(e.track, 0);  // local run: everything on the home site's track
    EXPECT_GT(e.time, e.span_begin);  // zero-length segments are elided
    EXPECT_GE(e.span_begin, last_end - 1e-12);  // spans never overlap
    last_end = e.time;
    covered += e.time - e.span_begin;
  }
  EXPECT_GT(spans.events().size(), 2u);
  EXPECT_NEAR(covered, sys.metrics().rt_all.sum(), 1e-9);
}

TEST(SpanTrace, ShippedTransactionEmitsCentralSpansAndEdges) {
  const SystemConfig cfg = quiet_config();
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  obs::RingSink ring(256, obs::kSpanEventKinds);
  sys.add_trace_sink(&ring);
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.simulator().run();
  ASSERT_EQ(sys.metrics().completions_shipped_a, 1u);

  bool saw_central_span = false;
  bool saw_ship_edge = false;
  bool saw_response_edge = false;
  double covered = 0.0;
  for (const obs::Event& e : ring.events()) {
    if (e.kind == obs::EventKind::Span) {
      covered += e.time - e.span_begin;
      saw_central_span |= (e.track == obs::kCentralTrack);
    } else if (e.kind == obs::EventKind::Edge) {
      if (e.edge == obs::EdgeKind::Ship) {
        // Home site to the central complex, forward in time.
        EXPECT_EQ(e.src_track, 0);
        EXPECT_EQ(e.track, obs::kCentralTrack);
        EXPECT_LT(e.src_time, e.time);
        saw_ship_edge = true;
      } else if (e.edge == obs::EdgeKind::Response) {
        saw_response_edge = true;
      }
    }
  }
  EXPECT_TRUE(saw_central_span);
  EXPECT_TRUE(saw_ship_edge);
  EXPECT_TRUE(saw_response_edge);
  // The tiling identity holds across tracks too.
  EXPECT_NEAR(covered, sys.metrics().rt_all.sum(), 1e-9);
}

TEST(SpanTrace, RetryChainCarriesRunNumbersAndRetryEdge) {
  SystemConfig cfg = quiet_config();
  cfg.call_io_time = 1.0;  // force the preemption conflict
  HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
  obs::RingSink ring(512, obs::kSpanEventKinds);
  sys.add_trace_sink(&ring);
  sys.inject_transaction(custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/true));
  sys.inject_transaction(custom_txn(2, TxnClass::B, 0, {{5, LockMode::Exclusive}},
                                    /*io_per_call=*/false));
  sys.simulator().run();
  ASSERT_GE(sys.metrics().aborts_total(), 1u);

  int max_run = 0;
  bool saw_retry_edge = false;
  for (const obs::Event& e : ring.events()) {
    if (e.kind == obs::EventKind::Span && e.txn == 1u) {
      max_run = std::max(max_run, e.runs);
    } else if (e.kind == obs::EventKind::Edge &&
               e.edge == obs::EdgeKind::Retry) {
      EXPECT_EQ(e.txn, 1u);
      EXPECT_LE(e.src_time, e.time);
      saw_retry_edge = true;
    }
  }
  EXPECT_GE(max_run, 2);  // the victim's spans span both attempts
  EXPECT_TRUE(saw_retry_edge);
}

// ---- Perfetto exporter ----

const JsonValue* member(const JsonValue& object, const std::string& key) {
  for (const auto& [name, value] : object.object) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool whole_number(const JsonValue* v) {
  return v != nullptr && v->kind == JsonValue::Kind::Number &&
         std::isfinite(v->number) && std::trunc(v->number) == v->number;
}

/// The first way `doc` breaks what Perfetto UI and chrome://tracing need of
/// a trace-event document, or "" when it breaks none: traceEvents is an
/// array; each record has ph, pid and tid, and ph is one of B E i s f M C;
/// ts is a whole number on every record but M, and so are pid and tid;
/// every C record has a numeric args.value; every E closes the latest open
/// B on its (pid, tid), no earlier than it; and no B is left open.
std::string perfetto_violation(const std::string& doc) {
  std::string error;
  const std::optional<JsonValue> root = parse_json(doc, &error);
  if (!root.has_value()) return "not JSON: " + error;
  const JsonValue* events = member(*root, "traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::Array) {
    return "traceEvents is missing or not an array";
  }
  // Timestamps of the B records still open, per (pid, tid).
  std::map<std::pair<double, double>, std::vector<double>> open;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& record = events->array[i];
    const std::string at = "record " + std::to_string(i) + ": ";
    const JsonValue* ph = member(record, "ph");
    const JsonValue* pid = member(record, "pid");
    const JsonValue* tid = member(record, "tid");
    if (ph == nullptr || pid == nullptr || tid == nullptr) {
      return at + "lacks ph, pid or tid";
    }
    if (ph->kind != JsonValue::Kind::String || ph->str.size() != 1 ||
        std::string("BEisfMC").find(ph->str) == std::string::npos) {
      return at + "ph is not one of B E i s f M C";
    }
    const JsonValue* ts = member(record, "ts");
    if (ph->str != "M" && !whole_number(ts)) {
      return at + "ts is missing or not a whole number";
    }
    if (!whole_number(pid) || !whole_number(tid)) {
      return at + "pid or tid is not a whole number";
    }
    if (ph->str == "C") {
      const JsonValue* args = member(record, "args");
      const JsonValue* value = args == nullptr ? nullptr : member(*args, "value");
      if (value == nullptr || value->kind != JsonValue::Kind::Number) {
        return at + "C record without a numeric args.value";
      }
    }
    if (ph->str == "B") {
      open[{pid->number, tid->number}].push_back(ts->number);
    } else if (ph->str == "E") {
      std::vector<double>& stack = open[{pid->number, tid->number}];
      if (stack.empty()) return at + "E without an open B on its pid and tid";
      if (ts->number < stack.back()) return at + "E earlier than its B";
      stack.pop_back();
    }
  }
  for (const auto& [track, stack] : open) {
    if (!stack.empty()) {
      return std::to_string(stack.size()) + " B record(s) never closed on pid " +
             std::to_string(static_cast<long long>(track.first)) + " tid " +
             std::to_string(static_cast<long long>(track.second));
    }
  }
  return "";
}

std::string perfetto_run(double extra_io = 0.0) {
  SystemConfig cfg = quiet_config();
  if (extra_io > 0.0) {
    cfg.call_io_time = extra_io;
  }
  HybridSystem sys(cfg, std::make_unique<AlwaysCentralStrategy>());
  std::ostringstream out;
  obs::PerfettoSink sink(out);
  sys.add_trace_sink(&sink);
  sys.inject_transaction(
      custom_txn(1, TxnClass::A, 0, {{5, LockMode::Exclusive}}));
  sys.inject_transaction(
      custom_txn(2, TxnClass::B, 3, {{7, LockMode::Exclusive}}));
  sys.simulator().run();
  sink.close();
  return out.str();
}

TEST(SpanTrace, PerfettoDocumentIsStructurallySound) {
  const std::string doc = perfetto_run();
  EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(doc.substr(doc.size() - 3), "]}\n");
  EXPECT_EQ(perfetto_violation(doc), "");
  // Spans were written, every flow start has its finish, no timestamp is
  // negative, and the process-name metadata for the central complex (pid 0)
  // was appended at close().
  EXPECT_GT(count_substr(doc, "\"ph\":\"B\""), 0);
  EXPECT_EQ(count_substr(doc, "\"ph\":\"s\""), count_substr(doc, "\"ph\":\"f\""));
  EXPECT_EQ(doc.find("\"ts\":-"), std::string::npos);
  EXPECT_GT(count_substr(doc, "\"ph\":\"M\""), 0);
  EXPECT_NE(doc.find("central"), std::string::npos);
}

TEST(SpanTrace, FaultedRunExportIsStructurallySound) {
  // trace_inspector's run, shortened: curve F with the failsafe, ship
  // timeouts and a central outage, so the export carries aborts, retries,
  // faults and sampler counters as well as clean spans.
  SystemConfig cfg;
  cfg.seed = 20260805;
  cfg.arrival_rate_per_site = 2.2;
  cfg.obs_sample_interval = 5.0;
  cfg.ship_timeout = 2.0;
  cfg.faults.windows.push_back({FaultKind::CentralOutage, -1, 10.0, 5.0, 1.0, 0.0});
  std::ostringstream out;
  obs::PerfettoSink sink(out);
  RunOptions opts;
  opts.warmup_seconds = 0.0;
  opts.measure_seconds = 30.0;
  opts.sinks.push_back(&sink);
  const RunResult r = run_simulation(
      cfg, {StrategyKind::MinAverageNsys, 0.0, /*failure_aware=*/true}, opts);
  sink.close();
  EXPECT_GT(r.metrics.ship_timeouts(), 0u);
  EXPECT_GT(sink.spans_written(), 0u);
  EXPECT_GT(sink.edges_written(), 0u);
  EXPECT_GT(sink.counters_written(), 0u);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"name\":\"crash\""), std::string::npos);
  EXPECT_EQ(perfetto_violation(doc), "");
}

TEST(SpanTrace, PerfettoExportIsByteDeterministic) {
  EXPECT_EQ(perfetto_run(), perfetto_run());
  EXPECT_EQ(perfetto_run(0.5), perfetto_run(0.5));
}

TEST(SpanTrace, PerfettoCloseIsIdempotent) {
  std::ostringstream out;
  {
    obs::PerfettoSink sink(out);
    sink.close();
    sink.close();  // second close must not re-emit the epilogue
  }  // destructor after explicit close must not either
  const std::string doc = out.str();
  EXPECT_EQ(count_substr(doc, "]}"), 1);
}

// ---- observation is free or absent ----

TEST(SpanTrace, AttachingSpanSinksDoesNotPerturbTiming) {
  auto run_once = [](bool with_sinks) {
    SystemConfig cfg = quiet_config();
    cfg.call_io_time = 1.0;
    HybridSystem sys(cfg, std::make_unique<AlwaysLocalStrategy>());
    std::ostringstream out;
    std::unique_ptr<obs::PerfettoSink> perfetto;
    obs::RingSink ring(64, obs::kSpanEventKinds);
    if (with_sinks) {
      perfetto = std::make_unique<obs::PerfettoSink>(out);
      sys.add_trace_sink(perfetto.get());
      sys.add_trace_sink(&ring);
    }
    sys.inject_transaction(custom_txn(1, TxnClass::A, 0,
                                      {{5, LockMode::Exclusive}},
                                      /*io_per_call=*/true));
    sys.inject_transaction(custom_txn(2, TxnClass::B, 0,
                                      {{5, LockMode::Exclusive}},
                                      /*io_per_call=*/false));
    sys.simulator().run();
    return sys.metrics().rt_all.sum();
  };
  // The conflict-heavy schedule (abort + rerun) is bit-identical with the
  // full span pipeline attached.
  EXPECT_DOUBLE_EQ(run_once(false), run_once(true));
}

}  // namespace
}  // namespace hls
