// Transaction-completion tracing.
//
// A TraceSink (obs/sink.hpp) subscribed to Completion events only; writes
// one CSV row per completed transaction — class, route, timings, runs,
// abort breakdown. Useful for distribution-level analysis beyond the
// aggregate Metrics (e.g. tail latencies of shipped vs local transactions)
// and for feeding external plotting tools. The row format predates the obs
// layer and is pinned by tests and by trace_replay; CsvSink is the richer
// (phase-level, multi-kind) alternative.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "hybrid/hybrid_system.hpp"
#include "obs/event.hpp"
#include "obs/sink.hpp"

namespace hls {

class TraceWriter : public obs::TraceSink {
 public:
  /// Writes the CSV header immediately; rows follow as transactions
  /// complete after attach(). The stream must outlive the writer.
  explicit TraceWriter(std::ostream& out);

  /// Registers this writer as a trace sink on `system`. The writer must
  /// outlive the system's run (or be removed with remove_trace_sink).
  void attach(HybridSystem& system);

  // ---- obs::TraceSink ----
  [[nodiscard]] unsigned kind_mask() const override {
    return obs::kind_bit(obs::EventKind::Completion);
  }
  void on_event(const obs::Event& event) override;

  [[nodiscard]] std::uint64_t rows_written() const { return rows_; }

  /// Column header, exposed for readers of the produced files.
  static const char* header();

 private:
  std::ostream& out_;
  std::uint64_t rows_ = 0;
};

}  // namespace hls
