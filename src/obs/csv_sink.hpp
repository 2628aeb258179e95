// CSV trace sink: one structured row per event, all kinds in one stream.
//
// The format is self-describing (a `kind` discriminator column plus the
// union of all kind fields): completions and aborts with their per-phase
// breakdown and abort provenance, faults and samples. Readers filter on the
// first column; a completion trace is this sink masked to Completion and
// Abort.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/sink.hpp"

namespace hls::obs {

class CsvSink final : public TraceSink {
 public:
  /// Writes the header immediately; rows follow as events arrive. on_event
  /// only copies the event — formatting and stream writes happen in bulk
  /// once a small internal batch fills, keeping the per-event cost on the
  /// simulation's hot path to a struct copy. Call flush() (or let the
  /// destructor) before reading the stream. The stream must outlive the sink.
  explicit CsvSink(std::ostream& out, unsigned mask = kScalarEventKinds);
  ~CsvSink() override;

  [[nodiscard]] unsigned kind_mask() const override { return mask_; }
  void on_event(const Event& event) override;

  /// Formats all batched events and pushes them to the stream.
  void flush();

  [[nodiscard]] std::uint64_t rows_written() const { return rows_; }

  /// Column header, exposed for readers of the produced files.
  static const char* header();

 private:
  std::ostream& out_;
  unsigned mask_;
  std::uint64_t rows_ = 0;
  std::vector<Event> batch_;  ///< events not yet formatted
  std::string fmt_;           ///< formatting scratch, reused across flushes
};

}  // namespace hls::obs
