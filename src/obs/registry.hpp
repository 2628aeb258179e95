// Self-describing metric registry: the export-time container every system
// (hybrid, baselines) fills with named, unit-tagged metrics at the end of a
// run, and the canonical JSON serializer behind the run artifact
// (core/artifact.hpp) and tools/hlsreport.
//
// Five metric kinds cover everything the simulator accumulates:
//   * Counter      — monotone event counts (completions, aborts, messages);
//   * Gauge        — instantaneous values at export time (window seconds,
//                    locks held);
//   * Stat         — a SampleStat snapshot (response times, wasted work);
//   * TimeWeighted — a time-averaged signal plus its current value (CPU
//                    utilization, queue lengths, in-flight messages);
//   * Histogram    — a fixed-width Histogram snapshot.
//
// Naming contract: every registration passes a MetricName, whose consteval
// constructor takes only a constant expression (a string literal or a
// constexpr name), so a name composed at run time does not compile. The only
// composed parts are the Scope prefixes ("central.", "site<k>.") and
// bucket_counter's ".<bucket>" suffix — both produced here, never by
// callers — so artifact keys stay greppable and diffable across runs and
// PRs. That a name carries one unit wherever it is registered, across the
// hybrid system and both baselines, is checked by artifact_test.
//
// Registration order is irrelevant to the output: write_json emits entries
// grouped by kind and sorted by name, with shortest-round-trip number
// formatting, so same-seed artifacts are byte-identical across reruns,
// HLS_JOBS values and machines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace hls::obs {

enum class MetricKind : std::uint8_t {
  Counter,
  Gauge,
  Stat,
  TimeWeighted,
  Histogram,
};

[[nodiscard]] constexpr const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Stat: return "stat";
    case MetricKind::TimeWeighted: return "time_weighted";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

/// One registered metric. Fields not meaningful for the kind stay at their
/// defaults (the same flat-POD convention as obs::Event).
struct MetricEntry {
  std::string name;
  std::string unit;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t count = 0;  ///< Counter value; Stat/Histogram sample count
  double value = 0.0;       ///< Gauge value; TimeWeighted current value
  double average = 0.0;     ///< TimeWeighted window average
  // ---- Stat snapshot (all zero when count == 0) ----
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
  // ---- Histogram snapshot ----
  double bin_width = 0.0;
  std::vector<std::uint64_t> bins;
  std::uint64_t overflow = 0;
};

/// A metric name fixed at compile time: the constructor is consteval, so it
/// accepts a string literal or a constexpr name and rejects a string built
/// at run time (`s.c_str()` does not compile).
class MetricName {
 public:
  // Implicit, so a registration reads `sc.counter("txn.completions", n)`.
  consteval MetricName(const char* name) : name_(name) {}  // NOLINT(google-explicit-constructor)
  [[nodiscard]] const char* c_str() const { return name_; }

 private:
  const char* name_;
};

class Registry {
 public:
  /// Registration handle carrying a name prefix ("" for global metrics,
  /// "central." / "site<k>." for per-resource ones). The prefix composition
  /// here is the one sanctioned non-literal part of a metric name.
  class Scope {
   public:
    void counter(MetricName name, std::uint64_t value,
                 const char* unit = "count") const;
    void gauge(MetricName name, double value, const char* unit) const;
    void stat(MetricName name, const SampleStat& s, const char* unit) const;
    /// `average` over the window and the `current` signal value, as produced
    /// by TimeWeightedStat::average / current.
    void time_weighted(MetricName name, double average, double current,
                       const char* unit) const;
    void histogram(MetricName name, const Histogram& h, const char* unit) const;
    /// Per-bucket counter family: registers "<prefix><name>.<bucket>". The
    /// blessed helper for fragment/heat counters, so bucket indices never
    /// leak into caller-side string composition.
    void bucket_counter(MetricName name, std::size_t bucket,
                        std::uint64_t value, const char* unit = "count") const;

   private:
    friend class Registry;
    Scope(Registry* reg, std::string prefix)
        : reg_(reg), prefix_(std::move(prefix)) {}
    Registry* reg_;
    std::string prefix_;
  };

  [[nodiscard]] Scope root() { return Scope(this, ""); }
  [[nodiscard]] Scope central() { return Scope(this, "central."); }
  [[nodiscard]] Scope site(int index);

  [[nodiscard]] const std::vector<MetricEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Entry by full name, or nullptr.
  [[nodiscard]] const MetricEntry* find(const std::string& name) const;
  void clear();

  /// Canonical JSON object: one sub-object per metric kind (alphabetical),
  /// entries sorted by name inside each, numbers in shortest-round-trip
  /// decimal form. Byte-identical for identical registered values.
  void write_json(std::ostream& out) const;

 private:
  void add(MetricEntry entry);

  std::vector<MetricEntry> entries_;
  std::map<std::string, std::size_t> index_;  ///< name -> entries_ slot
};

/// Shortest-round-trip decimal rendering of `v` (std::to_chars), the number
/// format shared by the registry and the run artifact. Integral values print
/// without an exponent or trailing ".0"; the bytes depend only on the value.
void write_json_number(std::ostream& out, double v);

/// Minimal JSON string escaping (quote, backslash, control characters).
void write_json_string(std::ostream& out, const std::string& s);

}  // namespace hls::obs
