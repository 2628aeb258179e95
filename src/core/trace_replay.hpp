// Trace-driven workload replay.
//
// The paper's transaction parameters come from trace analysis of a
// production system ([YU87]); this module closes the loop by letting the
// simulator consume arrival traces directly instead of Poisson processes —
// for replaying measured workloads, regression-testing against a fixed
// arrival sequence, or constructing adversarial arrival patterns.
//
// Trace format: one arrival per line,
//
//     <time> <site> <class>[ <lock_id>:<S|X>[,<lock_id>:<S|X>...]]
//
//   * time       — arrival time in seconds, non-negative and non-decreasing
//   * site       — home site index
//   * class      — 'A' or 'B'
//   * locks      — optional explicit access pattern; when omitted the
//                  transaction's locks are sampled exactly as the Poisson
//                  workload would (class A from the home partition, class B
//                  from the whole space)
//
// Lines starting with '#' and blank lines are ignored.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "hybrid/hybrid_system.hpp"

namespace hls {

struct TraceArrival {
  double time = 0.0;
  int site = 0;
  TxnClass cls = TxnClass::A;
  /// Explicit access pattern; empty = sample from the configuration.
  std::vector<LockNeed> locks;
};

/// Parses a trace; returns std::nullopt and fills `error` (when non-null)
/// on malformed input (bad fields, negative or decreasing time, site out of
/// range).
[[nodiscard]] std::optional<std::vector<TraceArrival>> parse_trace(
    std::istream& in, const SystemConfig& cfg, std::string* error = nullptr);

/// Convenience overload over a string buffer.
[[nodiscard]] std::optional<std::vector<TraceArrival>> parse_trace(
    const std::string& text, const SystemConfig& cfg,
    std::string* error = nullptr);

/// Schedules every trace arrival into `system` (absolute times; all must be
/// >= the simulator's current time). Transactions with explicit locks get
/// call_io flags sampled per config; the rest are generated by an internal
/// factory seeded from the system config. Returns the number scheduled.
std::size_t replay_trace(HybridSystem& system,
                         const std::vector<TraceArrival>& trace);

/// Serializes a trace in the accepted format (round-trips via parse_trace).
void write_trace(std::ostream& out, const std::vector<TraceArrival>& trace);

}  // namespace hls
