// Simulation driver: builds a HybridSystem for a configuration + strategy,
// runs warmup and measurement windows, and returns the collected metrics.
// This is the top-level entry point most users of the library need.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hybrid/hybrid_system.hpp"
#include "obs/registry.hpp"
#include "obs/sample.hpp"
#include "obs/sink.hpp"
#include "routing/factory.hpp"

namespace hls {

struct RunOptions {
  double warmup_seconds = 200.0;   ///< discarded transient
  double measure_seconds = 1200.0; ///< measurement window
  /// Trace sinks (obs/sink.hpp) registered in order for the whole run,
  /// warmup included, ahead of the config's obs_span_sink. Borrowed, not
  /// owned.
  std::vector<obs::TraceSink*> sinks;
};

struct RunResult {
  Metrics metrics;
  std::string strategy_name;
  SystemConfig config;
  double static_p_ship = -1.0;  ///< p_ship chosen when strategy is static (-1 otherwise)
  /// Time series from the measurement window; empty unless the config sets
  /// obs_sample_interval > 0 (see obs/sample.hpp for the CSV writer).
  std::vector<obs::SampleRow> series;
  /// Decision log of the adaptive controller (routing/adaptive.hpp), warmup
  /// included; empty unless the strategy is an `adapt:` spec with a positive
  /// review interval. Rendered by core/report's controller section.
  std::vector<ControllerDecision> controller_decisions;
  /// Every metric the run accumulated, under the stable names documented in
  /// docs/OBSERVABILITY.md; always populated (the export is a read-only
  /// post-run pass). Serialized by core/artifact.hpp when the config sets
  /// obs_artifact.
  obs::Registry registry;
};

/// Builds the strategy from `spec` (running the static optimization when the
/// spec asks for the optimal static strategy), simulates warmup+measurement,
/// and returns the metrics.
[[nodiscard]] RunResult run_simulation(const SystemConfig& config,
                                       const StrategySpec& spec,
                                       const RunOptions& options = {});

/// Convenience overload for a caller-constructed strategy.
[[nodiscard]] RunResult run_simulation(const SystemConfig& config,
                                       std::unique_ptr<RoutingStrategy> strategy,
                                       const RunOptions& options = {});

/// Scale factor for experiment durations taken from the HLS_TIME_SCALE
/// environment variable (default 1.0; set to e.g. 0.2 for quick smoke runs).
/// A value that is not a finite number above 0 gives 1.0 and, once per
/// process, a warning on stderr naming the variable.
[[nodiscard]] double time_scale_from_env();

}  // namespace hls
