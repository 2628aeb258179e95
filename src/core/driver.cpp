#include "core/driver.hpp"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>

#include "core/artifact.hpp"
#include "model/static_optimizer.hpp"
#include "obs/csv_sink.hpp"
#include "obs/perfetto_sink.hpp"
#include "routing/basic_strategies.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace hls {

RunResult run_simulation(const SystemConfig& config,
                         std::unique_ptr<RoutingStrategy> strategy,
                         const RunOptions& options) {
  HLS_ASSERT(options.warmup_seconds >= 0.0, "negative warmup");
  HLS_ASSERT(options.measure_seconds > 0.0, "measurement window must be positive");

  RunResult result;
  result.config = config;

  HybridSystem system(config, std::move(strategy));
  result.strategy_name = system.strategy().name();
  for (obs::TraceSink* sink : options.sinks) {
    system.add_trace_sink(sink);
  }

  // Span-sink spec from the config: "perfetto:PATH" or "csv:PATH". The file
  // and sink live for the whole run (warmup included) and are finalized
  // before the result returns.
  std::ofstream span_out;
  std::unique_ptr<obs::PerfettoSink> perfetto;
  std::unique_ptr<obs::CsvSink> span_csv;
  if (!config.obs_span_sink.empty()) {
    const auto colon = config.obs_span_sink.find(':');
    const std::string scheme = config.obs_span_sink.substr(0, colon);
    const std::string path = config.obs_span_sink.substr(colon + 1);
    span_out.open(path);
    if (!span_out.is_open()) {
      HLS_LOG_WARN("obs_span_sink: cannot open '%s'; running without it",
                   path.c_str());
    } else if (scheme == "perfetto") {
      perfetto = std::make_unique<obs::PerfettoSink>(span_out);
      system.add_trace_sink(perfetto.get());
    } else {
      span_csv = std::make_unique<obs::CsvSink>(span_out);
      system.add_trace_sink(span_csv.get());
    }
  }

  system.enable_arrivals();
  system.run_for(options.warmup_seconds);
  system.begin_measurement();
  system.run_for(options.measure_seconds);
  system.end_measurement();
  result.metrics = system.metrics();
  result.series = system.take_series();
  if (const AdaptiveController* controller = system.controller()) {
    result.controller_decisions = controller->decisions();
  }
  system.export_registry(result.registry);
  if (!config.obs_artifact.empty() &&
      !write_run_artifact_file(config.obs_artifact, result)) {
    HLS_LOG_WARN("obs_artifact: cannot write '%s'",
                 config.obs_artifact.c_str());
  }
  if (perfetto != nullptr) {
    perfetto->close();
  }
  return result;
}

RunResult run_simulation(const SystemConfig& config, const StrategySpec& spec,
                         const RunOptions& options) {
  const ModelParams base = ModelParams::from_config(config);
  // Optimize once: the static optimum becomes a fixed-probability spec,
  // which builds the same strategy (same name, same seed).
  StrategySpec resolved = spec;
  if (spec.kind == StrategyKind::StaticOptimal) {
    resolved.kind = StrategyKind::StaticProbability;
    resolved.parameter = StaticOptimizer().optimize(base).p_ship;
  }
  auto strategy = make_strategy(resolved, base, config.seed ^ 0x51CA5EEDULL);
  RunResult result = run_simulation(config, std::move(strategy), options);
  result.static_p_ship = resolved.kind == StrategyKind::StaticProbability
                             ? resolved.parameter
                             : -1.0;
  return result;
}

double time_scale_from_env() {
  const char* raw = std::getenv("HLS_TIME_SCALE");
  if (raw == nullptr) {
    return 1.0;
  }
  const std::optional<double> v = parse_number(raw);
  if (v.has_value() && *v > 0.0) {
    return *v;
  }
  // An infinite scale would make every window endless.
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    HLS_LOG_WARN("HLS_TIME_SCALE '%s' is not a finite number above 0; using 1",
                 raw);
  }
  return 1.0;
}

}  // namespace hls
