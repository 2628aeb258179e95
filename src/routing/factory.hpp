// By-name construction of routing strategies, used by the experiment harness
// and the examples so strategy sets can be listed as data.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/params.hpp"
#include "routing/strategy.hpp"

namespace hls {

/// Identifiers of the strategies studied in the paper.
enum class StrategyKind {
  NoLoadSharing,      ///< always local (the "no load sharing" baseline)
  AlwaysCentral,      ///< fully centralized (sanity baseline)
  StaticOptimal,      ///< probabilistic with model-optimized p_ship
  StaticProbability,  ///< probabilistic with caller-chosen p_ship
  MeasuredRt,         ///< §3.2.3 heuristic (curve A)
  QueueLength,        ///< §3.2.4 basic heuristic (curve B)
  UtilThreshold,      ///< §3.2.4 tuned heuristic (Figures 4.4/4.7)
  MinIncomingQueue,   ///< §3.2.1(a) (curve C)
  MinIncomingNsys,    ///< §3.2.1(b) (curve D)
  MinAverageQueue,    ///< §3.2.2 on queue lengths (curve E)
  MinAverageNsys,     ///< §3.2.2 on number in system (curve F, best)
};

struct StrategySpec {
  StrategyKind kind = StrategyKind::NoLoadSharing;
  /// p_ship for StaticProbability, threshold for UtilThreshold.
  double parameter = 0.0;
  /// Wrap the strategy in FailureAwareStrategy (degrade to local-only while
  /// the central complex is down or the state information is stale).
  bool failure_aware = false;
  /// Staleness limit for the wrapper, seconds; 0 = reachability signal only.
  double failsafe_max_info_age = 0.0;
  /// Wrap the strategy in AdaptiveControllerStrategy (closed-loop re-tuning
  /// on the review epoch; routing/adaptive.hpp).
  bool adaptive = false;
  /// Spec-level review interval override, seconds; 0 = use the config's
  /// adapt_interval key.
  double adapt_interval_override = 0.0;
};

/// Builds a strategy. `base` supplies the model parameters for the analytic
/// strategies and the arrival rates used by StaticOptimal's optimization;
/// `seed` feeds the probabilistic strategies.
[[nodiscard]] std::unique_ptr<RoutingStrategy> make_strategy(
    const StrategySpec& spec, const ModelParams& base, std::uint64_t seed);

/// Parses "no-load-sharing", "static-optimal", "static:0.3",
/// "measured-rt", "queue-length", "util-threshold:-0.2",
/// "min-incoming-queue", "min-incoming-nsys", "min-average-queue",
/// "min-average-nsys", "always-central". A "failsafe:" or
/// "failsafe@<max_info_age>:" prefix wraps the inner strategy in
/// FailureAwareStrategy (e.g. "failsafe:min-average-nsys",
/// "failsafe@2.5:queue-length"); an "adapt:" or "adapt@<interval>:" prefix
/// wraps it in AdaptiveControllerStrategy (e.g. "adapt:util-threshold:0",
/// "adapt@1.5:failsafe:min-average-nsys"). Wrap order is always base ->
/// adapt -> failsafe regardless of prefix order. Returns nullopt on an
/// unknown name, a malformed number (trailing characters included) or an
/// out-of-range value, with a message quoting the offending token in
/// `*error`.
[[nodiscard]] std::optional<StrategySpec> parse_strategy_spec(
    const std::string& text, std::string* error = nullptr);

/// All strategy kinds in presentation order with display labels.
[[nodiscard]] std::vector<std::pair<StrategySpec, std::string>>
paper_strategy_set();

}  // namespace hls
