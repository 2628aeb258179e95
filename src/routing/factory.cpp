#include "routing/factory.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "model/static_optimizer.hpp"
#include "routing/adaptive.hpp"
#include "routing/analytic_strategies.hpp"
#include "routing/basic_strategies.hpp"
#include "routing/failure_aware.hpp"
#include "routing/heuristics.hpp"
#include "util/assert.hpp"

namespace hls {

namespace {

std::unique_ptr<RoutingStrategy> make_base_strategy(const StrategySpec& spec,
                                                    const ModelParams& base,
                                                    std::uint64_t seed) {
  switch (spec.kind) {
    case StrategyKind::NoLoadSharing:
      return std::make_unique<AlwaysLocalStrategy>();
    case StrategyKind::AlwaysCentral:
      return std::make_unique<AlwaysCentralStrategy>();
    case StrategyKind::StaticOptimal: {
      const StaticOptimum opt = StaticOptimizer().optimize(base);
      return std::make_unique<StaticProbabilisticStrategy>(opt.p_ship, seed);
    }
    case StrategyKind::StaticProbability:
      return std::make_unique<StaticProbabilisticStrategy>(spec.parameter, seed);
    case StrategyKind::MeasuredRt:
      return std::make_unique<MeasuredResponseTimeStrategy>();
    case StrategyKind::QueueLength:
      return std::make_unique<QueueLengthStrategy>();
    case StrategyKind::UtilThreshold:
      return std::make_unique<ThresholdUtilizationStrategy>(spec.parameter);
    case StrategyKind::MinIncomingQueue:
      return std::make_unique<MinIncomingRtStrategy>(base, UtilSource::CpuQueue);
    case StrategyKind::MinIncomingNsys:
      return std::make_unique<MinIncomingRtStrategy>(base, UtilSource::NumInSystem);
    case StrategyKind::MinAverageQueue:
      return std::make_unique<MinAverageRtStrategy>(base, UtilSource::CpuQueue);
    case StrategyKind::MinAverageNsys:
      return std::make_unique<MinAverageRtStrategy>(base, UtilSource::NumInSystem);
  }
  HLS_ASSERT(false, "unknown strategy kind");
  return nullptr;
}

std::optional<StrategySpec> fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return std::nullopt;
}

/// Parses all of `token` as a number; false on an empty token or trailing
/// characters ("0.3xyz").
bool parse_number(const std::string& token, double* out) {
  if (token.empty()) {
    return false;
  }
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

std::string bad_number(const std::string& token, const std::string& text) {
  return "bad number '" + token + "' in strategy spec '" + text + "'";
}

constexpr std::pair<const char*, StrategyKind> kNames[] = {
    {"no-load-sharing", StrategyKind::NoLoadSharing},
    {"always-central", StrategyKind::AlwaysCentral},
    {"static-optimal", StrategyKind::StaticOptimal},
    {"static", StrategyKind::StaticProbability},
    {"measured-rt", StrategyKind::MeasuredRt},
    {"queue-length", StrategyKind::QueueLength},
    {"util-threshold", StrategyKind::UtilThreshold},
    {"min-incoming-queue", StrategyKind::MinIncomingQueue},
    {"min-incoming-nsys", StrategyKind::MinIncomingNsys},
    {"min-average-queue", StrategyKind::MinAverageQueue},
    {"min-average-nsys", StrategyKind::MinAverageNsys},
};

}  // namespace

std::unique_ptr<RoutingStrategy> make_strategy(const StrategySpec& spec,
                                               const ModelParams& base,
                                               std::uint64_t seed) {
  std::unique_ptr<RoutingStrategy> strategy = make_base_strategy(spec, base, seed);
  if (spec.adaptive) {
    strategy = std::make_unique<AdaptiveControllerStrategy>(
        std::move(strategy), spec.adapt_interval_override);
  }
  if (spec.failure_aware) {
    strategy = std::make_unique<FailureAwareStrategy>(std::move(strategy),
                                                      spec.failsafe_max_info_age);
  }
  return strategy;
}

std::optional<StrategySpec> parse_strategy_spec(const std::string& text,
                                                std::string* error) {
  const auto colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const bool failsafe = head == "failsafe" || head.rfind("failsafe@", 0) == 0;
  const bool adapt = head == "adapt" || head.rfind("adapt@", 0) == 0;
  if (failsafe || adapt) {
    // "<wrapper>:<inner>" or "<wrapper>@<number>:<inner>".
    if (colon == std::string::npos) {
      return fail(error,
                  "strategy spec '" + text + "' needs an inner strategy");
    }
    const auto at = head.find('@');
    double value = 0.0;
    if (at != std::string::npos) {
      const std::string token = head.substr(at + 1);
      if (!parse_number(token, &value)) {
        return fail(error, bad_number(token, text));
      }
      if (failsafe ? !(value >= 0.0) : !(value > 0.0)) {
        return fail(error, (failsafe ? "negative failsafe staleness limit '"
                                     : "non-positive adapt interval '") +
                               token + "' in strategy spec '" + text + "'");
      }
    }
    std::optional<StrategySpec> spec =
        parse_strategy_spec(text.substr(colon + 1), error);
    if (!spec.has_value()) {
      return spec;
    }
    if (failsafe) {
      spec->failure_aware = true;
      spec->failsafe_max_info_age = value;
    } else {
      spec->adaptive = true;
      spec->adapt_interval_override = value;
    }
    return spec;
  }
  const auto* named =
      std::find_if(std::begin(kNames), std::end(kNames),
                   [&head](const auto& n) { return head == n.first; });
  if (named == std::end(kNames)) {
    // Echo the offending token verbatim, like config_io's unknown-key lines.
    return fail(error, "unknown strategy spec '" + text + "'");
  }
  StrategySpec spec;
  spec.kind = named->second;
  if (colon != std::string::npos) {
    const std::string token = text.substr(colon + 1);
    if (!parse_number(token, &spec.parameter)) {
      return fail(error, bad_number(token, text));
    }
  }
  if (spec.kind == StrategyKind::StaticProbability &&
      !(spec.parameter >= 0.0 && spec.parameter <= 1.0)) {
    return fail(error, "ship probability in strategy spec '" + text +
                           "' is outside [0,1]");
  }
  return spec;
}

std::vector<std::pair<StrategySpec, std::string>> paper_strategy_set() {
  return {
      {{StrategyKind::NoLoadSharing, 0.0}, "no load sharing"},
      {{StrategyKind::StaticOptimal, 0.0}, "optimal static"},
      {{StrategyKind::MeasuredRt, 0.0}, "A: measured response time"},
      {{StrategyKind::QueueLength, 0.0}, "B: queue length"},
      {{StrategyKind::MinIncomingQueue, 0.0}, "C: min incoming RT (queue)"},
      {{StrategyKind::MinIncomingNsys, 0.0}, "D: min incoming RT (in-system)"},
      {{StrategyKind::MinAverageQueue, 0.0}, "E: min average RT (queue)"},
      {{StrategyKind::MinAverageNsys, 0.0}, "F: min average RT (in-system)"},
  };
}

}  // namespace hls
