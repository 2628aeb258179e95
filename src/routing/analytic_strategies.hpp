// Model-driven dynamic strategies (§3.2.1, §3.2.2).
//
// Both strategies evaluate the DynamicEstimator at decision time:
//
//   * MinIncomingRtStrategy routes the incoming class A transaction to the
//     side with the smaller estimated response time for that transaction —
//     the classic approach from the literature (curves C and D of
//     Figure 4.2, depending on the utilization source).
//   * MinAverageRtStrategy routes so as to minimize the estimated average
//     response time over all transactions currently in the system plus the
//     incoming one — the paper's contribution, found to be the best
//     strategy (curves E and F).
//
// Both decide from DynamicEstimator::estimate_range first: with the abort
// split pinned at the two ends of [0, 1], most routes are already settled.
// Only the rest pay for the split's Simpson pass in estimate().
#pragma once

#include <optional>

#include "model/dynamic_estimator.hpp"
#include "routing/strategy.hpp"

namespace hls {

/// Route::Central when `estimator`'s `ship` time is below its `local` time,
/// as estimate(view) compares them. Central when even the highest ship time
/// is below the lowest local one, Local when even the lowest ship time is
/// not below the highest local one; otherwise, or with no range, the exact
/// estimate decides. The fallback stays a call into the model library.
inline Route cheaper_route(const DynamicEstimator& estimator,
                           const SystemStateView& view,
                           double RouteEstimate::*ship,
                           double RouteEstimate::*local) {
  if (const std::optional<RouteRange> range = estimator.estimate_range(view)) {
    if (range->hi.*ship < range->lo.*local) {
      return Route::Central;
    }
    if (range->lo.*ship >= range->hi.*local) {
      return Route::Local;
    }
  }
  const RouteEstimate est = estimator.estimate(view);
  return est.*ship < est.*local ? Route::Central : Route::Local;
}

class MinIncomingRtStrategy final : public RoutingStrategy {
 public:
  MinIncomingRtStrategy(ModelParams base, UtilSource source)
      : estimator_(base, source) {}

  Route decide(const Transaction&, const SystemStateView& view) override {
    return cheaper_route(estimator_, view, &RouteEstimate::r_incoming_ship,
                         &RouteEstimate::r_incoming_local);
  }

  [[nodiscard]] std::string name() const override {
    return estimator_.source() == UtilSource::CpuQueue ? "min-incoming-queue"
                                                       : "min-incoming-nsys";
  }

 private:
  DynamicEstimator estimator_;
};

class MinAverageRtStrategy final : public RoutingStrategy {
 public:
  MinAverageRtStrategy(ModelParams base, UtilSource source)
      : estimator_(base, source) {}

  Route decide(const Transaction&, const SystemStateView& view) override {
    return cheaper_route(estimator_, view, &RouteEstimate::r_avg_if_ship,
                         &RouteEstimate::r_avg_if_local);
  }

  [[nodiscard]] std::string name() const override {
    return estimator_.source() == UtilSource::CpuQueue ? "min-average-queue"
                                                       : "min-average-nsys";
  }

 private:
  DynamicEstimator estimator_;
};

}  // namespace hls
