// Routing-strategy interface: the load-sharing decision point.
//
// When a class A transaction arrives at its home site, the hybrid system
// asks the installed strategy whether to run it locally or ship it to the
// central complex. The strategy sees a SystemStateView: the home site's own
// state is always fresh, while the central state is whatever the site last
// learned from protocol messages (the paper stresses that this information
// "is delayed ... and is only updated during authentication of a centrally
// running transaction"). With SystemConfig::ideal_state_info the view
// carries instantaneous central state instead (ablation).
#pragma once

#include <string>

#include "hybrid/config.hpp"
#include "hybrid/transaction.hpp"
#include "obs/sample.hpp"

namespace hls {

/// Snapshot handed to a strategy at decision time.
struct SystemStateView {
  const SystemConfig* config = nullptr;
  double now = 0.0;
  int site = 0;  ///< arriving transaction's home site

  // ---- home-site state (fresh) ----
  int local_cpu_queue = 0;   ///< jobs at the local CPU incl. in service (q_i)
  int local_num_txns = 0;    ///< class A txns resident at the site (n_i)
  int local_locks_held = 0;  ///< (txn, lock) holds in the local lock table
  int shipped_in_flight = 0; ///< class A txns from this site now at central
  double last_local_rt = 0.0;    ///< response time of last locally-run class A
  double last_shipped_rt = 0.0;  ///< response time of last shipped class A

  // ---- central state (stale unless ideal_state_info) ----
  double central_info_age = 0.0;  ///< seconds since the snapshot was taken
  int central_cpu_queue = 0;      ///< q_c
  int central_num_txns = 0;       ///< n_c (resident at central)
  int central_locks_held = 0;     ///< holds in the central lock table

  // ---- failure detection (fault injection; always true without it) ----
  bool central_reachable = true;  ///< central complex currently up

  // ---- observability (null unless obs_sample_interval > 0) ----
  /// Most recent time-series sample, if the sampler has fired yet. Borrowed
  /// from the system; valid only for the duration of the decide() call.
  const obs::SampleRow* last_sample = nullptr;
};

class AdaptiveController;  // routing/adaptive.hpp: review-epoch interface

/// Mutable ship-threshold surface. Implemented by strategies whose routing
/// rule hinges on a single tunable threshold (ThresholdUtilizationStrategy)
/// so the adaptive controller can hill-climb it at run time.
class TunableThreshold {
 public:
  virtual ~TunableThreshold() = default;
  [[nodiscard]] virtual double threshold() const = 0;
  virtual void set_threshold(double threshold) = 0;
};

class RoutingStrategy {
 public:
  virtual ~RoutingStrategy() = default;

  /// Chooses where the arriving class A transaction runs. Called once per
  /// class A arrival; class B transactions never consult the strategy.
  virtual Route decide(const Transaction& txn, const SystemStateView& view) = 0;

  /// Stable identifier used in experiment output.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Adaptive-controller surface when this strategy (or a wrapped inner
  /// one) re-tunes itself on the system's review epoch; nullptr otherwise.
  /// Wrappers forward both hooks to their inner strategy.
  [[nodiscard]] virtual AdaptiveController* controller() { return nullptr; }
  /// Tunable ship-threshold surface, when the strategy has one.
  [[nodiscard]] virtual TunableThreshold* tunable_threshold() {
    return nullptr;
  }
};

}  // namespace hls
