// State-based response-time estimation for the dynamic strategies (§3.2).
//
// Where the static model works from arrival rates, the dynamic estimator
// works from the observed system state at decision time:
//
//   * utilization is inverted from the CPU queue length
//     (rho = (q+a)/(q+1+a), the M/M/1 inversion with the incoming
//     transaction's contribution `a` added on the side it would be routed
//     to), or from the number of transactions in system
//     (rho = alpha * (n+a), alpha being the fraction of its residence a
//     transaction spends at the CPU) — the paper's two variants §3.2.1(a)
//     and (b);
//   * contention probabilities come from the observed lock counts
//     (e.g. P = n_lock / lockspace) rather than rate * hold-time products;
//   * abort probabilities reuse the residual-time split of the static model.
//
// The estimator returns both the incoming transaction's estimated response
// time for each routing option (§3.2.1) and the estimated average response
// time over all currently running transactions (§3.2.2).
#pragma once

#include <optional>
#include <vector>

#include "model/params.hpp"
#include "routing/strategy.hpp"

namespace hls {

struct AbortSplit;  // model/residuals.hpp

enum class UtilSource {
  CpuQueue,     ///< utilization from CPU queue lengths (§3.2.1a)
  NumInSystem,  ///< utilization from transactions-in-system counts (§3.2.1b)
};

struct RouteEstimate {
  // Estimated response time of the incoming transaction.
  double r_incoming_local = 0.0;
  double r_incoming_ship = 0.0;
  // Estimated average response time over all running transactions for each
  // routing option (the §3.2.2 objective).
  double r_avg_if_local = 0.0;
  double r_avg_if_ship = 0.0;
};

/// Bounds on estimate(view), field by field: `lo` with the abort split at
/// its fewest-aborts end {0, 1}, `hi` at its most-aborts end {1, 0}.
struct RouteRange {
  RouteEstimate lo;
  RouteEstimate hi;
};

class DynamicEstimator {
 public:
  DynamicEstimator(ModelParams base, UtilSource source);

  [[nodiscard]] RouteEstimate estimate(const SystemStateView& view) const;

  /// estimate(view) without the abort splits: each option's fixed point
  /// runs once and finishes with the split pinned at both ends of [0, 1].
  /// When it returns a range, lo <= estimate(view) <= hi holds for every
  /// field, and all eight bounds are finite. It returns none when that
  /// cannot be promised: a negative rerun length or abort coefficient, or
  /// a central length for which the split is not a number.
  [[nodiscard]] std::optional<RouteRange> estimate_range(
      const SystemStateView& view) const;

  /// Utilization pair (local, central) inverted from the observed state,
  /// without any incoming-transaction correction.
  [[nodiscard]] std::pair<double, double> utilizations(
      const SystemStateView& view) const;

  [[nodiscard]] UtilSource source() const { return source_; }

  /// Local-CPU scale factor for the arriving site (per-site MIPS override;
  /// 1 when the configuration is homogeneous or absent).
  [[nodiscard]] static double local_speed_factor(const SystemStateView& view);

 private:
  struct Rts {
    double r_local = 0.0;    ///< class A run locally
    double r_shipped = 0.0;  ///< class A shipped (incl. both comm legs)
    double r_central = 0.0;  ///< a central-resident transaction (no ship leg)
  };
  /// Everything of one option's response times that the abort split does
  /// not change: the hold-time fixed point and the run lengths it gives.
  struct FixedPoint {
    double local_len = 0.0;    ///< the split's local run length
    double central_len = 0.0;  ///< the split's central run length
    /// P_abort_local per unit of split.local_requester_outlives.
    double local_aborts = 0.0;
    /// P_abort_central per unit of 1 - split.local_holder_outlives.
    double central_aborts = 0.0;
    double r_l_first = 0.0;
    double r_l_rerun = 0.0;
    double r_c_first = 0.0;
    double r_c_rerun = 0.0;
    double ship_legs = 0.0;  ///< forwarding burst plus both comm legs
  };
  /// The two routing options' fixed points: run locally, ship.
  struct Options {
    FixedPoint run_local;
    FixedPoint ship;
  };

  [[nodiscard]] Options options(const SystemStateView& view) const;
  /// Fixed point under given utilizations and observed lock counts.
  /// `speed` scales local CPU times for heterogeneous sites (1 = the
  /// configured default local_mips; 0.5 = a site twice as fast).
  [[nodiscard]] FixedPoint fixed_point(double rho_l, double rho_c, double speed,
                                       const SystemStateView& view) const;
  /// Response times of a fixed point under an abort split.
  [[nodiscard]] static Rts finish(const FixedPoint& fp, const AbortSplit& split);
  [[nodiscard]] static RouteEstimate combine(const Rts& run_local,
                                             const Rts& ship,
                                             const SystemStateView& view);

  [[nodiscard]] double rho_from_queue(int queue, double extra) const;
  /// Inverts "transactions in system" to utilization by Little's law:
  /// n = rho/(1-rho) + rho * d_nc / s, where s is the CPU demand per
  /// transaction and d_nc its non-CPU residence (I/O, lock-free delays).
  [[nodiscard]] static double rho_from_count(int count, double extra, double s,
                                             double d_nc);

  /// rho_from_count(k, 0, s, d_nc) for k = 0, 1, ..., grown on demand. Once
  /// the tier and the site speed are fixed the inversion depends only on the
  /// count, and count + extra is the one double it reads.
  struct CountTable {
    double s = 0.0;  ///< CPU demand the entries were computed for
    std::vector<double> rho;
  };
  /// rho_from_count(count, extra, s, d_nc), read from `table`.
  [[nodiscard]] static double tabulated_rho(CountTable& table, int count,
                                            int extra, double s, double d_nc);

  ModelParams base_;
  UtilSource source_;
  double s_local_;     ///< CPU seconds per local transaction
  double dnc_local_;   ///< non-CPU residence of a local transaction
  double s_central_;   ///< CPU seconds per central transaction
  double dnc_central_; ///< non-CPU residence of a central transaction
  // Caches of rho_from_count, filled by estimate(): one for the central
  // tier and one per site for the local tier, whose CPU demand scales with
  // the site's speed.
  mutable CountTable central_rho_;
  mutable std::vector<CountTable> local_rho_;
};

}  // namespace hls
