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

#include <vector>

#include "model/params.hpp"
#include "routing/strategy.hpp"

namespace hls {

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

class DynamicEstimator {
 public:
  DynamicEstimator(ModelParams base, UtilSource source);

  [[nodiscard]] RouteEstimate estimate(const SystemStateView& view) const;

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
  /// Response times under given utilizations and observed lock counts.
  /// `speed` scales local CPU times for heterogeneous sites (1 = the
  /// configured default local_mips; 0.5 = a site twice as fast).
  [[nodiscard]] Rts response_times(double rho_l, double rho_c, double speed,
                                   const SystemStateView& view) const;

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
