// Measurement container for one simulation run.
//
// Collected by HybridSystem during the measurement window (after warmup is
// discarded) and summarized by the experiment harness. Categories follow the
// paper's six transaction kinds: local / shipped / central, first-run /
// rerun, plus abort causes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "hybrid/transaction.hpp"
#include "obs/phase.hpp"
#include "util/stats.hpp"

namespace hls {

/// One SampleStat per obs::Phase (indexable by the enum).
using PhaseStats = std::array<SampleStat, obs::kPhaseCount>;

/// Phase-time histograms matching Metrics::rt_histogram's binning
/// (Histogram has no default constructor, hence the vector + factory).
[[nodiscard]] inline std::vector<Histogram> make_phase_histograms() {
  return std::vector<Histogram>(obs::kPhaseCount, Histogram{0.1, 400});
}

/// Per-site breakdown: one entry per site in Metrics::sites. Its integer
/// counters are the only store of each count; Metrics' accessors of the
/// same names sum them over the sites. The SampleStats stay next to
/// Metrics' global ones: merging per-site Welford states is not shown to
/// reproduce the global figures bit for bit.
struct SiteMetrics {
  SampleStat rt_local_a;    ///< class A from this site run locally
  SampleStat rt_shipped_a;  ///< class A from this site shipped to central
  PhaseStats rt_phase;      ///< phase breakdown of completions homed here
  std::uint64_t arrivals_class_a = 0;
  std::uint64_t shipped_class_a = 0;  ///< class A arrivals routed to central

  // ---- fault handling, attributed to the home site ----
  std::uint64_t ship_timeouts = 0;   ///< shipped-txn timeout expiries
  std::uint64_t ship_retries = 0;    ///< reships after a timeout
  std::uint64_t ship_fallbacks = 0;  ///< retry budget exhausted; ran locally

  // ---- message-level chaos defenses, attributed to the link's site ----
  /// Deliveries whose per-link sequence number was already processed or
  /// already buffered (duplicate-delivery chaos); the handler never ran.
  std::uint64_t dup_msgs_dropped = 0;
  /// Deliveries that arrived ahead of a sequence gap (reordering chaos) and
  /// were buffered until the gap filled; handlers ran in sequence order.
  std::uint64_t msgs_resequenced = 0;

  // ---- abort provenance, attributed to the victim's home site ----
  std::uint64_t aborts[static_cast<int>(AbortCause::kCount)] = {};
  double wasted_cpu = 0.0;  ///< aborted-attempt CPU of victims homed here
  double wasted_io = 0.0;   ///< aborted-attempt I/O of victims homed here

  [[nodiscard]] std::uint64_t aborts_total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t a : aborts) {
      sum += a;
    }
    return sum;
  }

  [[nodiscard]] double ship_fraction() const {
    return arrivals_class_a > 0
               ? static_cast<double>(shipped_class_a) /
                     static_cast<double>(arrivals_class_a)
               : 0.0;
  }
};

struct Metrics {
  // ---- response times (seconds) ----
  SampleStat rt_all;        ///< the paper's headline: class A and B combined
  SampleStat rt_local_a;    ///< class A run at the home site
  SampleStat rt_shipped_a;  ///< class A shipped to the central site
  SampleStat rt_class_b;
  SampleStat rt_first_try;  ///< transactions that never aborted
  SampleStat rt_rerun;      ///< transactions that aborted at least once
  Histogram rt_histogram{0.1, 400};  ///< 0.1 s bins up to 40 s

  // ---- phase-level breakdown (obs/phase.hpp taxonomy) ----
  // One sample per completion and phase, even when the phase contributed
  // zero seconds, so phase means compose: sum of means == mean of rt_all.
  PhaseStats rt_phase;
  std::vector<Histogram> rt_phase_hist = make_phase_histograms();

  /// Mean seconds a completed transaction spent in `p`.
  [[nodiscard]] double phase_mean(obs::Phase p) const {
    return rt_phase[static_cast<std::size_t>(p)].mean();
  }

  /// Deterministic quantile of the per-phase distribution (e.g. 0.95).
  [[nodiscard]] double phase_quantile(obs::Phase p, double q) const {
    return rt_phase_hist[static_cast<std::size_t>(p)].quantile(q);
  }

  // ---- counts over the measurement window ----
  std::uint64_t arrivals_class_b = 0;
  std::uint64_t completions = 0;
  std::uint64_t completions_local_a = 0;
  std::uint64_t completions_shipped_a = 0;
  std::uint64_t completions_class_b = 0;

  // ---- per-site breakdown ----
  /// One entry per site, sized by reset(). The class-A traffic, fault,
  /// chaos-defense and per-cause abort counts live only here; the global
  /// totals below are sums over the sites.
  std::vector<SiteMetrics> sites;

  [[nodiscard]] int num_sites() const { return static_cast<int>(sites.size()); }

  /// Sum of one per-site counter over every site.
  [[nodiscard]] std::uint64_t site_sum(
      std::uint64_t SiteMetrics::*counter) const {
    std::uint64_t sum = 0;
    for (const SiteMetrics& sm : sites) {
      sum += sm.*counter;
    }
    return sum;
  }

  [[nodiscard]] std::uint64_t arrivals_class_a() const {
    return site_sum(&SiteMetrics::arrivals_class_a);
  }
  /// Class A arrivals routed to central.
  [[nodiscard]] std::uint64_t shipped_class_a() const {
    return site_sum(&SiteMetrics::shipped_class_a);
  }
  [[nodiscard]] std::uint64_t ship_timeouts() const {
    return site_sum(&SiteMetrics::ship_timeouts);
  }
  [[nodiscard]] std::uint64_t ship_retries() const {
    return site_sum(&SiteMetrics::ship_retries);
  }
  [[nodiscard]] std::uint64_t ship_fallbacks() const {
    return site_sum(&SiteMetrics::ship_fallbacks);
  }
  [[nodiscard]] std::uint64_t dup_msgs_dropped() const {
    return site_sum(&SiteMetrics::dup_msgs_dropped);
  }
  [[nodiscard]] std::uint64_t msgs_resequenced() const {
    return site_sum(&SiteMetrics::msgs_resequenced);
  }

  /// Aborts of one cause over every victim home site.
  [[nodiscard]] std::uint64_t aborts(AbortCause cause) const {
    std::uint64_t sum = 0;
    for (const SiteMetrics& sm : sites) {
      sum += sm.aborts[static_cast<int>(cause)];
    }
    return sum;
  }

  /// Total aborts, which is also the total number of re-executions.
  [[nodiscard]] std::uint64_t aborts_total() const {
    std::uint64_t sum = 0;
    for (const SiteMetrics& sm : sites) {
      sum += sm.aborts_total();
    }
    return sum;
  }

  // ---- abort provenance ----
  /// Aborted-attempt time, split by the cause that threw it away.
  double wasted_cpu_by_cause[static_cast<int>(AbortCause::kCount)] = {};
  double wasted_io_by_cause[static_cast<int>(AbortCause::kCount)] = {};
  /// One sample per completion: that transaction's total wasted time
  /// (zero for first-try commits, so the mean composes over completions).
  SampleStat wasted_per_txn;

  /// victim-home-site × winner-home-site abort counts, flattened row-major;
  /// the extra last column counts aborts with no winning transaction
  /// (crash sweeps, ship timeouts, coherence-in-flight refusals). Sized by
  /// reset().
  std::vector<std::uint64_t> conflict_matrix;

  void record_conflict(int victim_site, int winner_site) {
    const int col = winner_site >= 0 ? winner_site : num_sites();
    conflict_matrix[static_cast<std::size_t>(victim_site) *
                        static_cast<std::size_t>(num_sites() + 1) +
                    static_cast<std::size_t>(col)] += 1;
  }

  /// Entry (victim site row, winner site column; column num_sites() = none).
  [[nodiscard]] std::uint64_t conflict(int victim_site, int winner_col) const {
    return conflict_matrix[static_cast<std::size_t>(victim_site) *
                               static_cast<std::size_t>(num_sites() + 1) +
                           static_cast<std::size_t>(winner_col)];
  }

  [[nodiscard]] std::uint64_t conflict_matrix_total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : conflict_matrix) {
      sum += c;
    }
    return sum;
  }

  /// Aborts for which a specific winning transaction was identified
  /// (async-update invalidation, auth preemption, auth refusal by a named
  /// holder, deadlock): the conflict matrix's winner columns. Crash/timeout
  /// aborts have no winner.
  [[nodiscard]] std::uint64_t aborts_with_winner() const {
    std::uint64_t sum = 0;
    for (int v = 0; v < num_sites(); ++v) {
      for (int w = 0; w < num_sites(); ++w) {
        sum += conflict(v, w);
      }
    }
    return sum;
  }

  [[nodiscard]] double wasted_cpu_total() const {
    double s = 0.0;
    for (double w : wasted_cpu_by_cause) {
      s += w;
    }
    return s;
  }

  [[nodiscard]] double wasted_io_total() const {
    double s = 0.0;
    for (double w : wasted_io_by_cause) {
      s += w;
    }
    return s;
  }
  std::uint64_t async_updates_sent = 0;
  std::uint64_t auth_rounds = 0;
  std::uint64_t auth_negative_acks = 0;
  int max_reruns_seen = 0;

  // ---- fault handling (all zero without fault injection) ----
  std::uint64_t central_crashes = 0;
  std::uint64_t central_recoveries = 0;
  std::uint64_t site_crashes = 0;
  std::uint64_t site_recoveries = 0;
  std::uint64_t backlog_replayed = 0;   ///< messages replayed at recovery
  std::uint64_t arrivals_rejected = 0;  ///< arrivals at a crashed site

  // ---- window ----
  double measure_start = 0.0;
  double measure_end = 0.0;

  // ---- utilization (filled in by the driver at window end) ----
  double central_utilization = 0.0;
  double mean_local_utilization = 0.0;
  double central_avg_queue = 0.0;
  double mean_local_avg_queue = 0.0;

  [[nodiscard]] double window_seconds() const { return measure_end - measure_start; }

  /// Completed transactions per second over the measurement window.
  [[nodiscard]] double throughput() const {
    const double w = window_seconds();
    return w > 0 ? static_cast<double>(completions) / w : 0.0;
  }

  /// Fraction of class A arrivals that were shipped to the central site.
  [[nodiscard]] double ship_fraction() const {
    const std::uint64_t arrivals = arrivals_class_a();
    return arrivals > 0 ? static_cast<double>(shipped_class_a()) /
                              static_cast<double>(arrivals)
                        : 0.0;
  }

  /// Average number of runs per completed transaction (1 = no aborts).
  [[nodiscard]] double runs_per_txn() const {
    return completions > 0 ? 1.0 + static_cast<double>(aborts_total()) /
                                       static_cast<double>(completions)
                           : 1.0;
  }

  /// Clears every measurement and opens a window at `now`, with one
  /// SiteMetrics entry and one conflict-matrix row per site.
  void reset(double now, int n_sites) {
    *this = Metrics{};
    measure_start = now;
    measure_end = now;
    sites.resize(static_cast<std::size_t>(n_sites));
    conflict_matrix.assign(static_cast<std::size_t>(n_sites) *
                               static_cast<std::size_t>(n_sites + 1),
                           0);
  }
};

}  // namespace hls
