#include "model/dynamic_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "model/residuals.hpp"
#include "util/assert.hpp"

namespace hls {

namespace {
constexpr double kRhoCap = 0.98;
}

DynamicEstimator::DynamicEstimator(ModelParams base, UtilSource source)
    : base_(base), source_(source) {
  // Per-transaction CPU demand and non-CPU residence at each tier, used by
  // the number-in-system inversion (§3.2.1b: "the fraction of time each
  // transaction spends at the CPU, times the number of transactions").
  const double n = base_.n_calls;
  s_local_ = base_.local_cpu(base_.instr_msg_init) +
             n * base_.local_cpu(base_.instr_per_call) +
             base_.local_cpu(base_.instr_msg_commit);
  dnc_local_ = base_.setup_io + n * base_.prob_call_io * base_.call_io;

  s_central_ = base_.central_cpu(base_.instr_msg_init) +
               n * base_.central_cpu(base_.instr_per_call) +
               base_.central_cpu(base_.instr_msg_commit);
  dnc_central_ = base_.setup_io + n * base_.prob_call_io * base_.call_io +
                 2.0 * base_.comm_delay;  // authentication round trip
}

double DynamicEstimator::rho_from_queue(int queue, double extra) const {
  // M/M/1 inversion: E[N] = rho/(1-rho)  =>  rho = N/(N+1); `extra` adds the
  // incoming transaction's presence on the candidate side (the paper's
  // correction terms a / alpha in §3.2.1).
  const double q = std::max(0.0, static_cast<double>(queue)) + extra;
  return std::min(kRhoCap, q / (q + 1.0));
}

double DynamicEstimator::rho_from_count(int count, double extra, double s,
                                        double d_nc) {
  // Solve n = rho/(1-rho) + (rho/s) * d_nc for rho: the first term is the
  // M/M/1 population at the CPU, the second is Little's law over the
  // non-CPU residence (throughput rho/s times delay d_nc). Monotone in rho,
  // so bisection converges unconditionally.
  const double n = std::max(0.0, static_cast<double>(count)) + extra;
  if (n <= 0.0) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = kRhoCap;
  for (int i = 0; i < 60; ++i) {
    const double mid = (lo + hi) / 2.0;
    const double predicted = mid / (1.0 - mid) + mid / s * d_nc;
    if (predicted < n) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

double DynamicEstimator::tabulated_rho(CountTable& table, int count, int extra,
                                       double s, double d_nc) {
  // Entry k serves every (count, extra) pair that rho_from_count reads as
  // n = k. Counts past the cap are not worth the memory; they bisect anew.
  constexpr std::size_t kMaxEntries = std::size_t{1} << 16;
  // One block covers the counts of the paper's loads. Growing from empty by
  // doubling freed about 80 small blocks per run, which made the next run's
  // set-up measurably slower.
  constexpr std::size_t kFirstBlock = 256;
  const std::size_t k =
      static_cast<std::size_t>(std::max(0, count)) + static_cast<std::size_t>(extra);
  if (k >= kMaxEntries) {
    return rho_from_count(count, extra, s, d_nc);
  }
  if (table.s != s) {
    table.s = s;
    table.rho.clear();
  }
  table.rho.reserve(kFirstBlock);
  while (table.rho.size() <= k) {
    table.rho.push_back(
        rho_from_count(static_cast<int>(table.rho.size()), 0.0, s, d_nc));
  }
  return table.rho[k];
}

std::pair<double, double> DynamicEstimator::utilizations(
    const SystemStateView& view) const {
  if (source_ == UtilSource::CpuQueue) {
    return {rho_from_queue(view.local_cpu_queue, 0.0),
            rho_from_queue(view.central_cpu_queue, 0.0)};
  }
  return {rho_from_count(view.local_num_txns, 0.0, s_local_, dnc_local_),
          rho_from_count(view.central_num_txns, 0.0, s_central_, dnc_central_)};
}

double DynamicEstimator::local_speed_factor(const SystemStateView& view) {
  if (view.config == nullptr || view.config->local_mips_per_site.empty()) {
    return 1.0;
  }
  return view.config->local_mips / view.config->site_mips(view.site);
}

DynamicEstimator::FixedPoint DynamicEstimator::fixed_point(
    double rho_l, double rho_c, double speed, const SystemStateView& view) const {
  const ModelParams& p = base_;
  const double n = p.n_calls;
  const double part = p.partition();
  const double conflict = p.conflict_factor();
  const double d = p.comm_delay;
  const double f_l = 1.0 / (1.0 - rho_l);
  const double f_c = 1.0 / (1.0 - rho_c);

  // Contention probabilities from the observed lock counts (§3.2.1:
  // "P = n_lock / lockspace"). Central locks are spread over the whole
  // space; the share relevant to this site's partition is locks/num_sites.
  const double p_ll =
      std::min(1.0, view.local_locks_held / part * conflict);
  const double p_cc = std::min(
      1.0, static_cast<double>(view.central_locks_held) / p.lockspace * conflict);
  const double p_cross =
      std::min(1.0, view.central_locks_held / static_cast<double>(p.num_sites) /
                        part * conflict);

  // Two passes stabilize the hold-time / wait-time coupling at fixed rho.
  double beta_l = 0.5, beta_c = 0.5;
  double t_exec_l = 0.5, t_exec_c = 0.2, commit_l = 0.0, commit_c = 0.0;
  for (int pass = 0; pass < 8; ++pass) {
    const double wait_l = p_ll * beta_l / 2.0 + p_cross * d;
    const double call_l = speed * p.local_cpu(p.instr_per_call) * f_l +
                          p.prob_call_io * p.call_io + wait_l;
    commit_l = speed * p.local_cpu(p.instr_msg_commit) * f_l;
    t_exec_l = n * call_l;
    beta_l = (n + 1.0) / 2.0 * call_l + commit_l;

    const double wait_c = p_cc * beta_c / 2.0;
    const double call_c =
        p.central_cpu(p.instr_per_call) * f_c + p.prob_call_io * p.call_io + wait_c;
    commit_c = p.central_cpu(p.instr_msg_commit) * f_c;
    t_exec_c = n * call_c;
    beta_c = (n + 1.0) / 2.0 * call_c + commit_c + 2.0 * d;
  }

  FixedPoint fp;
  fp.local_len = t_exec_l + commit_l;
  fp.central_len = t_exec_c + commit_c;
  // Abort probabilities via the residual-time split of §3.1, driven by the
  // observed cross-tier lock densities: the local lock density is p_ll.
  fp.local_aborts = n * p_cross;
  fp.central_aborts = n * p_ll;

  const double auth_phase =
      2.0 * d + speed * p.local_cpu(p.instr_auth_local) * f_l;
  fp.r_l_first = speed * p.local_cpu(p.instr_msg_init) * f_l + p.setup_io +
                 t_exec_l + commit_l;
  fp.r_l_rerun = speed * p.local_cpu(p.instr_msg_init) * f_l +
                 (t_exec_l - n * p.prob_call_io * p.call_io) + commit_l;
  fp.r_c_first = p.central_cpu(p.instr_msg_init) * f_c + p.setup_io + t_exec_c +
                 commit_c + auth_phase;
  fp.r_c_rerun = p.central_cpu(p.instr_msg_init) * f_c +
                 (t_exec_c - n * p.prob_call_io * p.call_io) + commit_c +
                 auth_phase;
  fp.ship_legs = speed * p.local_cpu(p.instr_ship_forward) * f_l + 2.0 * d;
  return fp;
}

DynamicEstimator::Rts DynamicEstimator::finish(const FixedPoint& fp,
                                               const AbortSplit& split) {
  const double p_a_l =
      std::min(0.9, fp.local_aborts * split.local_requester_outlives);
  const double p_a_c =
      std::min(0.9, fp.central_aborts * (1.0 - split.local_holder_outlives));
  Rts out;
  out.r_local =
      fp.r_l_first + p_a_l / (1.0 - std::min(0.9, p_a_l)) * fp.r_l_rerun;
  out.r_central =
      fp.r_c_first + p_a_c / (1.0 - std::min(0.9, p_a_c)) * fp.r_c_rerun;
  out.r_shipped = fp.ship_legs + out.r_central;
  return out;
}

DynamicEstimator::Options DynamicEstimator::options(
    const SystemStateView& view) const {
  const double speed = local_speed_factor(view);

  // Option 1: run locally — the incoming transaction loads the local CPU.
  // Option 2: ship — it loads the central CPU.
  double rho_l_opt1;
  double rho_c_opt1;
  double rho_l_opt2;
  double rho_c_opt2;
  if (source_ == UtilSource::CpuQueue) {
    // The incoming transaction contributes its CPU-time fraction, not a
    // whole queued job (it spends most of its residence in I/O and, when
    // shipped, in communication) — the paper's alpha correction in §3.2.1a.
    const double a_l = s_local_ / (s_local_ + dnc_local_);
    const double a_c = s_central_ / (s_central_ + dnc_central_);
    rho_l_opt1 = rho_from_queue(view.local_cpu_queue, a_l);
    rho_c_opt1 = rho_from_queue(view.central_cpu_queue, 0.0);
    rho_l_opt2 = rho_from_queue(view.local_cpu_queue, 0.0);
    rho_c_opt2 = rho_from_queue(view.central_cpu_queue, a_c);
  } else {
    const double s_site = s_local_ * speed;
    HLS_ASSERT(view.site >= 0, "negative site index");
    const auto site = static_cast<std::size_t>(view.site);
    if (site >= local_rho_.size()) {
      local_rho_.resize(site + 1);
    }
    CountTable& local = local_rho_[site];
    rho_l_opt1 = tabulated_rho(local, view.local_num_txns, 1, s_site, dnc_local_);
    rho_c_opt1 = tabulated_rho(central_rho_, view.central_num_txns, 0, s_central_,
                               dnc_central_);
    rho_l_opt2 = tabulated_rho(local, view.local_num_txns, 0, s_site, dnc_local_);
    rho_c_opt2 = tabulated_rho(central_rho_, view.central_num_txns, 1, s_central_,
                               dnc_central_);
  }
  return {fixed_point(rho_l_opt1, rho_c_opt1, speed, view),
          fixed_point(rho_l_opt2, rho_c_opt2, speed, view)};
}

RouteEstimate DynamicEstimator::combine(const Rts& run_local, const Rts& ship,
                                        const SystemStateView& view) {
  RouteEstimate est;
  est.r_incoming_local = run_local.r_local;
  est.r_incoming_ship = ship.r_shipped;

  // §3.2.2: estimated average over the currently running transactions plus
  // the incoming one, for each option. The incoming transaction contributes
  // its full path cost (including the shipping legs when routed centrally);
  // residents contribute their remaining-path estimates.
  const double n_l = std::max(0, view.local_num_txns);
  const double n_c = std::max(0, view.central_num_txns);
  const double total = n_l + n_c + 1.0;
  est.r_avg_if_local = (n_l * run_local.r_local + n_c * run_local.r_central +
                        run_local.r_local) /
                       total;
  est.r_avg_if_ship =
      (n_l * ship.r_local + n_c * ship.r_central + ship.r_shipped) / total;
  return est;
}

RouteEstimate DynamicEstimator::estimate(const SystemStateView& view) const {
  const Options opt = options(view);
  const double d = base_.comm_delay;
  return combine(
      finish(opt.run_local,
             abort_split(opt.run_local.local_len, opt.run_local.central_len, d)),
      finish(opt.ship, abort_split(opt.ship.local_len, opt.ship.central_len, d)),
      view);
}

std::optional<RouteRange> DynamicEstimator::estimate_range(
    const SystemStateView& view) const {
  // finish() and combine() reach the four times from the split through
  // correctly rounded +, -, *, / and min, each monotone in the split while
  // the abort coefficients and rerun lengths are non-negative: P_abort_local
  // rises with local_requester_outlives and P_abort_central falls with
  // local_holder_outlives. abort_split returns both in [0, 1] at every
  // length, so the split's two ends bound every time.
  const auto bracketed = [](const FixedPoint& fp) {
    return fp.local_aborts >= 0.0 && fp.central_aborts >= 0.0 &&
           fp.r_l_rerun >= 0.0 && fp.r_c_rerun >= 0.0;
  };
  const Options opt = options(view);
  if (!bracketed(opt.run_local) || !bracketed(opt.ship)) {
    return std::nullopt;
  }
  constexpr AbortSplit kFewestAborts{0.0, 1.0};
  constexpr AbortSplit kMostAborts{1.0, 0.0};
  const RouteRange range{
      combine(finish(opt.run_local, kFewestAborts),
              finish(opt.ship, kFewestAborts), view),
      combine(finish(opt.run_local, kMostAborts), finish(opt.ship, kMostAborts),
              view)};
  // An infinite time can meet a zero weight in combine()'s averages, whose
  // NaN would escape the bounds; finite ends keep every time between them
  // finite too.
  for (const RouteEstimate& e : {range.lo, range.hi}) {
    if (!std::isfinite(e.r_incoming_local) || !std::isfinite(e.r_incoming_ship) ||
        !std::isfinite(e.r_avg_if_local) || !std::isfinite(e.r_avg_if_ship)) {
      return std::nullopt;
    }
  }
  return range;
}

}  // namespace hls
