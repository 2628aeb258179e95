// Routes of the model-driven strategies (curves C-F): the decisions they
// take from the abort split's [0, 1] range must be the ones the exact
// estimate gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "model/dynamic_estimator.hpp"
#include "routing/analytic_strategies.hpp"
#include "util/random.hpp"

namespace hls {
namespace {

Transaction class_a_txn() {
  Transaction t;
  t.id = 1;
  t.cls = TxnClass::A;
  return t;
}

SystemStateView make_view(const SystemConfig& cfg, int site, int ql, int qc,
                          int nl, int nc, int locks_l, int locks_c) {
  SystemStateView v;
  v.config = &cfg;
  v.site = site;
  v.local_cpu_queue = ql;
  v.central_cpu_queue = qc;
  v.local_num_txns = nl;
  v.central_num_txns = nc;
  v.local_locks_held = locks_l;
  v.central_locks_held = locks_c;
  return v;
}

/// Curves C, D, E and F, in that order.
std::vector<std::unique_ptr<RoutingStrategy>> curves_c_to_f(
    const ModelParams& p) {
  std::vector<std::unique_ptr<RoutingStrategy>> out;
  out.push_back(std::make_unique<MinIncomingRtStrategy>(p, UtilSource::CpuQueue));
  out.push_back(std::make_unique<MinIncomingRtStrategy>(p, UtilSource::NumInSystem));
  out.push_back(std::make_unique<MinAverageRtStrategy>(p, UtilSource::CpuQueue));
  out.push_back(std::make_unique<MinAverageRtStrategy>(p, UtilSource::NumInSystem));
  return out;
}

struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void add(std::uint8_t byte) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
};

// FNV-1a over the route bit of every decision curves C-F take on a fixed
// grid of views, recorded before routes were decided from the split's
// range: the grid crosses the decision boundary of every curve on three
// configurations (the paper's, mixed site speeds, slow links under heavy
// contention).
TEST(RoutePin, CurvesCToFKeepTheirRoutes) {
  SystemConfig paper;
  SystemConfig mixed;
  mixed.num_sites = 4;
  mixed.local_mips_per_site = {0.5, 1.0, 2.0, 4.0};
  SystemConfig slow_links;
  slow_links.comm_delay = 0.5;
  slow_links.lockspace = 4000;
  slow_links.prob_write_lock = 0.6;

  Fnv1a fnv;
  int decisions = 0;
  int shipped = 0;
  for (const SystemConfig* cfg : {&paper, &mixed, &slow_links}) {
    auto curves = curves_c_to_f(ModelParams::from_config(*cfg));
    for (int site : {0, cfg->num_sites - 1}) {
      for (int ql : {0, 1, 2, 3, 5, 8}) {
        for (int qc : {0, 3, 8, 20, 45}) {
          for (int nl_extra : {0, 2, 6}) {
            for (int nc : {0, 10, 35, 80, 160}) {
              for (auto [locks_l, locks_c] :
                   {std::pair{0, 0}, {40, 150}, {300, 1200}, {2000, 9000}}) {
                const SystemStateView v = make_view(
                    *cfg, site, ql, qc, ql + nl_extra, nc, locks_l, locks_c);
                for (auto& curve : curves) {
                  const bool ship =
                      curve->decide(class_a_txn(), v) == Route::Central;
                  fnv.add(ship ? 1 : 0);
                  ++decisions;
                  shipped += ship ? 1 : 0;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(decisions, 43200);
  EXPECT_EQ(shipped, 31437);
  EXPECT_EQ(fnv.hash, 0xf0e1735782a332d8ULL) << std::hex << "0x" << fnv.hash;
}

// ---- the range's promise, over seeded views ----

/// A configuration whose CPU path lengths, set-up I/O and link delay are
/// all zero: each rerun length is then the rounding residue of
/// n·(p·t) - (n·p)·t, negative for n = 5, p = 0.7, t = 0.1, and the range
/// must not be taken for a bound.
SystemConfig zero_cpu() {
  SystemConfig cfg;
  cfg.db_calls_per_txn = 5;
  cfg.prob_call_io = 0.7;
  cfg.call_io_time = 0.1;
  cfg.setup_io_time = 0.0;
  cfg.comm_delay = 0.0;
  cfg.instr_per_call = 0.0;
  cfg.instr_msg_init = 0.0;
  cfg.instr_msg_commit = 0.0;
  cfg.instr_ship_forward = 0.0;
  cfg.instr_auth_local = 0.0;
  return cfg;
}

/// Path lengths so short, and no I/O, that with no central locks the
/// central run length falls below 1e-150, where the abort split rescales
/// its lengths before the Simpson pass.
SystemConfig tiny_cpu() {
  SystemConfig cfg = zero_cpu();
  cfg.db_calls_per_txn = 10;
  cfg.call_io_time = 0.0;
  cfg.instr_per_call = 1e-164;
  cfg.instr_msg_init = 1e-164;
  cfg.instr_msg_commit = 1e-164;
  return cfg;
}

std::vector<SystemConfig> property_configs() {
  std::vector<SystemConfig> out(7);
  // out[0]: the paper's parameters.
  out[1].num_sites = 4;
  out[1].local_mips_per_site = {0.25, 1.0, 2.5, 6.0};
  out[2].comm_delay = 0.6;
  out[2].lockspace = 2000;
  out[2].prob_write_lock = 0.8;
  out[3].central_mips = 60.0;
  out[3].num_sites = 3;
  out[3].local_mips_per_site = {3.0, 0.5, 1.0};
  out[4].lockspace = 10;  // one entity per site: every density saturates
  out[5] = zero_cpu();
  out[6] = tiny_cpu();
  return out;
}

/// A count: mostly small, sometimes large, now and then past the 2^16
/// cap of the estimator's count tables.
int draw_count(Rng& rng, int small) {
  const double u = rng.next_double();
  if (u < 0.75) {
    return static_cast<int>(rng.uniform_int(0, small));
  }
  if (u < 0.93) {
    return static_cast<int>(rng.uniform_int(0, 20 * small));
  }
  return static_cast<int>(rng.uniform_int(1 << 16, 300000));
}

/// A lock count: zero a quarter of the time, else up to `large`.
int draw_locks(Rng& rng, int large) {
  const double u = rng.next_double();
  if (u < 0.25) {
    return 0;
  }
  if (u < 0.8) {
    return static_cast<int>(rng.uniform_int(1, std::max(1, large / 20)));
  }
  return static_cast<int>(rng.uniform_int(1, large));
}

struct Field {
  const char* name;
  double RouteEstimate::*member;
};
constexpr Field kFields[] = {
    {"r_incoming_local", &RouteEstimate::r_incoming_local},
    {"r_incoming_ship", &RouteEstimate::r_incoming_ship},
    {"r_avg_if_local", &RouteEstimate::r_avg_if_local},
    {"r_avg_if_ship", &RouteEstimate::r_avg_if_ship},
};

std::string describe(const SystemStateView& v, int config, UtilSource source) {
  return "config=" + std::to_string(config) + " source=" +
         (source == UtilSource::CpuQueue ? "queue" : "nsys") +
         " site=" + std::to_string(v.site) + " ql=" +
         std::to_string(v.local_cpu_queue) + " qc=" +
         std::to_string(v.central_cpu_queue) + " nl=" +
         std::to_string(v.local_num_txns) + " nc=" +
         std::to_string(v.central_num_txns) + " locks_l=" +
         std::to_string(v.local_locks_held) + " locks_c=" +
         std::to_string(v.central_locks_held);
}

// For every view, each of curves C-F routes as the exact estimate compares,
// and every field of the exact estimate lies in the range's bounds.
TEST(RouteRange, BoundsTheEstimateAndKeepsEveryRoute) {
  const std::vector<SystemConfig> configs = property_configs();
  struct PerConfig {
    DynamicEstimator exact[2];
    std::vector<std::unique_ptr<RoutingStrategy>> curves;
  };
  std::vector<PerConfig> per;
  for (const SystemConfig& cfg : configs) {
    const ModelParams p = ModelParams::from_config(cfg);
    per.push_back({{DynamicEstimator(p, UtilSource::CpuQueue),
                    DynamicEstimator(p, UtilSource::NumInSystem)},
                   curves_c_to_f(p)});
  }

  Rng rng(20261018);
  constexpr int kViews = 24000;
  int settled = 0;   // routes the range decides
  int open = 0;      // ranges that leave the route to estimate()
  int no_range = 0;  // views estimate_range declines
  for (int i = 0; i < kViews; ++i) {
    const int c = static_cast<int>(rng.next_below(configs.size()));
    const SystemConfig& cfg = configs[static_cast<std::size_t>(c)];
    PerConfig& at = per[static_cast<std::size_t>(c)];
    const int ql = draw_count(rng, 8);
    const int qc = draw_count(rng, 30);
    const int lockspace = static_cast<int>(cfg.lockspace);
    const SystemStateView v = make_view(
        cfg, static_cast<int>(rng.next_below(static_cast<std::uint64_t>(cfg.num_sites))),
        ql, qc, ql + draw_count(rng, 6), qc + draw_count(rng, 60),
        draw_locks(rng, 2 * lockspace / cfg.num_sites), draw_locks(rng, 4 * lockspace));
    for (int s = 0; s < 2; ++s) {
      const UtilSource source = s == 0 ? UtilSource::CpuQueue : UtilSource::NumInSystem;
      const DynamicEstimator& estimator = at.exact[s];
      const RouteEstimate exact = estimator.estimate(v);
      const std::optional<RouteRange> range = estimator.estimate_range(v);
      if (range) {
        for (const Field& f : kFields) {
          ASSERT_LE(range->lo.*f.member, exact.*f.member)
              << f.name << " " << describe(v, c, source);
          ASSERT_LE(exact.*f.member, range->hi.*f.member)
              << f.name << " " << describe(v, c, source);
        }
      }
      // Curves C and E use the queue source, D and F the count source.
      const Field objectives[2][2] = {{kFields[1], kFields[0]},
                                      {kFields[3], kFields[2]}};
      for (int objective = 0; objective < 2; ++objective) {
        const Field& ship = objectives[objective][0];
        const Field& local = objectives[objective][1];
        const Route want =
            exact.*ship.member < exact.*local.member ? Route::Central : Route::Local;
        RoutingStrategy& curve =
            *at.curves[static_cast<std::size_t>(2 * objective + s)];
        ASSERT_EQ(curve.decide(class_a_txn(), v), want)
            << curve.name() << " " << describe(v, c, source);
        if (!range) {
          ++no_range;
        } else if (range->hi.*ship.member < range->lo.*local.member ||
                   range->lo.*ship.member >= range->hi.*local.member) {
          ++settled;
        } else {
          ++open;
        }
      }
    }
  }
  // Every path was taken: routes settled by the range, ranges left open,
  // views with no range at all.
  const std::string counts = "settled " + std::to_string(settled) + ", open " +
                             std::to_string(open) + ", no range " +
                             std::to_string(no_range);
  EXPECT_GT(settled, kViews) << counts;
  EXPECT_GT(open, 1000) << counts;
  EXPECT_GT(no_range, 1000) << counts;
}

TEST(RouteRange, BoundsTheEstimateAtATinyCentralLength) {
  // The split at this view's central run length was NaN, which took
  // P_abort_central to its 0.9 cap, above either end's, so the view had no
  // range. The split is a probability at every length now: the range holds
  // and bounds the exact estimate, as with central locks.
  const SystemConfig cfg = tiny_cpu();
  DynamicEstimator estimator(ModelParams::from_config(cfg), UtilSource::NumInSystem);
  for (const int locks_c : {0, 5000}) {
    const SystemStateView v = make_view(cfg, 0, 1, 2, 1, 2, 40, locks_c);
    const std::optional<RouteRange> range = estimator.estimate_range(v);
    ASSERT_TRUE(range.has_value()) << "locks_c=" << locks_c;
    const RouteEstimate exact = estimator.estimate(v);
    for (const Field& f : kFields) {
      EXPECT_TRUE(std::isfinite(exact.*f.member)) << f.name;
      EXPECT_LE(range->lo.*f.member, exact.*f.member) << f.name;
      EXPECT_LE(exact.*f.member, range->hi.*f.member) << f.name;
    }
  }
}

// The kinds of view estimate_range must decline, one at a time.
TEST(RouteRange, NoneWhereALockCountIsNegative) {
  // No run produces one, but a view is plain data: a negative central
  // count makes P_abort_local fall as the split rises.
  const SystemConfig cfg;
  DynamicEstimator estimator(ModelParams::from_config(cfg), UtilSource::CpuQueue);
  const SystemStateView one = make_view(cfg, 0, 1, 2, 1, 2, 40, 1);
  const SystemStateView minus_one = make_view(cfg, 0, 1, 2, 1, 2, 40, -1);
  EXPECT_TRUE(estimator.estimate_range(one).has_value());
  EXPECT_FALSE(estimator.estimate_range(minus_one).has_value());
}

TEST(RouteRange, NoneWhereARerunLengthIsNegative) {
  // The residue's sign, as zero_cpu() relies on it.
  const double n = 5.0;
  const double p = 0.7;
  const double t = 0.1;
  ASSERT_LT(n * (p * t), n * p * t);
  const SystemConfig cfg = zero_cpu();
  DynamicEstimator estimator(ModelParams::from_config(cfg), UtilSource::CpuQueue);
  // No local locks: the local call time is exactly p·t, and the central
  // locks make the split's local coefficient positive.
  const SystemStateView v = make_view(cfg, 0, 1, 2, 1, 2, 0, 5000);
  EXPECT_FALSE(estimator.estimate_range(v).has_value());
  const SystemStateView with_local_locks = make_view(cfg, 0, 1, 2, 1, 2, 40, 5000);
  EXPECT_TRUE(estimator.estimate_range(with_local_locks).has_value());
}

TEST(RouteRange, NoneWhereAnEndOverflows) {
  // A local message-init burst of about 1.2e307 s: run locally, the
  // incoming transaction doubles the local CPU factor, so the local path's
  // time overflows at the split's most-aborts end, and at the exact split
  // too. With no local residents, 0 · inf makes the exact local average
  // NaN, and curve E routes Local; the fewest-aborts end alone would have
  // shipped.
  SystemConfig cfg;
  cfg.local_mips = 1e-10;
  cfg.instr_msg_init = 1.2e303;
  const ModelParams p = ModelParams::from_config(cfg);
  DynamicEstimator estimator(p, UtilSource::CpuQueue);
  const SystemStateView v = make_view(cfg, 0, 0, 0, 0, 3, 0, 100000);
  const RouteEstimate exact = estimator.estimate(v);
  ASSERT_TRUE(std::isnan(exact.r_avg_if_local));
  EXPECT_FALSE(estimator.estimate_range(v).has_value());
  EXPECT_EQ(MinAverageRtStrategy(p, UtilSource::CpuQueue).decide(class_a_txn(), v),
            Route::Local);
}

}  // namespace
}  // namespace hls
