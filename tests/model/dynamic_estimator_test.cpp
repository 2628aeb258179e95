#include "model/dynamic_estimator.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace hls {
namespace {

SystemConfig base_config() {
  SystemConfig cfg;
  return cfg;
}

SystemStateView make_view(const SystemConfig& cfg, int ql, int qc, int nl, int nc,
                          int locks_l, int locks_c) {
  SystemStateView v;
  v.config = &cfg;
  v.site = 0;
  v.local_cpu_queue = ql;
  v.central_cpu_queue = qc;
  v.local_num_txns = nl;
  v.central_num_txns = nc;
  v.local_locks_held = locks_l;
  v.central_locks_held = locks_c;
  return v;
}

class EstimatorTest : public ::testing::TestWithParam<UtilSource> {
 protected:
  SystemConfig cfg = base_config();
  ModelParams params = ModelParams::from_config(cfg);
};

TEST_P(EstimatorTest, EstimatesAreFiniteAndPositive) {
  DynamicEstimator est(params, GetParam());
  const auto r = est.estimate(make_view(cfg, 3, 5, 4, 20, 30, 100));
  EXPECT_GT(r.r_incoming_local, 0.0);
  EXPECT_GT(r.r_incoming_ship, 0.0);
  EXPECT_GT(r.r_avg_if_local, 0.0);
  EXPECT_GT(r.r_avg_if_ship, 0.0);
  EXPECT_LT(r.r_incoming_local, 1e3);
  EXPECT_LT(r.r_incoming_ship, 1e3);
}

TEST_P(EstimatorTest, EmptySystemPrefersLocal) {
  // With everything idle, shipping still pays the communication legs, so
  // the incoming transaction's local estimate must win.
  DynamicEstimator est(params, GetParam());
  const auto r = est.estimate(make_view(cfg, 0, 0, 0, 0, 0, 0));
  EXPECT_LT(r.r_incoming_local, r.r_incoming_ship);
  EXPECT_LT(r.r_avg_if_local, r.r_avg_if_ship);
}

TEST_P(EstimatorTest, OverloadedLocalSitePrefersShipping) {
  DynamicEstimator est(params, GetParam());
  const auto r = est.estimate(make_view(cfg, 40, 0, 50, 0, 120, 0));
  EXPECT_GT(r.r_incoming_local, r.r_incoming_ship);
  EXPECT_GT(r.r_avg_if_local, r.r_avg_if_ship);
}

TEST_P(EstimatorTest, LocalEstimateMonotoneInLocalBacklog) {
  DynamicEstimator est(params, GetParam());
  double prev = 0.0;
  for (int backlog = 0; backlog <= 40; backlog += 10) {
    const auto r = est.estimate(make_view(cfg, backlog, 2, backlog, 5, 20, 40));
    EXPECT_GE(r.r_incoming_local, prev);
    prev = r.r_incoming_local;
  }
}

TEST_P(EstimatorTest, ShipEstimateMonotoneInCentralBacklog) {
  DynamicEstimator est(params, GetParam());
  double prev = 0.0;
  for (int backlog = 0; backlog <= 60; backlog += 15) {
    const auto r = est.estimate(make_view(cfg, 2, backlog, 3, backlog, 20, 40));
    EXPECT_GE(r.r_incoming_ship, prev);
    prev = r.r_incoming_ship;
  }
}

TEST_P(EstimatorTest, UtilizationsGrowWithState) {
  DynamicEstimator est(params, GetParam());
  const auto idle = est.utilizations(make_view(cfg, 0, 0, 0, 0, 0, 0));
  const auto busy = est.utilizations(make_view(cfg, 8, 30, 10, 40, 0, 0));
  EXPECT_DOUBLE_EQ(idle.first, 0.0);
  EXPECT_DOUBLE_EQ(idle.second, 0.0);
  EXPECT_GT(busy.first, 0.5);
  EXPECT_GT(busy.second, 0.3);
  EXPECT_LE(busy.first, 0.99);
  EXPECT_LE(busy.second, 0.99);
}

TEST_P(EstimatorTest, ContentionRaisesLocalEstimate) {
  DynamicEstimator est(params, GetParam());
  const auto quiet = est.estimate(make_view(cfg, 3, 3, 4, 10, 0, 0));
  const auto contended = est.estimate(make_view(cfg, 3, 3, 4, 10, 800, 3000));
  EXPECT_GT(contended.r_incoming_local, quiet.r_incoming_local);
  EXPECT_GT(contended.r_incoming_ship, quiet.r_incoming_ship);
}

INSTANTIATE_TEST_SUITE_P(Sources, EstimatorTest,
                         ::testing::Values(UtilSource::CpuQueue,
                                           UtilSource::NumInSystem));

TEST(EstimatorHeterogeneity, SlowSiteRaisesLocalEstimateOnly) {
  SystemConfig cfg;
  cfg.num_sites = 2;
  cfg.local_mips_per_site = {0.25, 4.0};  // site 0 slow, site 1 fast
  const ModelParams p = ModelParams::from_config(cfg);
  DynamicEstimator est(p, UtilSource::NumInSystem);
  SystemStateView slow = make_view(cfg, 2, 2, 2, 4, 10, 20);
  slow.site = 0;
  SystemStateView fast = slow;
  fast.site = 1;
  const auto r_slow = est.estimate(slow);
  const auto r_fast = est.estimate(fast);
  // Local CPU terms quadruple on the slow site and quarter on the fast one;
  // the ship estimate differs only by the forwarding burst.
  EXPECT_GT(r_slow.r_incoming_local, 2.0 * r_fast.r_incoming_local);
  EXPECT_NEAR(r_slow.r_incoming_ship, r_fast.r_incoming_ship,
              0.25 * r_fast.r_incoming_ship);
}

TEST(EstimatorHeterogeneity, SpeedFactorDefaultsToOne) {
  SystemConfig cfg;
  SystemStateView v = make_view(cfg, 0, 0, 0, 0, 0, 0);
  EXPECT_DOUBLE_EQ(DynamicEstimator::local_speed_factor(v), 1.0);
  v.config = nullptr;
  EXPECT_DOUBLE_EQ(DynamicEstimator::local_speed_factor(v), 1.0);
}

// ---- exactness of the count-inversion tables ----

// Byte-equal estimates: the tables must hand back exactly what a fresh
// estimator computes, whatever was estimated before.
void expect_same_bytes(const RouteEstimate& a, const RouteEstimate& b,
                       const SystemStateView& v) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
      << "site=" << v.site << " local_num_txns=" << v.local_num_txns
      << " central_num_txns=" << v.central_num_txns;
}

TEST(EstimatorTables, WarmedOutOfOrderMatchesFreshEstimator) {
  SystemConfig homogeneous;
  SystemConfig two_speeds;
  two_speeds.num_sites = 2;
  two_speeds.local_mips_per_site = {0.25, 4.0};
  for (const SystemConfig* cfg : {&homogeneous, &two_speeds}) {
    const ModelParams params = ModelParams::from_config(*cfg);
    std::vector<SystemStateView> views;
    for (int site = 0; site < 2; ++site) {
      for (int n : {-1, 0, 1, 2, 5, 17, 64, 199, 400}) {
        SystemStateView v = make_view(*cfg, n / 4, n / 2, n, 400 - n, 3 * n, 9 * n);
        v.site = site;
        views.push_back(v);
      }
    }
    for (UtilSource source : {UtilSource::CpuQueue, UtilSource::NumInSystem}) {
      DynamicEstimator warmed(params, source);
      // Largest local count first: the tables grow in jumps and are then
      // read below their ends.
      for (auto it = views.rbegin(); it != views.rend(); ++it) {
        (void)warmed.estimate(*it);
      }
      for (const SystemStateView& v : views) {
        expect_same_bytes(warmed.estimate(v),
                          DynamicEstimator(params, source).estimate(v), v);
      }
    }
  }
}

TEST(EstimatorTables, NewSiteSpeedRefillsTheSiteTable) {
  SystemConfig slow_first;
  slow_first.num_sites = 2;
  slow_first.local_mips_per_site = {0.25, 4.0};
  SystemConfig fast_first = slow_first;
  fast_first.local_mips_per_site = {4.0, 0.25};
  DynamicEstimator est(ModelParams::from_config(slow_first),
                       UtilSource::NumInSystem);
  const SystemStateView slow = make_view(slow_first, 2, 2, 30, 4, 10, 20);
  const SystemStateView fast = make_view(fast_first, 2, 2, 30, 4, 10, 20);
  (void)est.estimate(slow);
  expect_same_bytes(est.estimate(fast),
                    DynamicEstimator(ModelParams::from_config(slow_first),
                                     UtilSource::NumInSystem)
                        .estimate(fast),
                    fast);
}

// Hexfloat pins recorded before the abort split ran in one pass and the
// count inversions were tabulated: both changes must keep every bit.
TEST(EstimatorPins, EstimatesKeepTheirBits) {
  struct Pin {
    UtilSource source;
    int site, ql, qc, nl, nc, locks_l, locks_c;
    RouteEstimate want;
  };
  const Pin homogeneous[] = {
      {UtilSource::NumInSystem, 0, 0, 0, 0, 0, 0, 0,
       {0x1.10849ddc1469bp+0, 0x1.242cfb2dda055p+0, 0x1.10849ddc1469bp+0,
        0x1.242cfb2dda055p+0}},
      {UtilSource::NumInSystem, 3, 3, 5, 4, 20, 30, 100,
       {0x1.6819bda7a261ep+1, 0x1.57624b5fda7a7p+0, 0x1.420d38ad6b3e1p+0,
        0x1.217fe76129e16p+0}},
      {UtilSource::NumInSystem, 7, 40, 0, 50, 0, 120, 0,
       {0x1.7cd589b7bd024p+4, 0x1.2f87d7f41dffp+1, 0x1.7cd589b7bd024p+4,
        0x1.761c59be254c4p+4}},
      {UtilSource::NumInSystem, 0, 3, 3, 4, 10, 800, 3000,
       {0x1.8339b80cb7a7bp+2, 0x1.9d64f4b3a98f2p+0, 0x1.60d7cf914b214p+1,
        0x1.1b6f6064630ecp+1}},
      {UtilSource::CpuQueue, 3, 3, 5, 4, 20, 30, 100,
       {0x1.34bed9ae8f7fbp+1, 0x1.617185b36babfp+0, 0x1.38d6bde10ce3p+0,
        0x1.21ecead7e0a4cp+0}},
  };
  const Pin two_speeds[] = {
      {UtilSource::NumInSystem, 1, 2, 2, 2, 4, 10, 20,
       {0x1.21b8ef7f2dc44p-1, 0x1.22decc93d4dc4p+0, 0x1.5173443de4455p-1,
        0x1.70a2f3a84484p-1}},
      {UtilSource::NumInSystem, 0, 2, 2, 2, 4, 10, 20,
       {0x1.d300d1f5e47cfp+2, 0x1.69d7880a90886p+0, 0x1.d0731bf6b7c47p+1,
        0x1.20fc6a1c2c269p+1}},
  };
  SystemConfig het;
  het.num_sites = 2;
  het.local_mips_per_site = {0.25, 4.0};
  const SystemConfig defaults;
  auto check = [](const SystemConfig& cfg, const Pin& pin) {
    SystemStateView v = make_view(cfg, pin.ql, pin.qc, pin.nl, pin.nc,
                                  pin.locks_l, pin.locks_c);
    v.site = pin.site;
    const RouteEstimate got =
        DynamicEstimator(ModelParams::from_config(cfg), pin.source).estimate(v);
    EXPECT_EQ(got.r_incoming_local, pin.want.r_incoming_local);
    EXPECT_EQ(got.r_incoming_ship, pin.want.r_incoming_ship);
    EXPECT_EQ(got.r_avg_if_local, pin.want.r_avg_if_local);
    EXPECT_EQ(got.r_avg_if_ship, pin.want.r_avg_if_ship);
  };
  for (const Pin& pin : homogeneous) {
    check(defaults, pin);
  }
  for (const Pin& pin : two_speeds) {
    check(het, pin);
  }
}

TEST(EstimatorInversion, QueueInversionMatchesMm1) {
  // rho = q/(q+1): spot checks.
  const SystemConfig cfg = base_config();
  DynamicEstimator est(ModelParams::from_config(cfg), UtilSource::CpuQueue);
  const auto u0 = est.utilizations(make_view(cfg, 1, 3, 0, 0, 0, 0));
  EXPECT_NEAR(u0.first, 0.5, 1e-12);
  EXPECT_NEAR(u0.second, 0.75, 1e-12);
}

TEST(EstimatorInversion, CountInversionRecoversUtilizationRoundTrip) {
  // Forward: a station with utilization rho holds rho/(1-rho) jobs at the
  // CPU and (rho/s)*d_nc elsewhere; the inversion must recover rho.
  const SystemConfig cfg = base_config();
  const ModelParams p = ModelParams::from_config(cfg);
  DynamicEstimator est(p, UtilSource::NumInSystem);
  const double s = p.local_cpu(p.instr_msg_init) +
                   p.n_calls * p.local_cpu(p.instr_per_call) +
                   p.local_cpu(p.instr_msg_commit);
  const double d_nc = p.setup_io + p.n_calls * p.call_io;
  // Only higher utilizations round-trip tightly: the view carries integer
  // transaction counts, so small populations quantize coarsely.
  for (double rho : {0.8, 0.9, 0.95}) {
    const double n = rho / (1.0 - rho) + rho / s * d_nc;
    const auto u = est.utilizations(
        make_view(cfg, 0, 0, static_cast<int>(n + 0.5), 0, 0, 0));
    EXPECT_NEAR(u.first, rho, 0.05);
  }
}

}  // namespace
}  // namespace hls
