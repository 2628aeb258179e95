#include "model/analytic_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace hls {
namespace {

ModelParams baseline(double total_tps, double p_ship) {
  ModelParams p;  // paper defaults
  p.lambda_site = total_tps / p.num_sites;
  p.p_ship = p_ship;
  return p;
}

TEST(AnalyticModel, ConvergesAtModerateLoad) {
  const ModelSolution s = AnalyticModel().solve(baseline(20.0, 0.3));
  EXPECT_TRUE(s.converged);
  EXPECT_FALSE(s.saturated);
  EXPECT_GT(s.iterations, 4);
}

TEST(AnalyticModel, ResponseTimesArePositiveAndOrdered) {
  const ModelSolution s = AnalyticModel().solve(baseline(15.0, 0.3));
  EXPECT_GT(s.r_local_first, 0.0);
  EXPECT_GT(s.r_shipped_first, 0.0);
  // Rerun skips I/O, so it is faster than a first run.
  EXPECT_LT(s.r_local_rerun, s.r_local_first);
  EXPECT_LT(s.r_central_rerun, s.r_shipped_first);
  // With-rerun averages can only exceed first-run times.
  EXPECT_GE(s.r_local, s.r_local_first);
  EXPECT_GE(s.r_shipped, s.r_shipped_first);
}

TEST(AnalyticModel, ShippedPaysCommunicationDelay) {
  ModelParams p = baseline(5.0, 0.5);
  const ModelSolution s = AnalyticModel().solve(p);
  // Shipped transactions carry at least the two communication legs plus the
  // authentication round trip.
  EXPECT_GT(s.r_shipped_first, 4.0 * p.comm_delay);
}

TEST(AnalyticModel, UtilizationMatchesHandComputationAtLightLoad) {
  ModelParams p = baseline(5.0, 0.0);
  p.prob_write = 0.0;  // no async updates: utilization is pure pathlength
  const ModelSolution s = AnalyticModel().solve(p);
  // Local class A work: 0.375 txn/s/site * 450K instr / 1 MIPS = 0.16875,
  // plus forwarding of class B inputs 0.125 * 15K = 0.001875.
  EXPECT_NEAR(s.rho_local, 0.1706, 0.01);
  // Central: 1.25 txn/s * 450K / 15 MIPS = 0.0375.
  EXPECT_NEAR(s.rho_central, 0.0375, 0.005);
}

TEST(AnalyticModel, ResponseTimeIncreasesWithLoad) {
  double prev = 0.0;
  for (double tps : {5.0, 10.0, 15.0, 20.0, 25.0}) {
    const ModelSolution s = AnalyticModel().solve(baseline(tps, 0.0));
    EXPECT_GT(s.r_avg, prev);
    prev = s.r_avg;
  }
}

TEST(AnalyticModel, LocalUtilizationFallsWithShipping) {
  const ModelSolution none = AnalyticModel().solve(baseline(25.0, 0.0));
  const ModelSolution half = AnalyticModel().solve(baseline(25.0, 0.5));
  EXPECT_LT(half.rho_local, none.rho_local);
  EXPECT_GT(half.rho_central, none.rho_central);
}

TEST(AnalyticModel, SaturationFlagRaisedAtOverload) {
  const ModelSolution s = AnalyticModel().solve(baseline(60.0, 0.0));
  EXPECT_TRUE(s.saturated);
}

TEST(AnalyticModel, NoCrossTierAbortsWithoutCentralTransactions) {
  ModelParams p = baseline(10.0, 0.0);
  p.p_loc = 1.0;  // no class B, nothing ships
  const ModelSolution s = AnalyticModel().solve(p);
  EXPECT_NEAR(s.p_abort_local, 0.0, 1e-9);
}

TEST(AnalyticModel, AbortProbabilitiesRiseWithLoad) {
  const ModelSolution lo = AnalyticModel().solve(baseline(8.0, 0.3));
  const ModelSolution hi = AnalyticModel().solve(baseline(28.0, 0.3));
  EXPECT_GE(hi.p_abort_local, lo.p_abort_local);
  EXPECT_GE(hi.p_abort_central, lo.p_abort_central);
}

TEST(AnalyticModel, ContentionScalesWithWriteFraction) {
  ModelParams reads = baseline(20.0, 0.3);
  reads.prob_write = 0.05;
  ModelParams writes = baseline(20.0, 0.3);
  writes.prob_write = 0.8;
  const ModelSolution sr = AnalyticModel().solve(reads);
  const ModelSolution sw = AnalyticModel().solve(writes);
  EXPECT_LT(sr.p_contention_local, sw.p_contention_local);
  EXPECT_LT(sr.p_abort_central, sw.p_abort_central);
}

TEST(AnalyticModel, LargerLockSpaceReducesContention) {
  ModelParams small = baseline(20.0, 0.3);
  small.lockspace = 4096;
  ModelParams large = baseline(20.0, 0.3);
  large.lockspace = 262144;
  const ModelSolution ss = AnalyticModel().solve(small);
  const ModelSolution sl = AnalyticModel().solve(large);
  EXPECT_GT(ss.p_contention_local, sl.p_contention_local);
  EXPECT_GT(ss.p_abort_local, sl.p_abort_local);
}

TEST(AnalyticModel, CommDelayOnlyHurtsShippedPath) {
  ModelParams near = baseline(10.0, 0.4);
  near.comm_delay = 0.1;
  ModelParams far = baseline(10.0, 0.4);
  far.comm_delay = 0.5;
  const ModelSolution sn = AnalyticModel().solve(near);
  const ModelSolution sf = AnalyticModel().solve(far);
  EXPECT_GT(sf.r_shipped - sn.r_shipped, 4.0 * (0.5 - 0.1) * 0.9);
  EXPECT_NEAR(sf.r_local_first, sn.r_local_first, 0.2);
}

TEST(AnalyticModel, FasterCentralCpuShortensShippedResponse) {
  ModelParams slow = baseline(20.0, 0.5);
  slow.central_mips = 5.0;
  ModelParams fast = baseline(20.0, 0.5);
  fast.central_mips = 30.0;
  const ModelSolution ss = AnalyticModel().solve(slow);
  const ModelSolution sf = AnalyticModel().solve(fast);
  EXPECT_LT(sf.r_shipped, ss.r_shipped);
}

TEST(AnalyticModel, RerunExpansionConsistentWithAbortProbabilities) {
  // E[reruns] = P_first / (1 - P_rerun): one abort of the first run followed
  // by a geometric number of rerun aborts.
  const ModelSolution s = AnalyticModel().solve(baseline(24.0, 0.4));
  EXPECT_NEAR(s.exp_reruns_local,
              s.p_abort_local / (1.0 - s.p_abort_local_rerun), 0.05);
}

TEST(AnalyticModel, RerunsAbortLessOftenThanFirstRuns) {
  // Reruns skip all I/O: shorter lock holds and shorter residuals mean less
  // cross-tier exposure per run (the paper's beta-vs-gamma distinction).
  const ModelSolution s = AnalyticModel().solve(baseline(28.0, 0.4));
  EXPECT_GT(s.p_abort_local, 0.0);
  EXPECT_LT(s.p_abort_local_rerun, s.p_abort_local);
  EXPECT_LT(s.gamma_local, s.beta_local);
}

TEST(AnalyticModel, MixtureAverageIsConvexCombination) {
  const ModelSolution s = AnalyticModel().solve(baseline(18.0, 0.4));
  const double lo = std::min({s.r_local, s.r_shipped, s.r_class_b});
  const double hi = std::max({s.r_local, s.r_shipped, s.r_class_b});
  EXPECT_GE(s.r_avg, lo - 1e-9);
  EXPECT_LE(s.r_avg, hi + 1e-9);
}

TEST(AnalyticModel, AverageResponseKeepsItsBits) {
  // Hexfloat pins recorded before the abort split ran in one pass per
  // (local, central) length pair; every bit must survive it.
  EXPECT_EQ(AnalyticModel().solve(baseline(24.0, 0.0)).r_avg, 0x1.5e631666538e7p+1);
  EXPECT_EQ(AnalyticModel().solve(baseline(24.0, 0.35)).r_avg, 0x1.4632296f1dec6p+0);
  EXPECT_EQ(AnalyticModel().solve(baseline(24.0, 0.7)).r_avg, 0x1.22fd187fe8234p+0);
}

TEST(ModelParams, DerivedRatesAreConsistent) {
  const ModelParams p = baseline(20.0, 0.4);
  EXPECT_NEAR(p.rate_local_a() + p.rate_shipped_a() + p.rate_class_b(),
              p.lambda_site, 1e-12);
  EXPECT_NEAR(p.rate_central_total(),
              p.num_sites * (p.rate_class_b() + p.rate_shipped_a()), 1e-12);
}

TEST(ModelParams, ProbAnyWriteLimits) {
  ModelParams p;
  p.prob_write = 0.0;
  EXPECT_DOUBLE_EQ(p.prob_any_write(), 0.0);
  p.prob_write = 1.0;
  EXPECT_DOUBLE_EQ(p.prob_any_write(), 1.0);
  p.prob_write = 0.25;
  EXPECT_NEAR(p.prob_any_write(), 1.0 - std::pow(0.75, 10), 1e-12);
}

TEST(ModelParams, ExpectedInvolvedSitesBounds) {
  ModelParams p;  // 10 sites, 10 calls
  const double e = p.expected_involved_sites();
  EXPECT_GT(e, 1.0);
  EXPECT_LT(e, 10.0);
  EXPECT_NEAR(e, 10.0 * (1.0 - std::pow(0.9, 10)), 1e-12);
}

TEST(ModelParams, FromConfigRoundTrips) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.5;
  cfg.comm_delay = 0.5;
  cfg.prob_write_lock = 0.4;
  const ModelParams p = ModelParams::from_config(cfg);
  EXPECT_DOUBLE_EQ(p.lambda_site, 2.5);
  EXPECT_DOUBLE_EQ(p.comm_delay, 0.5);
  EXPECT_DOUBLE_EQ(p.prob_write, 0.4);
  EXPECT_EQ(p.lockspace, cfg.lockspace);
}

}  // namespace
}  // namespace hls
