#include "model/static_optimizer.hpp"

#include <gtest/gtest.h>

namespace hls {
namespace {

ModelParams baseline(double total_tps) {
  ModelParams p;
  p.lambda_site = total_tps / p.num_sites;
  return p;
}

TEST(StaticOptimizer, OptimumKeepsItsBits) {
  // Hexfloat pins recorded before the fixed point's two abort splits shared
  // one Simpson pass; every bit must survive it. At 28 and 40 tps some grid
  // points saturate and run the solver's full 400 iterations.
  struct Pin {
    double tps;
    double p_ship;
    double r_avg;
    double r_avg_no_sharing;
  };
  const Pin pins[] = {
      {10.0, 0x1.9388a4aec8c18p-3, 0x1.041bc66bc898ap+0, 0x1.0739edf59af71p+0},
      {28.0, 0x1.626ec949431c5p-1, 0x1.2a7f049c98085p+0, 0x1.ebf1b16d7325bp+19},
      {40.0, 0x1.3fe93fab0c135p-1, 0x1.6b320097c3a5fp+0, 0x1.ebf1b1b51f3ebp+19},
  };
  for (const Pin& pin : pins) {
    const StaticOptimum opt = StaticOptimizer().optimize(baseline(pin.tps));
    EXPECT_EQ(opt.p_ship, pin.p_ship) << pin.tps << " tps";
    EXPECT_EQ(opt.solution.r_avg, pin.r_avg) << pin.tps << " tps";
    EXPECT_EQ(opt.r_avg_no_sharing, pin.r_avg_no_sharing) << pin.tps << " tps";
  }
}

TEST(StaticOptimizer, ShipsNothingAtVeryLowLoad) {
  const StaticOptimum opt = StaticOptimizer().optimize(baseline(2.0));
  EXPECT_LT(opt.p_ship, 0.05);
}

TEST(StaticOptimizer, ShipsSomethingAtHighLoad) {
  const StaticOptimum opt = StaticOptimizer().optimize(baseline(26.0));
  EXPECT_GT(opt.p_ship, 0.2);
  EXPECT_LT(opt.p_ship, 1.0);
}

TEST(StaticOptimizer, OptimumBeatsEndpoints) {
  const ModelParams p = baseline(24.0);
  const StaticOptimum opt = StaticOptimizer().optimize(p);
  ModelParams p0 = p;
  p0.p_ship = 0.0;
  ModelParams p1 = p;
  p1.p_ship = 1.0;
  const double r0 = AnalyticModel().solve(p0).r_avg;
  const double r1 = AnalyticModel().solve(p1).r_avg;
  EXPECT_LE(opt.solution.r_avg, r0 + 1e-9);
  EXPECT_LE(opt.solution.r_avg, r1 + 1e-9);
}

TEST(StaticOptimizer, ReportsNoSharingBaseline) {
  const ModelParams p = baseline(24.0);
  const StaticOptimum opt = StaticOptimizer().optimize(p);
  ModelParams p0 = p;
  p0.p_ship = 0.0;
  EXPECT_NEAR(opt.r_avg_no_sharing, AnalyticModel().solve(p0).r_avg, 1e-9);
  EXPECT_LE(opt.solution.r_avg, opt.r_avg_no_sharing + 1e-9);
}

TEST(StaticOptimizer, ShipFractionGrowsThenShrinksWithLoad) {
  // The paper's Figure 4.3 shape: zero at low rates, rising, then falling
  // once the central site starts to saturate.
  std::vector<double> fractions;
  for (double tps : {4.0, 12.0, 20.0, 28.0, 44.0}) {
    fractions.push_back(StaticOptimizer().optimize(baseline(tps)).p_ship);
  }
  EXPECT_LT(fractions.front(), 0.05);
  double peak = 0.0;
  std::size_t peak_at = 0;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    if (fractions[i] > peak) {
      peak = fractions[i];
      peak_at = i;
    }
  }
  EXPECT_GT(peak, 0.3);
  EXPECT_GT(peak_at, 0u);
  EXPECT_LT(peak_at, fractions.size() - 1);  // interior peak -> falls at the end
}

TEST(StaticOptimizer, LargerDelayShipsLessAtModerateLoad) {
  ModelParams near = baseline(18.0);
  near.comm_delay = 0.2;
  ModelParams far = baseline(18.0);
  far.comm_delay = 0.5;
  const double p_near = StaticOptimizer().optimize(near).p_ship;
  const double p_far = StaticOptimizer().optimize(far).p_ship;
  EXPECT_LE(p_far, p_near + 0.02);
}

TEST(StaticOptimizer, CoarseGridStillFindsInteriorOptimum) {
  StaticOptimizer::Options opts;
  opts.grid_points = 11;
  const StaticOptimum coarse = StaticOptimizer(opts).optimize(baseline(24.0));
  const StaticOptimum fine = StaticOptimizer().optimize(baseline(24.0));
  EXPECT_NEAR(coarse.solution.r_avg, fine.solution.r_avg, 0.05);
}

}  // namespace
}  // namespace hls
