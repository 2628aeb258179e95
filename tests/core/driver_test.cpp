#include "core/driver.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/experiment.hpp"
#include "model/static_optimizer.hpp"
#include "routing/basic_strategies.hpp"

namespace hls {
namespace {

SystemConfig light_config() {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 1.0;
  cfg.seed = 11;
  return cfg;
}

RunOptions quick_options() {
  RunOptions o;
  o.warmup_seconds = 20.0;
  o.measure_seconds = 100.0;
  return o;
}

TEST(Driver, RunsAndReportsMetrics) {
  const RunResult r = run_simulation(light_config(),
                                     {StrategyKind::NoLoadSharing, 0.0},
                                     quick_options());
  EXPECT_EQ(r.strategy_name, "no-load-sharing");
  EXPECT_GT(r.metrics.completions, 0u);
  EXPECT_GT(r.metrics.rt_all.mean(), 0.0);
  EXPECT_NEAR(r.metrics.window_seconds(), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.static_p_ship, -1.0);
}

TEST(Driver, StaticOptimalRecordsChosenProbability) {
  const RunResult r = run_simulation(light_config(),
                                     {StrategyKind::StaticOptimal, 0.0},
                                     quick_options());
  const double optimum =
      StaticOptimizer().optimize(ModelParams::from_config(light_config())).p_ship;
  EXPECT_GE(r.static_p_ship, 0.0);
  EXPECT_LE(r.static_p_ship, 1.0);
  EXPECT_EQ(r.static_p_ship, optimum);  // bit-exact: the optimum that ran
  EXPECT_EQ(r.strategy_name,
            StaticProbabilisticStrategy(optimum, 0).name());
}

TEST(Driver, StaticProbabilityPassesParameterThrough) {
  const RunResult r = run_simulation(light_config(),
                                     {StrategyKind::StaticProbability, 0.35},
                                     quick_options());
  EXPECT_DOUBLE_EQ(r.static_p_ship, 0.35);
  EXPECT_EQ(r.strategy_name, "static-p0.350");
}

TEST(Driver, CallerConstructedStrategyOverload) {
  auto strategy = std::make_unique<AlwaysCentralStrategy>();
  const RunResult r =
      run_simulation(light_config(), std::move(strategy), quick_options());
  EXPECT_EQ(r.strategy_name, "always-central");
  EXPECT_DOUBLE_EQ(r.metrics.ship_fraction(), 1.0);
}

TEST(Driver, TimeScaleEnvDefaultsToOne) {
  unsetenv("HLS_TIME_SCALE");
  EXPECT_DOUBLE_EQ(time_scale_from_env(), 1.0);
}

TEST(Driver, TimeScaleEnvParses) {
  setenv("HLS_TIME_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(time_scale_from_env(), 0.25);
  setenv("HLS_TIME_SCALE", "bogus", 1);
  EXPECT_DOUBLE_EQ(time_scale_from_env(), 1.0);
  unsetenv("HLS_TIME_SCALE");
}

TEST(Experiment, SweepProducesOnePointPerRate) {
  ExperimentRunner runner(light_config(), quick_options());
  const Series s = runner.sweep_rates({StrategyKind::NoLoadSharing, 0.0}, "none",
                                      {5.0, 10.0});
  ASSERT_EQ(s.points.size(), 2u);
  EXPECT_DOUBLE_EQ(s.points[0].total_rate, 5.0);
  EXPECT_DOUBLE_EQ(s.points[1].total_rate, 10.0);
  EXPECT_GT(s.points[1].result.metrics.rt_all.mean(),
            s.points[0].result.metrics.rt_all.mean() * 0.5);
  EXPECT_EQ(s.label, "none");
}

TEST(Experiment, ResponseTimeTableLayout) {
  ExperimentRunner runner(light_config(), quick_options());
  std::vector<Series> series;
  series.push_back(
      runner.sweep_rates({StrategyKind::NoLoadSharing, 0.0}, "none", {5.0}));
  series.push_back(
      runner.sweep_rates({StrategyKind::QueueLength, 0.0}, "qlen", {5.0}));
  const Table t = response_time_table(series);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0).size(), 5u);  // rate + 2 series x (tput, rt)
}

TEST(Experiment, ShipFractionTableLayout) {
  ExperimentRunner runner(light_config(), quick_options());
  std::vector<Series> series;
  series.push_back(runner.sweep_rates({StrategyKind::StaticProbability, 0.4},
                                      "static", {5.0, 8.0}));
  const Table t = ship_fraction_table(series);
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.row(0).size(), 2u);
}

TEST(Experiment, AbortTableHasAllCauses) {
  ExperimentRunner runner(light_config(), quick_options());
  const Series s = runner.sweep_rates({StrategyKind::StaticProbability, 0.4},
                                      "static", {8.0});
  const Table t = abort_table(s);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0).size(), 9u);
}

TEST(Experiment, DefaultRateGridIsAscending) {
  const auto grid = default_rate_grid();
  EXPECT_GE(grid.size(), 5u);
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i], grid[i - 1]);
  }
}

}  // namespace
}  // namespace hls
