// Figure 4.4: tuning the queue-length heuristic's utilization threshold at
// 0.2 s communication delay, against the best dynamic strategy.
//
// The heuristic ships when util_local - util_central > threshold. Paper
// finding: the best threshold is about -0.2 (the faster central CPU makes
// shipping attractive even when the local site looks *less* utilized);
// -0.3 overshoots and performance degrades; the best dynamic strategy still
// beats the tuned heuristic slightly.
#include "bench_common.hpp"

int main() {
  using namespace hls;
  const SystemConfig cfg = bench::paper_baseline(0.2);
  const RunOptions opts = bench::scaled_options();
  bench::banner("Figure 4.4 — utilization threshold tuning (delay 0.2 s)",
                "best threshold ~ -0.2; best dynamic strategy still ahead",
                cfg, opts);

  ExperimentRunner runner(cfg, opts);
  std::vector<StrategySpec> specs;
  std::vector<std::string> labels;
  for (double threshold : {0.0, -0.1, -0.2, -0.3}) {
    specs.push_back({StrategyKind::UtilThreshold, threshold});
    labels.push_back("T=" + format_double(threshold, 1));
  }
  specs.push_back({StrategyKind::MinAverageNsys, 0.0});
  labels.push_back("best-dynamic");
  const std::vector<Series> series =
      runner.sweep_all(specs, labels, default_rate_grid());
  bench::emit(response_time_table(series));

  // --- Converged controller threshold vs the hand-swept optimum (appended;
  // the table above is the unchanged byte-identical prefix) ---------------
  //
  // The adaptive wrapper automates this figure's hand sweep: at every rate
  // it starts from T=0 and hill-climbs on observed class-A response time.
  // Each row reports where the controller converged next to which of the
  // hand-swept T columns won at that rate.
  Table converged({"converged_threshold", "rate", "final_F", "decisions",
                   "hand_swept_T", "rt_adaptive", "rt_hand_swept"});
  for (std::size_t r = 0; r < series[0].points.size(); ++r) {
    const double rate = series[0].points[r].total_rate;
    std::size_t best = 0;
    for (std::size_t s = 1; s + 1 < series.size(); ++s) {  // T= columns only
      if (series[s].points[r].result.metrics.rt_all.mean() <
          series[best].points[r].result.metrics.rt_all.mean()) {
        best = s;
      }
    }
    SystemConfig cell = cfg;
    cell.arrival_rate_per_site = rate / cell.num_sites;
    cell.adapt_interval = opts.measure_seconds / 25.0;
    auto strategy =
        make_strategy(parse_strategy_spec("adapt:util-threshold:0").value(),
                      ModelParams::from_config(cell), cell.seed ^ 0x51CA5EEDULL);
    HybridSystem system(cell, std::move(strategy));
    system.enable_arrivals();
    system.run_for(opts.warmup_seconds);
    system.begin_measurement();
    system.run_for(opts.measure_seconds);
    system.end_measurement();
    const double rt_adaptive = system.metrics().rt_all.mean();
    const double final_f = system.strategy().tunable_threshold()->threshold();
    const std::size_t decisions = system.controller()->decisions().size();
    system.stop_arrivals();
    system.drain();
    system.check_invariants();
    std::fprintf(stderr, "  [adapt] rate=%.1f tps converged F=%.2f\n", rate,
                 final_f);
    converged.begin_row()
        .add_cell("converged_threshold")
        .add_num(rate, 1)
        .add_num(final_f, 2)
        .add_int(static_cast<long long>(decisions))
        .add_cell(series[best].label)
        .add_num(rt_adaptive, 3)
        .add_num(series[best].points[r].result.metrics.rt_all.mean(), 3);
  }
  std::printf("\n");
  converged.print_csv(std::cout);
  return 0;
}
