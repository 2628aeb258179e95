// Quickstart: simulate the paper's baseline hybrid system under three
// load-sharing strategies and print a summary comparison.
//
//   ./quickstart [total_tps]
//
// Defaults to 24 transactions/second offered over 10 sites — a load where
// the local sites are stressed and load sharing visibly matters. A
// total_tps that is not a non-negative number is a one-line error naming it,
// with exit status 1.
#include <cstdio>
#include <iostream>
#include <optional>

#include "core/api.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  double total_tps = 24.0;
  if (argc > 1) {
    const std::optional<double> v = hls::parse_number(argv[1]);
    if (!v.has_value() || !hls::kNonNegative.allows(*v)) {
      std::fprintf(stderr, "total_tps '%s': must be a number, %s\n", argv[1],
                   hls::kNonNegative.need().c_str());
      return 1;
    }
    total_tps = *v;
  }

  hls::SystemConfig cfg;  // paper baseline: 10 sites, 15-MIPS central, 0.2 s links
  cfg.arrival_rate_per_site = total_tps / cfg.num_sites;
  cfg.seed = 42;

  hls::RunOptions opts;
  opts.warmup_seconds = 100.0;
  opts.measure_seconds = 600.0;

  std::printf("hybridls quickstart: %d sites, %.0f tps offered, %.1fs link delay\n\n",
              cfg.num_sites, total_tps, cfg.comm_delay);

  const hls::StrategySpec specs[] = {
      {hls::StrategyKind::NoLoadSharing, 0.0},
      {hls::StrategyKind::StaticOptimal, 0.0},
      {hls::StrategyKind::MinAverageNsys, 0.0},
  };

  hls::Table table({"strategy", "throughput", "avg_rt", "rt_local", "rt_shipped",
                    "ship_frac", "runs/txn", "util_local", "util_central"});
  for (const auto& spec : specs) {
    const hls::RunResult r = hls::run_simulation(cfg, spec, opts);
    const hls::Metrics& m = r.metrics;
    table.begin_row()
        .add_cell(r.strategy_name)
        .add_num(m.throughput(), 2)
        .add_num(m.rt_all.mean(), 3)
        .add_num(m.rt_local_a.mean(), 3)
        .add_num(m.rt_shipped_a.mean(), 3)
        .add_num(m.ship_fraction(), 3)
        .add_num(m.runs_per_txn(), 3)
        .add_num(m.mean_local_utilization, 3)
        .add_num(m.central_utilization, 3);
  }
  table.print(std::cout);
  std::printf(
      "\nThe dynamic min-average strategy should match or beat the optimal\n"
      "static strategy, which in turn beats no load sharing (paper §4.2).\n");
  return 0;
}
