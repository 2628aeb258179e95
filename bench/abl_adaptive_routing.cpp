// Ablation: closed-loop adaptive routing vs hand-picked static policies on a
// non-stationary scenario.
//
// The scenario stacks the three disturbances the controller's levers answer:
// a system-wide arrival surge (×2.5) early in the measurement window, a
// central-complex outage in the middle, and a site-skew phase (sites 0-2 at
// ×3, the rest starved) near the end. A static threshold F tuned for any one
// phase is wrong for the others; the adaptive wrapper re-tunes F on epoch
// class-A response time, backs off shipping while authentication-refusal
// waste dominates, and rides the failsafe detector through the outage.
//
// The bench self-gates: it exits non-zero if the adaptive strategy's class-A
// mean response time is worse than the best static-F cell, or if any cell
// fails to drain to zero after measurement. Decisions are replay-
// deterministic, so the printed decision count and converged F are stable.
#include "bench_common.hpp"

#include <algorithm>
#include <cstdlib>

namespace {

struct Cell {
  hls::RunResult result;
  std::size_t decisions = 0;
  double final_threshold = 0.0;
  bool has_threshold = false;
  bool drained = false;
};

struct Scenario {
  double surge_begin, surge_end;    ///< ×2.5 everywhere
  double outage_begin, outage_len;  ///< central complex down
  double skew_begin, skew_end;      ///< sites 0-2 ×3, others ×0.4
};

Cell run_cell(const hls::SystemConfig& cfg, const char* spec,
              const hls::RunOptions& opts, const Scenario& sc) {
  using namespace hls;
  auto strategy = make_strategy(parse_strategy_spec(spec).value(),
                                ModelParams::from_config(cfg),
                                cfg.seed ^ 0x51CA5EEDULL);

  Cell cell;
  HybridSystem system(cfg, std::move(strategy));
  cell.result.strategy_name = system.strategy().name();
  cell.result.config = cfg;
  const double base = cfg.arrival_rate_per_site;
  for (int s = 0; s < cfg.num_sites; ++s) {
    const bool hot = s < 3;
    system.set_arrival_rate_function(
        s,
        [base, sc, hot](SimTime t) {
          if (t >= sc.surge_begin && t < sc.surge_end) return base * 2.5;
          if (t >= sc.skew_begin && t < sc.skew_end) {
            return hot ? base * 3.0 : base * 0.4;
          }
          return base;
        },
        base * 3.0);
  }
  system.enable_arrivals();
  system.run_for(opts.warmup_seconds);
  system.begin_measurement();
  system.run_for(opts.measure_seconds);
  system.end_measurement();
  cell.result.metrics = system.metrics();
  system.stop_arrivals();
  system.drain();
  system.check_invariants();
  cell.drained = system.live_transactions() == 0;
  if (const AdaptiveController* controller = system.controller()) {
    cell.decisions = controller->decisions().size();
  }
  if (const TunableThreshold* tunable = system.strategy().tunable_threshold()) {
    cell.final_threshold = tunable->threshold();
    cell.has_threshold = true;
  }
  return cell;
}

double class_a_mean_rt(const hls::Metrics& m) {
  const std::uint64_t n = m.completions_local_a + m.completions_shipped_a;
  if (n == 0) return 0.0;
  return (m.rt_local_a.sum() + m.rt_shipped_a.sum()) /
         static_cast<double>(n);
}

}  // namespace

int main() {
  using namespace hls;
  RunOptions opts = bench::scaled_options();
  // Every cell shares a doubled warmup so the controller's one-time
  // exploration sweep across the F grid completes before measurement opens;
  // the static cells just warm up longer at their fixed F.
  opts.warmup_seconds *= 2.0;
  SystemConfig cfg = bench::paper_baseline(0.2);
  cfg.arrival_rate_per_site = 2.0;
  cfg.ship_timeout = 5.0;
  cfg.ship_backoff = 2.0;
  cfg.ship_max_retries = 1;
  // One controller epoch is 1/25 of the measurement window, so the
  // hill-climb sees every scenario phase several times at any HLS_TIME_SCALE
  // while each epoch still aggregates enough class-A completions for the
  // response-time signal to beat arrival noise.
  cfg.adapt_interval = opts.measure_seconds / 25.0;
  cfg.adapt_threshold_step = 0.1;
  bench::banner(
      "Ablation — adaptive routing vs static policies, non-stationary load",
      "the abort-provenance controller tracks surge/outage/skew phases that "
      "any single static threshold F misses",
      cfg, opts);

  Scenario sc;
  sc.surge_begin = opts.warmup_seconds + opts.measure_seconds / 6.0;
  sc.surge_end = opts.warmup_seconds + opts.measure_seconds / 3.0;
  sc.outage_begin = opts.warmup_seconds + 0.45 * opts.measure_seconds;
  sc.outage_len = opts.measure_seconds / 6.0;
  sc.skew_begin = opts.warmup_seconds + 2.0 * opts.measure_seconds / 3.0;
  sc.skew_end = opts.warmup_seconds + 5.0 * opts.measure_seconds / 6.0;
  cfg.faults.windows.push_back(
      {FaultKind::CentralOutage, -1, sc.outage_begin, sc.outage_len, 1.0, 0.0});

  // Static F sweep (the fig 4.4 axis) plus the paper's dynamic scheme, all
  // failsafe-wrapped so every row survives the outage the same way and the
  // comparison isolates the routing policy itself.
  const char* adaptive_spec = "adapt:failsafe:util-threshold:0";
  const std::vector<const char*> static_specs{
      "failsafe:util-threshold:-0.2",
      "failsafe:util-threshold:0",
      "failsafe:util-threshold:0.2",
      "failsafe:min-average-nsys",
  };

  Table table({"strategy", "rt_a_mean", "rt_mean", "ship_frac", "aborts",
               "decisions", "final_F", "completions"});
  bool all_drained = true;
  double best_static_f = 0.0;
  bool have_static_f = false;
  double adaptive_rt = 0.0;
  auto emit_row = [&](const char* spec, const Cell& cell) {
    const Metrics& m = cell.result.metrics;
    std::fprintf(stderr, "  [%s] done (%s)\n", spec,
                 cell.drained ? "drained" : "DRAIN FAILED");
    all_drained = all_drained && cell.drained;
    table.begin_row()
        .add_cell(cell.result.strategy_name)
        .add_num(class_a_mean_rt(m), 3)
        .add_num(m.rt_all.mean(), 3)
        .add_num(m.ship_fraction(), 3)
        .add_num(static_cast<double>(m.aborts_total()), 0)
        .add_num(static_cast<double>(cell.decisions), 0)
        .add_num(cell.has_threshold ? cell.final_threshold : 0.0, 3)
        .add_num(static_cast<double>(m.completions), 0);
  };

  const Cell adaptive_cell = run_cell(cfg, adaptive_spec, opts, sc);
  adaptive_rt = class_a_mean_rt(adaptive_cell.result.metrics);
  emit_row(adaptive_spec, adaptive_cell);
  for (const char* spec : static_specs) {
    const Cell cell = run_cell(cfg, spec, opts, sc);
    emit_row(spec, cell);
    const bool is_f_cell =
        std::string(spec).find("util-threshold") != std::string::npos;
    if (is_f_cell) {
      const double rt = class_a_mean_rt(cell.result.metrics);
      best_static_f = have_static_f ? std::min(best_static_f, rt) : rt;
      have_static_f = true;
    }
  }
  bench::emit(table);

  if (!all_drained) {
    std::fprintf(stderr, "FAIL: a cell did not drain to zero\n");
    return 1;
  }
  if (have_static_f && adaptive_rt > best_static_f + 1e-9) {
    std::fprintf(stderr,
                 "FAIL: adaptive class-A rt %.6f worse than best static F "
                 "%.6f\n",
                 adaptive_rt, best_static_f);
    return 1;
  }
  std::printf("\nadaptive class-A rt %.3f <= best static F %.3f: gate ok\n",
              adaptive_rt, best_static_f);
  return 0;
}
