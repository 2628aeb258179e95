// Ablation: response time under a central-complex outage, by routing scheme.
//
// A single outage window of varying length is injected into the middle of
// the measurement period. Shipped transactions caught by it ride the
// timeout/retry ladder (5 s timer, one retry, then local fallback), so the
// plain dynamic strategy pays for every transaction it optimistically ships
// into the dead central complex. The failsafe wrapper reads the failure
// detector and degrades to local-only for the duration; no-load-sharing is
// immune by construction but gives up the load-sharing gain when the system
// is healthy.
//
// Each cell is verified to drain completely after measurement: arrivals are
// stopped, the simulation runs dry, and the residency/lock/backlog counters
// must all reach zero — a liveness check that the failure handling loses no
// transaction. The bench exits non-zero if any cell fails to drain.
#include "bench_common.hpp"

#include <cstdlib>

namespace {

struct Cell {
  hls::RunResult result;
  hls::HybridSystem::LinkFaultTotals faults;
  bool drained = false;
};

Cell run_cell(const hls::SystemConfig& cfg, const hls::StrategySpec& spec,
              const hls::RunOptions& opts) {
  using namespace hls;
  const ModelParams base = ModelParams::from_config(cfg);
  auto strategy = make_strategy(spec, base, cfg.seed ^ 0x51CA5EEDULL);

  Cell cell;
  HybridSystem system(cfg, std::move(strategy));
  cell.result.strategy_name = system.strategy().name();
  cell.result.config = cfg;
  system.enable_arrivals();
  system.run_for(opts.warmup_seconds);
  system.begin_measurement();
  system.run_for(opts.measure_seconds);
  system.end_measurement();
  cell.result.metrics = system.metrics();

  // Liveness: after arrivals stop, everything in flight must complete and
  // every residency counter must return to zero, outage or not.
  system.stop_arrivals();
  system.drain();
  system.check_invariants();
  cell.faults = system.link_fault_totals();
  cell.drained = system.live_transactions() == 0 &&
                 system.central_resident() == 0 &&
                 system.central_locks().locks_held() == 0;
  for (int s = 0; s < cfg.num_sites && cell.drained; ++s) {
    cell.drained = system.local_resident(s) == 0 &&
                   system.shipped_in_flight(s) == 0 &&
                   system.local_locks(s).locks_held() == 0;
  }
  return cell;
}

}  // namespace

int main() {
  using namespace hls;
  const RunOptions opts = bench::scaled_options();
  SystemConfig cfg = bench::paper_baseline(0.2);
  cfg.arrival_rate_per_site = 2.4;  // 24 tps offered, the paper's mid load
  cfg.ship_timeout = 5.0;           // well above the healthy shipped RT
  cfg.ship_backoff = 2.0;
  cfg.ship_max_retries = 1;
  bench::banner(
      "Ablation — load sharing under a central-complex outage",
      "failsafe routing contains the outage; plain shipping rides timeouts",
      cfg, opts);

  // Outage lengths as fractions of the measurement window, starting a
  // quarter of the way in.
  const std::vector<double> outage_fractions{0.0, 0.1, 0.25, 0.5};
  const std::vector<std::pair<StrategySpec, std::string>> strategies{
      {{StrategyKind::MinAverageNsys, 0.0}, "min-average-nsys"},
      {{StrategyKind::MinAverageNsys, 0.0, /*failure_aware=*/true},
       "failsafe(min-average-nsys)"},
      {{StrategyKind::NoLoadSharing, 0.0}, "no-load-sharing"},
  };

  Table table({"strategy", "outage_s", "rt_mean", "ship_frac", "timeouts",
               "fallbacks", "rejected", "replayed", "completions"});
  bool all_drained = true;
  for (const auto& [spec, label] : strategies) {
    for (double fraction : outage_fractions) {
      SystemConfig cell_cfg = cfg;
      const double outage = fraction * opts.measure_seconds;
      if (outage > 0.0) {
        cell_cfg.faults.windows.push_back(
            {FaultKind::CentralOutage, -1,
             opts.warmup_seconds + 0.25 * opts.measure_seconds, outage, 1.0,
             0.0});
      }
      const Cell cell = run_cell(cell_cfg, spec, opts);
      const Metrics& m = cell.result.metrics;
      std::fprintf(stderr, "  [%s] outage %.0f s done (%s)\n", label.c_str(),
                   outage, cell.drained ? "drained" : "DRAIN FAILED");
      all_drained = all_drained && cell.drained;
      table.begin_row()
          .add_cell(label)
          .add_num(outage, 0)
          .add_num(m.rt_all.mean(), 3)
          .add_num(m.ship_fraction(), 3)
          .add_num(static_cast<double>(m.ship_timeouts()), 0)
          .add_num(static_cast<double>(m.ship_fallbacks()), 0)
          .add_num(static_cast<double>(m.arrivals_rejected), 0)
          .add_num(static_cast<double>(m.backlog_replayed), 0)
          .add_num(static_cast<double>(m.completions), 0);
    }
  }
  bench::emit(table);

  // --- Message-level chaos sweep (appended; the outage table above is the
  // unchanged byte-identical prefix) -------------------------------------
  //
  // Duplicate delivery alone must be invisible in the response-time books:
  // the sequence-number dedup drops every copy and the primary schedule is
  // untouched, so the dup-only cell is asserted bit-identical to the clean
  // cell per strategy. Reordering and delay spikes do perturb the
  // asynchronous pipeline, so those cells show the protocol absorbing real
  // chaos (resequenced counts) with no transaction lost.
  struct ChaosLevel {
    const char* label;
    double dup, reorder, spike;
  };
  const std::vector<ChaosLevel> levels{
      {"none", 0.0, 0.0, 0.0},
      {"dup=0.2", 0.2, 0.0, 0.0},
      {"reorder=0.2", 0.0, 0.2, 0.0},
      {"composed", 0.2, 0.2, 0.1},
  };
  const std::vector<std::pair<StrategySpec, std::string>> chaos_strategies{
      {{StrategyKind::MinAverageNsys, 0.0}, "min-average-nsys"},
      {{StrategyKind::NoLoadSharing, 0.0}, "no-load-sharing"},
  };

  Table chaos_table({"strategy", "chaos", "rt_mean", "dup_drop", "reseq",
                     "spikes", "completions"});
  bool dedup_transparent = true;
  for (const auto& [spec, label] : chaos_strategies) {
    double clean_rt = 0.0;
    std::uint64_t clean_completions = 0;
    for (const ChaosLevel& level : levels) {
      SystemConfig cell_cfg = cfg;
      cell_cfg.faults.dup_prob = level.dup;
      cell_cfg.faults.dup_extra = 0.05;
      cell_cfg.faults.reorder_prob = level.reorder;
      cell_cfg.faults.reorder_window = 0.4;
      cell_cfg.faults.spike_prob = level.spike;
      cell_cfg.faults.spike_factor = 3.0;
      const Cell cell = run_cell(cell_cfg, spec, opts);
      const Metrics& m = cell.result.metrics;
      std::fprintf(stderr, "  [%s] chaos %s done (%s)\n", label.c_str(),
                   level.label, cell.drained ? "drained" : "DRAIN FAILED");
      all_drained = all_drained && cell.drained;
      if (level.dup == 0.0 && level.reorder == 0.0 && level.spike == 0.0) {
        clean_rt = m.rt_all.mean();
        clean_completions = m.completions;
      } else if (level.reorder == 0.0 && level.spike == 0.0) {
        // Dup-only: dedup must keep the measured schedule bit-identical.
        dedup_transparent = dedup_transparent &&
                            m.rt_all.mean() == clean_rt &&
                            m.completions == clean_completions;
      }
      chaos_table.begin_row()
          .add_cell(label)
          .add_cell(level.label)
          .add_num(m.rt_all.mean(), 3)
          .add_num(static_cast<double>(m.dup_msgs_dropped()), 0)
          .add_num(static_cast<double>(m.msgs_resequenced()), 0)
          .add_num(static_cast<double>(cell.faults.delay_spikes), 0)
          .add_num(static_cast<double>(m.completions), 0);
    }
  }
  bench::emit(chaos_table);
  if (!all_drained) {
    std::fprintf(stderr, "FAIL: a faulted run did not drain to zero\n");
    return 1;
  }
  if (!dedup_transparent) {
    std::fprintf(stderr,
                 "FAIL: dup-only chaos perturbed the measured schedule\n");
    return 1;
  }
  return 0;
}
