// Trace inspector: the observability layer end to end on one faulted run.
//
// Wires every obs facility to the same simulation: the time-series sampler
// (obs_sample_interval), a full CSV trace sink streaming to a file or
// stdout, a Perfetto span exporter, and a small ring sink retaining only
// the most recent fault/abort events (the "what just went wrong" view an
// operator would keep). After the run it prints the phase-level latency
// breakdown — where a mean response time actually went — the abort
// provenance run report, and the sampled utilization series.
//
// Usage: trace_inspector [rate_per_site] [trace.csv] [trace.json]
//   rate_per_site  arrival rate per site (default 2.2); a value that is not
//                  a non-negative number is a one-line error, exit status 1
//   trace.csv      stream the full event trace here (omit or "-" to skip)
//   trace.json     write the Perfetto span trace here (omit to skip)
//   A trace path that cannot be opened is a one-line error, exit status 1.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "core/api.hpp"
#include "obs/csv_sink.hpp"
#include "obs/perfetto_sink.hpp"
#include "obs/ring_sink.hpp"
#include "obs/sample.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hls;
  SystemConfig cfg;
  cfg.seed = 20260805;
  cfg.arrival_rate_per_site = 2.2;
  if (argc > 1) {
    const std::optional<double> v = parse_number(argv[1]);
    if (!v.has_value() || !kNonNegative.allows(*v)) {
      std::fprintf(stderr, "rate_per_site '%s': must be a number, %s\n",
                   argv[1], kNonNegative.need().c_str());
      return 1;
    }
    cfg.arrival_rate_per_site = *v;
  }
  cfg.obs_sample_interval = 5.0;
  cfg.ship_timeout = 2.0;
  // A mid-run central outage so the trace has faults, timeouts and stalls
  // to inspect, not just steady-state completions.
  cfg.faults.windows.push_back({FaultKind::CentralOutage, -1, 60.0, 20.0, 1.0, 0.0});

  RunOptions opts;
  opts.warmup_seconds = 0.0;  // inspect the whole run, transient included
  opts.measure_seconds = 200.0 * time_scale_from_env();

  // Sink 1: everything, as CSV, if the user asked for a file ("-" skips it
  // so a Perfetto path can be given alone).
  std::ofstream trace_file;
  std::unique_ptr<obs::CsvSink> csv;
  if (argc > 2 && std::strcmp(argv[2], "-") != 0) {
    trace_file.open(argv[2]);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open %s for writing\n", argv[2]);
      return 1;
    }
    csv = std::make_unique<obs::CsvSink>(trace_file);
    opts.sinks.push_back(csv.get());
  }

  // Sink 2: last 12 faults/aborts only, kept in memory, in sink 1's place
  // when no CSV file was requested.
  obs::RingSink incidents(12, obs::kind_bit(obs::EventKind::Fault) |
                                  obs::kind_bit(obs::EventKind::Abort));
  if (!csv) opts.sinks.push_back(&incidents);

  // Sink 3: the Perfetto span exporter, routed through the config's span
  // sink spec so this example exercises the same path the driver offers
  // library users. Sink 4: the run-report collector rides along.
  if (argc > 3) {
    if (!std::ofstream(argv[3])) {
      std::fprintf(stderr, "cannot open %s for writing\n", argv[3]);
      return 1;
    }
    cfg.obs_span_sink = std::string("perfetto:") + argv[3];
  }
  ReportCollector collector(cfg.report_top_k);
  opts.sinks.push_back(&collector);

  const StrategySpec spec{StrategyKind::MinAverageNsys, 0.0,
                          /*failure_aware=*/true};
  const RunResult r = run_simulation(cfg, spec, opts);
  const Metrics& m = r.metrics;

  std::printf("strategy %s: %llu completions, mean rt %.3f s, %llu aborts, "
              "%llu ship timeouts\n\n",
              r.strategy_name.c_str(),
              static_cast<unsigned long long>(m.completions),
              m.rt_all.mean(),
              static_cast<unsigned long long>(m.aborts_total()),
              static_cast<unsigned long long>(m.ship_timeouts()));

  // Phase breakdown: the response-time mean, decomposed. The sum of the
  // phase means equals the mean exactly (the phase-sum identity).
  Table phases({"phase", "mean_s", "share_pct", "p95_s", "p99_s"});
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::Phase>(p);
    phases.begin_row()
        .add_cell(obs::phase_name(phase))
        .add_num(m.phase_mean(phase), 4)
        .add_num(100.0 * m.phase_mean(phase) / m.rt_all.mean(), 1)
        .add_num(m.phase_quantile(phase, 0.95), 3)
        .add_num(m.phase_quantile(phase, 0.99), 3);
  }
  phases.print(std::cout);

  // The run report: abort provenance, conflict matrix, wasted work and the
  // slowest span trees from the collector.
  std::printf("\n");
  write_run_report(std::cout, m, &collector);

  // The sampled time series: watch the outage window empty the central
  // queue's utilization and pile transactions up at the home sites.
  std::printf("\ntime series (every %.0f s simulated):\n", cfg.obs_sample_interval);
  obs::write_series_csv(std::cout, r.series);

  if (argc > 3) {
    std::printf("\nperfetto span trace -> %s\n", argv[3]);
  }
  if (csv) {
    std::printf("\nfull event trace: %llu rows -> %s\n",
                static_cast<unsigned long long>(csv->rows_written()), argv[2]);
  } else {
    std::printf("\nlast %zu incidents (of %llu seen):\n", incidents.size(),
                static_cast<unsigned long long>(incidents.total_seen()));
    for (const obs::Event& e : incidents.events()) {
      if (e.kind == obs::EventKind::Fault) {
        std::printf("  t=%8.3f  fault  %s %s\n", e.time,
                    e.site < 0 ? "central" : "site", e.up ? "up" : "DOWN");
      } else {
        std::printf("  t=%8.3f  abort  txn %llu cause %s\n", e.time,
                    static_cast<unsigned long long>(e.txn),
                    obs::abort_cause_name(e.cause));
      }
    }
  }
  return 0;
}
