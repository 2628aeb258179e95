#include "core/experiment.hpp"

#include <cstdio>
#include <mutex>

#include "util/assert.hpp"
#include "util/task_pool.hpp"

namespace hls {

std::vector<RunResult> run_simulation_batch(
    const std::vector<SimJob>& jobs, const RunOptions& options,
    const std::function<void(std::size_t, const RunResult&)>& progress,
    unsigned jobs_override) {
  std::vector<RunResult> results(jobs.size());
  TaskPool pool(jobs_override);
  std::mutex progress_mu;
  pool.parallel_for_indexed(jobs.size(), [&](std::size_t i) {
    results[i] = run_simulation(jobs[i].config, jobs[i].spec, options);
    if (progress) {
      std::lock_guard<std::mutex> lk(progress_mu);
      progress(i, results[i]);
    }
  });
  return results;
}

std::vector<Series> ExperimentRunner::sweep_all(
    const std::vector<StrategySpec>& specs,
    const std::vector<std::string>& labels,
    const std::vector<double>& total_rates) const {
  HLS_ASSERT(specs.size() == labels.size(),
             "sweep_all needs one label per strategy spec");
  std::vector<SimJob> batch;
  batch.reserve(specs.size() * total_rates.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {  // series-major: with one
    for (double rate : total_rates) {  // worker this reproduces the exact
      SimJob job;                      // order (and stderr) of sequential
      job.config = base_;              // per-series sweep_rates calls
      job.config.arrival_rate_per_site = rate / base_.num_sites;
      job.spec = specs[s];
      batch.push_back(std::move(job));
    }
  }

  const std::size_t per_series = total_rates.size();
  const auto results = run_simulation_batch(
      batch, options_,
      [&](std::size_t i, const RunResult& r) {
        std::fprintf(stderr, "  [%s] rate=%.1f tps -> rt=%.3f s, ship=%.3f\n",
                     labels[i / per_series].c_str(), total_rates[i % per_series],
                     r.metrics.rt_all.mean(), r.metrics.ship_fraction());
      },
      jobs_);

  std::vector<Series> series(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    series[s].label = labels[s];
    series[s].spec = specs[s];
    series[s].points.resize(per_series);
    for (std::size_t r = 0; r < per_series; ++r) {
      series[s].points[r].total_rate = total_rates[r];
      series[s].points[r].result = results[s * per_series + r];
    }
  }
  return series;
}

Series ExperimentRunner::sweep_rates(const StrategySpec& spec,
                                     const std::string& label,
                                     const std::vector<double>& total_rates) const {
  return sweep_all({spec}, {label}, total_rates).front();
}

std::vector<double> default_rate_grid() {
  return {5.0, 10.0, 15.0, 20.0, 24.0, 28.0, 32.0, 36.0, 40.0};
}

Table response_time_table(const std::vector<Series>& series) {
  std::vector<std::string> headers{"offered_tps"};
  for (const Series& s : series) {
    headers.push_back(s.label + ":tput");
    headers.push_back(s.label + ":rt");
  }
  Table table(std::move(headers));
  if (series.empty()) {
    return table;
  }
  const std::size_t rows = series.front().points.size();
  for (std::size_t r = 0; r < rows; ++r) {
    table.begin_row().add_num(series.front().points[r].total_rate, 1);
    for (const Series& s : series) {
      HLS_ASSERT(s.points.size() == rows, "series swept different rate grids");
      const Metrics& m = s.points[r].result.metrics;
      table.add_num(m.throughput(), 2);
      table.add_num(m.rt_all.mean(), 3);
    }
  }
  return table;
}

Table ship_fraction_table(const std::vector<Series>& series) {
  std::vector<std::string> headers{"offered_tps"};
  for (const Series& s : series) {
    headers.push_back(s.label);
  }
  Table table(std::move(headers));
  if (series.empty()) {
    return table;
  }
  const std::size_t rows = series.front().points.size();
  for (std::size_t r = 0; r < rows; ++r) {
    table.begin_row().add_num(series.front().points[r].total_rate, 1);
    for (const Series& s : series) {
      HLS_ASSERT(s.points.size() == rows, "series swept different rate grids");
      table.add_num(s.points[r].result.metrics.ship_fraction(), 3);
    }
  }
  return table;
}

Table abort_table(const Series& series) {
  Table table({"offered_tps", "tput", "rt", "ship_frac", "runs_per_txn",
               "local_preempt", "central_invalid", "auth_refused", "deadlock"});
  for (const SweepPoint& p : series.points) {
    const Metrics& m = p.result.metrics;
    table.begin_row()
        .add_num(p.total_rate, 1)
        .add_num(m.throughput(), 2)
        .add_num(m.rt_all.mean(), 3)
        .add_num(m.ship_fraction(), 3)
        .add_num(m.runs_per_txn(), 4)
        .add_int(static_cast<long long>(
            m.aborts(AbortCause::LocalPreempted)))
        .add_int(static_cast<long long>(
            m.aborts(AbortCause::CentralInvalidated)))
        .add_int(static_cast<long long>(
            m.aborts(AbortCause::AuthRefused)))
        .add_int(static_cast<long long>(
            m.aborts(AbortCause::Deadlock)));
  }
  return table;
}

}  // namespace hls
