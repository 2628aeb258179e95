// Observability overhead: CPU-time cost of the always-on phase timeline
// plus each optional layer (sampler, ring sink, full CSV sink, and the
// everything-on "full telemetry" stack: sampler + per-resource gauges +
// lock-heat counters + registry export) on the same seeded workload.
//
// Expectation: trace sinks and the sampler are off the simulation's hot
// path — the CSV sink (the most expensive event-formatting layer) and the
// full telemetry stack each stay under a 3% slowdown, and all layers leave
// the simulated metrics bit-identical (asserted here, not just claimed).
#include <algorithm>
#include <cmath>
#include <ctime>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "obs/csv_sink.hpp"
#include "obs/ring_sink.hpp"
#include "util/assert.hpp"

namespace {

struct Timed {
  double seconds = 0.0;
  double rt_sum = 0.0;
  std::uint64_t completions = 0;
  std::uint64_t rows = 0;
};

enum class Layer { None, Sampler, Ring, Csv, Full };

// CPU time, not wall clock: the simulation is single-threaded, and process
// CPU time is immune to the scheduler preempting us mid-measurement.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Runs the layer `inner` times and reports the per-run CPU seconds averaged
// over the block. At full scale one run is long enough to time on its own;
// at the small HLS_TIME_SCALEs the quick checks use, a single run is a few
// tens of milliseconds — the same order as timer granularity and scheduler
// jitter — so the block repeats the run until the timed span is measurable.
Timed run_layer(Layer layer, int inner, const hls::SystemConfig& base,
                const hls::RunOptions& opts) {
  using namespace hls;
  SystemConfig cfg = base;
  if (layer == Layer::Sampler) {
    cfg.obs_sample_interval = 0.5;
  } else if (layer == Layer::Full) {
    // Everything the observability config can arm at once: the sampler, the
    // per-resource time-weighted gauges, and the lock-heat counters. The
    // registry export downstream of run_simulation rides along for free.
    cfg.obs_sample_interval = 0.5;
    cfg.obs_resource_telemetry = true;
    cfg.obs_heat_buckets = 64;
  }
  Timed out;
  double total = 0.0;
  for (int j = 0; j < inner; ++j) {
    std::ostringstream csv;
    obs::CsvSink csv_sink(csv);
    obs::RingSink ring(4096);
    RunOptions run_opts = opts;
    if (layer == Layer::Ring) {
      run_opts.sinks.push_back(&ring);
    } else if (layer == Layer::Csv) {
      run_opts.sinks.push_back(&csv_sink);
    }
    const double t0 = cpu_now();
    const RunResult r =
        run_simulation(cfg, {StrategyKind::MinAverageNsys, 0.0}, run_opts);
    const double t1 = cpu_now();
    total += t1 - t0;
    if (j == 0) {
      out.rt_sum = r.metrics.rt_all.sum();
      out.completions = r.metrics.completions;
      if (layer == Layer::Csv) {
        out.rows = csv_sink.rows_written();
      } else if (layer == Layer::Full) {
        out.rows = r.registry.size();
      } else {
        out.rows = ring.total_seen();
      }
    } else {
      HLS_ASSERT(r.metrics.rt_all.sum() == out.rt_sum,
                 "non-deterministic rerun inside a timed block");
    }
  }
  out.seconds = total / static_cast<double>(inner);
  return out;
}

}  // namespace

int main() {
  using namespace hls;
  const RunOptions opts = bench::scaled_options();
  SystemConfig cfg = bench::paper_baseline(0.2);
  cfg.arrival_rate_per_site = 2.8;  // 28 tps: the loaded regime tracing is for
  bench::banner("Observability overhead (phase timeline + sinks + sampler)",
                "CSV sink < 3% slowdown; metrics bit-identical across layers",
                cfg, opts);

  // Warm the caches (binary pages, allocator) before timing anything, then
  // calibrate how many runs a timed block needs to span ~0.1 s of CPU.
  (void)run_layer(Layer::None, 1, cfg, opts);
  const double t0 = cpu_now();
  (void)run_layer(Layer::None, 1, cfg, opts);
  const double one_run = cpu_now() - t0;
  const int inner = static_cast<int>(
      std::clamp(std::ceil(0.1 / std::max(one_run, 1e-4)), 1.0, 64.0));

  // The deltas being measured are a few percent — inside both scheduler
  // jitter and CPU frequency drift, either of which can swamp a single
  // measurement. Interleave the layers inside each repetition so a
  // contention burst lands on every layer alike, then estimate each layer's
  // cost as the MEDIAN over reps of its delta against the same rep's
  // baseline: subtracting within a rep cancels whatever the machine was
  // doing during that stretch, and the median shrugs off the reps where a
  // burst hit only one half of the pair. (Min-of-per-layer-floors was tried
  // first; a floor is an order statistic over independently noisy blocks,
  // so one exceptionally quiet window hands whichever layer ran in it an
  // unbeatable floor and biases every other layer's overhead upward.)
  //
  // A real overhead persists across batches while noise does not, so when
  // the budgets below are missed the measurement re-runs with the rep pool
  // carried over — the medians tighten with pool size, and a transient
  // burst can't fail the gate.
  constexpr int kReps = 15;
  constexpr int kAttempts = 3;
  constexpr int kLayers = 5;
  constexpr Layer kOrder[kLayers] = {Layer::None, Layer::Sampler, Layer::Ring,
                                     Layer::Csv, Layer::Full};
  Timed timed[kLayers];
  std::vector<double> secs[kLayers];
  const auto median_of = [](std::vector<double> v) {
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                     v.end());
    return v[mid];
  };
  const auto over_budget = [&] {
    return timed[3].seconds >= 1.03 * timed[0].seconds ||
           timed[4].seconds >= 1.03 * timed[0].seconds;
  };
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    for (int rep = 0; rep < kReps; ++rep) {
      // Rotate the starting layer so no layer always occupies the same slot
      // within a repetition (a fixed slot would pick up any systematic
      // position bias, e.g. turbo decay across the repetition).
      for (int k = 0; k < kLayers; ++k) {
        const int i = (k + rep) % kLayers;
        const Timed t = run_layer(kOrder[i], inner, cfg, opts);
        if (secs[i].empty()) {
          timed[i] = t;
        } else {
          HLS_ASSERT(t.rt_sum == timed[i].rt_sum, "non-deterministic rerun");
        }
        secs[i].push_back(t.seconds);
      }
    }
    // The baseline reports its median block time; each layer reports the
    // baseline plus its median paired delta, so the table's cpu_s column
    // stays comparable across rows while the differences are paired.
    timed[0].seconds = median_of(secs[0]);
    for (int i = 1; i < kLayers; ++i) {
      std::vector<double> delta(secs[i].size());
      for (std::size_t r = 0; r < secs[i].size(); ++r) {
        delta[r] = secs[i][r] - secs[0][r];
      }
      timed[i].seconds = timed[0].seconds + median_of(std::move(delta));
    }
    if (!over_budget()) {
      break;
    }
    if (attempt + 1 < kAttempts) {
      std::fprintf(stderr,
                   "note: overhead budget missed with %d reps; remeasuring\n",
                   static_cast<int>(secs[0].size()));
    }
  }
  const Timed& base = timed[0];
  const Timed& sampler = timed[1];
  const Timed& ring = timed[2];
  const Timed& csv = timed[3];
  const Timed& full = timed[4];

  // Observation must not change the simulation: exact equality, not "close".
  HLS_ASSERT(sampler.rt_sum == base.rt_sum && sampler.completions == base.completions,
             "sampler perturbed the simulated metrics");
  HLS_ASSERT(ring.rt_sum == base.rt_sum && ring.completions == base.completions,
             "ring sink perturbed the simulated metrics");
  HLS_ASSERT(csv.rt_sum == base.rt_sum && csv.completions == base.completions,
             "CSV sink perturbed the simulated metrics");
  HLS_ASSERT(full.rt_sum == base.rt_sum && full.completions == base.completions,
             "full telemetry perturbed the simulated metrics");

  Table table({"layer", "cpu_s", "overhead_pct", "events_or_rows"});
  const auto pct = [&](const Timed& t) {
    return 100.0 * (t.seconds - base.seconds) / base.seconds;
  };
  table.begin_row().add_cell("baseline (timeline only)").add_num(base.seconds, 4)
      .add_num(0.0, 2).add_int(0);
  table.begin_row().add_cell("sampler 0.5s").add_num(sampler.seconds, 4)
      .add_num(pct(sampler), 2).add_int(static_cast<long long>(sampler.rows));
  table.begin_row().add_cell("ring sink").add_num(ring.seconds, 4)
      .add_num(pct(ring), 2).add_int(static_cast<long long>(ring.rows));
  table.begin_row().add_cell("csv sink").add_num(csv.seconds, 4)
      .add_num(pct(csv), 2).add_int(static_cast<long long>(csv.rows));
  table.begin_row().add_cell("full telemetry").add_num(full.seconds, 4)
      .add_num(pct(full), 2).add_int(static_cast<long long>(full.rows));
  bench::emit(table);

  if (pct(csv) >= 3.0) {
    std::fprintf(stderr, "FAIL: csv sink overhead %.2f%% >= 3%%\n", pct(csv));
    return 1;
  }
  if (pct(full) >= 3.0) {
    std::fprintf(stderr, "FAIL: full telemetry overhead %.2f%% >= 3%%\n",
                 pct(full));
    return 1;
  }
  std::printf("csv sink overhead %.2f%%, full telemetry %.2f%% — both < 3%% budget\n",
              pct(csv), pct(full));
  return 0;
}
