// Regional reservation system with a demand surge — the motivating workload
// class of the paper's introduction (reservation systems exhibit regional
// locality and load fluctuations).
//
// Ten regional booking centers each serve local reservations (class A);
// itinerary queries spanning regions run centrally (class B). A sports
// final in region 0 multiplies its arrival rate 3.5x for a 10-minute window.
// We compare how no load sharing, optimal static sharing (tuned for the
// average rate, as a static scheme must be), and the best dynamic strategy
// ride out the surge — printing a timeline of the surging site's local
// response times.
#include <cstdio>
#include <iostream>
#include <memory>

#include "core/api.hpp"

namespace {

// Tracks mean response time in fixed windows via metric snapshots.
struct WindowProbe {
  double last_sum = 0.0;
  std::uint64_t last_count = 0;

  double sample(const hls::SampleStat& stat) {
    const double sum = stat.sum();
    const std::uint64_t count = stat.count();
    const double mean = count > last_count
                            ? (sum - last_sum) / static_cast<double>(count - last_count)
                            : 0.0;
    last_sum = sum;
    last_count = count;
    return mean;
  }
};

}  // namespace

int main() {
  using namespace hls;

  constexpr double kBaseTotalTps = 16.0;
  constexpr double kSurgeFactor = 3.5;
  constexpr double kSurgeStart = 600.0;
  constexpr double kSurgeEnd = 1200.0;

  SystemConfig cfg;
  cfg.arrival_rate_per_site = kBaseTotalTps / cfg.num_sites;
  cfg.seed = 7;

  const ModelParams base = ModelParams::from_config(cfg);

  std::printf(
      "Reservation surge: region 0 jumps from %.1f to %.1f tps during "
      "[%.0f, %.0f) s\n\n",
      cfg.arrival_rate_per_site, cfg.arrival_rate_per_site * kSurgeFactor,
      kSurgeStart, kSurgeEnd);

  const StrategySpec specs[] = {
      {StrategyKind::NoLoadSharing, 0.0},
      {StrategyKind::StaticOptimal, 0.0},
      {StrategyKind::MinAverageNsys, 0.0},
  };

  for (const StrategySpec& spec : specs) {
    auto strategy = make_strategy(spec, base, cfg.seed);
    const std::string name = strategy->name();
    HybridSystem sys(cfg, std::move(strategy));
    const double base_rate = cfg.arrival_rate_per_site;
    sys.set_arrival_rate_function(
        0,
        [=](SimTime t) {
          return (t >= kSurgeStart && t < kSurgeEnd) ? base_rate * kSurgeFactor
                                                     : base_rate;
        },
        base_rate * kSurgeFactor);
    sys.enable_arrivals();

    Table table({"window", "avg_rt_all", "ship_frac", "live_txns"});
    WindowProbe rt_probe;
    double last_arrivals = 0.0;
    double last_shipped = 0.0;
    for (int window = 0; window < 10; ++window) {
      sys.run_for(180.0);
      const Metrics& m = sys.metrics();
      const double arrivals = static_cast<double>(m.arrivals_class_a());
      const double shipped = static_cast<double>(m.shipped_class_a());
      const double window_ship =
          arrivals > last_arrivals
              ? (shipped - last_shipped) / (arrivals - last_arrivals)
              : 0.0;
      char label[64];
      std::snprintf(label, sizeof label, "%4d-%4d s%s", window * 180,
                    (window + 1) * 180,
                    (window * 180.0 < kSurgeEnd && (window + 1) * 180.0 > kSurgeStart)
                        ? " *surge*"
                        : "");
      table.begin_row()
          .add_cell(label)
          .add_num(rt_probe.sample(m.rt_all), 3)
          .add_num(window_ship, 3)
          .add_int(sys.live_transactions());
      last_arrivals = arrivals;
      last_shipped = shipped;
    }
    std::printf("--- %s ---\n", name.c_str());
    table.print(std::cout);
    std::printf("\n");
  }

  std::printf(
      "Reading the timelines: without load sharing the surge windows blow up\n"
      "(region 0's work has nowhere to go); the static scheme tuned for the\n"
      "average rate helps but ships blindly and strains; the dynamic strategy ships from\n"
      "the surging region exactly while the surge lasts.\n");
  return 0;
}
