// Trace-driven what-if analysis.
//
// Builds a synthetic arrival trace with a flash event — a 60-second burst
// in which region 2 receives 40 extra class A transactions hammering the
// same few hot entities (think: everyone booking the same flight) — then
// replays the identical trace under several routing strategies and
// compares the outcome. Because the arrivals are a fixed trace rather than
// regenerated randomness, the comparison isolates the strategy: every run
// sees byte-for-byte the same workload.
//
// Also demonstrates the trace round trip: the trace is serialized with
// write_trace and re-read with parse_trace, exactly as an external trace
// file would be.
#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/api.hpp"
#include "core/trace_replay.hpp"

namespace {

std::vector<hls::TraceArrival> build_flash_trace(const hls::SystemConfig& cfg,
                                                 hls::Rng rng) {
  std::vector<hls::TraceArrival> trace;
  // Background: ~1.2 tps per site for 600 s, Poisson thinned to a fixed
  // trace once, so every strategy replays the identical arrivals.
  double t = 0.0;
  while (t < 600.0) {
    t += rng.exponential(cfg.num_sites * 1.2);
    hls::TraceArrival a;
    a.time = t;
    a.site = static_cast<int>(rng.next_below(cfg.num_sites));
    a.cls = rng.bernoulli(cfg.prob_class_a) ? hls::TxnClass::A : hls::TxnClass::B;
    trace.push_back(a);
  }
  // Flash event: 40 bookings in [200, 260) at site 2, all touching hot
  // entities in site 2's partition (explicit lock lists).
  const hls::LockId part = cfg.partition_size();
  const hls::LockId hot_base = 2 * part + 7;
  for (int i = 0; i < 40; ++i) {
    hls::TraceArrival a;
    a.time = 200.0 + 60.0 * i / 40.0;
    a.site = 2;
    a.cls = hls::TxnClass::A;
    for (int k = 0; k < cfg.db_calls_per_txn; ++k) {
      // Three hot records (the flight, its fare bucket, its seat map) plus
      // transaction-private rows.
      const hls::LockId id = k < 3 ? hot_base + k
                                   : 2 * part + 100 + static_cast<hls::LockId>(
                                                          rng.next_below(part - 100));
      a.locks.push_back({id, k < 3 && rng.bernoulli(0.5)
                                 ? hls::LockMode::Exclusive
                                 : hls::LockMode::Shared});
    }
    trace.push_back(a);
  }
  std::sort(trace.begin(), trace.end(),
            [](const auto& x, const auto& y) { return x.time < y.time; });
  return trace;
}

}  // namespace

int main() {
  using namespace hls;
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 0.0;  // trace supplies all arrivals
  cfg.seed = 99;

  const auto trace = build_flash_trace(cfg, Rng(99));

  // Round trip through the textual format, as an external file would go.
  std::stringstream file;
  write_trace(file, trace);
  std::string error;
  const auto parsed = parse_trace(file, cfg, &error);
  if (!parsed) {
    std::fprintf(stderr, "trace round-trip failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("replaying a fixed trace of %zu arrivals (flash event at site 2, "
              "t in [200, 260))\n\n", parsed->size());

  const ModelParams base = ModelParams::from_config(cfg);
  Table table({"strategy", "completed", "avg_rt", "p95_rt", "site2_rt_local",
               "site2_ship_frac", "aborts"});
  for (const char* name : {"no-load-sharing", "static:0.3", "queue-length",
                           "min-average-nsys"}) {
    HybridSystem sys(cfg,
                     make_strategy(parse_strategy_spec(name).value(), base, 7));
    replay_trace(sys, *parsed);
    sys.simulator().run();  // trace is finite: run to completion
    const Metrics& m = sys.metrics();
    table.begin_row()
        .add_cell(sys.strategy().name())
        .add_int(static_cast<long long>(m.completions))
        .add_num(m.rt_all.mean(), 3)
        .add_num(m.rt_histogram.quantile(0.95), 2)
        .add_num(sys.site_metrics(2).rt_local_a.mean(), 3)
        .add_num(sys.site_metrics(2).ship_fraction(), 3)
        .add_int(static_cast<long long>(m.aborts_total()));
  }
  table.print(std::cout);
  std::printf(
      "\nIdentical arrivals, different routing: the dynamic strategy drains\n"
      "site 2's flash burst through the central site while keeping the rest\n"
      "of the system unaffected. Note the hot-entity contention shows up as\n"
      "aborts when bursts are shipped into the central copy.\n");
  return 0;
}
