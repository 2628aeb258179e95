// Microbenchmarks of the simulation substrate (google-benchmark).
//
// These support the paper's practicality claim for dynamic strategies: the
// routing decision must be cheap relative to transaction pathlengths. We
// measure the event queue, the lock manager, the analytic estimator that
// the dynamic strategies evaluate per arrival, its abort-split kernel, the
// static optimizer, and end-to-end simulation throughput (events/second).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "core/api.hpp"
#include "db/lock_manager.hpp"
#include "model/residuals.hpp"
#include "sim/event_queue.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace {

using namespace hls;

void BM_EventQueuePushPop(benchmark::State& state) {
  const std::size_t depth = state.range(0);
  Rng rng(1);
  EventQueue q;
  for (std::size_t i = 0; i < depth; ++i) {
    q.push(rng.next_double(), [] {});
  }
  for (auto _ : state) {
    q.push(rng.next_double(), [] {});
    benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // The timeout pattern: schedule a guard event, cancel it before it fires,
  // while regular traffic pushes and pops around it. With the
  // generation/slot scheme the cancel is O(1); the old side-table verified
  // each cancel with an O(depth) heap scan. Cancel removes the entry from
  // its bucket at once, so the queue holds exactly `depth` events.
  const std::size_t depth = state.range(0);
  Rng rng(3);
  EventQueue q;
  for (std::size_t i = 0; i < depth; ++i) {
    q.push(rng.next_double(), [] {});
  }
  for (auto _ : state) {
    const EventId timeout = q.push(rng.uniform(0.5, 1.0), [] {});
    benchmark::DoNotOptimize(q.cancel(timeout));
    q.push(rng.next_double(), [] {});
    benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(64)->Arg(1024)->Arg(16384);

void BM_LockManagerRequestRelease(benchmark::State& state) {
  Simulator sim;
  LockManager lm(sim, "bench");
  Rng rng(2);
  TxnId txn = 1;
  for (auto _ : state) {
    const LockId lock = static_cast<LockId>(rng.next_below(4096));
    lm.request(txn, lock, LockMode::Exclusive, nullptr);
    lm.release_all(txn);
    ++txn;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockManagerRequestRelease);

void BM_LockManagerContendedGrant(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    LockManager lm(sim, "bench");
    lm.request(1, 7, LockMode::Exclusive, nullptr);
    for (TxnId t = 2; t <= 17; ++t) {
      lm.request(t, 7, LockMode::Exclusive, [] {});
    }
    state.ResumeTiming();
    for (TxnId t = 1; t <= 17; ++t) {
      lm.release_all(t);
      sim.run();
    }
  }
}
BENCHMARK(BM_LockManagerContendedGrant);

void BM_DeadlockDetectionChain(benchmark::State& state) {
  const int chain = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    LockManager lm(sim, "bench");
    // txn i holds lock i and waits for lock i+1 -> chain of waits.
    for (int i = 0; i < chain; ++i) {
      lm.request(i + 1, static_cast<LockId>(i), LockMode::Exclusive, nullptr);
    }
    for (int i = 0; i < chain - 1; ++i) {
      lm.request(i + 1, static_cast<LockId>(i + 1), LockMode::Exclusive, [] {});
    }
    state.ResumeTiming();
    // Closing request walks the whole chain and reports a deadlock.
    benchmark::DoNotOptimize(
        lm.request(chain, 0, LockMode::Exclusive, [] {}));
  }
}
BENCHMARK(BM_DeadlockDetectionChain)->Arg(4)->Arg(16)->Arg(64);

void BM_DynamicEstimatorDecision(benchmark::State& state) {
  // The per-arrival cost of the paper's best strategy: one estimate() call.
  SystemConfig cfg;
  const ModelParams params = ModelParams::from_config(cfg);
  DynamicEstimator est(params, UtilSource::NumInSystem);
  SystemStateView view;
  view.config = &cfg;
  view.local_cpu_queue = 3;
  view.central_cpu_queue = 8;
  view.local_num_txns = 5;
  view.central_num_txns = 20;
  view.local_locks_held = 40;
  view.central_locks_held = 250;
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.estimate(view));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DynamicEstimatorDecision);

void BM_AnalyticDecide(benchmark::State& state) {
  // One routing decision of curve C, D, E or F (Arg 0-3), the split's range
  // first and the exact estimate when the range leaves the route open, over
  // a seeded mix of views around the paper's 32 tps operating point.
  SystemConfig cfg;
  const ModelParams params = ModelParams::from_config(cfg);
  const UtilSource source =
      state.range(0) % 2 == 0 ? UtilSource::CpuQueue : UtilSource::NumInSystem;
  std::unique_ptr<RoutingStrategy> strategy;
  if (state.range(0) < 2) {
    strategy = std::make_unique<MinIncomingRtStrategy>(params, source);
  } else {
    strategy = std::make_unique<MinAverageRtStrategy>(params, source);
  }
  Rng rng(20261018);
  std::vector<SystemStateView> views(1024);
  for (SystemStateView& v : views) {
    v.config = &cfg;
    v.site = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(cfg.num_sites)));
    v.local_cpu_queue = static_cast<int>(rng.uniform_int(0, 6));
    v.central_cpu_queue = static_cast<int>(rng.uniform_int(0, 20));
    v.local_num_txns = v.local_cpu_queue + static_cast<int>(rng.uniform_int(0, 4));
    v.central_num_txns = static_cast<int>(rng.uniform_int(5, 60));
    v.local_locks_held = static_cast<int>(rng.uniform_int(0, 150));
    v.central_locks_held = static_cast<int>(rng.uniform_int(0, 600));
  }
  Transaction txn;
  txn.cls = TxnClass::A;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->decide(txn, views[i]));
    i = (i + 1) % views.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(strategy->name());
}
BENCHMARK(BM_AnalyticDecide)->DenseRange(0, 3);

void BM_AnalyticModelSolve(benchmark::State& state) {
  SystemConfig cfg;
  cfg.arrival_rate_per_site = 2.4;
  ModelParams params = ModelParams::from_config(cfg);
  params.p_ship = 0.4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyticModel().solve(params));
  }
}
BENCHMARK(BM_AnalyticModelSolve);

void BM_AbortSplit(benchmark::State& state) {
  // The Simpson pass under every estimate and every fixed-point iteration,
  // at about the paper's lengths: a 0.9 s local run, a 0.3 s central run
  // and the 0.2 s link delay.
  struct {
    double local_len = 0.9;
    double central_len = 0.3;
    double offset = 0.2;
  } in;
  // Passed as one object held in memory, so the lengths are run-time data.
  // (For a lone double, GCC 12 skipped the store of its initial value.)
  benchmark::DoNotOptimize(in);
  for (auto _ : state) {
    benchmark::DoNotOptimize(abort_split(in.local_len, in.central_len, in.offset));
  }
}
BENCHMARK(BM_AbortSplit);

void BM_StaticOptimize(benchmark::State& state) {
  // The optimal static strategy's set-up at a total load of Arg tps: a
  // 41-point grid and a golden-section refinement of AnalyticModel::solve.
  SystemConfig cfg;
  cfg.arrival_rate_per_site = static_cast<double>(state.range(0)) / cfg.num_sites;
  const ModelParams params = ModelParams::from_config(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(StaticOptimizer().optimize(params));
  }
}
BENCHMARK(BM_StaticOptimize)->Arg(32)->Arg(40)->Unit(benchmark::kMillisecond);

void BM_EndToEndSimulation(benchmark::State& state) {
  // Whole-system throughput: simulated events per wall second at 24 tps.
  for (auto _ : state) {
    SystemConfig cfg;
    cfg.arrival_rate_per_site = 2.4;
    cfg.seed = 5;
    HybridSystem sys(cfg,
                     std::make_unique<StaticProbabilisticStrategy>(0.5, 5));
    sys.enable_arrivals();
    sys.run_for(20.0);
    benchmark::DoNotOptimize(sys.metrics().completions);
    state.SetItemsProcessed(state.items_processed() +
                            sys.simulator().executed_events());
  }
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

// Large-topology scenario: whole-system events/sec at 10/100/1000 sites.
//
// The federation arc (ROADMAP item on multi-central / partial replication)
// needs the kernel to stay fast when the event set is dominated by hundreds
// of arrival processes, links, and CPUs rather than a handful of hot
// transactions. Central capacity and lock space scale with the site count so
// per-site dynamics stay comparable across rows; what changes is the live
// event population the scheduler and the transaction table must handle.
// Simulated length honors HLS_TIME_SCALE like the figure benches.
void run_large_topology() {
  const double scale = time_scale_from_env();
  const double sim_seconds = 20.0 * scale;
  std::printf("================================================================\n");
  std::printf("micro_kernel large-topology: end-to-end events/sec by site count\n");
  std::printf("windows: %.2f s simulated per row (HLS_TIME_SCALE to shrink)\n",
              sim_seconds);
  std::printf("================================================================\n");

  Table table({"sites", "sim_s", "events", "txns", "wall_s", "events_per_sec"});
  for (const int sites : {10, 100, 1000}) {
    SystemConfig cfg;
    cfg.num_sites = sites;
    cfg.arrival_rate_per_site = 2.4;
    cfg.central_mips = 15.0 * sites / 10.0;   // keep central utilization flat
    cfg.lockspace = 3276u * static_cast<std::uint32_t>(sites);
    cfg.seed = 20260707;
    HybridSystem sys(cfg, std::make_unique<StaticProbabilisticStrategy>(0.5, 7));
    sys.enable_arrivals();
    const auto t0 = std::chrono::steady_clock::now();
    sys.run_for(sim_seconds);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    const auto events = sys.simulator().executed_events();
    table.begin_row();
    table.add_int(sites);
    table.add_num(sim_seconds, 2);
    table.add_int(static_cast<long long>(events));
    table.add_int(static_cast<long long>(sys.metrics().completions));
    table.add_num(wall, 3);
    table.add_num(static_cast<double>(events) / wall, 0);
  }
  table.print(std::cout);
  std::printf("\n");
  table.print_csv(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bool large_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--large-only") == 0) {
      large_only = true;
    }
  }
  run_large_topology();
  if (large_only) {
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
