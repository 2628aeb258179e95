// Abort provenance: who kills whom, and what the kills cost (§4.2 internals).
//
// Extends tbl_abort_statistics with the PR-4 provenance counters: how many
// aborts named a winning transaction, how the victims' time splits into
// wasted CPU vs I/O, and how the cause mix shifts with ship fraction as the
// offered load grows. The paper's contention story predicts invalidations
// (central victims) to track the shipped population and preemptions (local
// victims) to track authentication traffic.
#include "bench_common.hpp"

namespace {

hls::Table provenance_table(const hls::Series& series) {
  using hls::AbortCause;
  hls::Table table({"offered_tps", "ship_frac", "aborts", "with_winner",
                    "preempted", "invalidated", "auth_refused", "deadlock",
                    "wasted_cpu", "wasted_io", "wasted_per_txn"});
  for (const hls::SweepPoint& p : series.points) {
    const hls::Metrics& m = p.result.metrics;
    table.begin_row()
        .add_num(p.total_rate, 1)
        .add_num(m.ship_fraction(), 3)
        .add_int(static_cast<long long>(m.aborts_total()))
        .add_int(static_cast<long long>(m.aborts_with_winner()))
        .add_int(static_cast<long long>(
            m.aborts(AbortCause::LocalPreempted)))
        .add_int(static_cast<long long>(
            m.aborts(AbortCause::CentralInvalidated)))
        .add_int(static_cast<long long>(
            m.aborts(AbortCause::AuthRefused)))
        .add_int(static_cast<long long>(
            m.aborts(AbortCause::Deadlock)))
        .add_num(m.wasted_cpu_total(), 4)
        .add_num(m.wasted_io_total(), 4)
        .add_num(m.wasted_per_txn.mean(), 6);
  }
  return table;
}

}  // namespace

int main() {
  using namespace hls;
  const SystemConfig cfg = bench::paper_baseline(0.2);
  const RunOptions opts = bench::scaled_options();
  bench::banner("Abort provenance table (delay 0.2 s)",
                "invalidations dominate as shipping grows; wasted work "
                "concentrates on the shipped side",
                cfg, opts);

  ExperimentRunner runner(cfg, opts);
  const std::vector<double> rates{10.0, 20.0, 28.0, 36.0};
  for (const auto& [spec, label] :
       std::vector<std::pair<StrategySpec, std::string>>{
           {{StrategyKind::StaticOptimal, 0.0}, "optimal static"},
           {{StrategyKind::MinAverageNsys, 0.0}, "best dynamic (F)"}}) {
    std::printf("\n--- %s ---\n", label.c_str());
    const Series s = runner.sweep_rates(spec, label, rates);
    bench::emit(provenance_table(s));
  }
  return 0;
}
