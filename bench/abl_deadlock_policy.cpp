// Ablation: deadlock victim selection (abort-the-requester, as in the
// paper's simulation §4.1, vs abort-the-youngest-on-cycle).
//
// Aborting the youngest cycle member preserves the most sunk work per
// resolution; the requester policy is cheaper to implement (no victim
// search or force-abort machinery). At the paper's baseline contention
// levels deadlocks are rare, so we also sweep a contended configuration
// where the policy visibly matters.
#include "bench_common.hpp"

int main() {
  using namespace hls;
  const RunOptions opts = bench::scaled_options();
  SystemConfig base = bench::paper_baseline(0.2);
  bench::banner("Ablation — deadlock victim policy",
                "policies tie at baseline contention; youngest saves work "
                "when deadlocks are frequent",
                base, opts);

  struct Scenario {
    const char* name;
    std::uint32_t lockspace;
    double prob_write;
    double tps;
  };
  const Scenario scenarios[] = {
      {"paper baseline", 32768, 0.25, 28.0},
      {"contended", 4000, 0.6, 24.0},
      {"hot", 2000, 0.7, 20.0},
  };

  std::vector<SimJob> jobs;
  std::vector<std::pair<const char*, const char*>> row_labels;
  for (const Scenario& sc : scenarios) {
    for (DeadlockVictim policy :
         {DeadlockVictim::Requester, DeadlockVictim::Youngest}) {
      SimJob job;
      job.config = base;
      job.config.lockspace = sc.lockspace;
      job.config.prob_write_lock = sc.prob_write;
      job.config.arrival_rate_per_site = sc.tps / base.num_sites;
      job.config.deadlock_victim = policy;
      job.spec = {StrategyKind::MinAverageNsys, 0.0};
      jobs.push_back(std::move(job));
      row_labels.emplace_back(
          sc.name, policy == DeadlockVictim::Requester ? "requester" : "youngest");
    }
  }
  const auto results = run_simulation_batch(
      jobs, opts, [&](std::size_t i, const RunResult&) {
        std::fprintf(stderr, "  %s/%s done\n", row_labels[i].first,
                     row_labels[i].second);
      });

  Table table({"scenario", "policy", "rt_avg", "deadlock_aborts",
               "runs_per_txn", "tput"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Metrics& m = results[i].metrics;
    table.begin_row()
        .add_cell(row_labels[i].first)
        .add_cell(row_labels[i].second)
        .add_num(m.rt_all.mean(), 3)
        .add_int(static_cast<long long>(
            m.aborts(AbortCause::Deadlock)))
        .add_num(m.runs_per_txn(), 4)
        .add_num(m.throughput(), 2);
  }
  bench::emit(table);
  return 0;
}
