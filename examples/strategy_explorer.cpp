// strategy_explorer: command-line what-if tool over the full public API.
//
//   ./strategy_explorer [--key=value ...] [strategy ...]
//
// Options (defaults in brackets = the paper's baseline):
//   --tps=<total offered load, txn/s>            [24]
//   --sites=<number of local sites>              [10]
//   --central-mips=<central CPU, MIPS>           [15]
//   --local-mips=<local CPU, MIPS>               [1]
//   --delay=<one-way comm delay, s>              [0.2]
//   --ploc=<fraction of class A transactions>    [0.75]
//   --pwrite=<exclusive-lock probability>        [0.25]
//   --lockspace=<lockable entities>              [32768]
//   --warmup=<s> --measure=<s>                   [150 / 800]
//   --seed=<rng seed>                            [1]
//   --set <key>=<value>                          raw SystemConfig override
//                                                (any core/config_io.hpp key,
//                                                e.g. --set class_b_mode=remote-calls)
//   --model                                      also print the analytic
//                                                model's prediction
//   --dump-config                                print the resolved config
//                                                (reloadable via --set lines)
//
// --sites through --seed set one config key each and take the values that
// key allows (docs/CONFIG.md); a value a flag does not allow is a one-line
// error naming the flag, with exit status 1.
//
// Strategies are named as in routing/factory.hpp, e.g.:
//   ./strategy_explorer --tps=30 no-load-sharing static-optimal
//       util-threshold:-0.2 min-average-nsys
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "core/config_io.hpp"
#include "util/table.hpp"

namespace {

// Flags that set one config key each. Their values go through
// apply_config_override, so the key list's rule for the key checks them.
struct ConfigFlag {
  const char* flag;
  const char* key;
};
constexpr ConfigFlag kConfigFlags[] = {
    {"--sites", "num_sites"},       {"--central-mips", "central_mips"},
    {"--local-mips", "local_mips"}, {"--delay", "comm_delay"},
    {"--ploc", "prob_class_a"},     {"--pwrite", "prob_write_lock"},
    {"--lockspace", "lockspace"},   {"--seed", "seed"},
};

// Flags that set a run option, parsed whole and checked against `range`.
struct RunFlag {
  const char* flag;
  double* value;
  hls::KeyRange range;
};

template <class Flag, std::size_t N>
const Flag* find_flag(const Flag (&flags)[N], const std::string& name) {
  for (const Flag& f : flags) {
    if (name == f.flag) {
      return &f;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hls;

  SystemConfig cfg;  // the paper's baseline
  double tps = 24.0;
  double warmup = 150.0;
  double measure = 800.0;
  const RunFlag run_flags[] = {{"--tps", &tps, kNonNegative},
                               {"--warmup", &warmup, kNonNegative},
                               {"--measure", &measure, kPositive}};
  bool with_model = false;
  bool dump_config = false;
  std::vector<std::string> overrides;
  std::vector<std::string> strategy_names;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // `flag` is empty, and matches no flag, when the argument has no value.
    const auto eq = arg.find('=');
    const std::string flag = eq == std::string::npos ? "" : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (const ConfigFlag* f = find_flag(kConfigFlags, flag)) {
      std::string error;
      if (!apply_config_override(cfg, std::string(f->key) + "=" + value, &error)) {
        std::fprintf(stderr, "%s: %s\n", arg.c_str(), error.c_str());
        return 1;
      }
      continue;
    }
    if (const RunFlag* f = find_flag(run_flags, flag)) {
      const std::optional<double> v = parse_number(value);
      if (!v.has_value() || !f->range.allows(*v)) {
        std::fprintf(stderr, "%s: must be a number, %s\n", arg.c_str(),
                     f->range.need().c_str());
        return 1;
      }
      *f->value = *v;
      continue;
    }
    if (arg == "--model") {
      with_model = true;
      continue;
    }
    if (arg == "--dump-config") {
      dump_config = true;
      continue;
    }
    if (arg == "--set" && i + 1 < argc) {
      overrides.push_back(argv[++i]);
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s (see header comment)\n",
                   arg.c_str());
      return 1;
    }
    strategy_names.push_back(arg);
  }
  if (strategy_names.empty()) {
    strategy_names = {"no-load-sharing", "static-optimal", "queue-length",
                      "min-average-nsys"};
  }
  std::vector<StrategySpec> specs;
  for (const std::string& name : strategy_names) {
    std::string error;
    const std::optional<StrategySpec> spec = parse_strategy_spec(name, &error);
    if (!spec.has_value()) {
      std::fprintf(stderr, "strategy: %s\n", error.c_str());
      return 1;
    }
    specs.push_back(*spec);
  }

  cfg.arrival_rate_per_site = tps / cfg.num_sites;
  for (const std::string& assignment : overrides) {
    std::string error;
    if (!apply_config_override(cfg, assignment, &error)) {
      std::fprintf(stderr, "--set %s: %s\n", assignment.c_str(), error.c_str());
      return 1;
    }
  }
  // Cross-field rules (fault-window sites, lockspace vs num_sites) can only
  // be checked after every flag and --set has been applied.
  if (const std::optional<std::string> problem = cfg.check()) {
    std::fprintf(stderr, "config: %s\n", problem->c_str());
    return 1;
  }
  if (dump_config) {
    describe_config(std::cout, cfg);
    std::printf("\n");
  }

  RunOptions opts;
  opts.warmup_seconds = warmup;
  opts.measure_seconds = measure;

  std::printf(
      "strategy_explorer: %.1f tps over %d sites, %.0f/%.0f MIPS, %.2f s "
      "delay, p_loc=%.2f, p_write=%.2f, lockspace=%u\n\n",
      tps, cfg.num_sites, cfg.local_mips, cfg.central_mips, cfg.comm_delay,
      cfg.prob_class_a, cfg.prob_write_lock, cfg.lockspace);

  if (with_model) {
    const StaticOptimum opt =
        StaticOptimizer().optimize(ModelParams::from_config(cfg));
    std::printf(
        "analytic model: optimal p_ship=%.3f, predicted avg rt %.3f s "
        "(vs %.3f s with no sharing)\n\n",
        opt.p_ship, opt.solution.r_avg, opt.r_avg_no_sharing);
  }

  Table table({"strategy", "tput", "avg_rt", "p95_rt", "rt_local", "rt_shipped",
               "rt_classB", "ship_frac", "runs/txn", "util_loc", "util_cen"});
  for (const StrategySpec& spec : specs) {
    const RunResult r = run_simulation(cfg, spec, opts);
    const Metrics& m = r.metrics;
    table.begin_row()
        .add_cell(r.strategy_name)
        .add_num(m.throughput(), 2)
        .add_num(m.rt_all.mean(), 3)
        .add_num(m.rt_histogram.quantile(0.95), 2)
        .add_num(m.rt_local_a.mean(), 3)
        .add_num(m.rt_shipped_a.mean(), 3)
        .add_num(m.rt_class_b.mean(), 3)
        .add_num(m.ship_fraction(), 3)
        .add_num(m.runs_per_txn(), 3)
        .add_num(m.mean_local_utilization, 3)
        .add_num(m.central_utilization, 3);
  }
  table.print(std::cout);
  return 0;
}
