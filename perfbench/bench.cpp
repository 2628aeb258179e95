// hlsbench / hlsbench_traced: runs one benchmark workload through the public
// library API (core/api.hpp) for a host-time budget and prints one JSON
// line: correctness counts, the run digests, and the metrics.
//
//   hlsbench --workload NAME --seed N --seconds S
//            [--expect-probe HEX] [--expect-full HEX]
//
// A run of the binary is:
//   1. a probe: the workload at kPinSeed with every simulated window cut to
//      kProbeSpan, whose digest must equal --expect-probe (this also warms
//      caches and the allocator before timing);
//   2. repetitions of the full workload at --seed until the budget is spent.
//      Every repetition must reproduce the first one's per-run digests, and
//      at kPinSeed the workload digest must equal --expect-full.
// A run's digest hashes its canonical run artifact (write_run_artifact), so
// it covers every simulated statistic the registry exports. Wall time and
// throughput come from the best repetition (see lowest()). Set-up time and
// the per-layer times are medians over repetitions. Counts come from the
// first repetition, after checking that every repetition repeats them.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "core/artifact.hpp"
#include "hooks.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;  // Clock, Hook and its enumerators, Ledger

constexpr std::uint64_t kPinSeed = 1;  ///< seed the pinned digests are taken at
constexpr double kProbeSpan = 0.25;    ///< probe's share of each simulated window
constexpr std::size_t kMaxProblems = 8;

// ---- workloads ----

/// What one execution of a workload produced: its runs in submission order,
/// and per run the problems the workload's own checks found.
struct UnitResult {
  std::vector<hls::RunResult> runs;
  std::vector<std::string> problems;  ///< parallel to runs; empty = fine
};

struct Workload {
  const char* name;
  UnitResult (*run)(std::uint64_t seed, double span);
  unsigned workers;         ///< threads running simulations
  bool offered_load_check;  ///< throughput must match the offered load
  /// Hooks this workload must exercise; zero calls means a stale interposer.
  std::vector<Hook> required;
};

hls::RunOptions windows(double warmup, double measure, double span) {
  hls::RunOptions opts;
  opts.warmup_seconds = warmup * span;
  opts.measure_seconds = measure * span;
  return opts;
}

UnitResult single(hls::RunResult result) {
  UnitResult unit;
  unit.runs.push_back(std::move(result));
  unit.problems.emplace_back();
  return unit;
}

/// §4.1 baseline (10 sites, 0.2 s links) at 32 tps offered under curve F.
UnitResult paper_dynamic(std::uint64_t seed, double span) {
  hls::SystemConfig cfg;
  cfg.seed = seed;
  cfg.arrival_rate_per_site = 3.2;
  return single(hls::run_simulation(cfg, {hls::StrategyKind::MinAverageNsys, 0.0},
                                    windows(100.0, 600.0, span)));
}

constexpr unsigned kSweepWorkers = 2;

/// Figure 4.1's grid (no-LS, static-optimal, curve F x default_rate_grid)
/// at the figure benches' HLS_TIME_SCALE=0.05 windows, on the sweep pool.
UnitResult fig_sweep(std::uint64_t seed, double span) {
  hls::SystemConfig base;
  base.seed = seed;
  std::vector<hls::SimJob> jobs;
  for (const hls::StrategyKind kind :
       {hls::StrategyKind::NoLoadSharing, hls::StrategyKind::StaticOptimal,
        hls::StrategyKind::MinAverageNsys}) {
    for (const double rate : hls::default_rate_grid()) {
      hls::SimJob job;
      job.config = base;
      job.config.arrival_rate_per_site = rate / base.num_sites;
      job.spec = {kind, 0.0};
      jobs.push_back(std::move(job));
    }
  }
  UnitResult unit;
  unit.runs = hls::run_simulation_batch(jobs, windows(7.5, 40.0, span), {},
                                        kSweepWorkers);
  unit.problems.resize(unit.runs.size());
  return unit;
}

/// §4.1 baseline at 24 tps under curve F with composed message chaos, a
/// ship-timeout ladder and one central outage mid-window; then stops
/// arrivals, drains, and requires every residency and lock count at zero.
/// Drives HybridSystem itself (as run_simulation does) because the drain
/// needs the live system.
UnitResult chaos_faults(std::uint64_t seed, double span) {
  hls::SystemConfig cfg;
  cfg.seed = seed;
  cfg.arrival_rate_per_site = 2.4;
  cfg.faults.dup_prob = 0.2;
  cfg.faults.dup_extra = 0.05;
  cfg.faults.reorder_prob = 0.2;
  cfg.faults.reorder_window = 0.4;
  cfg.faults.spike_prob = 0.1;
  cfg.faults.spike_factor = 3.0;
  cfg.ship_timeout = 5.0;
  cfg.ship_backoff = 2.0;
  cfg.ship_max_retries = 1;
  const hls::RunOptions opts = windows(100.0, 400.0, span);
  hls::FaultWindow outage;
  outage.kind = hls::FaultKind::CentralOutage;
  outage.start = opts.warmup_seconds + 0.5 * opts.measure_seconds;
  outage.duration = 10.0;
  cfg.faults.windows.push_back(outage);
  const hls::StrategySpec spec{hls::StrategyKind::MinAverageNsys, 0.0};

  run_begin();
  hls::RunResult result;
  result.config = cfg;
  hls::HybridSystem system(
      cfg, hls::make_strategy(spec, hls::ModelParams::from_config(cfg),
                              cfg.seed ^ 0x51CA5EEDULL));  // run_simulation's fork
  result.strategy_name = system.strategy().name();
  system.enable_arrivals();
  system.run_for(opts.warmup_seconds);
  system.begin_measurement();
  system.run_for(opts.measure_seconds);
  system.end_measurement();
  result.metrics = system.metrics();
  system.export_registry(result.registry);
  system.stop_arrivals();
  system.drain();
  system.check_invariants();
  std::string problem;
  auto expect_zero = [&problem](long long value, const char* what) {
    if (value != 0 && problem.empty()) {
      problem = std::string("after drain ") + what + " = " + std::to_string(value);
    }
  };
  expect_zero(system.live_transactions(), "live transactions");
  expect_zero(system.central_resident(), "central residents");
  expect_zero(static_cast<long long>(system.central_locks().locks_held()),
              "central locks held");
  for (int s = 0; s < cfg.num_sites; ++s) {
    expect_zero(system.local_resident(s), "site residents");
    expect_zero(system.shipped_in_flight(s), "shipped in flight");
    expect_zero(static_cast<long long>(system.local_locks(s).locks_held()),
                "site locks held");
  }
  run_end();
  UnitResult unit = single(std::move(result));
  unit.problems[0] = problem;
  return unit;
}

const std::vector<Workload>& workloads() {
  // Every workload schedules, pops, runs CPU bursts, locks, sends messages,
  // routes, generates transactions and exports its registry.
  const std::vector<Hook> all = {kScheduleAfter, kPop,     kSubmit,  kLockRequest,
                                 kLockReleaseAll, kLinkSend, kDecide, kTxnFill,
                                 kExport};
  auto with = [&all](std::initializer_list<Hook> extra) {
    std::vector<Hook> hooks = all;
    hooks.insert(hooks.end(), extra);
    return hooks;
  };
  static const std::vector<Workload> list = {
      {"paper_dynamic", paper_dynamic, 1, true, with({kEstimate, kLockGrab})},
      {"fig_sweep", fig_sweep, kSweepWorkers, false, with({kEstimate, kOptimize, kLockGrab})},
      {"chaos_faults", chaos_faults, 1, false, with({kEstimate, kLockGrab})},
  };
  return list;
}

// ---- digests ----

/// FNV-1a over everything written to it; the bytes themselves are dropped.
class HashBuf : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      mix(static_cast<unsigned char>(c));
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      mix(static_cast<unsigned char>(s[i]));
    }
    return n;
  }

 private:
  void mix(unsigned char byte) { hash_ = (hash_ ^ byte) * 0x100000001b3ULL; }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t run_digest(const hls::RunResult& result) {
  HashBuf buf;
  std::ostream out(&buf);
  hls::write_run_artifact(out, result);
  return buf.value();
}

std::uint64_t combine(const std::vector<std::uint64_t>& digests) {
  HashBuf buf;
  for (const std::uint64_t d : digests) {
    buf.sputn(reinterpret_cast<const char*>(&d), sizeof d);
  }
  return buf.value();
}

std::string hex(std::uint64_t v) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(v));
  return text;
}

// ---- registry reads ----

std::uint64_t counter(const hls::obs::Registry& reg, const std::string& name) {
  const hls::obs::MetricEntry* entry = reg.find(name);
  return entry != nullptr ? entry->count : 0;
}

/// Sum of a per-resource counter over the central and every site scope.
std::uint64_t scoped_sum(const hls::obs::Registry& reg, const std::string& name) {
  std::uint64_t sum = 0;
  for (const hls::obs::MetricEntry& e : reg.entries()) {
    if (e.name.size() > name.size() &&
        e.name.compare(e.name.size() - name.size(), name.size(), name) == 0 &&
        e.name[e.name.size() - name.size() - 1] == '.') {
      sum += e.count;
    }
  }
  return sum;
}

// ---- correctness bookkeeping ----

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::uint64_t runs, std::string why) {
    failed += runs;
    if (problems.size() < kMaxProblems) {
      problems.push_back(std::move(why));
    }
  }
};

/// Checks each run of `unit` on its own; returns the per-run digests.
std::vector<std::uint64_t> check_runs(const Workload& wl, const UnitResult& unit,
                                      bool full_span, Tally& tally) {
  std::vector<std::uint64_t> digests;
  for (std::size_t i = 0; i < unit.runs.size(); ++i) {
    const hls::RunResult& r = unit.runs[i];
    digests.push_back(run_digest(r));
    ++tally.attempted;
    std::string why = unit.problems[i];
    const double rt = r.metrics.rt_all.mean();
    if (why.empty() && (r.metrics.completions == 0 || !std::isfinite(rt) || rt <= 0.0)) {
      why = "no completions or a non-positive mean response time";
    }
    if (why.empty() && full_span && wl.offered_load_check) {
      const double tput = static_cast<double>(r.metrics.completions) /
                          r.metrics.window_seconds();
      const double offered = r.config.total_arrival_rate();
      if (std::abs(tput / offered - 1.0) > 0.15) {
        why = "throughput " + std::to_string(tput) + " tps against " +
              std::to_string(offered) + " offered";
      }
    }
    if (!why.empty()) {
      tally.fail(1, std::string(wl.name) + " run " + std::to_string(i) + ": " + why);
    }
  }
  return digests;
}

// ---- one repetition ----

struct Rep {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double advance_s = 0.0;
  double job_s = 0.0;
  double digest_s = 0.0;  ///< write_run_artifact into the hash, all runs
  std::size_t timed_runs = 0;
  std::uint64_t completions = 0;
  std::uint64_t reruns = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t resequenced = 0;
  std::uint64_t dup_dropped = 0;
  std::uint64_t backlog_replayed = 0;
  std::vector<std::uint64_t> digests;
  LayerTotals layers;
};

/// Runs the workload once at `seed`; merges the traced histograms into
/// `hist`.
Rep run_rep(const Workload& wl, std::uint64_t seed, Ledger& hist, Tally& tally) {
  Rep rep;
  const Clock::time_point t0 = Clock::now();
  UnitResult unit = wl.run(seed, 1.0);
  rep.wall_s = seconds(t0, Clock::now());
  for (const RunTimes& t : take_run_times()) {
    rep.setup_s += t.setup_s;
    rep.advance_s += t.advance_s;
    rep.job_s += t.job_s;
    ++rep.timed_runs;
  }
  const Ledger ledger = take_ledger();
  rep.layers = ledger.totals;
  hist.merge(ledger);
  const Clock::time_point d0 = Clock::now();
  rep.digests = check_runs(wl, unit, true, tally);
  rep.digest_s = seconds(d0, Clock::now());
  for (const hls::RunResult& r : unit.runs) {
    rep.completions += r.metrics.completions;
    rep.reruns += counter(r.registry, "txn.reruns");
    rep.deadlocks += scoped_sum(r.registry, "locks.deadlocks");
    rep.resequenced += counter(r.registry, "chaos.msgs_resequenced");
    rep.dup_dropped += counter(r.registry, "chaos.dup_msgs_dropped");
    rep.backlog_replayed += counter(r.registry, "fault.backlog_replayed");
  }
  if (rep.timed_runs != unit.runs.size()) {
    tally.fail(unit.runs.size(), "run boundary hooks saw " + std::to_string(rep.timed_runs) +
                                     " of " + std::to_string(unit.runs.size()) + " runs");
  }
  return rep;
}

// ---- output ----

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char text[64];
  const auto res = std::to_chars(text, text + sizeof text, v);
  return std::string(text, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

using Metrics = std::vector<std::pair<std::string, double>>;

template <typename F>
std::vector<double> each(const std::vector<Rep>& reps, F per_rep) {
  std::vector<double> v;
  for (const Rep& rep : reps) {
    v.push_back(per_rep(rep));
  }
  return v;
}

/// Median over repetitions of a per-repetition value.
template <typename F>
double med(const std::vector<Rep>& reps, F per_rep) {
  return median(each(reps, per_rep));
}

/// Best repetition. Host speed on a shared machine swings by a third for
/// seconds at a time as neighbours come and go; the fastest repetitions
/// are the ones that ran undisturbed, so their value is the steady one.
template <typename F>
double lowest(const std::vector<Rep>& reps, F per_rep) {
  const std::vector<double> v = each(reps, per_rep);
  return *std::min_element(v.begin(), v.end());
}
template <typename F>
double highest(const std::vector<Rep>& reps, F per_rep) {
  const std::vector<double> v = each(reps, per_rep);
  return *std::max_element(v.begin(), v.end());
}

/// Peak resident set of this process image, MiB. VmHWM rather than
/// getrusage's ru_maxrss: Linux carries ru_maxrss across execve, so it
/// reports the launching interpreter's footprint whenever that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  return 0.0;
}

Metrics end_to_end(const std::vector<Rep>& reps) {
  return {
      {"setup_s", med(reps, [](const Rep& r) { return r.setup_s; })},
      {"wall_s", lowest(reps, [](const Rep& r) { return r.wall_s; })},
      {"txns_per_s",
       highest(reps, [](const Rep& r) { return ratio(static_cast<double>(r.completions), r.advance_s); })},
      {"peak_rss_mb", peak_rss_mb()},
  };
}

std::uint64_t calls(const LayerTotals& l, std::initializer_list<Hook> hooks) {
  std::uint64_t n = 0;
  for (const Hook h : hooks) {
    n += l.hooks[h].calls;
  }
  return n;
}

std::uint64_t self_ticks(const LayerTotals& l, std::initializer_list<Hook> hooks) {
  std::uint64_t t = 0;
  for (const Hook h : hooks) {
    t += l.hooks[h].self_ticks;
  }
  return t;
}

constexpr std::initializer_list<Hook> kQueue = {kScheduleAt, kScheduleAfter, kCancel, kPop};
constexpr std::initializer_list<Hook> kLock = {kLockRequest, kLockRelease, kLockReleaseAll,
                                               kLockCancelWaits, kLockGrab};
constexpr std::initializer_list<Hook> kWorkload = {kTxnFill, kTxnMake};

/// Per-layer metrics of the traced binary; `hist` holds the histograms
/// merged over every repetition.
Metrics per_layer(const Workload& wl, const std::vector<Rep>& reps, const Ledger& hist) {
  const double tick = tick_seconds();
  const Rep& first = reps.front();
  const LayerTotals& c = first.layers;  // counts: identical in every repetition
  const double comps = static_cast<double>(first.completions);
  auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  auto self_s = [tick](const Rep& r, std::initializer_list<Hook> hooks) {
    return static_cast<double>(self_ticks(r.layers, hooks)) * tick;
  };
  auto incl_s = [tick](const Rep& r, Hook h) {
    return static_cast<double>(r.layers.hooks[h].incl_ticks) * tick;
  };
  auto med_self = [&](std::initializer_list<Hook> hooks) {
    return med(reps, [&](const Rep& r) { return self_s(r, hooks); });
  };
  return {
      {"sim.events", count(c.events)},
      {"sim.events_per_s", med(reps, [](const Rep& r) { return ratio(static_cast<double>(r.layers.events), r.advance_s); })},
      {"sim.queue.calls", count(calls(c, kQueue))},
      {"sim.queue.self_s", med_self(kQueue)},
      {"sim.cpu.submits", count(calls(c, {kSubmit}))},
      {"sim.cpu.self_s", med_self({kSubmit})},
      {"sim.pending.p50", hist.pending.quantile(0.5)},
      {"sim.pending.max", count(hist.pending.max())},
      {"sim.slice_ms.p50", hist.slice_ticks.quantile(0.5) * tick * 1e3},
      {"sim.slice_ms.p99", hist.slice_ticks.quantile(0.99) * tick * 1e3},
      {"db.lock.calls", count(calls(c, kLock))},
      {"db.lock.self_s", med_self(kLock)},
      {"db.lock.ns_per_call", med(reps, [&](const Rep& r) { return 1e9 * ratio(self_s(r, kLock), count(calls(r.layers, kLock))); })},
      {"db.deadlocks", count(first.deadlocks)},
      {"db.central_locks_held.max", count(hist.central_locks_held_max)},
      {"net.link.sends", count(calls(c, {kLinkSend}))},
      {"net.link.self_s", med_self({kLinkSend})},
      {"net.msgs_resequenced", count(first.resequenced)},
      {"net.dup_dropped", count(first.dup_dropped)},
      {"net.backlog_replayed", count(first.backlog_replayed)},
      {"routing.decides", count(calls(c, {kDecide}))},
      {"routing.decide_s", med(reps, [&](const Rep& r) { return incl_s(r, kDecide); })},
      {"routing.decide_ns.p50", hist.decide_ticks.quantile(0.5) * tick * 1e9},
      {"routing.decide_ns.p99", hist.decide_ticks.quantile(0.99) * tick * 1e9},
      {"routing.share", med(reps, [&](const Rep& r) { return ratio(incl_s(r, kDecide), r.advance_s); })},
      {"model.estimate.calls", count(calls(c, {kEstimate}))},
      {"model.estimate.self_s", med_self({kEstimate})},
      {"model.static_optimize.calls", count(calls(c, {kOptimize}))},
      {"model.static_optimize_s", med(reps, [&](const Rep& r) { return incl_s(r, kOptimize); })},
      {"workload.txn_make.calls", count(calls(c, kWorkload))},
      {"workload.self_s", med_self(kWorkload)},
      {"hybrid.self_s", med(reps, [tick](const Rep& r) { return r.advance_s - static_cast<double>(r.layers.advance_hook_ticks) * tick; })},
      {"hybrid.useful_run_ratio", ratio(comps, comps + count(first.reruns))},
      {"util.allocs_per_txn", ratio(count(c.window_allocs), comps)},
      {"util.alloc_bytes_per_txn", ratio(count(c.window_alloc_bytes), comps)},
      {"obs.export_s", med(reps, [&](const Rep& r) { return incl_s(r, kExport) + r.digest_s; })},
      {"core.pool_util", med(reps, [&wl](const Rep& r) { return ratio(r.job_s, wl.workers * r.wall_s); })},
      {"wall_s", lowest(reps, [](const Rep& r) { return r.wall_s; })},
  };
}

/// Traced-run guards: deterministic counts, no stale interposer, and self
/// time that fits inside the host time it was measured in.
void check_ledger(const Workload& wl, const std::vector<Rep>& reps, Tally& tally) {
  const Rep& first = reps.front();
  const auto runs = static_cast<std::uint64_t>(first.digests.size());
  for (const Hook h : wl.required) {
    if (first.layers.hooks[h].calls == 0) {
      tally.fail(runs, std::string("stale interposer: ") + hook_name(h) +
                           " recorded no calls on " + wl.name);
    }
  }
  auto counts = [](const Rep& r) {
    std::vector<std::uint64_t> v = {r.layers.events, r.layers.window_allocs,
                                    r.layers.window_alloc_bytes};
    for (const HookStat& s : r.layers.hooks) {
      v.push_back(s.calls);
    }
    return v;
  };
  const std::vector<std::uint64_t> expect = counts(first);
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (counts(reps[i]) != expect) {
      tally.fail(runs, "work counts of repetition " + std::to_string(i) +
                           " differ from repetition 0");
    }
  }
  const double tick = tick_seconds();
  for (const Rep& r : reps) {
    std::uint64_t self = 0;
    for (const HookStat& s : r.layers.hooks) {
      self += s.self_ticks;
    }
    if (static_cast<double>(self) * tick > r.job_s ||
        static_cast<double>(r.layers.advance_hook_ticks) * tick > r.advance_s) {
      tally.fail(runs, "layer self time exceeds the host time it was measured in");
      break;
    }
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = kPinSeed;
  double seconds = 10.0;
  std::string expect_probe;
  std::string expect_full;
};

bool parse_args(int argc, char** argv, Args& args) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--expect-probe") {
      args.expect_probe = value;
    } else if (key == "--expect-full") {
      args.expect_full = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
} catch (const std::exception&) {  // std::stoull / std::stod on a malformed number
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "[--expect-probe HEX] [--expect-full HEX]\n",
                 argv[0]);
    return 2;
  }
  const auto& list = workloads();
  const auto it = std::find_if(list.begin(), list.end(),
                               [&](const Workload& w) { return args.workload == w.name; });
  if (it == list.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& wl = *it;
  Tally tally;

  // 1. Probe at the pinned seed.
  const UnitResult probe = wl.run(kPinSeed, kProbeSpan);
  (void)take_run_times();
  (void)take_ledger();
  const std::string probe_digest = hex(combine(check_runs(wl, probe, false, tally)));
  if (!args.expect_probe.empty() && probe_digest != args.expect_probe) {
    tally.fail(probe.runs.size(), "probe digest " + probe_digest + " != pinned " +
                                      args.expect_probe);
  }

  // 2. Repetitions until the budget is spent (a repetition starts only if
  //    the longest one so far would still end inside it).
  std::vector<Rep> reps;
  Ledger hist;
  const Clock::time_point start = Clock::now();
  double longest = 0.0;
  while (reps.empty() || seconds(start, Clock::now()) + longest <= args.seconds) {
    reps.push_back(run_rep(wl, args.seed, hist, tally));
    const Rep& rep = reps.back();
    longest = std::max(longest, rep.wall_s + rep.digest_s);
    if (rep.digests != reps.front().digests) {
      for (std::size_t i = 0; i < rep.digests.size(); ++i) {
        if (rep.digests[i] != reps.front().digests[i]) {
          tally.fail(1, std::string(wl.name) + " run " + std::to_string(i) +
                            " did not reproduce repetition 0's digest");
        }
      }
    }
  }
  const std::string digest = hex(combine(reps.front().digests));
  if (args.seed == kPinSeed && !args.expect_full.empty() && digest != args.expect_full) {
    tally.fail(reps.front().digests.size() * reps.size(),
               "workload digest " + digest + " != pinned " + args.expect_full);
  }

  Metrics metrics;
  if (PERFBENCH_TRACED) {
    check_ledger(wl, reps, tally);
    metrics = per_layer(wl, reps, hist);
  } else {
    metrics = end_to_end(reps);
  }

  std::string out = "{\"workload\":" + quoted(wl.name) + ",\"seed\":" +
                    std::to_string(args.seed) + ",\"build_type\":" +
                    quoted(PERFBENCH_BUILD_TYPE) + ",\"traced\":" +
                    (PERFBENCH_TRACED ? "true" : "false") + ",\"reps\":" +
                    std::to_string(reps.size()) + ",\"attempted\":" +
                    std::to_string(tally.attempted) + ",\"failed\":" +
                    std::to_string(std::min(tally.failed, tally.attempted)) +
                    ",\"probe_digest\":" + quoted(probe_digest) + ",\"digest\":" +
                    quoted(digest) + ",\"problems\":[";
  for (std::size_t i = 0; i < tally.problems.size(); ++i) {
    out += i > 0 ? "," : "";
    out += quoted(tally.problems[i]);
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += i > 0 ? "," : "";
    out += quoted(metrics[i].first) + ":" + number(metrics[i].second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
