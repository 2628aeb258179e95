#include "core/chaos.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <ostream>
#include <sstream>

#include "core/config_io.hpp"
#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"
#include "obs/phase.hpp"
#include "obs/sink.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace hls {

namespace {

// Strategy pool the episode generator draws from (parse_strategy_spec
// grammar). StaticOptimal is deliberately absent: the optimizer's search is
// pure overhead for an oracle run and adds nothing to protocol coverage.
const char* const kChaosStrategies[] = {
    "no-load-sharing",
    "always-central",
    "static:0.3",
    "static:0.7",
    "measured-rt",
    "queue-length",
    "util-threshold:-0.2",
    "min-incoming-queue",
    "min-incoming-nsys",
    "min-average-queue",
    "min-average-nsys",
    "failsafe:min-average-nsys",
    "failsafe@2.5:queue-length",
};

void check_u64(std::vector<std::string>& failures, const char* what,
               std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    std::ostringstream os;
    os << what << ": " << got << " != " << want;
    failures.push_back(os.str());
  }
}

void check_zero(std::vector<std::string>& failures, const char* what,
                std::uint64_t got) {
  check_u64(failures, what, got, 0);
}

// boost::hash_combine-style mix; the absolute value is meaningless, only
// equality between the two runs of an episode matters.
void mix(std::uint64_t& fp, std::uint64_t x) {
  fp ^= x + 0x9E3779B97F4A7C15ULL + (fp << 6) + (fp >> 2);
}

/// Mixes every completion's transaction, run count, completion time and
/// response time into the episode fingerprint, in completion order.
class FingerprintSink final : public obs::TraceSink {
 public:
  [[nodiscard]] unsigned kind_mask() const override {
    return obs::kind_bit(obs::EventKind::Completion);
  }
  void on_event(const obs::Event& event) override {
    mix(fp, static_cast<std::uint64_t>(event.txn));
    mix(fp, static_cast<std::uint64_t>(event.runs));
    mix(fp, std::bit_cast<std::uint64_t>(event.time));
    mix(fp, std::bit_cast<std::uint64_t>(event.response_time));
  }

  std::uint64_t fp = 0x811C9DC5ULL;
};

}  // namespace

ChaosEpisode make_chaos_episode(std::uint64_t master_seed, int index) {
  HLS_ASSERT(index >= 0, "negative episode index");
  // Two splitmix rounds decorrelate adjacent indices before seeding the
  // episode stream; every value below derives from this one generator, so
  // (master_seed, index) fully determines the episode.
  SplitMix64 sm(master_seed ^
                (0x6368616F73ULL * (static_cast<std::uint64_t>(index) + 1)));
  sm.next();
  Rng rng(sm.next());

  ChaosEpisode ep;
  SystemConfig& cfg = ep.config;
  cfg.seed = rng.next_u64();
  cfg.num_sites = static_cast<int>(rng.uniform_int(3, 8));
  // Small lock spaces keep real contention (deadlocks, authentication
  // refusals) in every episode; the default 32K space would make conflicts
  // vanishingly rare at this scale.
  const std::uint32_t kLockspaces[] = {1024, 4096, 16384};
  cfg.lockspace = kLockspaces[rng.next_below(3)];
  cfg.arrival_rate_per_site = rng.uniform(0.5, 2.0);
  cfg.prob_class_a = rng.uniform(0.5, 0.9);
  cfg.db_calls_per_txn = static_cast<int>(rng.uniform_int(5, 12));
  cfg.geometric_call_count = rng.bernoulli(0.25);
  cfg.chaos_run_seconds = rng.uniform(10.0, 20.0);
  cfg.chaos_strategy =
      kChaosStrategies[rng.next_below(std::size(kChaosStrategies))];
  ep.strategy = parse_strategy_spec(cfg.chaos_strategy).value();

  if (rng.bernoulli(0.7)) {
    cfg.ship_timeout = rng.uniform(1.0, 3.0);
    cfg.ship_max_retries = static_cast<int>(rng.uniform_int(0, 3));
    if (rng.bernoulli(0.5)) {
      cfg.ship_jitter = rng.uniform(0.1, 0.5);
    }
  }
  if (rng.bernoulli(0.3)) {
    cfg.async_batch_window = rng.uniform(0.02, 0.2);
  }
  if (rng.bernoulli(0.2)) {
    cfg.class_b_mode = ClassBMode::RemoteCalls;
  }
  if (rng.bernoulli(0.3)) {
    cfg.deadlock_victim = DeadlockVictim::Youngest;
  }
  if (rng.bernoulli(0.3)) {
    cfg.obs_sample_interval = 0.25;
  }

  FaultScheduleConfig& f = cfg.faults;
  if (rng.bernoulli(0.8)) {
    f.dup_prob = rng.uniform(0.0, 0.25);
    f.dup_extra = rng.uniform(0.0, 0.15);
    f.reorder_prob = rng.uniform(0.0, 0.25);
    f.reorder_window = rng.bernoulli(0.5) ? rng.uniform(0.05, 0.5) : 0.0;
    f.spike_prob = rng.uniform(0.0, 0.15);
    f.spike_factor = rng.uniform(1.5, 6.0);
  }

  const int n_windows = static_cast<int>(rng.uniform_int(1, 4));
  const FaultKind kKinds[] = {FaultKind::CentralOutage, FaultKind::SiteOutage,
                              FaultKind::LinkOutage, FaultKind::LinkDegrade,
                              FaultKind::MsgFault};
  for (int i = 0; i < n_windows; ++i) {
    FaultWindow w;
    w.kind = kKinds[rng.next_below(std::size(kKinds))];
    w.start = rng.uniform(1.0, 0.7 * cfg.chaos_run_seconds);
    w.duration = rng.uniform(0.5, 0.25 * cfg.chaos_run_seconds);
    if (w.kind == FaultKind::CentralOutage || rng.bernoulli(0.25)) {
      w.site = -1;
    } else {
      w.site = static_cast<int>(rng.uniform_int(0, cfg.num_sites - 1));
    }
    if (w.kind == FaultKind::LinkDegrade) {
      w.delay_factor = rng.uniform(1.5, 5.0);
      w.loss_prob = rng.uniform(0.0, 0.4);
    } else if (w.kind == FaultKind::MsgFault) {
      w.dup_prob = rng.uniform(0.0, 0.5);
      w.reorder_prob = rng.uniform(0.0, 0.5);
      w.spike_prob = rng.uniform(0.0, 0.3);
      w.spike_factor = rng.uniform(1.5, 8.0);
    }
    f.windows.push_back(w);
  }

  cfg.validate();
  return ep;
}

ChaosVerdict run_chaos_once(const ChaosEpisode& episode,
                            const ChaosOracle& extra) {
  const SystemConfig& cfg = episode.config;
  HLS_ASSERT(cfg.chaos_run_seconds > 0.0, "chaos episode needs a run window");

  ChaosVerdict v;
  // Same strategy seed derivation as the driver, so a repro config behaves
  // identically under run_simulation-based tooling.
  FingerprintSink fingerprint;
  HybridSystem sys(cfg,
                   make_strategy(episode.strategy, ModelParams::from_config(cfg),
                                 cfg.seed ^ 0x51CA5EEDULL));
  sys.add_trace_sink(&fingerprint);

  sys.enable_arrivals();
  sys.run_for(cfg.chaos_run_seconds);
  sys.stop_arrivals();
  sys.drain();

  const Metrics& m = sys.metrics();
  std::vector<std::string>& f = v.failures;

  // ---- drain-to-zero ----
  check_zero(f, "live transactions after drain",
             static_cast<std::uint64_t>(sys.live_transactions()));
  check_zero(f, "central resident txns",
             static_cast<std::uint64_t>(sys.central_resident()));
  check_zero(f, "central locks held", sys.central_locks().locks_held());
  check_zero(f, "central lock waiters", sys.central_locks().waiters());
  check_zero(f, "pending coherence entities",
             sys.central_locks().pending_coherence_entities());
  for (int s = 0; s < cfg.num_sites; ++s) {
    check_zero(f, "site resident txns",
               static_cast<std::uint64_t>(sys.local_resident(s)));
    check_zero(f, "site shipped in flight",
               static_cast<std::uint64_t>(sys.shipped_in_flight(s)));
    check_zero(f, "site locks held", sys.local_locks(s).locks_held());
    check_zero(f, "site lock waiters", sys.local_locks(s).waiters());
  }

  // ---- flow conservation ----
  check_u64(f, "arrivals vs completions",
            m.arrivals_class_a() + m.arrivals_class_b, m.completions);
  check_u64(f, "completion split",
            m.completions_local_a + m.completions_shipped_a +
                m.completions_class_b,
            m.completions);

  // ---- phase-sum identity over the whole run ----
  double phase_total = 0.0;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    const SampleStat& s = m.rt_phase[static_cast<std::size_t>(p)];
    check_u64(f, "phase sample count", s.count(), m.completions);
    phase_total += s.sum();
  }
  if (std::abs(phase_total - m.rt_all.sum()) >
      1e-9 * (1.0 + std::abs(m.rt_all.sum()))) {
    std::ostringstream os;
    os << "phase-sum identity: " << phase_total << " != " << m.rt_all.sum();
    f.push_back(os.str());
  }

  // ---- abort provenance: every abort lands in one conflict-matrix cell ----
  check_u64(f, "conflict matrix total", m.conflict_matrix_total(),
            m.aborts_total());

  // ---- duplicate-delivery accounting ----
  // Every duplicated link delivery is rejected by the receiver's in-order
  // queue exactly once (the primary always arrives first), so at drain
  // the two independently maintained counters must agree. Resequencing can
  // only be caused by straggler displacement.
  const HybridSystem::LinkFaultTotals lf = sys.link_fault_totals();
  check_u64(f, "dup drops vs link duplications", m.dup_msgs_dropped(),
            lf.duplicated);
  if (lf.reordered == 0) {
    check_zero(f, "resequenced without reordering", m.msgs_resequenced());
  }

  if (extra) {
    extra(sys, f);
  }

  // Last: the internal cross-check aborts the process on violation
  // (library-bug semantics), so the soft verdict above is already complete
  // if we never return.
  sys.check_invariants();

  v.fingerprint = fingerprint.fp;
  v.completions = m.completions;
  v.dup_msgs_dropped = m.dup_msgs_dropped();
  v.msgs_resequenced = m.msgs_resequenced();
  return v;
}

ChaosVerdict run_chaos_episode(const ChaosEpisode& episode,
                               const ChaosOracle& extra) {
  ChaosVerdict first = run_chaos_once(episode, extra);
  const ChaosVerdict second = run_chaos_once(episode, extra);
  if (first.fingerprint != second.fingerprint ||
      first.completions != second.completions ||
      first.dup_msgs_dropped != second.dup_msgs_dropped ||
      first.msgs_resequenced != second.msgs_resequenced) {
    std::ostringstream os;
    os << "replay diverged: fingerprint " << std::hex << first.fingerprint
       << " vs " << second.fingerprint << std::dec << ", completions "
       << first.completions << " vs " << second.completions;
    first.failures.push_back(os.str());
  }
  return first;
}

ChaosFailurePredicate make_inprocess_predicate(ChaosOracle extra) {
  return [extra = std::move(extra)](const ChaosEpisode& episode) {
    return !run_chaos_episode(episode, extra).passed();
  };
}

ChaosShrinkResult shrink_chaos_episode(const ChaosEpisode& failing,
                                       const ChaosFailurePredicate& still_fails) {
  ChaosShrinkResult r;
  r.episode = failing;
  auto fails = [&](const ChaosEpisode& candidate) {
    ++r.evaluations;
    return still_fails(candidate);
  };

  // Phase 1 — fewest ingredients: drop whole windows (and whole steady
  // chaos knob groups) to a fixpoint. Greedy one-at-a-time removal is
  // ddmin at granularity 1; fault schedules are small enough (<= a handful
  // of windows) that coarser splits would save nothing.
  bool changed = true;
  while (changed) {
    changed = false;
    const std::size_t n = r.episode.config.faults.windows.size();
    for (std::size_t i = 0; i < n; ++i) {
      ChaosEpisode candidate = r.episode;
      std::vector<FaultWindow>& wins = candidate.config.faults.windows;
      wins.erase(wins.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(candidate)) {
        r.episode = candidate;
        changed = true;
        break;
      }
    }
    if (changed) {
      continue;
    }
    const FaultScheduleConfig& f = r.episode.config.faults;
    auto try_mutation = [&](auto mutate) {
      if (changed) {
        return;
      }
      ChaosEpisode candidate = r.episode;
      mutate(candidate.config.faults);
      if (fails(candidate)) {
        r.episode = candidate;
        changed = true;
      }
    };
    if (f.dup_prob > 0.0) {
      try_mutation([](FaultScheduleConfig& g) {
        g.dup_prob = 0.0;
        g.dup_extra = 0.0;
      });
    }
    if (f.reorder_prob > 0.0) {
      try_mutation([](FaultScheduleConfig& g) {
        g.reorder_prob = 0.0;
        g.reorder_window = 0.0;
      });
    }
    if (f.spike_prob > 0.0) {
      try_mutation([](FaultScheduleConfig& g) {
        g.spike_prob = 0.0;
        g.spike_factor = 1.0;
      });
    }
    if (f.random_link_outage_rate > 0.0) {
      try_mutation([](FaultScheduleConfig& g) {
        g.random_link_outage_rate = 0.0;
        g.random_link_outage_mean = 0.0;
        g.random_horizon = 0.0;
      });
    }
  }

  // Phase 2 — narrowest windows: halve each survivor from the tail, then
  // from the head, as long as the failure persists.
  const std::size_t n_windows = r.episode.config.faults.windows.size();
  for (std::size_t i = 0; i < n_windows; ++i) {
    for (int iter = 0; iter < 8; ++iter) {
      ChaosEpisode candidate = r.episode;
      FaultWindow& w = candidate.config.faults.windows[i];
      if (w.duration <= 1e-3) {
        break;
      }
      w.duration *= 0.5;
      if (!fails(candidate)) {
        break;
      }
      r.episode = candidate;
    }
    for (int iter = 0; iter < 8; ++iter) {
      ChaosEpisode candidate = r.episode;
      FaultWindow& w = candidate.config.faults.windows[i];
      if (w.duration <= 1e-3) {
        break;
      }
      w.start += w.duration * 0.5;
      w.duration *= 0.5;
      if (!fails(candidate)) {
        break;
      }
      r.episode = candidate;
    }
  }

  // Phase 3 — shortest run: halve the arrival window (floored at the end of
  // the latest surviving fault window) so the repro reruns fast.
  for (int iter = 0; iter < 6; ++iter) {
    double floor_t = 1.0;
    for (const FaultWindow& w : r.episode.config.faults.windows) {
      floor_t = std::max(floor_t, w.start + w.duration);
    }
    ChaosEpisode candidate = r.episode;
    double next = candidate.config.chaos_run_seconds * 0.5;
    next = std::max(next, floor_t);
    if (next >= candidate.config.chaos_run_seconds - 1e-9) {
      break;
    }
    candidate.config.chaos_run_seconds = next;
    if (!fails(candidate)) {
      break;
    }
    r.episode = candidate;
  }
  return r;
}

void write_chaos_repro(std::ostream& out, const ChaosEpisode& episode) {
  out << "# hybridls chaos repro (docs/CHAOS.md)\n";
  out << "# rerun: ./build/tools/chaos_soak --repro=<this file>\n";
  out << "# " << describe_chaos_episode(episode) << "\n";
  describe_config(out, episode.config);
}

std::optional<int> parse_chaos_episodes(const std::string& text) {
  const std::optional<std::uint64_t> n = parse_uint64(text);
  if (!n.has_value() || *n == 0 ||
      *n > static_cast<std::uint64_t>(kMaxChaosEpisodes)) {
    return std::nullopt;
  }
  return static_cast<int>(*n);
}

std::optional<ChaosEpisode> parse_chaos_repro(std::istream& in,
                                              std::string* error) {
  std::optional<SystemConfig> cfg = parse_config_file(in, SystemConfig{}, error);
  if (!cfg.has_value()) {
    return std::nullopt;
  }
  if (cfg->chaos_strategy.empty()) {
    if (error != nullptr) {
      *error = "repro config is missing the chaos_strategy envelope key";
    }
    return std::nullopt;
  }
  if (cfg->chaos_run_seconds <= 0.0) {
    if (error != nullptr) {
      *error = "repro config needs chaos_run_seconds > 0";
    }
    return std::nullopt;
  }
  const std::optional<StrategySpec> strategy =
      parse_strategy_spec(cfg->chaos_strategy, error);
  if (!strategy.has_value()) {
    if (error != nullptr) {
      *error = "chaos_strategy: " + *error;
    }
    return std::nullopt;
  }
  ChaosEpisode ep;
  ep.config = *std::move(cfg);
  ep.strategy = *strategy;
  return ep;
}

std::string describe_chaos_episode(const ChaosEpisode& episode) {
  const SystemConfig& c = episode.config;
  const FaultScheduleConfig& f = c.faults;
  std::ostringstream os;
  os << "seed=" << c.seed << " sites=" << c.num_sites
     << " lockspace=" << c.lockspace << " lambda=" << c.arrival_rate_per_site
     << " strategy=" << c.chaos_strategy << " run=" << c.chaos_run_seconds
     << "s ship_timeout=" << c.ship_timeout;
  if (f.dup_prob > 0.0 || f.reorder_prob > 0.0 || f.spike_prob > 0.0) {
    os << " steady[dup=" << f.dup_prob << " reorder=" << f.reorder_prob
       << " spike=" << f.spike_prob << "]";
  }
  for (const FaultWindow& w : f.windows) {
    os << " fault=" << format_fault_window(w);
  }
  return os.str();
}

}  // namespace hls
