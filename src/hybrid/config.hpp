// System configuration for the hybrid distributed-centralized architecture.
//
// Defaults reproduce the paper's baseline (§4.1): 10 local sites of 1 MIPS,
// a 15-MIPS central complex, 0.2 s one-way links, 75% class A transactions,
// a 32K-element global lock space of which each site masters one tenth, and
// the [YU87] pathlengths quoted in §3.1 (10 DB calls x 30K instructions,
// 150K instructions of message handling / initiation per transaction).
//
// I/O constants are not printed in the paper (they come from the authors'
// trace); the defaults below are typical late-1980s disk times and are
// documented as a substitution in DESIGN.md.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "db/lock_types.hpp"
#include "sim/fault_schedule.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace hls {

/// Which transaction aborts when a waits-for cycle is detected.
enum class DeadlockVictim : std::uint8_t {
  Requester,  ///< the transaction whose request closed the cycle (paper §4.1)
  Youngest,   ///< the most recently arrived transaction on the cycle — it has
              ///< the least work to redo (ablation)
};

/// How class B (global-data) transactions execute. The paper ships them to
/// the central site and notes the alternative without analyzing it
/// (§3: "potentially, these transactions could be run at a local site,
/// making remote function calls to the central site to obtain required
/// data; however, we do not analyze this possibility here"). RemoteCalls
/// implements that alternative: processing stays at the home site and every
/// database call round-trips to the central copy, after which commit uses
/// the normal authentication phase.
enum class ClassBMode : std::uint8_t {
  Ship,         ///< ship the whole transaction to the central site (paper)
  RemoteCalls,  ///< run at home; one round trip per database call
};

struct SystemConfig {
  // ---- topology ----
  int num_sites = 10;
  double local_mips = 1.0;     ///< local CPU speed, millions of instr/s
  double central_mips = 15.0;  ///< central CPU speed, millions of instr/s
  double comm_delay = 0.2;     ///< one-way local<->central delay, seconds

  /// Optional per-site CPU speed override (heterogeneous regions); empty =
  /// every site runs at local_mips. When set, must have num_sites entries.
  /// §5 lists the local/central MIPS among the factors the threshold
  /// heuristic must be retuned for; heterogeneity makes that concrete.
  std::vector<double> local_mips_per_site;

  // ---- workload ----
  double arrival_rate_per_site = 1.0;  ///< Poisson arrivals per site, txn/s
  double prob_class_a = 0.75;          ///< fraction of purely-local (class A) txns

  // ---- transaction shape (per §3.1 / [YU87]) ----
  int db_calls_per_txn = 10;
  /// When true, the number of DB calls is geometric with mean
  /// db_calls_per_txn (truncated to [1, 8x mean]) instead of fixed —
  /// a variable-length workload extension for sensitivity studies.
  bool geometric_call_count = false;
  double instr_per_call = 30e3;    ///< database call processing
  double instr_msg_init = 75e3;    ///< arrival-side half of the 150K message path
  double instr_msg_commit = 75e3;  ///< commit-side half of the 150K message path
  double setup_io_time = 0.035;    ///< initial I/O before any lock is held, s
  double call_io_time = 0.025;     ///< I/O per database call, s
  double prob_call_io = 1.0;       ///< fraction of DB calls that do an I/O
  double prob_write_lock = 0.25;   ///< probability a lock request is exclusive

  // ---- lock space ----
  std::uint32_t lockspace = 32768;  ///< global number of lockable entities

  // ---- protocol overhead pathlengths (instructions) ----
  double instr_ship_forward = 15e3;       ///< local: forward a shipped txn's input
  double instr_apply_update = 10e3;       ///< central: apply one async update msg
  double instr_apply_update_item = 2e3;   ///< central: extra per batched item

  /// Batching window for asynchronous update propagation (§2: "these
  /// asynchronous messages may also be batched to reduce the overheads
  /// involved"). 0 disables batching: every local commit ships its own
  /// message. With a window w > 0, a site accumulates committed updates and
  /// flushes them as one message at most w seconds after the first pending
  /// update. Batching trades central apply overhead against longer
  /// coherence windows (more authentication refusals).
  double async_batch_window = 0.0;
  double instr_recv_ack = 2e3;            ///< local: process an async-update ack
  double instr_auth_local = 10e3;         ///< local: process an authentication request
  double instr_commit_apply_local = 5e3;  ///< local: apply a central commit msg
  double instr_send_async = 5e3;          ///< local: send the async update at commit

  // ---- control ----
  DeadlockVictim deadlock_victim = DeadlockVictim::Requester;
  ClassBMode class_b_mode = ClassBMode::Ship;
  double instr_remote_call = 15e3;  ///< central: serve one remote DB call
  std::uint64_t seed = 1;
  double abort_restart_delay = 0.0;  ///< optional backoff before a rerun, s
  int max_reruns = 1000;             ///< safety valve against livelock bugs
  /// Deterministic livelock breaker (docs/PROTOCOL.md): once a transaction
  /// has rerun more than `livelock_backoff_after` times, every further
  /// restart stalls an extra
  /// `livelock_backoff * (run_count - livelock_backoff_after)` seconds on
  /// top of abort_restart_delay, de-synchronizing mutual-abort limit cycles
  /// (two transactions deadlocking each other forever on identical re-run
  /// lock sequences). The threshold sits far above any rerun count the
  /// paper workloads reach, so runs that do not livelock are untouched.
  /// livelock_backoff = 0 disables the breaker.
  int livelock_backoff_after = 20;
  double livelock_backoff = 0.1;
  bool ideal_state_info = false;     ///< strategies see fresh central state

  // ---- fault injection (sim/fault_schedule) ----
  /// Deterministic outage/degradation schedule; empty injects nothing and
  /// leaves the simulation bit-identical to a fault-free build.
  FaultScheduleConfig faults;

  /// Timeout on a shipped class A transaction's central execution, seconds;
  /// 0 disables the timer. On expiry the home site reclaims the (possibly
  /// dead) central incarnation and reships; each retry multiplies the
  /// timeout by ship_backoff, and after ship_max_retries reships the
  /// transaction falls back to local execution.
  double ship_timeout = 0.0;
  double ship_backoff = 2.0;  ///< timeout multiplier per retry (>= 1)
  int ship_max_retries = 2;   ///< reships before the local fallback (>= 0)

  /// Seeded jitter on the ship-timeout backoff: each armed timer's delay is
  /// scaled by 1 + ship_jitter * U[0,1) from a dedicated stream forked off
  /// the config seed (de-synchronizes timeout storms). 0 (the default)
  /// keeps the fixed backoff and forks no stream, so existing figures stay
  /// byte-identical.
  double ship_jitter = 0.0;

  // ---- chaos-soak envelope (core/chaos, docs/CHAOS.md) ----
  /// Strategy spec a chaos episode/repro config runs under
  /// (routing parse_strategy_spec grammar); empty outside chaos files.
  std::string chaos_strategy;
  /// Seconds of open arrivals in a chaos episode before the drain phase;
  /// 0 outside chaos repro files.
  double chaos_run_seconds = 0.0;

  // ---- adaptive routing controller (routing/adaptive, docs/PROTOCOL.md) ----
  /// Review-epoch cadence of the adaptive controller, seconds; 0 (the
  /// default) disables it entirely — no review event is ever scheduled and
  /// every site keeps the optimistic-abort collision policy, so the event
  /// sequence stays bit-identical to a build without the controller. Only
  /// consulted when the installed strategy actually carries a controller
  /// (an `adapt:` spec); an `adapt@<interval>:` spec overrides this key.
  double adapt_interval = 0.0;
  /// Hill-climb step per review epoch for the tunable ship threshold.
  double adapt_threshold_step = 0.05;
  /// Epoch fraction of wasted work attributed to authentication refusals
  /// above which the controller backs off shipping (released at half).
  double adapt_refusal_frac = 0.5;
  /// Per-epoch abort count in one victim x winner conflict-matrix cell that
  /// counts as "hot" for the per-site lock-wait flip.
  int adapt_hot_conflicts = 8;

  // ---- observability (obs/) ----
  /// Cadence of the time-series sampler, seconds; 0 (the default) disables
  /// it entirely — no event is ever scheduled, keeping the event sequence
  /// bit-identical to a build without the sampler.
  double obs_sample_interval = 0.0;

  /// Span-sink specification for the driver: "" (default, no sink),
  /// "perfetto:PATH" (Chrome trace-event / Perfetto JSON), or "csv:PATH"
  /// (scalar event CSV). Attaching a sink changes emission only, never
  /// simulated timing. A path that cannot be opened is one [WARN] line,
  /// and the run goes on without the sink.
  std::string obs_span_sink;

  /// Span trees listed in the run report's slowest-transactions section.
  int report_top_k = 5;

  /// Per-resource continuous telemetry: time-weighted IO-device occupancy,
  /// lock-manager wait-queue lengths, and link in-flight message counts,
  /// surfaced in the sampler series, Perfetto counter tracks, and the
  /// registry export. Off by default — when false no gauge is maintained,
  /// and enabling it only adds state writes (no events, no RNG forks), so
  /// the event sequence and metrics stay bit-identical either way.
  bool obs_resource_telemetry = false;

  /// Lock-access heat counters: the lock space is folded into this many
  /// equal-width buckets per lock manager and every request/authentication
  /// access increments its bucket. 0 (the default) keeps the counters
  /// entirely absent; like the gauges above, enabling them never perturbs
  /// the simulation.
  int obs_heat_buckets = 0;

  /// When non-empty, `run_simulation` serializes the metric registry as a
  /// canonical JSON run artifact at this path (schema in
  /// docs/OBSERVABILITY.md; diffed and gated by tools/hlsreport). A path
  /// that cannot be written is one [WARN] line; the run still returns.
  std::string obs_artifact;

  /// Lock ids mastered by site s: [s*partition, (s+1)*partition).
  [[nodiscard]] std::uint32_t partition_size() const {
    return lockspace / static_cast<std::uint32_t>(num_sites);
  }

  [[nodiscard]] int owner_site(LockId lock) const {
    const int site = static_cast<int>(lock / partition_size());
    return site >= num_sites ? num_sites - 1 : site;  // remainder ids -> last site
  }

  [[nodiscard]] double local_cpu_seconds(double instructions) const {
    return instructions / (local_mips * 1e6);
  }

  /// Site s's CPU speed (the per-site override when present).
  [[nodiscard]] double site_mips(int s) const {
    return local_mips_per_site.empty() ? local_mips
                                       : local_mips_per_site[static_cast<std::size_t>(s)];
  }

  [[nodiscard]] double site_cpu_seconds(int s, double instructions) const {
    return instructions / (site_mips(s) * 1e6);
  }

  [[nodiscard]] double central_cpu_seconds(double instructions) const {
    return instructions / (central_mips * 1e6);
  }

  /// Total new-transaction arrival rate over all sites, txn/s.
  [[nodiscard]] double total_arrival_rate() const {
    return arrival_rate_per_site * num_sites;
  }

  /// The first violated rule as a message naming its key, or std::nullopt:
  /// every key's allowed values (for_each_config_key below), then the
  /// cross-field rules. Text entry points report it; validate() asserts it.
  [[nodiscard]] std::optional<std::string> check() const;

  /// Aborts if check() reports a problem (a library bug for configs built
  /// in code; config text is checked before it gets here).
  void validate() const {
    const std::optional<std::string> problem = check();
    HLS_ASSERT(!problem, problem->c_str());
  }
};

// ---- config keys ----------------------------------------------------------
//
// for_each_config_key() names every text key once, with the field it sets
// and its allowed values. core/config_io parses and describes config text
// by walking it, and SystemConfig::check() tests each field against it.
// Each kind of allowed values has `allows(value)` and `need()`, the text
// after "<key> must be " in the error for a value it does not allow.

/// Allowed values of a numeric key: `lo` to `hi`, each end closed unless
/// marked open. Values must also be finite; an integer or bool field takes
/// whole numbers its type can hold.
struct KeyRange {
  double lo = 0.0;
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  [[nodiscard]] bool allows(double v) const {
    // The lower test fails for NaN and -inf; an infinite `hi` is never
    // reached, so +inf fails the upper one.
    const bool below = hi_open || std::isinf(hi) ? v < hi : v <= hi;
    return (lo_open ? v > lo : v >= lo) && below;
  }

  [[nodiscard]] std::string need() const {
    if (!std::isinf(hi)) {
      return (lo_open ? "in (" : "in [") + format_shortest(lo) + ", " +
             format_shortest(hi) + (hi_open ? ")" : "]");
    }
    if (lo == 0) {
      return lo_open ? "positive and finite" : "non-negative and finite";
    }
    return (lo_open ? "greater than " : "at least ") + format_shortest(lo) +
           " and finite";
  }
};

inline constexpr KeyRange kNonNegative{};
inline constexpr KeyRange kPositive{.lo_open = true};
inline constexpr KeyRange kUnitInterval{.hi = 1.0};
inline constexpr KeyRange kUnitIntervalOpen{.hi = 1.0, .hi_open = true};
inline constexpr KeyRange kFlag = kUnitInterval;  ///< bool fields: 0 or 1

/// Spellings of an enum key, indexed by enumerator value.
template <std::size_t N>
struct KeyNames {
  const char* names[N];

  template <class E>
  [[nodiscard]] bool allows(E v) const {
    return static_cast<std::size_t>(v) < N;
  }

  [[nodiscard]] std::string need() const {
    std::string text = names[0];
    for (std::size_t i = 1; i < N; ++i) {
      text += std::string("|") + names[i];
    }
    return text;
  }
};
template <class... S>
KeyNames(S...) -> KeyNames<sizeof...(S)>;

/// A text key that is empty or one of `prefixes` followed by a path.
template <std::size_t N>
struct KeyPrefixes {
  const char* prefixes[N];

  [[nodiscard]] bool allows(const std::string& v) const {
    for (const char* prefix : prefixes) {
      if (v.rfind(prefix, 0) == 0) {
        return true;
      }
    }
    return v.empty();
  }

  [[nodiscard]] std::string need() const {
    std::string text = "empty";
    for (std::size_t i = 0; i < N; ++i) {
      text += std::string(i + 1 < N ? ", " : ", or ") + prefixes[i] + "PATH";
    }
    return text;
  }
};
template <class... S>
KeyPrefixes(S...) -> KeyPrefixes<sizeof...(S)>;

/// Any value of the field's type.
struct KeyAny {
  template <class T>
  [[nodiscard]] bool allows(const T&) const {
    return true;
  }
  [[nodiscard]] std::string need() const { return "any value"; }
};

/// The error for a value of `key` that `allowed` does not allow.
template <class Allowed>
[[nodiscard]] std::string key_error(const char* key, const Allowed& allowed) {
  return std::string(key) + " must be " + allowed.need();
}

/// Calls `key(name, field, allowed)` for every config key, in the order
/// describe_config writes them; `Config` is SystemConfig or const
/// SystemConfig. The repeatable `fault=` key (parse_fault_window grammar)
/// is not in the list.
template <class Config, class Key>
void for_each_config_key(Config& c, Key&& key) {
  key("num_sites", c.num_sites, KeyRange{.lo = 1});
  key("local_mips", c.local_mips, kPositive);
  key("central_mips", c.central_mips, kPositive);
  key("comm_delay", c.comm_delay, kNonNegative);
  key("arrival_rate_per_site", c.arrival_rate_per_site, kNonNegative);
  key("prob_class_a", c.prob_class_a, kUnitInterval);
  key("db_calls_per_txn", c.db_calls_per_txn, KeyRange{.lo = 1});
  key("instr_per_call", c.instr_per_call, kNonNegative);
  key("instr_msg_init", c.instr_msg_init, kNonNegative);
  key("instr_msg_commit", c.instr_msg_commit, kNonNegative);
  key("setup_io_time", c.setup_io_time, kNonNegative);
  key("call_io_time", c.call_io_time, kNonNegative);
  key("prob_call_io", c.prob_call_io, kUnitInterval);
  key("prob_write_lock", c.prob_write_lock, kUnitInterval);
  key("lockspace", c.lockspace, kNonNegative);
  key("instr_ship_forward", c.instr_ship_forward, kNonNegative);
  key("instr_apply_update", c.instr_apply_update, kNonNegative);
  key("instr_apply_update_item", c.instr_apply_update_item, kNonNegative);
  key("instr_recv_ack", c.instr_recv_ack, kNonNegative);
  key("instr_auth_local", c.instr_auth_local, kNonNegative);
  key("instr_commit_apply_local", c.instr_commit_apply_local, kNonNegative);
  key("instr_send_async", c.instr_send_async, kNonNegative);
  key("instr_remote_call", c.instr_remote_call, kNonNegative);
  key("async_batch_window", c.async_batch_window, kNonNegative);
  key("deadlock_victim", c.deadlock_victim, KeyNames{"requester", "youngest"});
  key("class_b_mode", c.class_b_mode, KeyNames{"ship", "remote-calls"});
  key("seed", c.seed, KeyAny{});
  key("abort_restart_delay", c.abort_restart_delay, kNonNegative);
  key("max_reruns", c.max_reruns, kNonNegative);
  key("livelock_backoff_after", c.livelock_backoff_after, kNonNegative);
  key("livelock_backoff", c.livelock_backoff, kNonNegative);
  key("ideal_state_info", c.ideal_state_info, kFlag);
  key("geometric_call_count", c.geometric_call_count, kFlag);
  key("ship_timeout", c.ship_timeout, kNonNegative);
  key("ship_backoff", c.ship_backoff, KeyRange{.lo = 1});
  key("ship_max_retries", c.ship_max_retries, kNonNegative);
  key("ship_jitter", c.ship_jitter, kNonNegative);
  key("obs_sample_interval", c.obs_sample_interval, kNonNegative);
  key("obs_span_sink", c.obs_span_sink, KeyPrefixes{"perfetto:", "csv:"});
  key("report_top_k", c.report_top_k, kNonNegative);
  key("obs_resource_telemetry", c.obs_resource_telemetry, kFlag);
  key("obs_heat_buckets", c.obs_heat_buckets, kNonNegative);
  key("obs_artifact", c.obs_artifact, KeyAny{});
  key("fault_random_link_rate", c.faults.random_link_outage_rate, kNonNegative);
  key("fault_random_link_duration", c.faults.random_link_outage_mean,
      kNonNegative);
  key("fault_random_horizon", c.faults.random_horizon, kNonNegative);
  key("fault_dup_prob", c.faults.dup_prob, kUnitIntervalOpen);
  key("fault_dup_delay", c.faults.dup_extra, kNonNegative);
  key("fault_reorder_prob", c.faults.reorder_prob, kUnitIntervalOpen);
  key("fault_reorder_window", c.faults.reorder_window, kNonNegative);
  key("fault_spike_prob", c.faults.spike_prob, kUnitIntervalOpen);
  key("fault_spike_factor", c.faults.spike_factor, kNonNegative);
  key("chaos_strategy", c.chaos_strategy, KeyAny{});
  key("chaos_run_seconds", c.chaos_run_seconds, kNonNegative);
  key("adapt_interval", c.adapt_interval, kNonNegative);
  key("adapt_threshold_step", c.adapt_threshold_step, kNonNegative);
  key("adapt_refusal_frac", c.adapt_refusal_frac, kUnitInterval);
  key("adapt_hot_conflicts", c.adapt_hot_conflicts, KeyRange{.lo = 1});
}

inline std::optional<std::string> SystemConfig::check() const {
  // Find the first key whose value is not allowed, then walk again to build
  // its message: the walk every validate() runs stays a few compares per
  // key, which keeps HybridSystem set-up time where it was.
  const char* bad = nullptr;
  for_each_config_key(*this, [&bad](const char* key, const auto& value,
                                    const auto& allowed) {
    if (bad == nullptr && !allowed.allows(value)) {
      bad = key;
    }
  });
  if (bad != nullptr) {
    std::string message;
    for_each_config_key(*this, [&](const char* key, const auto&,
                                   const auto& allowed) {
      if (std::string_view(key) == bad) {
        message = key_error(key, allowed);
      }
    });
    return message;
  }
  if (lockspace < static_cast<std::uint32_t>(num_sites)) {
    return "lockspace must be at least num_sites (" + std::to_string(num_sites) +
           ")";
  }
  if (!local_mips_per_site.empty() &&
      local_mips_per_site.size() != static_cast<std::size_t>(num_sites)) {
    return "local_mips_per_site must be empty or have num_sites entries";
  }
  for (double mips : local_mips_per_site) {
    if (!kPositive.allows(mips)) {
      return key_error("local_mips_per_site", kPositive);
    }
  }
  std::string fault_error;
  if (!faults.validate(num_sites, &fault_error)) {
    return "fault schedule: " + fault_error;
  }
  return std::nullopt;
}

}  // namespace hls
