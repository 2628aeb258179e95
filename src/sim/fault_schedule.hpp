// Deterministic fault-injection schedule: link outages/degradations and
// site/central crash+recovery windows, expanded into a sorted transition
// timeline before the simulation starts.
//
// The schedule is pure data below the hybrid layer: HybridSystem turns each
// FaultTransition into the protocol-level consequence (hold link traffic,
// abort resident transactions, replay backlogs). Windows come from config
// (explicit, reproducible) or from a seed-forked RNG stream (random link
// outages), so two runs at the same seed see bit-identical fault timelines
// and an empty schedule costs nothing — no RNG stream is even forked.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/random.hpp"

namespace hls {

enum class FaultKind : std::uint8_t {
  CentralOutage,  ///< central complex crashes; residents abort, backlog replays
  SiteOutage,     ///< a site's DB crashes; local txns abort, deliveries defer
  LinkOutage,     ///< both directions of a site's link hold traffic
  LinkDegrade,    ///< delay multiplier and/or retransmission loss on a link
  MsgFault,       ///< message-level chaos: duplicates, reordering, delay spikes
};

/// One contiguous fault window [start, start + duration).
struct FaultWindow {
  FaultKind kind = FaultKind::LinkOutage;
  int site = -1;        ///< target site; -1 = every site (ignored for CentralOutage)
  double start = 0.0;   ///< simulation seconds
  double duration = 0.0;
  double delay_factor = 1.0;  ///< LinkDegrade: multiplier on the link delay
  double loss_prob = 0.0;     ///< LinkDegrade: per-message loss (retransmitted)
  // MsgFault knobs (per-message probabilities while the window is active;
  // the duplicate extra delay and reorder window come from the schedule's
  // steady-state fields below):
  double dup_prob = 0.0;      ///< MsgFault: duplicate-delivery probability
  double reorder_prob = 0.0;  ///< MsgFault: straggler (reorder) probability
  double spike_prob = 0.0;    ///< MsgFault: delay-spike probability
  double spike_factor = 1.0;  ///< MsgFault: delay multiplier for a spiked message
};

/// Config-level description: explicit windows plus optional random link
/// outages generated per site from a forked RNG stream.
struct FaultScheduleConfig {
  std::vector<FaultWindow> windows;

  // Random link outages: each site's link fails as a Poisson process with
  // `random_link_outage_rate` starts/second (exponential outage lengths of
  // mean `random_link_outage_mean`), generated over [0, random_horizon).
  double random_link_outage_rate = 0.0;
  double random_link_outage_mean = 0.0;
  double random_horizon = 0.0;

  // Steady-state message-level chaos, applied to every link for the whole
  // run (msg_fault windows override the probabilities while active and
  // restore these at the window end). dup_extra is the duplicate's delay
  // after the primary delivery; reorder_window bounds how far a straggler
  // slips (0 = one link delay).
  double dup_prob = 0.0;
  double dup_extra = 0.0;
  double reorder_prob = 0.0;
  double reorder_window = 0.0;
  double spike_prob = 0.0;
  double spike_factor = 1.0;

  /// True when any steady-state or windowed message-level fault is active
  /// somewhere in the schedule.
  [[nodiscard]] bool message_faults() const;

  /// True when the schedule injects nothing; HybridSystem then skips all
  /// fault machinery (including the RNG forks) so fault-free runs are
  /// byte-identical to builds without this subsystem.
  [[nodiscard]] bool empty() const {
    return windows.empty() &&
           (random_link_outage_rate <= 0.0 || random_horizon <= 0.0) &&
           dup_prob <= 0.0 && reorder_prob <= 0.0 && spike_prob <= 0.0;
  }

  /// Window checks (out-of-range sites, negative times, unusable degrade or
  /// msg_fault parameters) and the random-outage mean: returns false and
  /// fills `error`. The scalar fields' ranges live in the config key list
  /// (hybrid/config.hpp), which SystemConfig::check() applies first.
  [[nodiscard]] bool validate(int num_sites, std::string* error = nullptr) const;
};

/// One edge of a window: at `time`, the fault `begin`s or ends.
struct FaultTransition {
  double time = 0.0;
  FaultKind kind = FaultKind::LinkOutage;
  int site = -1;  ///< -1 = every site
  bool begin = true;
  double delay_factor = 1.0;
  double loss_prob = 0.0;
  double dup_prob = 0.0;      ///< MsgFault begin: window probabilities
  double reorder_prob = 0.0;
  double spike_prob = 0.0;
  double spike_factor = 1.0;
};

/// Expands a FaultScheduleConfig into a deterministic, time-sorted transition
/// list. Random windows are generated sequentially per site (never
/// overlapping on one link); ties are broken end-before-begin, then by kind
/// and site, so the timeline is independent of container layout.
class FaultSchedule {
 public:
  FaultSchedule(const FaultScheduleConfig& cfg, int num_sites, Rng rng);

  [[nodiscard]] const std::vector<FaultTransition>& transitions() const {
    return transitions_;
  }

 private:
  std::vector<FaultTransition> transitions_;
};

/// Stable text name used by config round-tripping ("central_outage", ...).
[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// Parses one config-file fault entry:
///   central_outage:<start>:<duration>
///   site_outage:<site|all>:<start>:<duration>
///   link_outage:<site|all>:<start>:<duration>
///   link_degrade:<site|all>:<start>:<duration>:<delay_factor>:<loss_prob>
///   msg_fault:<site|all>:<start>:<duration>:<dup_prob>:<reorder_prob>
///            :<spike_prob>:<spike_factor>
/// Returns false and fills `error` (user-facing message) on malformed input.
[[nodiscard]] bool parse_fault_window(const std::string& text, FaultWindow* out,
                                      std::string* error = nullptr);

/// Inverse of parse_fault_window (valid input to it).
[[nodiscard]] std::string format_fault_window(const FaultWindow& window);

}  // namespace hls
