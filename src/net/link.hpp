// Point-to-point communication link with fixed propagation delay and
// guaranteed in-order delivery.
//
// The hybrid protocol requires that asynchronous update messages from a
// local site are processed at the central site in origination order (§2 of
// the paper: "the communications protocol must ensure that these
// asynchronous messages are delivered and processed at the central site in
// the order that they were originated"). Link enforces FIFO delivery even
// if the delay is changed mid-run: a message is never delivered before one
// sent earlier on the same link.
//
// Fault injection (sim/fault_schedule) adds two tiers of degradation:
//
// Order-preserving faults — FIFO order and eventual delivery survive, so the
// protocol layer above needs no defenses:
//   * down state: messages sent while the link is down are held and released
//     in order at recovery (messages already on the wire still deliver);
//   * a delay multiplier for subsequent sends;
//   * per-message loss, modeled as retransmission — each lost attempt costs
//     one extra link delay before the message finally gets through;
//   * delay spikes: a per-message probability that one send pays an extra
//     delay factor; the FIFO hold-back stalls the whole stream behind it.
//
// Message-level chaos faults — these deliberately violate exactly-once
// in-order delivery, and exist to exercise the hybrid layer's sequence-number
// defenses (docs/CHAOS.md):
//   * duplicate delivery: the message's continuation fires a second time a
//     fixed interval after the first;
//   * bounded reordering: the message becomes a straggler — it is delayed by
//     up to a window beyond its FIFO slot and released from the FIFO
//     hold-back bookkeeping, so later sends may overtake it.
// Every delivery still happens: chaos never drops a message, because the
// coherence and authentication machinery cannot tolerate one that never
// arrives. All draws come from the seed-forked RNG installed via
// set_fault_rng; with every probability at zero no draws are consumed and
// the schedule is byte-identical to a chaos-free build.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "util/ring.hpp"
#include "util/stats.hpp"
#include "util/unique_function.hpp"

namespace hls {

class Link {
 public:
  /// Move-only: delivery continuations run once per delivery; UniqueFunction
  /// keeps the protocol engine's captures inline where std::function
  /// heap-allocated one node per message. Under duplicate-delivery chaos the
  /// same continuation object is invoked more than once (it stays valid
  /// until destroyed), so continuations must be idempotent or deduplicated
  /// by the receiver.
  using Deliver = UniqueFunction<void()>;

  Link(Simulator& sim, double delay_seconds, std::string name);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Sends a message: `deliver` fires after the propagation delay, after all
  /// previously sent messages on this link have been delivered. While the
  /// link is down the message is held and dispatched at recovery.
  void send(Deliver deliver);

  [[nodiscard]] double delay() const { return delay_; }

  /// Adjusts the propagation delay for subsequent messages. In-flight
  /// messages keep their delivery times; FIFO order is still preserved.
  void set_delay(double delay_seconds);

  /// Takes the link down (held messages queue up) or brings it back up
  /// (held messages dispatch immediately, in send order). Messages already
  /// in flight when the link goes down still deliver on time.
  void set_up(bool up);
  [[nodiscard]] bool is_up() const { return up_; }

  /// Multiplier on the propagation delay for subsequent sends (degraded
  /// link); 1.0 restores the nominal delay.
  void set_delay_factor(double factor);
  [[nodiscard]] double delay_factor() const { return delay_factor_; }

  /// Per-message loss probability in [0, 1). A lost attempt is detected and
  /// retransmitted, adding one (possibly degraded) link delay per loss, so
  /// delivery remains guaranteed and in order. Draws come from the RNG
  /// installed via set_fault_rng; with loss 0 no random numbers are consumed.
  void set_loss(double loss_prob);

  /// Duplicate delivery: with probability `prob` a sent message's
  /// continuation fires a second time `extra_delay` seconds after the first
  /// delivery. The duplicate does not count as a delivered message
  /// (messages_in_flight stays conserved); it is the receiver's job to
  /// reject it. 0 disables and consumes no draws.
  void set_dup(double prob, double extra_delay);
  [[nodiscard]] double dup_prob() const { return dup_prob_; }

  /// Bounded reordering: with probability `prob` a sent message becomes a
  /// straggler — delivered up to `window` seconds after its FIFO slot and
  /// excluded from the FIFO hold-back floor, so later sends may overtake it
  /// by at most `window` seconds. 0 disables and consumes no draws.
  void set_reorder(double prob, double window);
  [[nodiscard]] double reorder_prob() const { return reorder_prob_; }

  /// Delay spikes: with probability `prob` one message's delay is multiplied
  /// by `factor`; the FIFO hold-back then stalls every later message behind
  /// it (order is preserved — this is congestion, not reordering). 0
  /// disables and consumes no draws.
  void set_delay_spike(double prob, double factor);
  [[nodiscard]] double spike_prob() const { return spike_prob_; }

  /// Installs the RNG stream used for loss/chaos draws (seed-forked by the
  /// owner).
  void set_fault_rng(Rng rng) { fault_rng_ = rng; }

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t messages_in_flight() const { return sent_ - delivered_; }
  [[nodiscard]] std::uint64_t messages_held() const { return held_.size(); }
  [[nodiscard]] std::uint64_t messages_retransmitted() const { return retransmitted_; }
  [[nodiscard]] std::uint64_t messages_duplicated() const { return duplicated_; }
  [[nodiscard]] std::uint64_t messages_reordered() const { return reordered_; }
  [[nodiscard]] std::uint64_t delay_spikes() const { return spiked_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // ---- per-resource telemetry (off unless armed; docs/OBSERVABILITY.md) ----

  /// Arms the time-weighted in-flight gauge (tracks messages_in_flight(),
  /// held messages included) from `now` on. Pure state writes: no events
  /// are ever scheduled, so arming it cannot perturb the simulation.
  void enable_flight_telemetry(double now);

  /// Restarts the telemetry window at `now` (warmup discard).
  void reset_telemetry(double now);

  [[nodiscard]] bool flight_telemetry_enabled() const { return flight_telemetry_; }

  /// Time-averaged in-flight message count since enable/reset (0 unarmed).
  [[nodiscard]] double average_in_flight(double now) const {
    return flight_telemetry_ ? flight_tw_.average(now) : 0.0;
  }

 private:
  /// Mirrors messages_in_flight() into the time-weighted gauge; call after
  /// every sent_/delivered_ mutation. A single branch when telemetry is off.
  void note_flight() {
    if (flight_telemetry_) {
      flight_tw_.set(sim_.now(), static_cast<double>(sent_ - delivered_));
    }
  }

  /// Schedules a message for delivery (loss/degrade applied, FIFO held back).
  void dispatch(Deliver deliver);

  Simulator& sim_;
  double delay_;
  std::string name_;
  SimTime last_delivery_time_ = 0.0;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  // ---- fault state ----
  bool up_ = true;
  double delay_factor_ = 1.0;
  double loss_prob_ = 0.0;
  double dup_prob_ = 0.0;
  double dup_extra_ = 0.0;
  double reorder_prob_ = 0.0;
  double reorder_window_ = 0.0;
  double spike_prob_ = 0.0;
  double spike_factor_ = 1.0;
  std::uint64_t retransmitted_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t spiked_ = 0;
  std::vector<Deliver> held_;  ///< messages sent while down, in send order
  /// Messages on the wire, in delivery order. Delivery times are monotone
  /// (FIFO hold-back) and the event queue breaks time ties by schedule
  /// order, so the front of this queue is always the next delivery — the
  /// scheduled event needs no capture beyond `this`. Chaos deliveries
  /// (duplicates, stragglers) bypass this queue: they are scheduled as
  /// standalone events carrying their own continuation.
  Ring<Deliver> flight_;
  Rng fault_rng_;              ///< consumed only when a fault probability > 0
  bool flight_telemetry_ = false;
  TimeWeightedStat flight_tw_;
};

}  // namespace hls
