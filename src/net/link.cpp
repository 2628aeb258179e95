#include "net/link.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/assert.hpp"

namespace hls {

Link::Link(Simulator& sim, double delay_seconds, std::string name)
    : sim_(sim), delay_(delay_seconds), name_(std::move(name)) {
  HLS_ASSERT(delay_ >= 0.0, "link delay must be non-negative");
}

void Link::send(Deliver deliver) {
  ++sent_;
  note_flight();
  if (!up_) {
    held_.push_back(std::move(deliver));
    return;
  }
  dispatch(std::move(deliver));
}

void Link::dispatch(Deliver deliver) {
  double delay = delay_ * delay_factor_;
  if (loss_prob_ > 0.0) {
    // Loss is modeled as retransmission: every lost attempt is detected and
    // resent, costing one more link delay. The protocol requires eventual
    // in-order delivery, so the message itself is never dropped.
    while (fault_rng_.bernoulli(loss_prob_)) {
      ++retransmitted_;
      delay += delay_ * delay_factor_;
    }
  }
  // Chaos draws happen in a fixed order (spike, dup, reorder) so a schedule
  // replays bit-identically; a knob at zero consumes no draws, keeping
  // loss-only (and fault-free) runs byte-identical to pre-chaos builds.
  if (spike_prob_ > 0.0 && fault_rng_.bernoulli(spike_prob_)) {
    ++spiked_;
    delay *= spike_factor_;
  }
  const bool dup = dup_prob_ > 0.0 && fault_rng_.bernoulli(dup_prob_);
  double straggle_extra = -1.0;
  if (reorder_prob_ > 0.0 && fault_rng_.bernoulli(reorder_prob_)) {
    straggle_extra = fault_rng_.uniform(0.0, reorder_window_);
  }

  // FIFO hold-back: never deliver before a previously sent message.
  const SimTime fifo_at = std::max(sim_.now() + delay, last_delivery_time_);

  if (!dup && straggle_extra < 0.0) {
    // Ordinary path: identical to the chaos-free link, byte for byte.
    last_delivery_time_ = fifo_at;
    flight_.push_back(std::move(deliver));
    sim_.schedule_at(fifo_at, [this] {
      Deliver cb = flight_.pop_front();
      ++delivered_;
      note_flight();
      cb();
    });
    return;
  }

  // Chaos path: the continuation may fire more than once (duplicate) or out
  // of its flight_-queue slot (straggler), so it is scheduled as a
  // standalone shared event instead of through flight_.
  SimTime at = fifo_at;
  if (straggle_extra >= 0.0) {
    // Straggler: delayed past its FIFO slot and dropped from the hold-back
    // floor, so later sends may overtake it — reordering bounded by the
    // window. It still never arrives before an earlier message's floor.
    ++reordered_;
    at = fifo_at + straggle_extra;
  } else {
    last_delivery_time_ = at;
  }
  auto shared = std::make_shared<Deliver>(std::move(deliver));
  sim_.schedule_at(at, [this, shared] {
    ++delivered_;
    note_flight();
    (*shared)();
  });
  if (dup) {
    // The duplicate fires after the primary (same-time events run in
    // schedule order) and is not counted delivered: sent_ - delivered_
    // stays a conservation law; rejecting the copy is the receiver's job.
    ++duplicated_;
    sim_.schedule_at(at + dup_extra_, [shared] { (*shared)(); });
  }
}

void Link::set_delay(double delay_seconds) {
  HLS_ASSERT(delay_seconds >= 0.0, "link delay must be non-negative");
  delay_ = delay_seconds;
}

void Link::set_up(bool up) {
  if (up == up_) {
    return;
  }
  up_ = up;
  if (up_) {
    std::vector<Deliver> held;
    held.swap(held_);
    for (Deliver& cb : held) {
      dispatch(std::move(cb));
    }
  }
}

void Link::set_delay_factor(double factor) {
  HLS_ASSERT(factor >= 0.0, "link delay factor must be non-negative");
  delay_factor_ = factor;
}

void Link::set_loss(double loss_prob) {
  HLS_ASSERT(loss_prob >= 0.0 && loss_prob < 1.0,
             "link loss probability must be in [0, 1)");
  loss_prob_ = loss_prob;
}

void Link::set_dup(double prob, double extra_delay) {
  HLS_ASSERT(prob >= 0.0 && prob < 1.0,
             "link duplicate probability must be in [0, 1)");
  HLS_ASSERT(extra_delay >= 0.0, "duplicate extra delay must be non-negative");
  dup_prob_ = prob;
  dup_extra_ = extra_delay;
}

void Link::set_reorder(double prob, double window) {
  HLS_ASSERT(prob >= 0.0 && prob < 1.0,
             "link reorder probability must be in [0, 1)");
  HLS_ASSERT(window >= 0.0, "reorder window must be non-negative");
  reorder_prob_ = prob;
  reorder_window_ = window;
}

void Link::set_delay_spike(double prob, double factor) {
  HLS_ASSERT(prob >= 0.0 && prob < 1.0,
             "delay-spike probability must be in [0, 1)");
  HLS_ASSERT(factor >= 0.0, "delay-spike factor must be non-negative");
  spike_prob_ = prob;
  spike_factor_ = factor;
}

void Link::enable_flight_telemetry(double now) {
  flight_telemetry_ = true;
  flight_tw_.reset(now);
  flight_tw_.set(now, static_cast<double>(sent_ - delivered_));
}

void Link::reset_telemetry(double now) {
  if (flight_telemetry_) {
    flight_tw_.reset(now);  // reset keeps the current signal value
  }
}

}  // namespace hls
