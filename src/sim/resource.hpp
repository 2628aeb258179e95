// FCFS single-server resource: models each site's CPU.
//
// The paper's simulation serves CPU bursts in FIFO order with deterministic
// service times derived from instruction pathlengths ("CPU service times
// correspond to the time to execute the specific instruction pathlengths ...
// and are not exponentially distributed"). A transaction submits one burst
// at a time and releases the CPU at every lock wait, I/O and communication,
// which is exactly the submit/complete interface here.
#pragma once

#include <cstdint>
#include <string>

#include "sim/simulator.hpp"
#include "util/ring.hpp"
#include "util/stats.hpp"
#include "util/unique_function.hpp"

namespace hls {

class FcfsResource {
 public:
  /// Move-only: completion continuations capture up to ~56 bytes and run
  /// once; UniqueFunction keeps them inline where std::function would
  /// heap-allocate per burst.
  using Callback = UniqueFunction<void()>;

  FcfsResource(Simulator& sim, std::string name);

  FcfsResource(const FcfsResource&) = delete;
  FcfsResource& operator=(const FcfsResource&) = delete;

  /// Enqueues a burst of `service_time` seconds; `on_complete` fires when the
  /// burst finishes service. Zero-length bursts complete via the queue too,
  /// preserving FIFO ordering with non-zero bursts ahead of them.
  void submit(double service_time, Callback on_complete);

  /// Jobs waiting plus the one in service (the paper's "CPU queue length").
  [[nodiscard]] std::size_t queue_length() const { return queue_.size(); }

  [[nodiscard]] bool busy() const { return !queue_.empty(); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Fraction of time busy since the last stats reset.
  [[nodiscard]] double utilization() const;

  /// Time-averaged queue length (including in service) since last reset.
  [[nodiscard]] double average_queue_length() const;

  [[nodiscard]] std::uint64_t completed_bursts() const { return completed_; }

  /// Service seconds of completed bursts since the last stats reset. At any
  /// instant with no burst in service this equals ∫busy dt, which is the
  /// Little's-law identity `utilization() * window == busy_seconds()` that
  /// conservation_test asserts after a drain.
  [[nodiscard]] double busy_seconds() const { return busy_seconds_; }

  /// Summed submit→completion spans of completed bursts since the last
  /// stats reset: the other Little's-law ledger,
  /// `average_queue_length() * window == sojourn_seconds()` once the queue
  /// is empty (each burst contributes its full span to ∫queue_length dt).
  [[nodiscard]] double sojourn_seconds() const { return sojourn_seconds_; }

  /// Restarts utilization/queue statistics at the current simulation time
  /// (used to discard warmup).
  void reset_stats();

 private:
  struct Job {
    double service_time;
    Callback on_complete;
    double submitted;
  };

  /// Schedules the completion of the burst at the front of the queue.
  void start_front();
  void on_service_complete();
  void record_state();

  Simulator& sim_;
  std::string name_;
  /// The burst in service, if any, at the front; then the waiting ones.
  Ring<Job> queue_;
  std::uint64_t completed_ = 0;
  double busy_seconds_ = 0.0;
  double sojourn_seconds_ = 0.0;
  TimeWeightedStat busy_stat_;
  TimeWeightedStat queue_stat_;
};

}  // namespace hls
