// Fixed-size worker pool for embarrassingly parallel experiment batches.
//
// The simulation kernel stays single-threaded and deterministic; parallelism
// lives one level up, across independent (config, strategy) design points.
// `parallel_for_indexed(n, body)` calls body(i) for every i in [0, n)
// exactly once, distributing indexes over the workers. Determinism is by
// construction: each index's work is self-contained and writes only to its
// own result slot, so the collected output is identical regardless of thread
// count or completion order. With one worker the loop runs inline on the
// calling thread — byte-for-byte the old sequential path, no threads spawned.
//
// Worker count comes from the HLS_JOBS environment variable: a whole number
// in [1, 256] (HLS_JOBS=1 forces sequential execution). Unset, or set to
// anything else, it is hardware_concurrency.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace hls {

class TaskPool {
 public:
  static constexpr unsigned kMaxJobs = 256;

  /// `text` as a worker count: a whole number in [1, kMaxJobs], digits
  /// only; none for anything else.
  [[nodiscard]] static std::optional<unsigned> parse_jobs(const std::string& text);

  /// Worker count requested via HLS_JOBS, else hardware_concurrency (>= 1).
  /// A value parse_jobs rejects also gives hardware_concurrency and, once
  /// per process, a warning on stderr naming the variable.
  [[nodiscard]] static unsigned jobs_from_env();

  /// `workers == 0` means jobs_from_env(). A pool with one worker runs
  /// everything inline on the calling thread.
  explicit TaskPool(unsigned workers = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] unsigned worker_count() const { return workers_; }

  /// Runs body(i) for each i in [0, n) across the pool and returns when all
  /// calls have finished. Indexes are claimed dynamically, so uneven task
  /// durations balance automatically. The first exception thrown by any body
  /// call is rethrown here (remaining unclaimed indexes are skipped).
  /// Reentrant calls from inside a body are not supported.
  void parallel_for_indexed(std::size_t n,
                            const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  /// Claims and runs indexes until the batch is exhausted; `lk` must hold
  /// mu_ on entry and holds it again on return.
  void run_range_locked(std::unique_lock<std::mutex>& lk);

  const unsigned workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* body_ = nullptr;  // guarded by mu_
  std::size_t batch_size_ = 0;
  std::size_t next_index_ = 0;    // guarded by mu_
  std::size_t in_flight_ = 0;     // body calls currently executing
  std::uint64_t generation_ = 0;  // bumped per batch so workers join once
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace hls
