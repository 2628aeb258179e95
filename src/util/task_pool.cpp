#include "util/task_pool.hpp"

#include <atomic>
#include <cstdlib>

#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace hls {

std::optional<unsigned> TaskPool::parse_jobs(const std::string& text) {
  const std::optional<std::uint64_t> v = parse_uint64(text);
  if (!v.has_value() || *v < 1 || *v > kMaxJobs) {
    return std::nullopt;
  }
  return static_cast<unsigned>(*v);
}

unsigned TaskPool::jobs_from_env() {
  if (const char* raw = std::getenv("HLS_JOBS")) {
    if (const std::optional<unsigned> jobs = parse_jobs(raw)) {
      return *jobs;
    }
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      HLS_LOG_WARN("HLS_JOBS '%s' is not a whole number in [1, %u]; using the "
                   "hardware concurrency",
                   raw, kMaxJobs);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

TaskPool::TaskPool(unsigned workers)
    : workers_(workers == 0 ? jobs_from_env() : workers) {
  // The calling thread participates in every batch, so spawn one thread
  // fewer than the requested width; one worker means fully inline.
  threads_.reserve(workers_ - 1);
  for (unsigned i = 0; i + 1 < workers_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void TaskPool::parallel_for_indexed(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  HLS_ASSERT(static_cast<bool>(body), "parallel_for_indexed needs a body");
  if (n == 0) {
    return;
  }
  if (threads_.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }

  std::unique_lock<std::mutex> lk(mu_);
  HLS_ASSERT(body_ == nullptr, "parallel_for_indexed is not reentrant");
  body_ = &body;
  batch_size_ = n;
  next_index_ = 0;
  first_error_ = nullptr;
  ++generation_;
  work_cv_.notify_all();

  run_range_locked(lk);  // the caller is one of the workers

  done_cv_.wait(lk, [&] {
    return in_flight_ == 0 && (next_index_ >= batch_size_ || first_error_);
  });
  body_ = nullptr;
  batch_size_ = 0;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(err);
  }
}

void TaskPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk,
                  [&] { return stop_ || generation_ != seen_generation; });
    if (stop_) {
      return;
    }
    seen_generation = generation_;
    run_range_locked(lk);
  }
}

void TaskPool::run_range_locked(std::unique_lock<std::mutex>& lk) {
  // Claims indexes one at a time under the lock; the work itself (an entire
  // simulation run) dwarfs the claim cost, and dynamic claiming balances
  // uneven design points automatically.
  for (;;) {
    if (next_index_ >= batch_size_ || first_error_ != nullptr) {
      break;
    }
    const std::size_t index = next_index_++;
    ++in_flight_;
    lk.unlock();
    std::exception_ptr error;
    try {
      (*body_)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lk.lock();
    --in_flight_;
    if (error != nullptr && first_error_ == nullptr) {
      first_error_ = error;  // later claims stop; in-flight work drains
    }
  }
  if (in_flight_ == 0) {
    done_cv_.notify_all();
  }
}

}  // namespace hls
