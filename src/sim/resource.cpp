#include "sim/resource.hpp"

#include <utility>

#include "util/assert.hpp"

namespace hls {

FcfsResource::FcfsResource(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {
  record_state();
}

void FcfsResource::submit(double service_time, Callback on_complete) {
  HLS_ASSERT(service_time >= 0.0, "negative CPU service time");
  queue_.push_back(Job{service_time, std::move(on_complete), sim_.now()});
  if (queue_.size() == 1) {
    start_front();
  }
  record_state();
}

void FcfsResource::start_front() {
  sim_.schedule_after(queue_.front().service_time,
                      [this] { on_service_complete(); });
}

void FcfsResource::on_service_complete() {
  HLS_ASSERT(!queue_.empty(), "completion without a job in service");
  Job job = queue_.pop_front();
  ++completed_;
  busy_seconds_ += job.service_time;
  sojourn_seconds_ += sim_.now() - job.submitted;
  if (!queue_.empty()) {
    start_front();
  }
  record_state();
  // Invoke the completion after starting the next job so that work the
  // callback submits queues behind already-waiting jobs (strict FCFS).
  if (job.on_complete) {
    job.on_complete();
  }
}

void FcfsResource::record_state() {
  busy_stat_.set(sim_.now(), busy() ? 1.0 : 0.0);
  queue_stat_.set(sim_.now(), static_cast<double>(queue_length()));
}

double FcfsResource::utilization() const { return busy_stat_.average(sim_.now()); }

double FcfsResource::average_queue_length() const {
  return queue_stat_.average(sim_.now());
}

void FcfsResource::reset_stats() {
  busy_stat_.reset(sim_.now());
  queue_stat_.reset(sim_.now());
  completed_ = 0;
  busy_seconds_ = 0.0;
  sojourn_seconds_ = 0.0;
}

}  // namespace hls
