#include "baseline/centralized_system.hpp"

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace hls {

CentralizedSystem::CentralizedSystem(SystemConfig cfg)
    : cfg_(cfg),
      factory_(cfg_, Rng(cfg.seed)),
      rng_(cfg.seed ^ 0xC0FFEEULL),
      cpu_(std::make_unique<FcfsResource>(sim_, "central-cpu")),
      locks_(std::make_unique<LockManager>(sim_, "central-locks")) {
  cfg_.validate();
  arrivals_.reserve(cfg_.num_sites);
  for (int s = 0; s < cfg_.num_sites; ++s) {
    arrivals_.push_back(std::make_unique<ArrivalProcess>(
        sim_, rng_.fork(), cfg_.arrival_rate_per_site));  // central.arrivals
  }
}

void CentralizedSystem::enable_arrivals() {
  for (int s = 0; s < cfg_.num_sites; ++s) {
    arrivals_[s]->start([this, s] { admit(factory_.make(s, sim_.now())); });
  }
}

void CentralizedSystem::stop_arrivals() {
  for (auto& a : arrivals_) {
    a->stop();
  }
}

void CentralizedSystem::run_for(double seconds) {
  sim_.run_until(sim_.now() + seconds);
}

void CentralizedSystem::drain() { sim_.run(); }

void CentralizedSystem::begin_measurement() {
  metrics_.reset(sim_.now());
  cpu_->reset_stats();
}

void CentralizedSystem::end_measurement() { metrics_.measure_end = sim_.now(); }

TxnId CentralizedSystem::inject(TxnClass cls, int site) {
  Transaction txn = factory_.make_of_class(cls, site, sim_.now());
  const TxnId id = txn.id;
  admit(std::move(txn));
  return id;
}

void CentralizedSystem::admit(Transaction txn) {
  ++metrics_.arrivals;
  Transaction* t = arena_.adopt(std::move(txn));
  // Input message travels terminal -> central.
  sim_.schedule_after(cfg_.comm_delay, [this, ticket = t->ticket] {
    if (Transaction* txn2 = arena_.find(ticket)) {
      start_run(txn2);
    }
  });
}

void CentralizedSystem::start_run(Transaction* txn) {
  cpu_->submit(cfg_.central_cpu_seconds(cfg_.instr_msg_init),
               [this, ticket = txn->ticket] {
                 if (Transaction* t = arena_.find(ticket)) {
                   after_init(t);
                 }
               });
}

void CentralizedSystem::after_init(Transaction* txn) {
  if (txn->is_rerun()) {
    do_call(txn);
    return;
  }
  sim_.schedule_after(cfg_.setup_io_time, [this, ticket = txn->ticket] {
    if (Transaction* t = arena_.find(ticket)) {
      do_call(t);
    }
  });
}

void CentralizedSystem::do_call(Transaction* txn) {
  if (txn->call_index >= static_cast<int>(txn->locks.size())) {
    commit(txn);
    return;
  }
  cpu_->submit(cfg_.central_cpu_seconds(cfg_.instr_per_call),
               [this, ticket = txn->ticket] {
                 if (Transaction* t = arena_.find(ticket)) {
                   after_call_cpu(t);
                 }
               });
}

void CentralizedSystem::after_call_cpu(Transaction* txn) {
  const LockNeed& need = txn->locks[txn->call_index];
  const auto outcome =
      locks_->request(txn->id, need.id, need.mode,
                      [this, ticket = txn->ticket] {
                        if (Transaction* t = arena_.find(ticket)) {
                          lock_granted(t);
                        }
                      });
  switch (outcome) {
    case LockRequestOutcome::Granted:
    case LockRequestOutcome::AlreadyHeld:
      lock_granted(txn);
      break;
    case LockRequestOutcome::Queued:
      break;
    case LockRequestOutcome::Deadlock:
      ++metrics_.deadlock_aborts;
      abort_rerun(txn);
      break;
  }
}

void CentralizedSystem::lock_granted(Transaction* txn) {
  const bool do_io = !txn->is_rerun() && txn->call_io[txn->call_index];
  ++txn->call_index;
  if (do_io) {
    sim_.schedule_after(cfg_.call_io_time,
                        [this, ticket = txn->ticket] {
                          if (Transaction* t = arena_.find(ticket)) {
                            do_call(t);
                          }
                        });
  } else {
    do_call(txn);
  }
}

void CentralizedSystem::commit(Transaction* txn) {
  cpu_->submit(cfg_.central_cpu_seconds(cfg_.instr_msg_commit),
               [this, ticket = txn->ticket] {
                 if (Transaction* t = arena_.find(ticket)) {
                   finish(t);
                 }
               });
}

void CentralizedSystem::finish(Transaction* txn) {
  locks_->release_all(txn->id);
  // Output message travels central -> terminal.
  const double rt = sim_.now() + cfg_.comm_delay - txn->arrival_time;
  metrics_.rt_all.add(rt);
  (txn->cls == TxnClass::A ? metrics_.rt_class_a : metrics_.rt_class_b).add(rt);
  ++metrics_.completions;
  arena_.release(txn->id);
}

void CentralizedSystem::abort_rerun(Transaction* txn) {
  locks_->release_all(txn->id);
  ++txn->run_count;
  ++txn->ticket.generation;
  txn->call_index = 0;
  HLS_ASSERT(txn->run_count <= cfg_.max_reruns, "centralized baseline livelock");
  start_run(txn);
}

void CentralizedSystem::export_registry(obs::Registry& reg) const {
  const BaselineMetrics& m = metrics_;
  const obs::Registry::Scope root = reg.root();
  root.counter("txn.arrivals", m.arrivals, "txns");
  root.counter("txn.completions", m.completions, "txns");
  root.counter("aborts.deadlock", m.deadlock_aborts);
  root.gauge("txn.live", static_cast<double>(arena_.live_count()), "txns");
  root.gauge("window.seconds", m.measure_end - m.measure_start, "s");
  root.stat("rt.all", m.rt_all, "s");
  root.stat("rt.class_a", m.rt_class_a, "s");
  root.stat("rt.class_b", m.rt_class_b, "s");

  const obs::Registry::Scope central = reg.central();
  central.time_weighted("cpu.util", cpu_->utilization(),
                        cpu_->busy() ? 1.0 : 0.0, "fraction");
  central.time_weighted("cpu.queue", cpu_->average_queue_length(),
                        static_cast<double>(cpu_->queue_length()), "jobs");
  central.counter("cpu.bursts", cpu_->completed_bursts(), "bursts");
  central.gauge("cpu.busy_seconds", cpu_->busy_seconds(), "s");
  central.gauge("cpu.sojourn_seconds", cpu_->sojourn_seconds(), "s");
  central.gauge("locks.held", static_cast<double>(locks_->locks_held()),
                "locks");
  central.gauge("locks.waiters", static_cast<double>(locks_->waiters()),
                "txns");
  central.counter("locks.deadlocks", locks_->deadlocks_detected(), "cycles");
}

}  // namespace hls
