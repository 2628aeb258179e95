#include "baseline/distributed_system.hpp"

#include <algorithm>

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace hls {

DistributedSystem::DistributedSystem(SystemConfig cfg, DistributedOptions opts)
    : cfg_(cfg),
      opts_(opts),
      factory_(cfg_, Rng(cfg.seed)),
      rng_(cfg.seed ^ 0xD157ULL) {
  cfg_.validate();
  HLS_ASSERT(opts_.lock_timeout > 0.0, "lock timeout must be positive");
  sites_.resize(cfg_.num_sites);
  for (int s = 0; s < cfg_.num_sites; ++s) {
    const std::string tag = "dsite" + std::to_string(s);
    sites_[s].cpu = std::make_unique<FcfsResource>(sim_, tag + "-cpu");
    sites_[s].locks = std::make_unique<LockManager>(sim_, tag + "-locks");
    sites_[s].arrivals = std::make_unique<ArrivalProcess>(
        sim_, rng_.fork(), cfg_.arrival_rate_per_site);  // distributed.site-arrivals
  }
}

void DistributedSystem::enable_arrivals() {
  for (int s = 0; s < cfg_.num_sites; ++s) {
    sites_[s].arrivals->start(
        [this, s] { admit(factory_.make(s, sim_.now())); });
  }
}

void DistributedSystem::stop_arrivals() {
  for (Site& site : sites_) {
    site.arrivals->stop();
  }
}

void DistributedSystem::run_for(double seconds) {
  sim_.run_until(sim_.now() + seconds);
}

void DistributedSystem::drain() { sim_.run(); }

void DistributedSystem::begin_measurement() {
  metrics_.reset(sim_.now());
  for (Site& site : sites_) {
    site.cpu->reset_stats();
  }
}

void DistributedSystem::end_measurement() { metrics_.measure_end = sim_.now(); }

TxnId DistributedSystem::inject(TxnClass cls, int site) {
  Transaction txn = factory_.make_of_class(cls, site, sim_.now());
  const TxnId id = txn.id;
  admit(std::move(txn));
  return id;
}

const LockManager& DistributedSystem::site_locks(int site) const {
  HLS_ASSERT(site >= 0 && site < cfg_.num_sites, "site index out of range");
  return *sites_[site].locks;
}

double DistributedSystem::site_utilization(int site) const {
  HLS_ASSERT(site >= 0 && site < cfg_.num_sites, "site index out of range");
  return sites_[site].cpu->utilization();
}

void DistributedSystem::admit(Transaction txn) {
  ++metrics_.arrivals;
  // Terminals are local to the home site: no input delay.
  start_run(arena_.adopt(std::move(txn)));
}

void DistributedSystem::start_run(Transaction* txn) {
  sites_[txn->home_site].cpu->submit(
      cfg_.local_cpu_seconds(cfg_.instr_msg_init),
      [this, ticket = txn->ticket] {
        if (Transaction* t = arena_.find(ticket)) {
          after_init(t);
        }
      });
}

void DistributedSystem::after_init(Transaction* txn) {
  if (txn->is_rerun()) {
    do_call(txn);
    return;
  }
  sim_.schedule_after(cfg_.setup_io_time,
                      [this, ticket = txn->ticket] {
                        if (Transaction* t = arena_.find(ticket)) {
                          do_call(t);
                        }
                      });
}

void DistributedSystem::do_call(Transaction* txn) {
  if (txn->call_index >= static_cast<int>(txn->locks.size())) {
    commit(txn);
    return;
  }
  sites_[txn->home_site].cpu->submit(
      cfg_.local_cpu_seconds(cfg_.instr_per_call),
      [this, ticket = txn->ticket] {
        if (Transaction* t = arena_.find(ticket)) {
          after_call_cpu(t);
        }
      });
}

void DistributedSystem::after_call_cpu(Transaction* txn) {
  const int owner = cfg_.owner_site(txn->locks[txn->call_index].id);
  if (owner == txn->home_site) {
    request_local(txn);
  } else {
    request_remote(txn, owner);
  }
}

void DistributedSystem::request_local(Transaction* txn) {
  const LockNeed& need = txn->locks[txn->call_index];
  LockManager& lm = *sites_[txn->home_site].locks;
  const auto outcome =
      lm.request(txn->id, need.id, need.mode,
                 [this, ticket = txn->ticket] {
                   if (Transaction* t = arena_.find(ticket)) {
                     after_lock(t, /*remote=*/false);
                   }
                 });
  switch (outcome) {
    case LockRequestOutcome::Granted:
    case LockRequestOutcome::AlreadyHeld:
      after_lock(txn, /*remote=*/false);
      break;
    case LockRequestOutcome::Queued:
      break;
    case LockRequestOutcome::Deadlock:
      ++metrics_.deadlock_aborts;
      abort_rerun(txn, /*timed_out=*/false);
      break;
  }
}

void DistributedSystem::request_remote(Transaction* txn, int owner) {
  ++metrics_.remote_calls;
  const LockNeed need = txn->locks[txn->call_index];
  const TxnId id = txn->id;
  const TxnTicket ticket = txn->ticket;
  // Send leg: message-handling pathlength at home, one delay, handling at
  // the owner, then the lock request in the owner's table.
  sites_[txn->home_site].cpu->submit(
      cfg_.local_cpu_seconds(opts_.instr_remote_msg), [this, id, ticket, owner,
                                                       need] {
        sim_.schedule_after(cfg_.comm_delay, [this, id, ticket, owner, need] {
          sites_[owner].cpu->submit(
              cfg_.local_cpu_seconds(opts_.instr_remote_msg),
              [this, id, ticket, owner, need] {
                LockManager& lm = *sites_[owner].locks;
                const auto outcome = lm.request(
                    id, need.id, need.mode, [this, id, ticket, owner, need] {
                      remote_granted(id, ticket, owner, need.id);
                    });
                switch (outcome) {
                  case LockRequestOutcome::Granted:
                  case LockRequestOutcome::AlreadyHeld:
                    remote_granted(id, ticket, owner, need.id);
                    break;
                  case LockRequestOutcome::Queued: {
                    // Cross-site waits are invisible to any one site's
                    // deadlock detector: arm the timeout. The firing check
                    // verifies the transaction is still blocked on THIS
                    // lock — the same run may legitimately wait on a later
                    // lock at the same owner inside the timeout window.
                    sim_.schedule_after(
                        opts_.lock_timeout, [this, id, ticket, owner,
                                             lock = need.id] {
                          Transaction* t = arena_.find(ticket);
                          if (t != nullptr &&
                              sites_[owner].locks->waiting_lock(id) == lock) {
                            sites_[owner].locks->cancel_waits(id);
                            ++metrics_.timeout_aborts;
                            abort_rerun(t, /*timed_out=*/true);
                          }
                        });
                    break;
                  }
                  case LockRequestOutcome::Deadlock:
                    // A cycle local to the owner site; report back as a
                    // failure and abort at home.
                    if (Transaction* t = arena_.find(ticket)) {
                      ++metrics_.deadlock_aborts;
                      abort_rerun(t, /*timed_out=*/false);
                    }
                    break;
                }
              });
        });
      });
}

void DistributedSystem::remote_granted(TxnId id, TxnTicket ticket, int owner,
                                       LockId lock) {
  // The owner performs the call's I/O, then the reply travels home.
  Transaction* peek = arena_.find(ticket);
  if (peek == nullptr) {
    // Granted to a transaction that aborted meanwhile: drop the stray hold.
    if (sites_[owner].locks->holds(id, lock)) {
      sites_[owner].locks->release(id, lock);
    }
    return;
  }
  const bool do_io = !peek->is_rerun() && peek->call_io[peek->call_index];
  const double io = do_io ? cfg_.call_io_time : 0.0;
  sim_.schedule_after(io, [this, ticket] {
    sim_.schedule_after(cfg_.comm_delay, [this, ticket] {
      if (Transaction* t = arena_.find(ticket)) {
        sites_[t->home_site].cpu->submit(
            cfg_.local_cpu_seconds(opts_.instr_remote_msg),
            [this, ticket] {
              if (Transaction* t2 = arena_.find(ticket)) {
                after_lock(t2, /*remote=*/true);
              }
            });
      }
    });
  });
}

void DistributedSystem::after_lock(Transaction* txn, bool remote) {
  // Local calls do their I/O at home; remote calls already did it at the
  // owner inside remote_granted.
  const bool do_io =
      !remote && !txn->is_rerun() && txn->call_io[txn->call_index];
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

std::vector<int> DistributedSystem::remote_participants(
    const Transaction& txn) const {
  std::vector<int> out;
  for (const LockNeed& need : txn.locks) {
    const int owner = cfg_.owner_site(need.id);
    if (owner != txn.home_site &&
        std::find(out.begin(), out.end(), owner) == out.end()) {
      out.push_back(owner);
    }
  }
  return out;
}

void DistributedSystem::commit(Transaction* txn) {
  sites_[txn->home_site].cpu->submit(
      cfg_.local_cpu_seconds(cfg_.instr_msg_commit),
      [this, ticket = txn->ticket] {
        if (Transaction* t = arena_.find(ticket)) {
          after_commit_cpu(t);
        }
      });
}

void DistributedSystem::after_commit_cpu(Transaction* txn) {
  const std::vector<int> participants = remote_participants(*txn);
  if (participants.empty()) {
    finish(txn);
    return;
  }
  // Two-phase commit, happy path: prepare round trip to every participant,
  // response released once all votes are in.
  txn->auth_pending_acks = static_cast<int>(participants.size());
  for (int p : participants) {
    sim_.schedule_after(cfg_.comm_delay, [this, ticket = txn->ticket, p] {
      sites_[p].cpu->submit(
          cfg_.local_cpu_seconds(cfg_.instr_commit_apply_local),
          [this, ticket] {
            sim_.schedule_after(cfg_.comm_delay, [this, ticket] {
              prepare_acked(arena_.find(ticket));
            });
          });
    });
  }
}

void DistributedSystem::prepare_acked(Transaction* txn) {
  HLS_ASSERT(txn != nullptr, "prepare ack for a missing transaction");
  HLS_ASSERT(txn->auth_pending_acks > 0, "unexpected prepare ack");
  if (--txn->auth_pending_acks == 0) {
    finish(txn);
  }
}

void DistributedSystem::finish(Transaction* txn) {
  // Release at home now; release messages to participants take one delay.
  sites_[txn->home_site].locks->release_all(txn->id);
  for (int p : remote_participants(*txn)) {
    // Release messages are keyed on the immutable TxnId alone: the txn
    // completes here and ids are never reused, so no ticket is needed.
    // hlslint:allow(callback-epoch)
    sim_.schedule_after(cfg_.comm_delay, [this, id = txn->id, p] {
      sites_[p].locks->release_all(id);
    });
  }
  const double rt = sim_.now() - txn->arrival_time;
  metrics_.rt_all.add(rt);
  (txn->cls == TxnClass::A ? metrics_.rt_class_a : metrics_.rt_class_b).add(rt);
  ++metrics_.completions;
  arena_.release(txn->id);
}

void DistributedSystem::abort_rerun(Transaction* txn, bool timed_out) {
  sites_[txn->home_site].locks->release_all(txn->id);
  const std::vector<int> participants = remote_participants(*txn);
  for (int p : participants) {
    // Stale-release safety comes from the rerun backoff below (the rerun
    // cannot re-acquire before these fire), not from a ticket.
    // hlslint:allow(callback-epoch)
    sim_.schedule_after(cfg_.comm_delay,
                        [this, id = txn->id, p] { sites_[p].locks->release_all(id); });
  }
  ++txn->run_count;
  ++txn->ticket.generation;
  txn->call_index = 0;
  txn->auth_pending_acks = 0;
  HLS_ASSERT(txn->run_count <= cfg_.max_reruns, "distributed baseline livelock");
  // Back off past the release messages (comm_delay) so a rerun can never
  // race its own lock releases; timeouts add a randomized component to
  // de-synchronize repeated cross-site collisions.
  double backoff = participants.empty() ? 0.0 : cfg_.comm_delay;
  if (timed_out) {
    backoff += rng_.uniform(0.05, opts_.restart_backoff_max);
  }
  sim_.schedule_after(backoff, [this, ticket = txn->ticket] {
    if (Transaction* t = arena_.find(ticket)) {
      start_run(t);
    }
  });
}

void DistributedSystem::export_registry(obs::Registry& reg) const {
  const BaselineMetrics& m = metrics_;
  const obs::Registry::Scope root = reg.root();
  root.counter("txn.arrivals", m.arrivals, "txns");
  root.counter("txn.completions", m.completions, "txns");
  root.counter("msg.remote_calls", m.remote_calls, "calls");
  root.counter("aborts.deadlock", m.deadlock_aborts);
  root.counter("aborts.lock_timeout", m.timeout_aborts);
  root.gauge("txn.live", static_cast<double>(arena_.live_count()), "txns");
  root.gauge("window.seconds", m.measure_end - m.measure_start, "s");
  root.stat("rt.all", m.rt_all, "s");
  root.stat("rt.class_a", m.rt_class_a, "s");
  root.stat("rt.class_b", m.rt_class_b, "s");

  for (int s = 0; s < cfg_.num_sites; ++s) {
    const Site& site = sites_[static_cast<std::size_t>(s)];
    const obs::Registry::Scope sc = reg.site(s);
    sc.time_weighted("cpu.util", site.cpu->utilization(),
                     site.cpu->busy() ? 1.0 : 0.0, "fraction");
    sc.time_weighted("cpu.queue", site.cpu->average_queue_length(),
                     static_cast<double>(site.cpu->queue_length()), "jobs");
    sc.counter("cpu.bursts", site.cpu->completed_bursts(), "bursts");
    sc.gauge("cpu.busy_seconds", site.cpu->busy_seconds(), "s");
    sc.gauge("cpu.sojourn_seconds", site.cpu->sojourn_seconds(), "s");
    sc.gauge("locks.held", static_cast<double>(site.locks->locks_held()),
             "locks");
    sc.gauge("locks.waiters", static_cast<double>(site.locks->waiters()),
             "txns");
    sc.counter("locks.deadlocks", site.locks->deadlocks_detected(), "cycles");
  }
}

}  // namespace hls
