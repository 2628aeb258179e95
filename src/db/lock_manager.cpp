#include "db/lock_manager.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace hls {

namespace {

/// FlatMap::position's "no such key", the same for every key type.
constexpr std::size_t kAbsent = FlatMap<LockId, std::uint32_t>::kAbsent;

}  // namespace

LockManager::LockManager(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)) {}

std::size_t LockManager::entry_for(LockId lock) {
  bool inserted = false;
  const std::size_t at = table_index_.insert_position(lock, &inserted);
  if (inserted) {
    std::uint32_t& slot = table_index_.value_at(at);
    if (free_entries_.empty()) {
      slot = static_cast<std::uint32_t>(entry_pool_.size());
      entry_pool_.emplace_back();
    } else {
      slot = free_entries_.back();  // drained empty; capacity retained
      free_entries_.pop_back();
    }
  }
  return at;
}

const LockManager::Entry* LockManager::lookup_entry(LockId lock) const {
  const std::uint32_t* slot = table_index_.find(lock);
  return slot == nullptr ? nullptr : &entry_pool_[*slot];
}

std::vector<LockId>& LockManager::held_for(TxnId txn) {
  bool inserted = false;
  std::uint32_t& slot = held_index_.find_or_insert(txn, &inserted);
  if (inserted) {
    if (free_held_.empty()) {
      slot = static_cast<std::uint32_t>(held_pool_.size());
      held_pool_.emplace_back();
    } else {
      slot = free_held_.back();
      free_held_.pop_back();
    }
  }
  return held_pool_[slot];
}

void LockManager::drop_held(std::size_t index_pos) {
  const std::uint32_t slot = held_index_.value_at(index_pos);
  held_pool_[slot].clear();
  free_held_.push_back(slot);
  held_index_.erase_at(index_pos);
}

bool LockManager::grantable(const Entry& entry, TxnId txn, LockMode mode) {
  for (const Holder& h : entry.holders) {
    if (h.txn == txn) {
      continue;  // self-compatibility: upgrade path
    }
    if (mode == LockMode::Exclusive || h.mode == LockMode::Exclusive) {
      return false;
    }
  }
  return true;
}

LockRequestOutcome LockManager::request(TxnId txn, LockId lock, LockMode mode,
                                        GrantCallback on_grant,
                                        std::vector<TxnId>* cycle_out) {
  HLS_ASSERT(txn != kInvalidTxn, "invalid transaction id");
  HLS_ASSERT(waiting_on_.find(txn) == nullptr,
             "transaction already blocked on a lock");
  note_access(lock);
  const std::size_t at = entry_for(lock);
  Entry& entry = entry_at(at);

  // Already-held fast path; a shared holder asking for exclusive is an
  // upgrade (holders and the held index match one to one, so this scan
  // is the holds() test).
  Holder* upgrading = nullptr;
  for (Holder& h : entry.holders) {
    if (h.txn != txn) {
      continue;
    }
    if (h.mode == LockMode::Exclusive || mode == LockMode::Shared) {
      return LockRequestOutcome::AlreadyHeld;
    }
    upgrading = &h;  // falls through to the grant/queue logic
    break;
  }

  // Strict FIFO: a new request is granted immediately only when it is
  // compatible with the holders and nobody is queued ahead of it.
  if (entry.queue.empty() && grantable(entry, txn, mode)) {
    if (upgrading != nullptr) {
      upgrading->mode = LockMode::Exclusive;
    } else {
      entry.holders.push_back(Holder{txn, mode});
      held_for(txn).push_back(lock);
      ++holds_total_;
    }
    return LockRequestOutcome::Granted;
  }

  std::vector<TxnId> cycle = find_cycle(txn, lock);
  if (!cycle.empty()) {
    ++deadlocks_;
    if (cycle_out != nullptr) {
      *cycle_out = std::move(cycle);
    }
    drop_if_drained(at);
    return LockRequestOutcome::Deadlock;
  }

  entry.queue.push_back(Waiter{txn, mode, std::move(on_grant)});
  waiting_on_.find_or_insert(txn) = lock;
  ++waiters_total_;
  note_waiters();
  return LockRequestOutcome::Queued;
}

void LockManager::release(TxnId txn, LockId lock) {
  const std::size_t at = table_index_.position(lock);
  HLS_ASSERT(at != kAbsent, "releasing a lock with no table entry");
  Entry& entry = entry_at(at);
  erase_holder(entry, txn);
  const std::size_t held_at = held_index_.position(txn);
  HLS_ASSERT(held_at != kAbsent, "release: txn holds nothing");
  auto& vec = held_pool_[held_index_.value_at(held_at)];
  auto pos = std::find(vec.begin(), vec.end(), lock);
  HLS_ASSERT(pos != vec.end(), "release: txn does not hold this lock");
  vec.erase(pos);
  if (vec.empty()) {
    drop_held(held_at);
  }
  pump_queue(lock, entry);
  drop_if_drained(at);
}

void LockManager::release_all(TxnId txn) {
  cancel_waits(txn);
  const std::size_t held_at = held_index_.position(txn);
  if (held_at == kAbsent) {
    return;
  }
  // Copy into the scratch before dropping: pump_queue below may grant locks
  // to other transactions, growing held_pool_ and rehashing held_index_.
  const auto& held = held_pool_[held_index_.value_at(held_at)];
  release_scratch_.assign(held.begin(), held.end());
  drop_held(held_at);
  for (LockId lock : release_scratch_) {
    const std::size_t at = table_index_.position(lock);
    HLS_ASSERT(at != kAbsent, "held lock missing from table");
    Entry& entry = entry_at(at);
    erase_holder(entry, txn);
    pump_queue(lock, entry);
    drop_if_drained(at);
  }
}

std::vector<LockId> LockManager::cancel_waits(TxnId txn) {
  std::vector<LockId> cancelled;
  const LockId* waiting = waiting_on_.find(txn);
  if (waiting == nullptr) {
    return cancelled;
  }
  const LockId lock = *waiting;
  const std::size_t at = table_index_.position(lock);
  HLS_ASSERT(at != kAbsent, "waiting on a lock with no table entry");
  Entry& entry = entry_at(at);
  // One rotation through the queue: every other waiter goes back on the
  // tail, so their order is kept.
  for (std::size_t n = entry.queue.size(); n > 0; --n) {
    Waiter w = entry.queue.pop_front();
    if (w.txn == txn) {
      --waiters_total_;
      cancelled.push_back(lock);
    } else {
      entry.queue.push_back(std::move(w));
    }
  }
  waiting_on_.erase(txn);
  note_waiters();
  // Removing a queued request can unblock the head (e.g. an X request that
  // was queued behind the cancelled one).
  pump_queue(lock, entry);
  drop_if_drained(at);
  return cancelled;
}

bool LockManager::holds(TxnId txn, LockId lock) const {
  const std::uint32_t* slot = held_index_.find(txn);
  if (slot == nullptr) {
    return false;
  }
  const auto& vec = held_pool_[*slot];
  return std::find(vec.begin(), vec.end(), lock) != vec.end();
}

bool LockManager::is_waiting(TxnId txn) const {
  return waiting_on_.find(txn) != nullptr;
}

std::optional<LockId> LockManager::waiting_lock(TxnId txn) const {
  const LockId* lock = waiting_on_.find(txn);
  return lock == nullptr ? std::nullopt : std::optional<LockId>(*lock);
}

std::vector<LockManager::HolderInfo> LockManager::holders_of(LockId lock) const {
  std::vector<HolderInfo> out;
  const Entry* entry = lookup_entry(lock);
  if (entry == nullptr) {
    return out;
  }
  out.reserve(entry->holders.size());
  for (const Holder& h : entry->holders) {
    out.push_back(HolderInfo{h.txn, h.mode});
  }
  return out;
}

std::vector<LockId> LockManager::held_locks(TxnId txn) const {
  const std::uint32_t* slot = held_index_.find(txn);
  return slot == nullptr ? std::vector<LockId>{} : held_pool_[*slot];
}

LockManager::GrabResult LockManager::grab_for_authentication(TxnId grabber, LockId lock,
                                                             LockMode mode) {
  GrabResult result;
  note_access(lock);
  const std::size_t at = entry_for(lock);
  Entry& entry = entry_at(at);
  if (entry.coherence != 0) {
    // In-flight asynchronous update: the central copy is stale, refuse.
    drop_if_drained(at);
    return result;
  }
  result.granted = true;

  bool grabber_holds = false;
  for (auto it = entry.holders.begin(); it != entry.holders.end();) {
    if (it->txn == grabber) {
      grabber_holds = true;
      if (mode == LockMode::Exclusive) {
        it->mode = LockMode::Exclusive;
      }
      ++it;
      continue;
    }
    const bool conflict =
        mode == LockMode::Exclusive || it->mode == LockMode::Exclusive;
    if (conflict) {
      // Preempt the local holder: it is marked for abort by the caller and
      // must reacquire the lock on its rerun.
      const TxnId victim = it->txn;
      result.aborted.push_back(victim);
      it = entry.holders.erase(it);
      --holds_total_;
      const std::size_t held_at = held_index_.position(victim);
      HLS_ASSERT(held_at != kAbsent, "preempted holder not in index");
      auto& vec = held_pool_[held_index_.value_at(held_at)];
      auto pos = std::find(vec.begin(), vec.end(), lock);
      HLS_ASSERT(pos != vec.end(), "preempted holder index mismatch");
      vec.erase(pos);
      if (vec.empty()) {
        drop_held(held_at);
      }
    } else {
      ++it;
    }
  }

  if (!grabber_holds) {
    entry.holders.push_back(Holder{grabber, mode});
    held_for(grabber).push_back(lock);
    ++holds_total_;
  }
  // A shared grab that evicted an exclusive holder may let queued shared
  // requests through.
  pump_queue(lock, entry);
  return result;
}

void LockManager::increment_coherence(LockId lock) {
  Entry& entry = entry_at(entry_for(lock));
  if (entry.coherence == 0) {
    ++coherence_nonzero_;
  }
  ++entry.coherence;
}

void LockManager::decrement_coherence(LockId lock) {
  const std::size_t at = table_index_.position(lock);
  HLS_ASSERT(at != kAbsent && entry_at(at).coherence > 0,
             "coherence count underflow");
  Entry& entry = entry_at(at);
  --entry.coherence;
  if (entry.coherence == 0) {
    --coherence_nonzero_;
    drop_if_drained(at);
  }
}

std::uint32_t LockManager::coherence_count(LockId lock) const {
  const Entry* entry = lookup_entry(lock);
  return entry == nullptr ? 0 : entry->coherence;
}

void LockManager::pump_queue(LockId lock, Entry& entry) {
  while (!entry.queue.empty()) {
    Waiter& head = entry.queue.front();
    if (!grantable(entry, head.txn, head.mode)) {
      return;
    }
    // Grant: upgrade in place or append a new holder.
    bool upgraded = false;
    for (Holder& h : entry.holders) {
      if (h.txn == head.txn) {
        h.mode = LockMode::Exclusive;  // only upgrades re-request while holding
        upgraded = true;
      }
    }
    if (!upgraded) {
      entry.holders.push_back(Holder{head.txn, head.mode});
      held_for(head.txn).push_back(lock);
      ++holds_total_;
    }
    waiting_on_.erase(head.txn);
    --waiters_total_;
    note_waiters();
    Waiter granted = entry.queue.pop_front();
    if (granted.on_grant) {
      // Dispatch through the simulator so release paths cannot reenter
      // transaction logic synchronously.
      sim_.schedule_after(0.0, std::move(granted.on_grant));
    }
  }
}

std::vector<TxnId> LockManager::find_cycle(TxnId waiter, LockId lock) const {
  const Entry* start = lookup_entry(lock);
  if (start == nullptr) {
    return {};
  }
  // Depth-first over the waits-for relation with path tracking. A
  // transaction blocks on at most one lock, so the graph is sparse; the
  // visited set keeps the walk linear. The stack holds each level's
  // blockers in reverse, so they pop in collect_blockers order, and a
  // kPathPop below a level's blockers ends that level: the walk visits
  // exactly what a recursive DFS would, in the same order.
  constexpr TxnId kPathPop = kInvalidTxn;
  cycle_visited_.clear();
  cycle_path_.assign(1, waiter);
  cycle_stack_.clear();
  const auto push_blockers = [this](const Entry& entry, TxnId upto) {
    const std::size_t from = cycle_stack_.size();
    collect_blockers(entry, upto, cycle_stack_);
    std::reverse(cycle_stack_.begin() + static_cast<std::ptrdiff_t>(from),
                 cycle_stack_.end());
  };
  push_blockers(*start, waiter);
  while (!cycle_stack_.empty()) {
    const TxnId t = cycle_stack_.back();
    cycle_stack_.pop_back();
    if (t == kPathPop) {
      cycle_path_.pop_back();
      continue;
    }
    if (t == waiter) {
      return cycle_path_;  // the members, in waits-for order
    }
    if (std::find(cycle_visited_.begin(), cycle_visited_.end(), t) !=
        cycle_visited_.end()) {
      continue;
    }
    cycle_visited_.push_back(t);
    const LockId* waits_on = waiting_on_.find(t);
    if (waits_on == nullptr) {
      continue;  // a holder that is not itself waiting: dead end
    }
    const Entry* next = lookup_entry(*waits_on);
    if (next == nullptr) {
      continue;
    }
    cycle_path_.push_back(t);
    cycle_stack_.push_back(kPathPop);
    push_blockers(*next, t);
  }
  return {};
}

void LockManager::collect_blockers(const Entry& entry, TxnId upto_waiter,
                                   std::vector<TxnId>& out) const {
  // FIFO queuing means a waiter effectively waits for current holders and
  // for every request queued ahead of it. Including all queued requests is
  // slightly conservative for the incoming request (which joins the tail)
  // but matches the FIFO grant discipline.
  for (const Holder& h : entry.holders) {
    if (h.txn != upto_waiter) {
      out.push_back(h.txn);
    }
  }
  for (std::size_t i = 0; i < entry.queue.size(); ++i) {
    const TxnId t = entry.queue[i].txn;
    if (t == upto_waiter) {
      break;
    }
    out.push_back(t);
  }
}

void LockManager::erase_holder(Entry& entry, TxnId txn) {
  auto pos = std::find_if(entry.holders.begin(), entry.holders.end(),
                          [txn](const Holder& h) { return h.txn == txn; });
  HLS_ASSERT(pos != entry.holders.end(), "erase_holder: txn is not a holder");
  entry.holders.erase(pos);
  --holds_total_;
}

void LockManager::drop_if_drained(std::size_t index_pos) {
  const std::uint32_t slot = table_index_.value_at(index_pos);
  const Entry& entry = entry_pool_[slot];
  if (entry.holders.empty() && entry.queue.empty() && entry.coherence == 0) {
    // The drained entry goes back to the pool as-is: its holders vector and
    // wait ring keep their capacity for the next lock of this entity (or
    // any other), so steady-state locking allocates nothing.
    free_entries_.push_back(slot);
    table_index_.erase_at(index_pos);
  }
}

void LockManager::check_invariants() const {
  std::size_t holds_count = 0;
  std::size_t waits = 0;
  std::size_t coherent = 0;
  table_index_.for_each([&](LockId lock, std::uint32_t slot) {
    const Entry& entry = entry_pool_[slot];
    holds_count += entry.holders.size();
    waits += entry.queue.size();
    if (entry.coherence != 0) {
      ++coherent;
    }
    // At most one exclusive holder; exclusive implies sole holder.
    std::size_t exclusive = 0;
    for (const Holder& h : entry.holders) {
      if (h.mode == LockMode::Exclusive) {
        ++exclusive;
      }
      HLS_ASSERT(holds(h.txn, lock), "holder missing from index");
      HLS_ASSERT(std::count_if(entry.holders.begin(), entry.holders.end(),
                               [&h](const Holder& o) { return o.txn == h.txn; }) == 1,
                 "transaction holds one lock twice");
    }
    HLS_ASSERT(exclusive <= 1, "multiple exclusive holders");
    if (exclusive == 1) {
      HLS_ASSERT(entry.holders.size() == 1, "exclusive holder is not alone");
    }
    for (std::size_t i = 0; i < entry.queue.size(); ++i) {
      const LockId* waits_on = waiting_on_.find(entry.queue[i].txn);
      HLS_ASSERT(waits_on != nullptr && *waits_on == lock,
                 "waiter not registered in waiting_on_");
    }
  });
  HLS_ASSERT(holds_count == holds_total_, "holds_total_ out of sync");
  HLS_ASSERT(waits == waiters_total_, "waiters_total_ out of sync");
  HLS_ASSERT(coherent == coherence_nonzero_, "coherence_nonzero_ out of sync");
  // The held index names each hold once, and every hold it names is a
  // holder in the table: with the equal totals, holders and the index
  // match one to one, which request() relies on when its holder scan
  // stands in for holds().
  std::size_t index_holds = 0;
  held_index_.for_each([&](TxnId txn, std::uint32_t slot) {
    const std::vector<LockId>& locks = held_pool_[slot];
    index_holds += locks.size();
    for (const LockId lock : locks) {
      HLS_ASSERT(std::count(locks.begin(), locks.end(), lock) == 1,
                 "held index names one lock twice");
      const Entry* entry = lookup_entry(lock);
      HLS_ASSERT(entry != nullptr &&
                     std::any_of(entry->holders.begin(), entry->holders.end(),
                                 [txn](const Holder& h) { return h.txn == txn; }),
                 "held index names a lock its transaction does not hold");
    }
  });
  HLS_ASSERT(index_holds == holds_total_, "held_index_ out of sync");
  if (wait_telemetry_) {
    // Exact: the gauge mirrors an integer counter. hlslint:allow(float-eq)
    HLS_ASSERT(wait_tw_.current() == static_cast<double>(waiters_total_),
               "wait-queue gauge out of sync with waiters_total_");
  }
}

void LockManager::enable_wait_telemetry(double now) {
  wait_telemetry_ = true;
  wait_tw_.reset(now);
  wait_tw_.set(now, static_cast<double>(waiters_total_));
}

void LockManager::enable_heat(int buckets, std::uint32_t lockspace) {
  HLS_ASSERT(buckets > 0, "enable_heat needs at least one bucket");
  HLS_ASSERT(lockspace > 0, "enable_heat needs a non-empty lock space");
  heat_lockspace_ = lockspace;
  heat_.assign(static_cast<std::size_t>(buckets), 0);
}

void LockManager::reset_telemetry(double now) {
  if (wait_telemetry_) {
    wait_tw_.reset(now);  // reset keeps the current signal value
  }
  if (!heat_.empty()) {
    std::fill(heat_.begin(), heat_.end(), 0);
  }
}

}  // namespace hls
