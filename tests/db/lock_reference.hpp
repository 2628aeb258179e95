// Plainly written reference for db/lock_manager, for differential testing.
//
// The lock table is a std::map from lock id to its holders, its FIFO wait
// list and its coherence count; each transaction's held locks are a
// std::map of vectors in grant order; deadlock detection is a brute-force
// reachability search over the whole waits-for graph. No pooling, no
// indexes, no early exits: every rule of LockManager's header comment is
// written out once, in the order LockManager applies it, so the two can be
// driven in lockstep and compared after every operation
// (lock_differential_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "db/lock_manager.hpp"
#include "db/lock_types.hpp"

namespace hls::reference {

class LockTable {
 public:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };

  /// A queued request. `grant_id` names the grant callback the test handed
  /// LockManager for the same request, so grant order can be compared.
  struct Waiter {
    TxnId txn;
    LockMode mode;
    int grant_id;
  };

  struct Lock {
    std::vector<Holder> holders;  ///< in grant order
    std::vector<Waiter> queue;    ///< FIFO
    std::uint32_t coherence = 0;
  };

  struct Grab {
    bool granted = false;
    std::vector<TxnId> preempted;  ///< in holder order
  };

  LockRequestOutcome request(TxnId txn, LockId id, LockMode mode, int grant_id) {
    Lock& lock = locks_[id];
    for (const Holder& h : lock.holders) {
      if (h.txn == txn && (h.mode == LockMode::Exclusive || mode == LockMode::Shared)) {
        return LockRequestOutcome::AlreadyHeld;
      }
    }
    // Strict FIFO: granted at once only when nobody is queued.
    if (lock.queue.empty() && compatible_with_holders(lock, txn, mode)) {
      grant(id, lock, txn, mode);
      return LockRequestOutcome::Granted;
    }
    if (would_deadlock(txn, id)) {
      ++deadlocks_;
      forget_if_unused(id);
      return LockRequestOutcome::Deadlock;
    }
    lock.queue.push_back(Waiter{txn, mode, grant_id});
    waiting_[txn] = id;
    return LockRequestOutcome::Queued;
  }

  void release(TxnId txn, LockId id) {
    Lock& lock = locks_.at(id);
    erase_holder(lock, txn);
    forget_held(txn, id);
    pump(id, lock);
    forget_if_unused(id);
  }

  void release_all(TxnId txn) {
    cancel_waits(txn);
    const auto held = held_.find(txn);
    if (held == held_.end()) {
      return;
    }
    const std::vector<LockId> ids = held->second;  // grant order
    held_.erase(held);
    for (const LockId id : ids) {
      Lock& lock = locks_.at(id);
      erase_holder(lock, txn);
      pump(id, lock);
      forget_if_unused(id);
    }
  }

  std::vector<LockId> cancel_waits(TxnId txn) {
    std::vector<LockId> cancelled;
    const auto waiting = waiting_.find(txn);
    if (waiting == waiting_.end()) {
      return cancelled;
    }
    const LockId id = waiting->second;
    waiting_.erase(waiting);
    Lock& lock = locks_.at(id);
    std::vector<Waiter> kept;
    for (const Waiter& w : lock.queue) {
      if (w.txn == txn) {
        cancelled.push_back(id);
      } else {
        kept.push_back(w);
      }
    }
    lock.queue = kept;
    pump(id, lock);
    forget_if_unused(id);
    return cancelled;
  }

  Grab grab(TxnId grabber, LockId id, LockMode mode) {
    Grab result;
    Lock& lock = locks_[id];
    if (lock.coherence != 0) {
      forget_if_unused(id);
      return result;
    }
    result.granted = true;
    bool grabber_holds = false;
    std::vector<Holder> kept;
    for (Holder h : lock.holders) {
      if (h.txn == grabber) {
        grabber_holds = true;
        if (mode == LockMode::Exclusive) {
          h.mode = LockMode::Exclusive;
        }
        kept.push_back(h);
      } else if (mode == LockMode::Exclusive || h.mode == LockMode::Exclusive) {
        result.preempted.push_back(h.txn);
        forget_held(h.txn, id);
      } else {
        kept.push_back(h);
      }
    }
    lock.holders = kept;
    if (!grabber_holds) {
      lock.holders.push_back(Holder{grabber, mode});
      held_[grabber].push_back(id);
    }
    pump(id, lock);
    return result;
  }

  void increment_coherence(LockId id) { ++locks_[id].coherence; }

  void decrement_coherence(LockId id) {
    --locks_.at(id).coherence;
    forget_if_unused(id);
  }

  // ---- observable state ----

  [[nodiscard]] std::vector<Holder> holders_of(LockId id) const {
    const auto it = locks_.find(id);
    return it == locks_.end() ? std::vector<Holder>{} : it->second.holders;
  }

  [[nodiscard]] std::vector<LockId> held_locks_sorted(TxnId txn) const {
    const auto it = held_.find(txn);
    std::vector<LockId> ids = it == held_.end() ? std::vector<LockId>{} : it->second;
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  [[nodiscard]] std::optional<LockId> waiting_lock(TxnId txn) const {
    const auto it = waiting_.find(txn);
    return it == waiting_.end() ? std::nullopt : std::optional<LockId>(it->second);
  }

  [[nodiscard]] std::uint32_t coherence_count(LockId id) const {
    const auto it = locks_.find(id);
    return it == locks_.end() ? 0 : it->second.coherence;
  }

  [[nodiscard]] std::size_t locks_held() const {
    std::size_t n = 0;
    for (const auto& [id, lock] : locks_) {
      n += lock.holders.size();
    }
    return n;
  }

  [[nodiscard]] std::size_t waiters() const {
    std::size_t n = 0;
    for (const auto& [id, lock] : locks_) {
      n += lock.queue.size();
    }
    return n;
  }

  [[nodiscard]] std::size_t pending_coherence_entities() const {
    std::size_t n = 0;
    for (const auto& [id, lock] : locks_) {
      n += lock.coherence != 0 ? 1 : 0;
    }
    return n;
  }

  [[nodiscard]] std::uint64_t deadlocks_detected() const { return deadlocks_; }

  /// Grant ids of queued requests granted since the last call, in grant
  /// order: the order LockManager's grant callbacks must fire in.
  std::vector<int> take_granted() {
    std::vector<int> out;
    out.swap(granted_);
    return out;
  }

  /// True when `cycle` is a waits-for cycle that `requester` would close by
  /// queueing on `id` right now: it starts at the requester, its members
  /// are distinct, each member waits for the next, and the last waits for
  /// the requester.
  [[nodiscard]] bool is_cycle_closed_by(TxnId requester, LockId id,
                                        const std::vector<TxnId>& cycle) const {
    if (cycle.size() < 2 || cycle.front() != requester) {
      return false;
    }
    const std::set<TxnId> distinct(cycle.begin(), cycle.end());
    if (distinct.size() != cycle.size()) {
      return false;
    }
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const TxnId next = i + 1 < cycle.size() ? cycle[i + 1] : requester;
      const std::vector<TxnId> blocks =
          cycle[i] == requester ? blockers_if_queued(requester, id) : blockers(cycle[i]);
      if (std::find(blocks.begin(), blocks.end(), next) == blocks.end()) {
        return false;
      }
    }
    return true;
  }

 private:
  static bool compatible_with_holders(const Lock& lock, TxnId txn, LockMode mode) {
    for (const Holder& h : lock.holders) {
      if (h.txn != txn &&
          (mode == LockMode::Exclusive || h.mode == LockMode::Exclusive)) {
        return false;
      }
    }
    return true;
  }

  /// Makes `txn` a holder of `id` in `mode`; a holder re-requesting is an
  /// upgrade and changes its mode in place.
  void grant(LockId id, Lock& lock, TxnId txn, LockMode mode) {
    for (Holder& h : lock.holders) {
      if (h.txn == txn) {
        h.mode = mode;
        return;
      }
    }
    lock.holders.push_back(Holder{txn, mode});
    held_[txn].push_back(id);
  }

  /// Grants waiters from the head of the queue while the head is
  /// compatible with the holders.
  void pump(LockId id, Lock& lock) {
    while (!lock.queue.empty() &&
           compatible_with_holders(lock, lock.queue.front().txn, lock.queue.front().mode)) {
      const Waiter head = lock.queue.front();
      lock.queue.erase(lock.queue.begin());
      grant(id, lock, head.txn, head.mode);
      waiting_.erase(head.txn);
      granted_.push_back(head.grant_id);
    }
  }

  static void erase_holder(Lock& lock, TxnId txn) {
    const auto it = std::find_if(lock.holders.begin(), lock.holders.end(),
                                 [txn](const Holder& h) { return h.txn == txn; });
    lock.holders.erase(it);
  }

  void forget_held(TxnId txn, LockId id) {
    std::vector<LockId>& ids = held_.at(txn);
    ids.erase(std::find(ids.begin(), ids.end(), id));
    if (ids.empty()) {
      held_.erase(txn);
    }
  }

  void forget_if_unused(LockId id) {
    const Lock& lock = locks_.at(id);
    if (lock.holders.empty() && lock.queue.empty() && lock.coherence == 0) {
      locks_.erase(id);
    }
  }

  /// Who `txn`, queued on `id`'s wait list, waits for: every other holder,
  /// then every request queued ahead of it.
  [[nodiscard]] std::vector<TxnId> blockers(TxnId txn) const {
    std::vector<TxnId> out;
    const auto waiting = waiting_.find(txn);
    if (waiting == waiting_.end()) {
      return out;  // not waiting: waits for nobody
    }
    const Lock& lock = locks_.at(waiting->second);
    for (const Holder& h : lock.holders) {
      if (h.txn != txn) {
        out.push_back(h.txn);
      }
    }
    for (const Waiter& w : lock.queue) {
      if (w.txn == txn) {
        break;
      }
      out.push_back(w.txn);
    }
    return out;
  }

  /// Who `txn` would wait for if it joined the tail of `id`'s queue.
  [[nodiscard]] std::vector<TxnId> blockers_if_queued(TxnId txn, LockId id) const {
    std::vector<TxnId> out;
    const auto it = locks_.find(id);
    if (it == locks_.end()) {
      return out;
    }
    for (const Holder& h : it->second.holders) {
      if (h.txn != txn) {
        out.push_back(h.txn);
      }
    }
    for (const Waiter& w : it->second.queue) {
      out.push_back(w.txn);
    }
    return out;
  }

  /// Brute force: every transaction reachable from the requester's
  /// would-be edges; a deadlock when the requester itself is reachable.
  [[nodiscard]] bool would_deadlock(TxnId requester, LockId id) const {
    std::set<TxnId> seen;
    std::vector<TxnId> todo = blockers_if_queued(requester, id);
    while (!todo.empty()) {
      const TxnId t = todo.back();
      todo.pop_back();
      if (t == requester) {
        return true;
      }
      if (!seen.insert(t).second || waiting_.count(t) == 0) {
        continue;
      }
      for (const TxnId b : blockers(t)) {
        todo.push_back(b);
      }
    }
    return false;
  }

  std::map<LockId, Lock> locks_;
  std::map<TxnId, std::vector<LockId>> held_;  ///< in grant order
  std::map<TxnId, LockId> waiting_;
  std::vector<int> granted_;
  std::uint64_t deadlocks_ = 0;
};

}  // namespace hls::reference
