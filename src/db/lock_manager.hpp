// Lock manager with the paper's dual-field lock entries (§2):
//
//   * a CONCURRENCY field — classic shared/exclusive granting with a FIFO
//     wait queue, used among transactions running at the same site, and
//   * a COHERENCE field — a counter of asynchronous updates that have been
//     shipped to the central site but not yet acknowledged. A non-zero
//     count means the central copy of the entity is stale; the
//     authentication phase of a central/shipped transaction must then be
//     refused (negative acknowledgement).
//
// Two grant paths exist:
//   * request()                — normal pessimistic path: grant, queue, or
//                                report a deadlock (waits-for cycle).
//   * grab_for_authentication() — optimistic cross-tier path: the central
//                                transaction preempts incompatible local
//                                holders (they are reported back so the
//                                caller can mark them for abort) and never
//                                waits, exactly as §2 prescribes.
//
// Grant callbacks for queued requests are dispatched through the simulator
// at the current time rather than invoked inline, so release paths cannot
// reenter transaction logic mid-update.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "db/lock_types.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"
#include "util/ring.hpp"
#include "util/stats.hpp"
#include "util/unique_function.hpp"

namespace hls {

enum class LockRequestOutcome : std::uint8_t {
  Granted,   ///< lock granted synchronously
  AlreadyHeld,  ///< requester already holds the lock in a sufficient mode
  Queued,    ///< requester blocked; the on_grant callback fires later
  Deadlock,  ///< waiting would close a waits-for cycle; caller must abort
};

class LockManager {
 public:
  /// Move-only: grant continuations run once, and every request() call
  /// materializes one — std::function here cost a heap node per lock
  /// request even when the lock was granted synchronously.
  using GrantCallback = UniqueFunction<void()>;

  LockManager(Simulator& sim, std::string name);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // ---- concurrency field ----

  /// Requests `lock` in `mode` for `txn`. If the result is Queued, `on_grant`
  /// fires (via the simulator, at the grant time) once the lock is granted.
  /// A Shared request by a transaction already holding Exclusive is
  /// AlreadyHeld; an Exclusive request by a Shared holder is an upgrade and
  /// follows the normal grant/queue/deadlock rules.
  ///
  /// On Deadlock, `cycle_out` (when non-null) receives the transactions on
  /// the detected waits-for cycle (the requester first), so the caller can
  /// apply a victim-selection policy other than abort-the-requester.
  LockRequestOutcome request(TxnId txn, LockId lock, LockMode mode,
                             GrantCallback on_grant,
                             std::vector<TxnId>* cycle_out = nullptr);

  /// Releases one lock held by `txn`; grants queued compatible waiters.
  void release(TxnId txn, LockId lock);

  /// Releases every lock held by `txn` and removes any queued requests it
  /// still has pending (used on deadlock abort and at commit).
  void release_all(TxnId txn);

  /// Removes `txn`'s queued (not yet granted) requests without touching the
  /// locks it holds. Returns the lock ids of the cancelled requests.
  std::vector<LockId> cancel_waits(TxnId txn);

  [[nodiscard]] bool holds(TxnId txn, LockId lock) const;
  [[nodiscard]] bool is_waiting(TxnId txn) const;

  /// The lock `txn` is currently blocked on, or nullopt. Lets timeout logic
  /// verify a wait is still the SAME wait it armed for.
  [[nodiscard]] std::optional<LockId> waiting_lock(TxnId txn) const;

  /// Current holders of `lock` (empty when unheld). Used by the protocol
  /// engine to find victims when an asynchronous update invalidates central
  /// locks, and to classify holders during authentication.
  struct HolderInfo {
    TxnId txn;
    LockMode mode;
  };
  [[nodiscard]] std::vector<HolderInfo> holders_of(LockId lock) const;

  /// Locks currently held by `txn` (order unspecified).
  [[nodiscard]] std::vector<LockId> held_locks(TxnId txn) const;

  // ---- optimistic cross-tier path (authentication phase) ----

  struct GrabResult {
    bool granted = false;             ///< false iff refused by coherence count
    std::vector<TxnId> aborted;       ///< local holders preempted by the grab
  };

  /// Authentication-phase grab by central/shipped transaction `grabber`:
  ///   * if the entity's coherence count is non-zero, the grab is refused
  ///     (negative acknowledgement) and nothing changes;
  ///   * otherwise incompatible local holders lose the lock and are returned
  ///     in `aborted` (the caller marks them for abort), and `grabber`
  ///     becomes a holder. The grab never waits.
  GrabResult grab_for_authentication(TxnId grabber, LockId lock, LockMode mode);

  // ---- coherence field ----

  /// Marks one in-flight asynchronous update of `lock` (local commit shipped
  /// an update whose acknowledgement is pending).
  void increment_coherence(LockId lock);

  /// Acknowledges one in-flight update; count must be positive.
  void decrement_coherence(LockId lock);

  [[nodiscard]] std::uint32_t coherence_count(LockId lock) const;

  // ---- observability (routing strategies / tests) ----

  /// Total number of (txn, lock) holds in the table — the paper's "number of
  /// locks held at the site" input to the dynamic strategies.
  [[nodiscard]] std::size_t locks_held() const { return holds_total_; }

  /// Number of queued (blocked) requests.
  [[nodiscard]] std::size_t waiters() const { return waiters_total_; }

  /// Number of entities with a non-zero coherence count.
  [[nodiscard]] std::size_t pending_coherence_entities() const {
    return coherence_nonzero_;
  }

  [[nodiscard]] std::uint64_t deadlocks_detected() const { return deadlocks_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // ---- per-resource telemetry (off unless armed; docs/OBSERVABILITY.md) ----

  /// Arms the time-weighted wait-queue gauge from `now` on. Telemetry is
  /// pure state writes on the existing mutation paths: no events are ever
  /// scheduled, so arming it cannot perturb the simulation.
  void enable_wait_telemetry(double now);

  /// Arms per-bucket access-heat counters: ids in [0, lockspace) fold into
  /// `buckets` equal-width buckets, and every request() /
  /// grab_for_authentication() access increments its bucket.
  void enable_heat(int buckets, std::uint32_t lockspace);

  /// Restarts the telemetry window at `now` (warmup discard). Heat counters
  /// restart at zero; the wait gauge keeps its current value.
  void reset_telemetry(double now);

  [[nodiscard]] bool wait_telemetry_enabled() const { return wait_telemetry_; }

  /// Time-averaged wait-queue length since enable/reset (0 when unarmed).
  [[nodiscard]] double average_waiters(double now) const {
    return wait_telemetry_ ? wait_tw_.average(now) : 0.0;
  }

  /// Access-heat counters, one per bucket (empty when unarmed).
  [[nodiscard]] const std::vector<std::uint64_t>& heat() const { return heat_; }

  /// DFS over the waits-for relation: if blocking `waiter` on `lock` would
  /// close a cycle back to `waiter`, returns the cycle's members (waiter
  /// first, then the chain of transactions it would transitively wait on);
  /// empty when waiting is safe. Exposed for diagnostics; request() invokes
  /// it internally before queueing a blocked request.
  [[nodiscard]] std::vector<TxnId> find_cycle(TxnId waiter, LockId lock) const;

  /// Internal-consistency check used by tests: every index entry matches the
  /// table and counters match reality. Aborts on violation.
  void check_invariants() const;

 private:
  struct Holder {
    TxnId txn;
    LockMode mode;
  };
  struct Waiter {
    TxnId txn;
    LockMode mode;
    GrantCallback on_grant;
  };
  struct Entry {
    std::vector<Holder> holders;
    Ring<Waiter> queue;
    std::uint32_t coherence = 0;
  };

  /// True when `txn` may be granted `mode` on `entry` right now, considering
  /// both holders and FIFO fairness (no earlier incompatible waiter).
  [[nodiscard]] static bool grantable(const Entry& entry, TxnId txn, LockMode mode);

  /// Grants queue-head requests while they are grantable.
  void pump_queue(LockId lock, Entry& entry);

  void collect_blockers(const Entry& entry, TxnId upto_waiter,
                        std::vector<TxnId>& out) const;

  void erase_holder(Entry& entry, TxnId txn);

  /// Mirrors waiters_total_ into the time-weighted gauge; call after every
  /// mutation of the counter. A single branch when telemetry is off.
  void note_waiters() {
    if (wait_telemetry_) {
      wait_tw_.set(sim_.now(), static_cast<double>(waiters_total_));
    }
  }

  /// Tallies one access of `lock` into its heat bucket (no-op when unarmed).
  void note_access(LockId lock) {
    if (!heat_.empty()) {
      std::size_t bucket = static_cast<std::size_t>(
          static_cast<std::uint64_t>(lock) * heat_.size() / heat_lockspace_);
      if (bucket >= heat_.size()) {
        bucket = heat_.size() - 1;
      }
      ++heat_[bucket];
    }
  }

  // Each operation probes the lock table once: it keeps the position of
  // the lock's table_index_ slot (see util/flat_map.hpp), which no step in
  // between changes — only entry creation inserts and only drop_if_drained
  // erases — and reaches the entry and, at the end, drop_if_drained
  // through it.

  /// Find-or-create: the table_index_ position of `lock`'s entry, recycling
  /// a pooled Entry (with the capacity of its holders vector and wait ring
  /// intact) on creation. Entries live in entry_pool_, a deque, so entry
  /// references survive the pool's growth.
  std::size_t entry_for(LockId lock);
  [[nodiscard]] Entry& entry_at(std::size_t index_pos) {
    return entry_pool_[table_index_.value_at(index_pos)];
  }
  [[nodiscard]] const Entry* lookup_entry(LockId lock) const;
  /// Returns the entry at `index_pos` to the pool once it has no holders,
  /// no waiters and a zero coherence count.
  void drop_if_drained(std::size_t index_pos);
  /// Find-or-create: the held-lock list for `txn`, pooled like entries.
  std::vector<LockId>& held_for(TxnId txn);
  /// Returns the (empty) held-lock list at held_index_ position
  /// `index_pos` to the pool.
  void drop_held(std::size_t index_pos);

  /// Empty-slot sentinel for the lock-id index: lockspace ids are indices
  /// into a table of config.lockspace (< 2^32) entities, so the all-ones id
  /// never names a real lock.
  static constexpr LockId kNoLockId = 0xFFFFFFFFu;

  Simulator& sim_;
  std::string name_;
  // Lock table: open-addressing id index into a pool of recycled entries.
  // An unordered_map<LockId, Entry> here cost a node allocation (including a
  // fresh deque) every time an unheld entity was locked and a deallocation
  // when its entry drained — the dominant term in the event-kernel profile.
  FlatMap<LockId, std::uint32_t> table_index_{kNoLockId};
  std::deque<Entry> entry_pool_;  // deque: entry references survive growth
  std::vector<std::uint32_t> free_entries_;
  // txn -> set of held lock ids (vector: txns hold ~10 locks), pooled so the
  // per-txn vector's capacity survives release_all/commit churn.
  FlatMap<TxnId, std::uint32_t> held_index_{kInvalidTxn};
  std::vector<std::vector<LockId>> held_pool_;
  std::vector<std::uint32_t> free_held_;
  std::vector<LockId> release_scratch_;  // release_all working copy
  // txn -> lock id it is currently blocked on (a txn waits on one lock)
  FlatMap<TxnId, LockId> waiting_on_{kInvalidTxn};
  std::size_t holds_total_ = 0;
  std::size_t waiters_total_ = 0;
  std::size_t coherence_nonzero_ = 0;
  std::uint64_t deadlocks_ = 0;
  bool wait_telemetry_ = false;
  TimeWeightedStat wait_tw_;
  std::uint64_t heat_lockspace_ = 1;
  std::vector<std::uint64_t> heat_;
};

}  // namespace hls
