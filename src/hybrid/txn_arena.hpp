// Pooled storage for live transactions, reached by ticket or by id.
//
// Slots — and the capacity of each slot's access-pattern vectors — are
// recycled across transactions, so steady-state admission allocates
// nothing.
//
// Scheduled callbacks reach their transaction by ticket: the slot plus that
// slot's generation when the callback was armed (TxnTicket). The generation
// lives in the slot's Transaction and survives recycle(); a rerun bumps it
// (HybridSystem::prepare_rerun) and so does release(). find(ticket) is then
// one index and one compare, and a callback armed for an earlier run, or
// for a previous occupant of the slot, fails the compare and is dropped.
// Because the factory never reuses an id, a ticket matches exactly when the
// transaction with that id is still in the run the callback was armed for.
//
// Lookups keyed by id — lock holders, deadlock cycles, crash victims, ship
// timeouts — go through an open-addressing id index instead: one
// multiplicative hash plus a short linear probe in a table kept at most
// half full.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hybrid/transaction.hpp"
#include "util/assert.hpp"

namespace hls {

class TxnArena {
 public:
  TxnArena() : table_(kInitialCap) {}

  /// Borrows a recycled (or fresh) slot, carrying the slot's current
  /// ticket. Fill it — id included, ticket untouched — then call commit()
  /// to register it in the index. At most one checkout may be outstanding;
  /// the pointer stays valid until release() of its id.
  Transaction* checkout() {
    HLS_ASSERT(pending_ == kNoSlot, "nested arena checkout");
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slots_[slot]->recycle();
    } else {
      HLS_ASSERT(slots_.size() < kNoSlot, "arena slot space exhausted");
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::make_unique<Transaction>());
      // Generation 1: a default TxnTicket{} never matches a live slot.
      slots_[slot]->ticket = TxnTicket{slot, 1};
    }
    pending_ = slot;
    return slots_[slot].get();
  }

  /// checkout() + commit() of a caller-built transaction. The slot keeps
  /// its own ticket; whatever ticket `txn` carried is discarded.
  Transaction* adopt(Transaction&& txn) {
    Transaction* t = checkout();
    const TxnTicket ticket = t->ticket;
    *t = std::move(txn);
    t->ticket = ticket;
    commit(t);
    return t;
  }

  /// Registers the checked-out transaction under its (now final) id.
  void commit(Transaction* txn) {
    HLS_ASSERT(pending_ != kNoSlot && slots_[pending_].get() == txn,
               "commit without a matching checkout");
    HLS_ASSERT(txn->id != kInvalidTxn, "transaction must have a valid id");
    insert_index(txn->id, pending_);
    pending_ = kNoSlot;
  }

  /// The transaction `ticket` was issued to, while that run is current;
  /// nullptr once it reran, completed, or its slot moved on.
  [[nodiscard]] Transaction* find(TxnTicket ticket) const {
    if (ticket.slot >= slots_.size()) {
      return nullptr;
    }
    Transaction* txn = slots_[ticket.slot].get();
    return txn->ticket == ticket ? txn : nullptr;
  }

  /// O(1) expected lookup by id; nullptr when the id is not live.
  [[nodiscard]] Transaction* lookup(TxnId id) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = hash(id) & mask;
    while (table_[i].id != kInvalidTxn) {
      if (table_[i].id == id) {
        return slots_[table_[i].slot].get();
      }
      i = (i + 1) & mask;
    }
    return nullptr;
  }

  /// Unregisters `id` and recycles its slot; the id must be live. The
  /// slot's generation moves on, so every ticket issued for `id` is stale
  /// from here, before the slot is reused.
  void release(TxnId id) {
    const std::size_t mask = table_.size() - 1;
    std::size_t i = hash(id) & mask;
    while (table_[i].id != id) {
      HLS_ASSERT(table_[i].id != kInvalidTxn, "releasing an unknown txn id");
      i = (i + 1) & mask;
    }
    ++slots_[table_[i].slot]->ticket.generation;
    free_.push_back(table_[i].slot);
    // Backward-shift deletion keeps probe chains gap-free without
    // tombstones, so the admit/complete churn of a long run never
    // accumulates garbage that would degrade lookups or force rehashes.
    std::size_t hole = i;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (table_[j].id == kInvalidTxn) {
        break;
      }
      const std::size_t ideal = hash(table_[j].id) & mask;
      // Entry j may fill the hole only if its probe path passes through the
      // hole (cyclically, ideal .. j covers hole); otherwise it would
      // become unreachable from its ideal position.
      if (((j - ideal) & mask) >= ((j - hole) & mask)) {
        table_[hole] = table_[j];
        hole = j;
      }
    }
    table_[hole] = IndexEntry{};
    --count_;
  }

  [[nodiscard]] std::size_t live_count() const { return count_; }

  /// Visits every live transaction in index order — deterministic for a
  /// given operation history but not meaningful; callers needing a stable
  /// processing order must sort the ids they collect (crash handling does).
  template <typename F>
  void for_each(F&& f) const {
    for (const IndexEntry& e : table_) {
      if (e.id != kInvalidTxn) {
        f(*slots_[e.slot]);
      }
    }
  }

 private:
  struct IndexEntry {
    TxnId id = kInvalidTxn;
    std::uint32_t slot = 0;
  };

  static constexpr std::size_t kInitialCap = 64;  // power of two
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// SplitMix64 finalizer: sequential ids scatter uniformly.
  static std::uint64_t hash(TxnId id) {
    std::uint64_t x = id + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  void insert_index(TxnId id, std::uint32_t slot) {
    if (2 * (count_ + 1) > table_.size()) {
      grow();
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t i = hash(id) & mask;
    while (table_[i].id != kInvalidTxn) {
      HLS_ASSERT(table_[i].id != id, "duplicate txn id");
      i = (i + 1) & mask;
    }
    table_[i] = IndexEntry{id, slot};
    ++count_;
  }

  void grow() {
    std::vector<IndexEntry> old = std::move(table_);
    table_.assign(old.size() * 2, IndexEntry{});
    const std::size_t mask = table_.size() - 1;
    for (const IndexEntry& e : old) {
      if (e.id == kInvalidTxn) {
        continue;
      }
      std::size_t i = hash(e.id) & mask;
      while (table_[i].id != kInvalidTxn) {
        i = (i + 1) & mask;
      }
      table_[i] = e;
    }
  }

  std::vector<IndexEntry> table_;
  std::size_t count_ = 0;
  std::vector<std::unique_ptr<Transaction>> slots_;
  std::vector<std::uint32_t> free_;
  std::uint32_t pending_ = kNoSlot;
};

}  // namespace hls
