// TxnArena: pooled live-transaction storage. The critical property is that
// slot reuse can never resurrect a completed transaction for a stale
// callback: a callback's ticket (slot, generation) stops matching once the
// transaction reruns or is released, before and after the slot is reused —
// the exact check every scheduled callback performs through find(ticket).
#include "hybrid/txn_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "util/random.hpp"

namespace hls {
namespace {

TxnId admit(TxnArena& arena, TxnId id) {
  Transaction* txn = arena.checkout();
  txn->id = id;
  arena.commit(txn);
  return id;
}

/// What the abort/rerun path does to a transaction's ticket.
void rerun(Transaction* txn) { ++txn->ticket.generation; }

TEST(TxnArena, CheckoutCommitLookupRelease) {
  TxnArena arena;
  EXPECT_EQ(arena.live_count(), 0u);
  EXPECT_EQ(arena.lookup(1), nullptr);

  admit(arena, 1);
  ASSERT_NE(arena.lookup(1), nullptr);
  EXPECT_EQ(arena.lookup(1)->id, 1u);
  EXPECT_EQ(arena.live_count(), 1u);

  arena.release(1);
  EXPECT_EQ(arena.lookup(1), nullptr);
  EXPECT_EQ(arena.live_count(), 0u);
}

TEST(TxnArena, ReusedSlotRejectsStaleId) {
  TxnArena arena;
  admit(arena, 1);
  Transaction* first = arena.lookup(1);
  arena.release(1);

  // Fresh ids only (the factory never reuses one): the recycled slot hosts
  // txn 2, and the stale id misses even though the storage is the same.
  admit(arena, 2);
  Transaction* second = arena.lookup(2);
  EXPECT_EQ(second, first);  // slot was recycled...
  EXPECT_EQ(arena.lookup(1), nullptr);  // ...but the old id is gone
}

TEST(TxnArena, StaleEpochRejectedAfterRerun) {
  TxnArena arena;
  admit(arena, 7);
  Transaction* txn = arena.lookup(7);
  ASSERT_NE(txn, nullptr);

  // A callback armed during attempt 0 ...
  const TxnTicket stale = txn->ticket;
  EXPECT_EQ(arena.find(stale), txn);

  // ... must be dropped once the abort/rerun path bumps the ticket.
  rerun(txn);
  EXPECT_EQ(arena.find(stale), nullptr);
  EXPECT_EQ(arena.find(txn->ticket), txn);
  // Lookup by id does not depend on the ticket.
  EXPECT_EQ(arena.lookup(7), txn);
}

TEST(TxnArena, TicketStaleAfterReleaseBeforeTheSlotIsReused) {
  TxnArena arena;
  admit(arena, 1);
  const TxnTicket ticket = arena.lookup(1)->ticket;
  arena.release(1);
  // The slot is free and not yet recycled: the ticket already fails.
  EXPECT_EQ(arena.find(ticket), nullptr);

  admit(arena, 2);
  Transaction* occupant = arena.lookup(2);
  EXPECT_EQ(occupant->ticket.slot, ticket.slot);  // the same slot, reused
  EXPECT_EQ(arena.find(ticket), nullptr);
  EXPECT_EQ(arena.find(occupant->ticket), occupant);
}

TEST(TxnArena, DefaultTicketNeverMatches) {
  TxnArena arena;
  admit(arena, 1);
  EXPECT_EQ(arena.lookup(1)->ticket.slot, 0u);
  EXPECT_EQ(arena.find(TxnTicket{}), nullptr);
  EXPECT_EQ(arena.find(TxnTicket{5, 1}), nullptr);  // no such slot
}

TEST(TxnArena, AdoptKeepsTheSlotsTicket) {
  TxnArena arena;
  admit(arena, 1);
  const TxnTicket retired = arena.lookup(1)->ticket;
  arena.release(1);

  // A caller-built transaction carrying a stale ticket (here: the retired
  // occupant's) gets the slot's own ticket instead.
  Transaction txn;
  txn.id = 2;
  txn.ticket = retired;
  Transaction* adopted = arena.adopt(std::move(txn));
  ASSERT_EQ(adopted, arena.lookup(2));
  EXPECT_NE(adopted->ticket, retired);
  EXPECT_EQ(arena.find(retired), nullptr);
  EXPECT_EQ(arena.find(adopted->ticket), adopted);
}

TEST(TxnArena, SlotReuseStressRejectsEveryStaleCallback) {
  TxnArena arena;
  Rng rng(17);
  // Retired tickets play the role of stale scheduled callbacks.
  std::vector<std::pair<TxnId, TxnTicket>> stale;
  std::map<TxnId, TxnTicket> live;  // reference: id -> current ticket
  TxnId next_id = 1;

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.45 || live.empty()) {
      admit(arena, next_id);
      live[next_id] = arena.lookup(next_id)->ticket;
      ++next_id;
    } else if (roll < 0.65) {
      // Rerun a random live transaction: its pre-bump ticket goes stale.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.next_below(live.size())));
      Transaction* txn = arena.lookup(it->first);
      ASSERT_NE(txn, nullptr);
      stale.emplace_back(txn->id, txn->ticket);
      rerun(txn);
      it->second = txn->ticket;
    } else {
      // Complete a random live transaction; its slot becomes reusable.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.next_below(live.size())));
      stale.emplace_back(it->first, it->second);
      arena.release(it->first);
      live.erase(it);
    }
    ASSERT_EQ(arena.live_count(), live.size());
  }

  // Every live ticket resolves to its transaction; every stale one is
  // rejected, though most of their slots now host other transactions.
  for (const auto& [id, ticket] : live) {
    Transaction* txn = arena.find(ticket);
    ASSERT_NE(txn, nullptr);
    EXPECT_EQ(txn->id, id);
    EXPECT_EQ(arena.lookup(id), txn);
  }
  for (const auto& [id, ticket] : stale) {
    EXPECT_EQ(arena.find(ticket), nullptr) << "stale ticket of id " << id;
  }
}

TEST(TxnArena, ForEachVisitsExactlyTheLiveSet) {
  TxnArena arena;
  for (TxnId id = 1; id <= 10; ++id) {
    admit(arena, id);
  }
  for (TxnId id = 2; id <= 10; id += 2) {
    arena.release(id);
  }
  std::vector<TxnId> seen;
  arena.for_each([&](const Transaction& txn) { seen.push_back(txn.id); });
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<TxnId>{1, 3, 5, 7, 9}));
}

TEST(TxnArena, DrainsToZeroAndStaysReusable) {
  TxnArena arena;
  Rng rng(5);
  // Several admit-all / release-all waves over the same slots: the drained
  // arena must always return to zero with every id rejected, and keep
  // working afterwards (the drain obligation for pooled storage).
  TxnId next_id = 1;
  for (int wave = 0; wave < 8; ++wave) {
    std::vector<TxnId> ids;
    const int n = 1 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < n; ++i) {
      ids.push_back(admit(arena, next_id++));
    }
    EXPECT_EQ(arena.live_count(), ids.size());
    for (const TxnId id : ids) {
      arena.release(id);
    }
    EXPECT_EQ(arena.live_count(), 0u);
    std::size_t visited = 0;
    arena.for_each([&](const Transaction&) { ++visited; });
    EXPECT_EQ(visited, 0u);
    for (const TxnId id : ids) {
      EXPECT_EQ(arena.lookup(id), nullptr);
    }
  }
}

TEST(TxnArena, RecycledSlotStartsFromFreshState) {
  TxnArena arena;
  admit(arena, 1);
  Transaction* txn = arena.lookup(1);
  std::vector<TxnTicket> issued{txn->ticket};
  for (int run = 1; run <= 3; ++run) {
    rerun(txn);
    issued.push_back(txn->ticket);
  }
  txn->run_count = 3;
  txn->marked_abort = true;
  txn->locks.push_back({5, LockMode::Exclusive});
  arena.release(1);

  admit(arena, 2);
  Transaction* reused = arena.lookup(2);
  ASSERT_EQ(reused, txn);  // same slot
  EXPECT_EQ(reused->run_count, 0);
  // The recycled slot issues a ticket that matches none issued to the
  // previous occupant.
  for (const TxnTicket ticket : issued) {
    EXPECT_NE(reused->ticket, ticket);
  }
  EXPECT_FALSE(reused->marked_abort);
  EXPECT_TRUE(reused->locks.empty());
}

}  // namespace
}  // namespace hls
