#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/random.hpp"

namespace hls {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    q.pop().callback();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakBySchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    q.pop().callback();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueue, NextTimeMatchesEarliest) {
  EventQueue q;
  q.push(7.0, [] {});
  q.push(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueue, CancelFiredEventFails) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelledEventSkippedOnPop) {
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(1); });
  const EventId id = q.push(2.0, [&] { order.push_back(2); });
  q.push(3.0, [&] { order.push_back(3); });
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) {
    q.pop().callback();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelHeadAdjustsNextTime) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.push(4.0, [] {});
  q.cancel(id);
  EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  std::vector<double> popped;
  q.push(1.0, [] {});
  q.push(5.0, [] {});
  popped.push_back(q.pop().time);
  q.push(3.0, [] {});
  q.push(0.5, [] {});  // legal: earlier than items already popped? queue does
                       // not know about "now"; ordering is the queue's only job
  while (!q.empty()) {
    popped.push_back(q.pop().time);
  }
  EXPECT_TRUE(std::is_sorted(popped.begin() + 1, popped.end()));
}

TEST(EventQueue, StaleIdAfterSlotReuseIsRejected) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  // Reap the cancelled head so its slot returns to the free list.
  q.push(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  // This push reuses the freed slot under a new generation: the stale id
  // must not cancel it, the fresh id must.
  const EventId b = q.push(0.5, [] {});
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, IdsNeverRepeatAcrossSlotReuse) {
  EventQueue q;
  std::vector<EventId> seen;
  for (int round = 0; round < 100; ++round) {
    const EventId id = q.push(static_cast<double>(round), [] {});
    EXPECT_EQ(std::count(seen.begin(), seen.end(), id), 0);
    seen.push_back(id);
    if (round % 2 == 0) {
      q.pop();
    } else {
      q.cancel(id);
      if (!q.empty()) {
        // Reap, freeing the slot for the next round.
        static_cast<void>(q.next_time());
      }
    }
  }
}

TEST(EventQueue, DrainAfterMixedCancelsReachesZero) {
  Rng rng(7);
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.push(rng.uniform(0.0, 10.0), [] {}));
  }
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_TRUE(q.cancel(ids[i]));
    ++cancelled;
  }
  EXPECT_EQ(q.size(), ids.size() - cancelled);
  std::size_t fired = 0;
  double last = -1.0;
  while (!q.empty()) {
    const auto popped = q.pop();
    EXPECT_GE(popped.time, last);
    last = popped.time;
    ++fired;
  }
  EXPECT_EQ(fired, ids.size() - cancelled);
  EXPECT_EQ(q.size(), 0u);
  // Every cancelled id is dead, and the drained queue is reusable.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_FALSE(q.cancel(ids[i]));
  }
  const EventId fresh = q.push(1.0, [] {});
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(fresh));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAllThenFreshPushDrainsClean) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(q.push(static_cast<double>(i), [] {}));
  }
  for (const EventId id : ids) {
    EXPECT_TRUE(q.cancel(id));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // Every cancel removed its entry, so a fresh push is the only event.
  const EventId fresh = q.push(100.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 100.0);
  const auto popped = q.pop();
  EXPECT_EQ(popped.id, fresh);
  EXPECT_TRUE(q.empty());
}

// Property: against a reference model (sorted multiset of (time, seq)).
TEST(EventQueue, RandomOperationsMatchReferenceModel) {
  Rng rng(99);
  EventQueue q;
  std::vector<std::pair<double, std::uint64_t>> reference;  // (time, seq)
  std::vector<EventId> live_ids;
  std::uint64_t seq = 0;

  for (int step = 0; step < 5000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.55 || q.empty()) {
      const double t = rng.uniform(0.0, 100.0);
      live_ids.push_back(q.push(t, [] {}));
      reference.emplace_back(t, seq++);
    } else if (roll < 0.75 && !live_ids.empty()) {
      // Cancel a random live event.
      const std::size_t k = rng.next_below(live_ids.size());
      const EventId id = live_ids[k];
      const bool ok = q.cancel(id);
      if (ok) {
        // Remove the k-th oldest surviving entry: ids were pushed in seq
        // order, and live_ids mirrors reference order.
        reference.erase(reference.begin() + static_cast<long>(k));
      }
      live_ids.erase(live_ids.begin() + static_cast<long>(k));
    } else {
      const auto popped = q.pop();
      auto best = std::min_element(reference.begin(), reference.end());
      ASSERT_NE(best, reference.end());
      ASSERT_DOUBLE_EQ(popped.time, best->first);
      const std::size_t idx = best - reference.begin();
      reference.erase(best);
      live_ids.erase(live_ids.begin() + static_cast<long>(idx));
    }
    ASSERT_EQ(q.size(), reference.size());
  }
}

// Property: exact (time, seq) pop order through calendar resizes. The
// phases force both directions of rebuild — a growth burst, a drain to
// near-empty, a same-timestamp cluster (pure seq tiebreak), and a
// six-decade time spread that invalidates any previously estimated bucket
// width. Each pop is checked against the reference minimum, so the firing
// order must equal the total order the replaced binary heap produced.
TEST(EventQueue, ResizeStressMatchesHeapOrder) {
  Rng rng(1234);
  EventQueue q;
  struct Ref {
    double time;
    std::uint64_t seq;
    EventId id;
  };
  std::vector<Ref> reference;
  std::uint64_t seq = 0;

  auto push = [&](double t) {
    reference.push_back({t, seq, q.push(t, [] {})});
    ++seq;
  };
  auto pop_and_check = [&] {
    const auto popped = q.pop();
    auto best = std::min_element(
        reference.begin(), reference.end(), [](const Ref& a, const Ref& b) {
          return a.time != b.time ? a.time < b.time : a.seq < b.seq;
        });
    ASSERT_NE(best, reference.end());
    ASSERT_DOUBLE_EQ(popped.time, best->time);
    ASSERT_EQ(popped.id, best->id);  // exact event, not just equal time
    reference.erase(best);
  };

  // Phase 1: dense growth burst (rebuilds upward).
  for (int i = 0; i < 4000; ++i) {
    push(rng.uniform(0.0, 1.0));
  }
  // Phase 2: cancel a third, spread over the whole range.
  for (std::size_t i = 0; i < 4000; i += 3) {
    ASSERT_TRUE(q.cancel(reference[i].id));
  }
  for (std::size_t i = reference.size(); i-- > 0;) {
    if (i % 3 == 0) {
      reference.erase(reference.begin() + static_cast<long>(i));
    }
  }
  // Phase 3: drain to near-empty (shrink rebuilds), checking each pop.
  while (q.size() > 16) {
    pop_and_check();
  }
  // Phase 4: same-timestamp cluster — pure scheduling-order tiebreak.
  for (int i = 0; i < 500; ++i) {
    push(42.0);
  }
  // Phase 5: six decades of time spread to break the estimated width.
  for (int i = 0; i < 500; ++i) {
    push(rng.uniform(0.0, 1.0) * std::pow(10.0, static_cast<double>(i % 7)));
  }
  while (!q.empty()) {
    pop_and_check();
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_EQ(q.size(), 0u);
}

// Same-timestamp cluster across a rebuild: the seq tiebreak must survive
// rebucketing (entries move between buckets but never reorder).
TEST(EventQueue, SeqOrderSurvivesRebuild) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    q.push(1.0, [&, i] { order.push_back(i); });
  }
  // Force rebuilds by pushing/popping far-apart filler around the cluster.
  std::vector<EventId> filler;
  for (int i = 0; i < 2000; ++i) {
    filler.push_back(q.push(1000.0 + i, [] {}));
  }
  for (const EventId id : filler) {
    ASSERT_TRUE(q.cancel(id));
  }
  for (int i = 0; i < 100; ++i) {
    q.pop().callback();
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(order[i], i);
  }
  EXPECT_TRUE(q.empty());
}

// ---- eager cancellation: the entry leaves its bucket at once ----

TEST(EventQueue, CancelTheCachedMinimum) {
  EventQueue q;
  std::vector<int> order;
  const EventId first = q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  q.push(1.5, [&] { order.push_back(15); });
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);  // caches the minimum's position
  ASSERT_TRUE(q.cancel(first));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.5);
  while (!q.empty()) {
    q.pop().callback();
  }
  EXPECT_EQ(order, (std::vector<int>{15, 2}));
}

TEST(EventQueue, CancelAnEntrySharingTheMinimumsBucket) {
  // The default calendar has 8 one-second days: 0.2, 0.4 and 0.6 share day
  // 0's bucket, and 8.3 shares it a year later. Cancelling 0.4 swap-moves
  // the bucket's last entry into its place; the cached minimum (0.2) must
  // not be trusted by position afterwards.
  EventQueue q;
  std::vector<int> order;
  q.push(0.2, [&] { order.push_back(2); });
  const EventId mid = q.push(0.4, [&] { order.push_back(4); });
  q.push(0.6, [&] { order.push_back(6); });
  q.push(8.3, [&] { order.push_back(83); });
  q.push(3.0, [&] { order.push_back(30); });
  EXPECT_DOUBLE_EQ(q.next_time(), 0.2);
  ASSERT_TRUE(q.cancel(mid));
  EXPECT_FALSE(q.cancel(mid));
  EXPECT_EQ(q.size(), 4u);
  EXPECT_DOUBLE_EQ(q.next_time(), 0.2);
  while (!q.empty()) {
    q.pop().callback();
  }
  EXPECT_EQ(order, (std::vector<int>{2, 6, 30, 83}));
}

TEST(EventQueue, CancelAfterARebuildChangedTheWidth) {
  // 40 events 0.01 s apart outgrow the 8-bucket calendar; the rebuild
  // re-estimates the width from their gaps (0.02 s instead of 1 s), so
  // every entry now lives in the bucket of its new day. Cancel must look
  // there (it asserts the entry is found).
  EventQueue q;
  std::vector<EventId> ids;
  std::vector<int> order;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(q.push(0.01 * i, [&order, i] { order.push_back(i); }));
  }
  std::vector<int> want;
  for (int i = 0; i < 40; ++i) {
    if (i % 3 == 1) {
      ASSERT_TRUE(q.cancel(ids[i]));
    } else {
      want.push_back(i);
    }
  }
  EXPECT_EQ(q.size(), want.size());
  while (!q.empty()) {
    q.pop().callback();
  }
  EXPECT_EQ(order, want);
}

TEST(EventQueue, CancelReleasesCapturesAtOnce) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  const EventId id = q.push(5.0, [token] {});
  q.push(1.0, [] {});
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(q.cancel(id));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, SizeStaysExactThroughCancelChurn) {
  // The timeout pattern at depth: a guard pushed and cancelled per step
  // while traffic pushes and pops around it, through grows and shrinks.
  Rng rng(11);
  EventQueue q;
  std::size_t expect = 0;
  for (int i = 0; i < 3000; ++i) {
    q.push(rng.next_double(), [] {});
    ++expect;
  }
  for (int step = 0; step < 6000; ++step) {
    const EventId guard = q.push(rng.uniform(0.5, 1.0), [] {});
    ASSERT_TRUE(q.cancel(guard));
    if (step % 2 == 0) {
      q.push(q.next_time() + rng.next_double(), [] {});
      ++expect;
    }
    q.pop();
    --expect;
    ASSERT_EQ(q.size(), expect);
    if (expect == 0) {
      break;
    }
  }
  double last = -1.0;
  while (!q.empty()) {
    const SimTime t = q.pop().time;
    ASSERT_GE(t, last);
    last = t;
    --expect;
  }
  EXPECT_EQ(expect, 0u);
}

}  // namespace
}  // namespace hls
