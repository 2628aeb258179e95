// Differential test: LockManager against the plain reference in
// lock_reference.hpp, over seeded random operation sequences.
//
// Every step applies one operation to both tables — a request (an upgrade
// when the requester already holds the lock shared), a release, a
// release_all, a cancel_waits, an authentication grab, or a coherence
// increment or decrement — then runs the simulator so queued grants fire,
// and compares everything either table lets a caller observe: the
// operation's result, the order the grant callbacks fired in, the grab's
// flag and preempted set, the deadlock verdict (a reported cycle must be a
// real waits-for cycle that starts at the requester), holders_of in holder
// order, held_locks as a set, waiting_lock, the coherence counts and the
// totals. LockManager's own check_invariants runs after the comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "db/lock_manager.hpp"
#include "lock_reference.hpp"
#include "util/random.hpp"

namespace hls {
namespace {

struct Shape {
  int txns;   ///< transaction ids 1..txns
  int locks;  ///< lock ids 0..locks-1
  int steps;
};

/// How often the sequences reached each interesting case, so a generator
/// change that stops reaching one fails loudly instead of testing less.
struct Tally {
  int queued_grants = 0;  ///< grant callbacks fired after a Queued request
  int upgrades = 0;  ///< exclusive re-requests of a shared hold
  int deadlocks = 0;
  int preempting_grabs = 0;
  int refused_grabs = 0;
  int cancelled_waits = 0;
};

std::string mode_name(LockMode mode) {
  return mode == LockMode::Exclusive ? "X" : "S";
}

/// The first difference between the two tables' observable states, or "".
std::string first_difference(const LockManager& lm, const reference::LockTable& ref,
                             const Shape& shape) {
  std::ostringstream out;
  if (lm.locks_held() != ref.locks_held()) {
    out << "locks_held " << lm.locks_held() << " vs " << ref.locks_held();
  } else if (lm.waiters() != ref.waiters()) {
    out << "waiters " << lm.waiters() << " vs " << ref.waiters();
  } else if (lm.pending_coherence_entities() != ref.pending_coherence_entities()) {
    out << "pending_coherence_entities " << lm.pending_coherence_entities() << " vs "
        << ref.pending_coherence_entities();
  } else if (lm.deadlocks_detected() != ref.deadlocks_detected()) {
    out << "deadlocks_detected " << lm.deadlocks_detected() << " vs "
        << ref.deadlocks_detected();
  }
  if (!out.str().empty()) {
    return out.str();
  }
  for (LockId lock = 0; lock < static_cast<LockId>(shape.locks); ++lock) {
    const auto got = lm.holders_of(lock);
    const auto want = ref.holders_of(lock);
    bool same = got.size() == want.size();
    for (std::size_t i = 0; same && i < got.size(); ++i) {
      same = got[i].txn == want[i].txn && got[i].mode == want[i].mode;
    }
    if (!same) {
      out << "holders_of(" << lock << "):";
      for (const auto& h : got) {
        out << " " << h.txn << mode_name(h.mode);
      }
      out << " vs";
      for (const auto& h : want) {
        out << " " << h.txn << mode_name(h.mode);
      }
      return out.str();
    }
    if (lm.coherence_count(lock) != ref.coherence_count(lock)) {
      out << "coherence_count(" << lock << ") " << lm.coherence_count(lock) << " vs "
          << ref.coherence_count(lock);
      return out.str();
    }
  }
  for (TxnId txn = 1; txn <= static_cast<TxnId>(shape.txns); ++txn) {
    std::vector<LockId> held = lm.held_locks(txn);
    std::sort(held.begin(), held.end());
    if (held != ref.held_locks_sorted(txn)) {
      out << "held_locks(" << txn << ") differ";
      return out.str();
    }
    if (lm.waiting_lock(txn) != ref.waiting_lock(txn) ||
        lm.is_waiting(txn) != ref.waiting_lock(txn).has_value()) {
      out << "waiting_lock(" << txn << ") differs";
      return out.str();
    }
  }
  return "";
}

const char* outcome_name(LockRequestOutcome outcome) {
  switch (outcome) {
    case LockRequestOutcome::Granted:
      return "Granted";
    case LockRequestOutcome::AlreadyHeld:
      return "AlreadyHeld";
    case LockRequestOutcome::Queued:
      return "Queued";
    case LockRequestOutcome::Deadlock:
      return "Deadlock";
  }
  return "?";
}

/// Drives one seeded sequence through both tables; returns the first
/// divergence as "step N (operation): what differs", or "" when none.
std::string run_sequence(std::uint64_t seed, const Shape& shape, Tally& tally) {
  Simulator sim;
  LockManager lm(sim, "differential");
  reference::LockTable ref;
  Rng rng(seed);
  std::vector<int> fired;
  int next_grant = 0;

  for (int step = 0; step < shape.steps; ++step) {
    const TxnId txn = 1 + rng.next_below(static_cast<std::uint64_t>(shape.txns));
    const LockId lock = static_cast<LockId>(rng.next_below(static_cast<std::uint64_t>(shape.locks)));
    const LockMode mode = rng.bernoulli(0.4) ? LockMode::Exclusive : LockMode::Shared;
    const double roll = rng.next_double();
    std::ostringstream op;
    std::string problem;

    if (roll < 0.45) {
      if (lm.is_waiting(txn)) {
        continue;  // a blocked transaction makes no request (asserted)
      }
      // Half the requests re-request a lock the transaction already holds
      // (upgrade or AlreadyHeld), when it holds any.
      LockId target = lock;
      const std::vector<LockId> held = lm.held_locks(txn);
      if (!held.empty() && rng.bernoulli(0.5)) {
        target = held[rng.next_below(held.size())];
      }
      op << "request(" << txn << ", " << target << ", " << mode_name(mode) << ")";
      const int id = next_grant++;
      std::vector<TxnId> cycle;
      for (const auto& h : lm.holders_of(target)) {
        if (h.txn == txn && h.mode == LockMode::Shared && mode == LockMode::Exclusive) {
          ++tally.upgrades;
        }
      }
      const LockRequestOutcome got =
          lm.request(txn, target, mode, [&fired, id] { fired.push_back(id); }, &cycle);
      const LockRequestOutcome want = ref.request(txn, target, mode, id);
      if (got != want) {
        problem = std::string("outcome ") + outcome_name(got) + " vs " + outcome_name(want);
      } else if (got == LockRequestOutcome::Deadlock &&
                 !ref.is_cycle_closed_by(txn, target, cycle)) {
        problem = "reported deadlock cycle is not a waits-for cycle from the requester";
      }
      tally.deadlocks += got == LockRequestOutcome::Deadlock ? 1 : 0;
    } else if (roll < 0.55) {
      const std::vector<LockId> held = lm.held_locks(txn);
      if (held.empty()) {
        continue;
      }
      const LockId target = held[rng.next_below(held.size())];
      op << "release(" << txn << ", " << target << ")";
      lm.release(txn, target);
      ref.release(txn, target);
    } else if (roll < 0.67) {
      op << "release_all(" << txn << ")";
      lm.release_all(txn);
      ref.release_all(txn);
    } else if (roll < 0.75) {
      op << "cancel_waits(" << txn << ")";
      const std::vector<LockId> cancelled = lm.cancel_waits(txn);
      if (cancelled != ref.cancel_waits(txn)) {
        problem = "cancelled lock lists differ";
      }
      tally.cancelled_waits += cancelled.empty() ? 0 : 1;
    } else if (roll < 0.87) {
      if (lm.is_waiting(txn)) {
        continue;  // grabbers never wait
      }
      op << "grab(" << txn << ", " << lock << ", " << mode_name(mode) << ")";
      const LockManager::GrabResult got = lm.grab_for_authentication(txn, lock, mode);
      const reference::LockTable::Grab want = ref.grab(txn, lock, mode);
      if (got.granted != want.granted) {
        problem = "grab granted flag differs";
      } else if (got.aborted != want.preempted) {
        problem = "grab preempted set differs";
      }
      tally.refused_grabs += got.granted ? 0 : 1;
      tally.preempting_grabs += got.aborted.empty() ? 0 : 1;
    } else if (roll < 0.94) {
      op << "increment_coherence(" << lock << ")";
      lm.increment_coherence(lock);
      ref.increment_coherence(lock);
    } else {
      if (lm.coherence_count(lock) == 0) {
        continue;
      }
      op << "decrement_coherence(" << lock << ")";
      lm.decrement_coherence(lock);
      ref.decrement_coherence(lock);
    }

    sim.run();  // queued grants fire through the simulator
    tally.queued_grants += static_cast<int>(fired.size());
    if (problem.empty() && fired != ref.take_granted()) {
      problem = "grant callbacks fired in a different order";
    }
    fired.clear();
    if (problem.empty()) {
      problem = first_difference(lm, ref, shape);
    }
    if (!problem.empty()) {
      return "step " + std::to_string(step) + " (" + op.str() + "): " + problem;
    }
    lm.check_invariants();
  }
  return "";
}

/// Each kind of case must come up at least this often over a suite.
void expect_reached(const Tally& tally) {
  constexpr int kAtLeast = 100;
  EXPECT_GE(tally.queued_grants, kAtLeast);
  EXPECT_GE(tally.upgrades, kAtLeast);
  EXPECT_GE(tally.deadlocks, kAtLeast);
  EXPECT_GE(tally.preempting_grabs, kAtLeast);
  EXPECT_GE(tally.refused_grabs, kAtLeast);
  EXPECT_GE(tally.cancelled_waits, kAtLeast);
}

TEST(LockDifferential, MatchesReferenceOnAContendedTable) {
  // Few locks and many transactions: long wait queues, upgrades and
  // deadlock cycles through holders and queued waiters alike.
  const Shape shape{8, 4, 400};
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    ASSERT_EQ(run_sequence(seed, shape, tally), "") << "seed " << seed;
  }
  expect_reached(tally);
}

TEST(LockDifferential, MatchesReferenceOnAWiderTable) {
  // More locks than transactions: entries drain and come back, so the
  // table's pooled entries and index slots are reused constantly.
  const Shape shape{6, 16, 400};
  Tally tally;
  for (std::uint64_t seed = 1001; seed <= 1100; ++seed) {
    ASSERT_EQ(run_sequence(seed, shape, tally), "") << "seed " << seed;
  }
  expect_reached(tally);
}

TEST(LockDifferential, ReferenceFollowsTheHeaderContract) {
  // The reference checked by hand on one scenario, so a rule the two
  // tables got wrong the same way would still show: an upgrade queues
  // behind another shared holder, the second upgrade closes the cycle,
  // coherence refuses a grab, an exclusive grab preempts both shared
  // holders, and the queued upgrade becomes a fresh grant.
  reference::LockTable ref;
  EXPECT_EQ(ref.request(1, 0, LockMode::Shared, 0), LockRequestOutcome::Granted);
  EXPECT_EQ(ref.request(2, 0, LockMode::Shared, 1), LockRequestOutcome::Granted);
  EXPECT_EQ(ref.request(1, 0, LockMode::Shared, 2), LockRequestOutcome::AlreadyHeld);
  EXPECT_EQ(ref.request(1, 0, LockMode::Exclusive, 3), LockRequestOutcome::Queued);
  EXPECT_EQ(ref.request(2, 0, LockMode::Exclusive, 4), LockRequestOutcome::Deadlock);
  EXPECT_TRUE(ref.is_cycle_closed_by(2, 0, {2, 1}));
  EXPECT_FALSE(ref.is_cycle_closed_by(2, 0, {2}));
  EXPECT_FALSE(ref.is_cycle_closed_by(1, 0, {2, 1}));
  ref.increment_coherence(3);
  EXPECT_FALSE(ref.grab(9, 3, LockMode::Exclusive).granted);
  const auto grab = ref.grab(9, 0, LockMode::Exclusive);
  EXPECT_TRUE(grab.granted);
  EXPECT_EQ(grab.preempted, (std::vector<TxnId>{1, 2}));
  ref.release_all(9);
  EXPECT_EQ(ref.take_granted(), (std::vector<int>{3}));
  ASSERT_EQ(ref.holders_of(0).size(), 1u);
  EXPECT_EQ(ref.holders_of(0)[0].txn, 1u);
  EXPECT_EQ(ref.holders_of(0)[0].mode, LockMode::Exclusive);
  EXPECT_EQ(ref.deadlocks_detected(), 1u);
}

}  // namespace
}  // namespace hls
