// Transaction record: the unit of work flowing through the hybrid system.
//
// One Transaction object lives from user arrival to final commit, across any
// number of abort/rerun cycles. The paper's six transaction kinds (§3.1) map
// onto (cls, shipped/routed, run_count>0).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "db/lock_types.hpp"
#include "obs/phase.hpp"
#include "sim/time.hpp"

namespace hls {

enum class TxnClass : std::uint8_t {
  A,  ///< refers only to home-site data; the load-sharing candidate
  B,  ///< refers to global data; always runs at the central site
};

/// Why a transaction aborted and was rerun (statistics).
enum class AbortCause : std::uint8_t {
  LocalPreempted,    ///< local txn lost locks to an authenticating central txn
  CentralInvalidated,///< central txn's lock invalidated by an async update
  AuthRefused,       ///< authentication negative-acked (coherence in flight)
  Deadlock,          ///< waits-for cycle at one site
  ShipTimeout,       ///< shipped txn reclaimed by its home site's timeout
  Crash,             ///< resident at a site/central complex that crashed
  kCount,
};

struct LockNeed {
  LockId id;
  LockMode mode;
};

/// A scheduled callback's claim on one run of a transaction: its arena
/// slot and that slot's generation when the callback was armed
/// (hybrid/txn_arena.hpp). A rerun or the release of the transaction bumps
/// the generation, so an older ticket no longer matches.
struct TxnTicket {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;

  /// One 64-bit compare: this is the test every callback runs.
  friend bool operator==(TxnTicket a, TxnTicket b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  }
};

/// Where a class A transaction was routed.
enum class Route : std::uint8_t { Local, Central };

struct Transaction {
  TxnId id = kInvalidTxn;
  TxnClass cls = TxnClass::A;
  int home_site = 0;

  // Access pattern, fixed at generation time and identical across reruns
  // ("a re-run transaction finds all data referenced in its main memory").
  std::vector<LockNeed> locks;  ///< one lock request per DB call
  std::vector<bool> call_io;    ///< whether call k performs an I/O (first run)

  SimTime arrival_time = 0.0;
  Route route = Route::Local;

  // ---- execution state ----
  int run_count = 0;        ///< 0 on first run; incremented per rerun
  int call_index = 0;       ///< next DB call to execute
  bool marked_abort = false;
  /// Issued by the arena and kept across recycle(); a rerun bumps its
  /// generation, which drops every callback armed for an earlier run.
  TxnTicket ticket;

  // ---- authentication state (central/shipped only) ----
  int auth_pending_acks = 0;
  bool auth_any_negative = false;
  std::vector<int> auth_sites;  ///< sites granted auth locks this round

  // ---- fault-handling state ----
  int ship_retries = 0;            ///< timeout-triggered reships so far
  std::uint64_t ship_attempt = 0;  ///< bumped per reclaim; guards stale timeouts
  bool at_central = false;         ///< currently counted in central residency
  /// A rerun normally finds its data cached and skips all I/O (§3.1); a
  /// crash or timeout restart lost that memory and pays the I/O again.
  bool memory_resident = false;

  // ---- abort provenance ----
  /// Winner of the conflict that set marked_abort, when one exists: the
  /// committer whose async update invalidated this holder, or the
  /// authenticating transaction that preempted it. kInvalidTxn = none.
  TxnId marked_by = kInvalidTxn;
  int marked_by_site = -2;  ///< winner's home site; -2 = no winner
  /// Non-preemptible holder that forced a negative auth ack, captured at the
  /// refusing site and carried back on the ack. kInvalidTxn = refusal was
  /// coherence-in-flight (no single winner).
  TxnId auth_blocker = kInvalidTxn;
  int auth_blocker_site = -2;
  /// Armed by prepare_rerun, consumed at the next start-of-run to emit the
  /// retry edge linking the attempts of one transaction.
  double retry_edge_from = -1.0;
  int retry_edge_track = 0;

  // ---- per-txn statistics ----
  int aborts[static_cast<int>(AbortCause::kCount)] = {};
  /// Response-time decomposition across all runs; maintained by the system
  /// at every protocol step (obs/phase.hpp). Sums to the response time.
  obs::PhaseTimeline phases;
  /// Snapshot of phases.acc[] at the start of the current attempt, so an
  /// abort can charge exactly this attempt's segment as wasted work.
  double attempt_mark[obs::kPhaseCount] = {};
  /// Per-phase time burned by aborted attempts, across the retry chain.
  double wasted_phase[obs::kPhaseCount] = {};

  /// Resets every field but `ticket` to its freshly-constructed state while
  /// keeping the capacity of the access-pattern vectors, so an arena slot
  /// can host thousands of transactions without per-transaction
  /// allocation. Must be kept in sync with the field list above.
  void recycle() {
    id = kInvalidTxn;
    cls = TxnClass::A;
    home_site = 0;
    locks.clear();
    call_io.clear();
    arrival_time = 0.0;
    route = Route::Local;
    run_count = 0;
    call_index = 0;
    marked_abort = false;
    auth_pending_acks = 0;
    auth_any_negative = false;
    auth_sites.clear();
    ship_retries = 0;
    ship_attempt = 0;
    at_central = false;
    memory_resident = false;
    marked_by = kInvalidTxn;
    marked_by_site = -2;
    auth_blocker = kInvalidTxn;
    auth_blocker_site = -2;
    retry_edge_from = -1.0;
    retry_edge_track = 0;
    for (int& count : aborts) {
      count = 0;
    }
    phases = obs::PhaseTimeline{};
    for (double& mark : attempt_mark) {
      mark = 0.0;
    }
    for (double& wasted : wasted_phase) {
      wasted = 0.0;
    }
  }

  [[nodiscard]] bool is_rerun() const { return run_count > 0; }

  void count_abort(AbortCause cause) { ++aborts[static_cast<int>(cause)]; }

  /// CPU seconds burned by aborted attempts (service + commit bursts).
  [[nodiscard]] double wasted_cpu() const {
    return wasted_phase[static_cast<int>(obs::Phase::CpuService)] +
           wasted_phase[static_cast<int>(obs::Phase::Commit)];
  }

  /// I/O seconds burned by aborted attempts.
  [[nodiscard]] double wasted_io() const {
    return wasted_phase[static_cast<int>(obs::Phase::Io)];
  }

  /// All time burned by aborted attempts, every phase included.
  [[nodiscard]] double wasted_total() const {
    double s = 0.0;
    for (double w : wasted_phase) {
      s += w;
    }
    return s;
  }

  /// True when any call updates (exclusively locks) its entity.
  [[nodiscard]] bool writes_anything() const {
    for (const LockNeed& need : locks) {
      if (need.mode == LockMode::Exclusive) {
        return true;
      }
    }
    return false;
  }
};

}  // namespace hls
