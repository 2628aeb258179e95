// Fully (geographically) distributed baseline architecture (§1).
//
// "In the geographically distributed database approach the databases are
// partitioned and distributed among regional processing systems, and some
// request routing mechanism is provided to support the access of remote
// systems. The performance of the fully distributed system depends
// critically on the number of remote calls that a transaction makes for
// data."  [DIAS87]
//
// N regional sites, each owning one partition of the lock space, with no
// central complex and no replication. Class A transactions run entirely at
// their home site. Class B transactions run at their home site and perform
// a REMOTE FUNCTION CALL for every database call whose entity is mastered
// elsewhere: one round trip plus message-handling pathlength at both ends,
// with the lock acquired (and the I/O performed) at the owning site.
// Commit uses a presumed-yes two-phase protocol: one prepare round trip to
// the participant sites before the response is released, with lock-release
// messages following asynchronously.
//
// Cross-site deadlocks cannot be seen by any single site's waits-for graph;
// as in real systems of the period they are broken by a lock-wait timeout
// (config::distributed_lock_timeout) followed by abort and randomized
// restart backoff.
//
// Modeling simplification (documented in DESIGN.md): on abort, locks held
// at remote sites are released after one message delay, and the rerun backs
// off for at least that long, so a rerun never races its own release
// messages.
#pragma once

#include <memory>
#include <vector>

#include "baseline/baseline_metrics.hpp"
#include "db/lock_manager.hpp"
#include "hybrid/config.hpp"
#include "hybrid/transaction.hpp"
#include "hybrid/txn_arena.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "workload/arrivals.hpp"
#include "workload/txn_factory.hpp"

namespace hls {

namespace obs {
class Registry;
}

/// Extra knobs for the distributed baseline, on top of SystemConfig.
struct DistributedOptions {
  double lock_timeout = 5.0;        ///< cross-site lock-wait timeout, s
  double instr_remote_msg = 15e3;   ///< per message-handling event, instr
  double restart_backoff_max = 1.0; ///< uniform extra backoff after abort, s
};

class DistributedSystem {
 public:
  DistributedSystem(SystemConfig cfg, DistributedOptions opts = {});

  DistributedSystem(const DistributedSystem&) = delete;
  DistributedSystem& operator=(const DistributedSystem&) = delete;

  void enable_arrivals();
  void stop_arrivals();
  void run_for(double seconds);
  void drain();
  void begin_measurement();
  void end_measurement();

  TxnId inject(TxnClass cls, int site);

  Simulator& simulator() { return sim_; }
  [[nodiscard]] const BaselineMetrics& metrics() const { return metrics_; }
  [[nodiscard]] int live_transactions() const {
    return static_cast<int>(arena_.live_count());
  }
  [[nodiscard]] const LockManager& site_locks(int site) const;
  [[nodiscard]] double site_utilization(int site) const;

  /// Exports the run's metrics into `reg` under the baseline subset of the
  /// stable names in docs/OBSERVABILITY.md (rt.* stats, txn.* counters, and
  /// a site<k>.* resource scope per site). Read-only; callable any time.
  void export_registry(obs::Registry& reg) const;

 private:
  struct Site {
    std::unique_ptr<FcfsResource> cpu;
    std::unique_ptr<LockManager> locks;
    std::unique_ptr<ArrivalProcess> arrivals;
  };

  void admit(Transaction txn);
  void start_run(Transaction* txn);
  void after_init(Transaction* txn);
  void do_call(Transaction* txn);
  void after_call_cpu(Transaction* txn);
  void request_local(Transaction* txn);
  void request_remote(Transaction* txn, int owner);
  void remote_granted(TxnId id, TxnTicket ticket, int owner, LockId lock);
  void after_lock(Transaction* txn, bool remote);
  void commit(Transaction* txn);
  void after_commit_cpu(Transaction* txn);
  /// `txn` is the ack's transaction as found by its ticket: never gone,
  /// since a transaction in two-phase commit neither aborts nor completes
  /// before its last ack.
  void prepare_acked(Transaction* txn);
  void finish(Transaction* txn);
  void abort_rerun(Transaction* txn, bool timed_out);
  /// Sites other than home that master any of this transaction's locks.
  [[nodiscard]] std::vector<int> remote_participants(const Transaction& txn) const;

  SystemConfig cfg_;
  DistributedOptions opts_;
  Simulator sim_;
  TxnFactory factory_;
  Rng rng_;
  std::vector<Site> sites_;
  BaselineMetrics metrics_;
  TxnArena arena_;
};

}  // namespace hls
