// Fully centralized baseline architecture (§1).
//
// "In the fully centralized system, where user terminals are connected by a
// network to the central computing complex, all transaction input messages
// are shipped to the central site, where the transaction is processed, and
// output messages are sent back to the terminal; hence the centralized
// system does not make use of geographical locality of data reference."
//
// One big CPU, one lock table over the whole lock space, conventional
// two-phase locking with deadlock-abort. Every transaction — class A or B —
// pays one communication delay inbound and one outbound. There is no
// replication, no coherence machinery, no authentication: this is the
// simple system the hybrid architecture competes with.
#pragma once

#include <memory>

#include "db/lock_manager.hpp"
#include "hybrid/config.hpp"
#include "hybrid/transaction.hpp"
#include "hybrid/txn_arena.hpp"
#include "baseline/baseline_metrics.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "workload/arrivals.hpp"
#include "workload/txn_factory.hpp"

namespace hls {

namespace obs {
class Registry;
}

class CentralizedSystem {
 public:
  /// Reuses the hybrid SystemConfig: central_mips sizes the single CPU,
  /// comm_delay the terminal links, and the workload fields the transaction
  /// mix (class A still draws locks from its home region's partition — the
  /// data layout does not change, only where processing happens).
  explicit CentralizedSystem(SystemConfig cfg);

  CentralizedSystem(const CentralizedSystem&) = delete;
  CentralizedSystem& operator=(const CentralizedSystem&) = delete;

  void enable_arrivals();
  void stop_arrivals();
  void run_for(double seconds);
  void drain();
  void begin_measurement();
  void end_measurement();

  TxnId inject(TxnClass cls, int site);

  Simulator& simulator() { return sim_; }
  [[nodiscard]] const BaselineMetrics& metrics() const { return metrics_; }
  [[nodiscard]] double cpu_utilization() const { return cpu_->utilization(); }
  [[nodiscard]] int live_transactions() const {
    return static_cast<int>(arena_.live_count());
  }
  [[nodiscard]] const LockManager& locks() const { return *locks_; }

  /// Exports the run's metrics into `reg` under the baseline subset of the
  /// stable names in docs/OBSERVABILITY.md (rt.* stats, txn.* counters, and
  /// a central.* resource scope). Read-only; callable any time.
  void export_registry(obs::Registry& reg) const;

 private:
  void admit(Transaction txn);
  void start_run(Transaction* txn);
  void after_init(Transaction* txn);
  void do_call(Transaction* txn);
  void after_call_cpu(Transaction* txn);
  void lock_granted(Transaction* txn);
  void commit(Transaction* txn);
  void finish(Transaction* txn);
  void abort_rerun(Transaction* txn);

  SystemConfig cfg_;
  Simulator sim_;
  TxnFactory factory_;
  Rng rng_;
  std::unique_ptr<FcfsResource> cpu_;
  std::unique_ptr<LockManager> locks_;
  std::vector<std::unique_ptr<ArrivalProcess>> arrivals_;
  BaselineMetrics metrics_;
  TxnArena arena_;
};

}  // namespace hls
