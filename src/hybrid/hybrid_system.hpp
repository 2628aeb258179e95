// HybridSystem: the full hybrid distributed-centralized database simulator.
//
// Wires together N local sites (CPU + lock table + duplex link) and the
// central complex (CPU + global lock table), drives Poisson transaction
// arrivals, executes the paper's protocol (§2), and consults a pluggable
// RoutingStrategy for every class A arrival (§3).
//
// Protocol summary as implemented. Every transaction runs one step sequence:
//   start_run         initiation CPU
//   after_init        setup I/O (first run only)
//   do_call           per DB call: call CPU; after the last call, commit
//   after_call_cpu    lock request; a deadlock aborts the chosen victim
//   lock_granted      call I/O (first run only), then the next do_call
//   commit            abort if marked for abort, else commit CPU
//   after_commit_cpu  abort if marked meanwhile, else the role's commit leg
// Each step looks up what differs from the transaction's class, route and
// cfg_.class_b_mode (docs/PROTOCOL.md, "One step sequence"):
//   * Local class A runs on its home CPU and lock table. A mark means an
//     authenticating central transaction preempted one of its locks. Its
//     commit leg (local_finalize) releases the locks, increments the
//     coherence count of every updated entity, ships one asynchronous update
//     message to the central site, and completes immediately — it never
//     waits for the central acknowledgement.
//   * Central execution (class B and shipped class A, after the ship
//     forward) runs on the central CPU and lock table. A mark means an
//     asynchronous update invalidated one of its locks. Its commit leg is
//     the authentication phase (central_begin_auth): lock lists go to the
//     master site(s); a master refuses (negative ack) if any entity has
//     in-flight asynchronous updates or is held by a non-preemptible holder,
//     otherwise it preempts incompatible local holders (marking them for
//     abort) and grants. On all positive acks — and if no asynchronous
//     update invalidated the transaction meanwhile — commit messages release
//     the granted locks and the transaction completes; otherwise it releases
//     its grants and reruns.
//   * Remote-call class B (ClassBMode::RemoteCalls) runs on its home CPU
//     against the central lock table: each call's lock request and I/O sit
//     inside a round trip to the central copy, and the commit request
//     travels there too before the central commit point and authentication.
// Every abort takes one path (abort_run): settle the open segment, release
// the locks (deadlock) or keep them (commit-time aborts), book the abort,
// and restart on the same role after the restart delay.
//
// Every protocol message is one handler closure in its link direction's
// in-order queue (InOrderQueue), processed exactly once and in send order
// even under message-level chaos, or parked in a crashed receiver's
// backlog until recovery. Asynchronous updates delivered that way
// invalidate central locks on the updated entities: central holders are
// marked for abort and lose those locks; an acknowledgement flows back and
// decrements the coherence counts. Deadlocks (waits-for cycle within one
// site) abort the victim chosen by cfg_.deadlock_victim, which releases
// everything and reruns.
//
// Reruns model re-referenced data as memory-resident: all CPU is re-spent,
// all I/O is skipped, and surviving locks are kept (per §3.1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "db/lock_manager.hpp"
#include "hybrid/config.hpp"
#include "hybrid/metrics.hpp"
#include "hybrid/transaction.hpp"
#include "hybrid/txn_arena.hpp"
#include "net/link.hpp"
#include "obs/sample.hpp"
#include "obs/sink.hpp"
#include "routing/adaptive.hpp"
#include "routing/strategy.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "util/ring.hpp"
#include "workload/arrivals.hpp"
#include "workload/txn_factory.hpp"

namespace hls {

namespace obs {
class Registry;
}

class HybridSystem {
 public:
  HybridSystem(SystemConfig cfg, std::unique_ptr<RoutingStrategy> strategy);
  ~HybridSystem();

  HybridSystem(const HybridSystem&) = delete;
  HybridSystem& operator=(const HybridSystem&) = delete;

  // ---- experiment control ----

  /// Starts the per-site Poisson arrival processes.
  void enable_arrivals();

  /// Replaces site `site`'s arrival process with a time-varying one
  /// (must be called before enable_arrivals).
  void set_arrival_rate_function(int site, RateFunction rate, double max_rate);

  /// Stops all arrival processes; in-flight transactions keep running. Used
  /// to drain the system (liveness tests) and by open-ended examples.
  void stop_arrivals();

  /// Runs the simulation until no events remain (all in-flight transactions
  /// have completed). Call stop_arrivals() first or this never returns.
  void drain();

  /// Advances simulated time by `seconds`.
  void run_for(double seconds);

  /// Discards statistics gathered so far (end of warmup).
  void begin_measurement();

  /// Stamps the window end and fills utilization summaries into metrics().
  void end_measurement();

  // ---- manual injection (tests, examples) ----

  /// Generates and immediately admits one transaction of the given class.
  TxnId inject(TxnClass cls, int site);

  /// Admits a fully specified transaction (access pattern chosen by caller).
  TxnId inject_transaction(Transaction txn);

  // ---- accessors ----

  Simulator& simulator() { return sim_; }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }
  Metrics& metrics() {
    flush_phase_batch();
    return metrics_;
  }
  [[nodiscard]] const Metrics& metrics() const {
    flush_phase_batch();
    return metrics_;
  }
  [[nodiscard]] RoutingStrategy& strategy() { return *strategy_; }

  /// The installed strategy's adaptive controller, or nullptr when the
  /// strategy doesn't carry one (every non-`adapt:` spec).
  [[nodiscard]] const AdaptiveController* controller() const {
    return controller_;
  }

  /// Collision policy in force at `site` for a central authentication
  /// hitting a local class-A lock holder: the controller's per-site choice,
  /// or optimistic-abort (the paper's behaviour) without a controller.
  [[nodiscard]] CollisionPolicy collision_policy(int site) const {
    return controller_ != nullptr ? controller_->site_policy(site)
                                  : CollisionPolicy::OptimisticAbort;
  }

  /// Plain-data snapshot of the provenance + class-A latency sensors the
  /// controller reviews (exposed for controller unit tests).
  [[nodiscard]] ControllerFeed make_controller_feed() const;

  [[nodiscard]] const LockManager& central_locks() const { return *central_.locks; }
  [[nodiscard]] const LockManager& local_locks(int site) const;
  [[nodiscard]] const FcfsResource& central_cpu() const { return *central_.cpu; }
  [[nodiscard]] const FcfsResource& local_cpu(int site) const;
  [[nodiscard]] int central_resident() const { return central_.resident_txns; }
  [[nodiscard]] int local_resident(int site) const;
  [[nodiscard]] int shipped_in_flight(int site) const;
  [[nodiscard]] bool central_up() const { return central_.alive; }
  [[nodiscard]] bool site_up(int site) const;
  [[nodiscard]] int live_transactions() const {
    return static_cast<int>(arena_.live_count());
  }

  /// Aggregated link-level fault counters over both directions of every
  /// site's link (chaos oracles, fault-tolerance bench sweeps).
  struct LinkFaultTotals {
    std::uint64_t retransmitted = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
    std::uint64_t delay_spikes = 0;
  };
  [[nodiscard]] LinkFaultTotals link_fault_totals() const;

  /// metrics().sites[site], range-checked: the site's response-time,
  /// shipping, fault and abort breakdown.
  [[nodiscard]] const SiteMetrics& site_metrics(int site) const;

  // ---- observability (obs/) ----

  /// Registers a structured trace sink; events whose kind is in the sink's
  /// kind_mask() are delivered as they happen. The sink must outlive the
  /// run (or be removed first). Emission never perturbs the simulation:
  /// with no sink interested in a kind, that kind costs one branch.
  void add_trace_sink(obs::TraceSink* sink);
  void remove_trace_sink(obs::TraceSink* sink);

  /// Rows recorded by the time-series sampler (config::obs_sample_interval
  /// > 0; empty otherwise). Cleared by begin_measurement().
  [[nodiscard]] const std::vector<obs::SampleRow>& sample_series() const {
    return series_;
  }
  /// Moves the series out (driver hand-off at the end of a run).
  [[nodiscard]] std::vector<obs::SampleRow> take_series() {
    return std::move(series_);
  }

  /// Exports every metric the run accumulated — counters, response-time
  /// stats, histograms, per-site and central resource telemetry, and (when
  /// armed) lock-access heat buckets — into `reg` under the stable names
  /// documented in docs/OBSERVABILITY.md. Read-only; callable any time.
  void export_registry(obs::Registry& reg) const;

  /// IO operations currently in progress on `track` (site index, or
  /// obs::kCentralTrack). Maintained only when obs_resource_telemetry is
  /// set; 0 otherwise.
  [[nodiscard]] int io_in_flight(int track) const;

  /// Builds the state view a class A arrival at `site` would see right now
  /// (exposed for strategy unit tests).
  [[nodiscard]] SystemStateView make_state_view(int site) const;

  /// Cross-checks internal bookkeeping; aborts on violation (tests).
  void check_invariants() const;

 private:
  /// One update in an asynchronous propagation batch: the entity plus the
  /// committing transaction, so central invalidations can name their winner.
  struct UpdateItem {
    LockId id;
    TxnId committer;
  };

  struct CentralSnapshot {
    double taken_at = 0.0;
    int cpu_queue = 0;
    int num_txns = 0;
    int locks_held = 0;
  };

  /// A protocol message sent and not yet processed: the receiver's
  /// handler, plus (central -> site messages) the central state as of send
  /// time. Crash backlogs hold the same value.
  struct QueuedMsg {
    UniqueFunction<void()> handler;
    CentralSnapshot snap;
    bool arrived = false;  ///< delivered ahead of a gap; waits its turn
  };

  /// One link direction's sent, not-yet-processed messages in send order
  /// (docs/PROTOCOL.md "Message sequence numbers and handler idempotence").
  /// A message's sequence number is `processed` plus its position, so the
  /// queue is both the numbering and the resequencing buffer. With a FIFO
  /// link each message costs one push and one pop, so fault-free runs stay
  /// byte-identical; under message-level chaos the queue is what makes the
  /// handlers run exactly once and in order.
  struct InOrderQueue {
    Ring<QueuedMsg> sent;
    std::uint64_t processed = 0;  ///< sequence number of sent.front()
  };

  struct SiteState {
    int index = 0;
    std::unique_ptr<FcfsResource> cpu;
    std::unique_ptr<LockManager> locks;
    std::unique_ptr<Link> up;    ///< site -> central
    std::unique_ptr<Link> down;  ///< central -> site
    std::unique_ptr<ArrivalProcess> arrivals;
    int resident_txns = 0;      ///< class A txns currently executing here
    int shipped_in_flight = 0;  ///< class A txns from here now at central
    double last_local_rt = 0.0;
    double last_shipped_rt = 0.0;
    CentralSnapshot central_view;  ///< last central state learned from messages
    InOrderQueue up_queue;    ///< site -> central messages
    InOrderQueue down_queue;  ///< central -> site messages
    // Asynchronous-update batching (config::async_batch_window > 0).
    std::vector<UpdateItem> pending_updates;
    bool flush_armed = false;
    // Fault state: while the site's DB is down, inbound deliveries queue in
    // `backlog` and crashed local transactions wait in `recovery_queue`.
    bool alive = true;
    std::vector<QueuedMsg> backlog;
    std::vector<std::pair<TxnId, std::uint64_t>> recovery_queue;
    // Per-resource telemetry (maintained only when obs_resource_telemetry).
    int io_in_flight = 0;
    TimeWeightedStat io_tw;
  };

  struct CentralState {
    std::unique_ptr<FcfsResource> cpu;
    std::unique_ptr<LockManager> locks;
    int resident_txns = 0;  ///< class B + shipped class A currently at central
    // Fault state (same shape as SiteState): the backlog preserves the §2
    // FIFO requirement across an outage — it replays in arrival order at
    // recovery, before any aborted resident restarts.
    bool alive = true;
    std::vector<QueuedMsg> backlog;
    std::vector<std::pair<TxnId, std::uint64_t>> recovery_queue;
    // Per-resource telemetry (maintained only when obs_resource_telemetry).
    int io_in_flight = 0;
    TimeWeightedStat io_tw;
  };

  // ---- plumbing ----
  /// A protocol step continuation.
  using Step = void (HybridSystem::*)(Transaction*);
  Transaction* find(TxnId id, std::uint64_t epoch);
  /// Submits a CPU burst; on completion the leading queue wait is settled to
  /// ReadyQueue and the service time to `service_phase` (CpuService/Commit).
  /// `track` names the span track (site index, or obs::kCentralTrack).
  void cpu_burst(FcfsResource& cpu, double seconds, Transaction* txn,
                 obs::Phase service_phase, int track, Step next);
  /// Plain delay; the elapsed time is settled to `phase` (Io or Stall).
  void wait(double seconds, Transaction* txn, obs::Phase phase, int track,
            Step next);
  /// Queue `handler` on `site`'s up (down) link direction and send its
  /// sequence number; a down message also carries the central snapshot.
  void send_up(int site, UniqueFunction<void()> handler);
  void send_down(int site, UniqueFunction<void()> handler);
  /// Link delivery of message `seq` on `site`'s up or down direction: drops
  /// a duplicate, marks an early arrival, then processes the arrived prefix
  /// of the queue in order. `site` attributes the dedup/resequence counters.
  void receive(int site, bool down, std::uint64_t seq);
  /// Runs `msg` at its receiver (a site for a down message, -1 = the
  /// central complex for an up one), or parks it in the receiver's backlog
  /// while that node is down. Live delivery and backlog replay share it.
  void process(int receiver, QueuedMsg msg);
  void complete(Transaction* txn, SimTime completion_time);
  /// Books an abort: provenance (cause, winner from txn->marked_by, wasted
  /// attempt time) into metrics and the abort event, then resets the
  /// transaction's execution state for the next attempt.
  void prepare_rerun(Transaction* txn, AbortCause cause);

  // ---- span tracer (all no-ops unless a sink subscribed to Span/Edge) ----
  /// Emits one phase span [begin, end] on `track` for `txn`.
  void span_note(const Transaction& txn, obs::Phase p, double begin, double end,
                 int track);
  /// settle() + span emission; `t` is the segment end (usually now).
  void span_settle(Transaction* txn, obs::Phase p, double t, int track);
  /// settle_burst() + spans for the queue-wait and service segments.
  void span_burst(Transaction* txn, obs::Phase service_phase, double service,
                  int track);
  /// interrupt() + a span for the retrospectively settled segment.
  void span_interrupt(Transaction* txn, int track);
  /// Emits a causal cross-track edge (flow event in the Perfetto export).
  void edge_note(obs::EdgeKind kind, TxnId txn, double src_time, int src_track,
                 double dst_time, int dst_track, TxnId winner = kInvalidTxn);
  /// Emits the armed retry edge linking an abort to this run start, if any.
  void consume_retry_edge(Transaction* txn, int track);
  /// Records the deadlock winner (first other live cycle member) on the
  /// requester-victim so prepare_rerun can attribute the abort.
  void set_deadlock_winner(Transaction* requester,
                           const std::vector<TxnId>& cycle);

  /// Applies config::deadlock_victim to a detected cycle: returns the
  /// transaction to abort (the requester when policy says so, or when no
  /// other cycle member is eligible).
  Transaction* choose_deadlock_victim(Transaction* requester,
                                      const std::vector<TxnId>& cycle);

  // ---- arrivals / routing ----
  void on_arrival(int site);
  /// Starts an arena-resident transaction (registered via arena_.commit).
  void admit(Transaction* txn);

  // ---- the step sequence, shared by every execution role ----
  void start_run(Transaction* txn);
  void after_init(Transaction* txn);
  void do_call(Transaction* txn);
  /// Requests the current call's lock. A deadlock aborts the chosen victim;
  /// when that is another cycle member, the request is re-issued.
  void after_call_cpu(Transaction* txn);
  void lock_granted(Transaction* txn);
  void commit(Transaction* txn);
  void after_commit_cpu(Transaction* txn);
  /// Every abort of a running transaction: settles the open segment,
  /// releases every lock (`release_everything`, deadlocks) or keeps the
  /// surviving ones (commit-time aborts, §3.1), books the abort, restarts.
  void abort_run(Transaction* txn, AbortCause cause, bool release_everything);
  /// Schedules the next run after abort_restart_delay plus the livelock
  /// breaker's growing backoff once run_count passes the configured
  /// threshold. Remote-call class B first waits for the abort outcome to
  /// travel home. Call after prepare_rerun bumped run_count.
  void restart(Transaction* txn);

  // ---- role lookups: where each step of a transaction runs ----
  /// Local class A: runs on its home site's CPU and lock table.
  [[nodiscard]] static bool runs_local(const Transaction& txn) {
    return txn.cls == TxnClass::A && txn.route == Route::Local;
  }
  /// Remote-call class B: runs on its home CPU against the central table.
  [[nodiscard]] bool is_rfc(const Transaction& txn) const {
    return txn.cls == TxnClass::B && cfg_.class_b_mode == ClassBMode::RemoteCalls;
  }
  [[nodiscard]] bool runs_at_home(const Transaction& txn) const {
    return runs_local(txn) || is_rfc(txn);
  }
  /// Span track of the CPU bursts and I/O of the steps.
  [[nodiscard]] int run_track(const Transaction& txn) const {
    return runs_at_home(txn) ? txn.home_site : obs::kCentralTrack;
  }
  /// Span track of the lock waits and aborts.
  [[nodiscard]] static int lock_track(const Transaction& txn) {
    return runs_local(txn) ? txn.home_site : obs::kCentralTrack;
  }
  [[nodiscard]] LockManager& lock_table(const Transaction& txn) {
    return runs_local(txn) ? *sites_[txn.home_site].locks : *central_.locks;
  }
  /// What a mark for abort found at the commit point means.
  [[nodiscard]] static AbortCause commit_abort_cause(const Transaction& txn) {
    return runs_local(txn) ? AbortCause::LocalPreempted
                           : AbortCause::CentralInvalidated;
  }
  /// cpu_burst of `instructions` on the CPU (and at the MIPS) the steps
  /// run on.
  void step_burst(Transaction* txn, double instructions, obs::Phase phase,
                  Step next);

  // ---- the legs that differ by role ----
  void local_finalize(Transaction* txn);
  void ship_to_central(Transaction* txn);
  void ship_after_forward(Transaction* txn);
  void central_begin_auth(Transaction* txn);
  /// Remote-call class B legs. rfc_send_call and rfc_send_commit carry a
  /// DB call's request or the commit request up to the central copy, whose
  /// CPU runs it (even for a requester that aborted meanwhile) before
  /// after_call_cpu or after_commit_cpu; rfc_send_reply brings a call's
  /// reply home, back to do_call.
  void rfc_send_call(Transaction* txn);
  void rfc_send_commit(Transaction* txn);
  void rfc_send_up(Transaction* txn, double instructions, obs::Phase phase,
                   Step next);
  void rfc_send_reply(Transaction* txn);
  /// The distinct master sites of `txn`'s locks, in access order, in a
  /// buffer reused by the next call (no caller re-enters it).
  const std::vector<int>& master_sites(const Transaction& txn);
  /// Master site `site`'s half of an authentication round: after one
  /// instr_auth_local burst, checks and grabs the locks of the requester's
  /// access pattern that `site` masters, then acks.
  void local_process_auth(int site, TxnId txn_id, std::uint64_t epoch);
  void central_auth_ack(TxnId txn_id, std::uint64_t epoch, int site, bool positive,
                        bool granted, TxnId blocker, int blocker_site);
  void central_auth_done(Transaction* txn);
  void release_auth_grants(Transaction* txn);
  /// The release chain for `id`'s locks at master site `site`: one
  /// instr_commit_apply_local burst there, then release_all. send_release
  /// sends it down the link; release_site_locks runs it in place.
  void send_release(int site, TxnId id);
  void release_site_locks(int site, TxnId id);

  // ---- fault injection ----
  /// Expands cfg_.faults into simulator events (constructor; only when the
  /// schedule is non-empty, so fault-free runs fork no extra RNG streams).
  void schedule_fault_transitions();
  void apply_fault_transition(const FaultTransition& tr);
  /// Installs message-level fault knobs on both directions of `site`'s link
  /// (msg_fault window begin, or restore of the steady-state values).
  void apply_msg_fault(int site, double dup_prob, double reorder_prob,
                       double spike_prob, double spike_factor);
  /// Straggler displacement bound: the configured reorder window, or one
  /// link delay when unset.
  [[nodiscard]] double effective_reorder_window() const;
  void central_crash();
  void central_recover();
  void site_crash(int site);
  void site_recover(int site);
  /// Emits the Fault trace event for a crash (`up` false) or recovery of
  /// `site` (-1 = the central complex).
  void note_fault(int site, bool up);
  /// Replays a recovered node's message backlog in arrival order
  /// (`receiver` as in process).
  void replay_backlog(int receiver);
  /// Failure-detector cleanup: expires this transaction's authentication
  /// grabs at every master site it could have contacted (acked or not).
  void release_auth_holds_everywhere(Transaction* txn);
  /// Arms the home-site timeout for a shipped class A transaction (no-op
  /// when cfg_.ship_timeout is 0); the delay backs off per retry.
  void arm_ship_timeout(Transaction* txn);
  void on_ship_timeout(TxnId id, std::uint64_t attempt);

  // ---- observability internals ----
  [[nodiscard]] bool obs_wants(obs::EventKind kind) const {
    return (sink_mask_ & obs::kind_bit(kind)) != 0;
  }
  /// Adjusts the IO-occupancy gauge for `track` by `delta`. A single branch
  /// when obs_resource_telemetry is off.
  void note_io(int track, int delta);
  void emit_event(const obs::Event& event);
  /// Takes one time-series row and re-arms the sampler while work remains
  /// (so drain() still terminates with sampling enabled).
  void take_sample();

  /// Runs one controller review epoch (feed snapshot -> on_review) and
  /// re-arms the chain while work remains, mirroring take_sample so drain()
  /// still terminates with the controller active.
  void controller_review();

  // ---- asynchronous update propagation ----
  /// Entry point from local commit: ships immediately, or appends to the
  /// site's batch and arms the flush timer when batching is configured.
  void queue_async_update(int site, std::vector<UpdateItem> items);
  void send_async_update(int site, std::vector<UpdateItem> items);
  void central_apply_update(int site, std::vector<UpdateItem> items);

  // ---- struct-of-arrays staging for per-phase completion statistics ----
  /// The per-phase SampleStat/Histogram adds are the hottest accumulator
  /// group in complete() (3 * kPhaseCount adds per completion, each touching
  /// a different cache line). Completions stage their phase vector here and
  /// the flush replays the samples one accumulator at a time, in completion
  /// order — so every accumulator sees exactly the add sequence it would
  /// have seen unbatched and its state (including Welford running moments)
  /// stays bit-identical.
  struct PhaseBatch {
    static constexpr int kCapacity = 256;
    int n = 0;
    double value[obs::kPhaseCount][kCapacity];
    int home_site[kCapacity];
  };
  /// Drains phase_batch_ into metrics_ and its per-site entries. Const
  /// because the staged samples are already logically part of the metrics;
  /// flushing only materializes them, which is why the read accessors may
  /// call it.
  void flush_phase_batch() const;

  SystemConfig cfg_;
  Simulator sim_;
  std::unique_ptr<RoutingStrategy> strategy_;
  TxnFactory factory_;
  Rng rng_;
  Rng ship_jitter_rng_;  ///< forked only when cfg_.ship_jitter > 0
  std::vector<SiteState> sites_;
  CentralState central_;
  Metrics metrics_;
  mutable PhaseBatch phase_batch_;
  std::vector<obs::TraceSink*> sinks_;
  unsigned sink_mask_ = 0;  ///< union of registered sinks' kind masks
  std::vector<obs::SampleRow> series_;
  TxnArena arena_;
  // Working buffers of the authentication round, reused so a round
  // allocates nothing: master_sites' result and one site's lock list.
  std::vector<int> master_sites_;
  std::vector<LockNeed> auth_needs_;
  AdaptiveController* controller_ = nullptr;  ///< borrowed from strategy_
  double adapt_interval_ = 0.0;  ///< resolved review cadence; 0 = inert
  bool arrivals_enabled_ = false;
  /// cfg_.obs_resource_telemetry, cached: gates every gauge update on the
  /// hot paths with a single branch.
  bool resource_telemetry_ = false;
};

}  // namespace hls
