// Conservation properties over a seed × strategy × fault grid.
//
// Three families of invariant, each checked after a full stop-arrivals →
// drain cycle so no transaction is in flight to blur the books:
//
//   * flow conservation — every admitted transaction completes exactly once
//     (rejected arrivals at crashed sites are tallied separately and never
//     enter the system);
//   * the phase-sum identity — summed over all completions, per-phase time
//     equals total response time to 1e-9 relative (each individual
//     transaction is already asserted at completion; this checks the
//     aggregation path end to end);
//   * Little's law — the sampler's time-averaged population tracks
//     λ·W, and exactly (not statistically) ∫N dt equals the sum of
//     response times less the unobservable response legs (central commits
//     retire at commit, dated comm_delay later), which the sampled average
//     approximates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <vector>

#include "hybrid/hybrid_system.hpp"
#include "model/params.hpp"
#include "obs/phase.hpp"
#include "routing/factory.hpp"

namespace hls {
namespace {

struct GridPoint {
  std::uint64_t seed;
  const char* spec;  ///< full factory grammar, wrappers included
  bool faulted;
  bool chaos;  ///< steady message-level chaos plus a msg_fault window
};

// Names each point by its fields in test listings and failure messages. The
// default byte dump would embed the `spec` pointer, which moves per build.
void PrintTo(const GridPoint& gp, std::ostream* os) {
  *os << "seed=" << gp.seed << "," << gp.spec << (gp.faulted ? ",faulted" : "")
      << (gp.chaos ? ",chaos" : "");
}

SystemConfig grid_config(const GridPoint& gp) {
  SystemConfig cfg;
  cfg.seed = gp.seed;
  cfg.arrival_rate_per_site = 1.6;
  cfg.obs_sample_interval = 0.25;
  // Per-resource telemetry + heat counters armed across the whole grid:
  // pure state writes on paths that already run, so every conservation law
  // (and the metrics themselves) must hold bit-identically either way.
  cfg.obs_resource_telemetry = true;
  cfg.obs_heat_buckets = 16;
  // Consulted only by `adapt:` specs; inert for every other strategy.
  cfg.adapt_interval = 2.0;
  if (gp.faulted) {
    cfg.ship_timeout = 2.0;
    cfg.faults.windows.push_back(
        {FaultKind::CentralOutage, -1, 10.0, 6.0, 1.0, 0.0});
    cfg.faults.windows.push_back(
        {FaultKind::SiteOutage, 1, 25.0, 5.0, 1.0, 0.0});
  }
  if (gp.chaos) {
    cfg.faults.dup_prob = 0.15;
    cfg.faults.dup_extra = 0.05;
    cfg.faults.reorder_prob = 0.15;
    cfg.faults.reorder_window = 0.3;
    cfg.faults.spike_prob = 0.1;
    cfg.faults.spike_factor = 3.0;
    cfg.faults.windows.push_back(
        {FaultKind::MsgFault, -1, 12.0, 8.0, 1.0, 0.0, 0.45, 0.45, 0.2, 5.0});
  }
  return cfg;
}

class ConservationTest : public ::testing::TestWithParam<GridPoint> {};

TEST_P(ConservationTest, HoldsAfterDrain) {
  const GridPoint gp = GetParam();
  const SystemConfig cfg = grid_config(gp);
  auto strategy = make_strategy(parse_strategy_spec(gp.spec).value(),
                                ModelParams::from_config(cfg), cfg.seed ^ 0xF00);
  HybridSystem sys(cfg, std::move(strategy));
  sys.enable_arrivals();
  sys.run_for(40.0);
  sys.stop_arrivals();
  sys.drain();
  const double t_end = sys.simulator().now();
  const Metrics& m = sys.metrics();

  // ---- flow conservation ----
  EXPECT_EQ(sys.live_transactions(), 0);
  ASSERT_GT(m.completions, 0u);
  EXPECT_EQ(m.arrivals_class_a() + m.arrivals_class_b, m.completions);
  EXPECT_EQ(m.completions, m.completions_local_a + m.completions_shipped_a +
                               m.completions_class_b);
  if (gp.faulted) {
    EXPECT_GT(m.arrivals_rejected + m.ship_timeouts(), 0u);
  } else {
    EXPECT_EQ(m.arrivals_rejected, 0u);
  }
  sys.check_invariants();

  // ---- message-chaos double entry ----
  // Every link-level duplication is rejected exactly once by the handlers'
  // sequence-number dedup, resequencing only happens when the links actually
  // inverted deliveries, and the per-site counters sum to the global books.
  const HybridSystem::LinkFaultTotals lf = sys.link_fault_totals();
  EXPECT_EQ(m.dup_msgs_dropped(), lf.duplicated);
  if (lf.reordered == 0) {
    EXPECT_EQ(m.msgs_resequenced(), 0u);
  }
  std::uint64_t dup_sum = 0;
  std::uint64_t reseq_sum = 0;
  for (int s = 0; s < cfg.num_sites; ++s) {
    dup_sum += sys.site_metrics(s).dup_msgs_dropped;
    reseq_sum += sys.site_metrics(s).msgs_resequenced;
  }
  EXPECT_EQ(dup_sum, m.dup_msgs_dropped());
  EXPECT_EQ(reseq_sum, m.msgs_resequenced());
  if (gp.chaos) {
    EXPECT_GT(lf.duplicated, 0u);
    EXPECT_GT(m.msgs_resequenced(), 0u);
  } else {
    EXPECT_EQ(m.dup_msgs_dropped(), 0u);
    EXPECT_EQ(m.msgs_resequenced(), 0u);
  }

  // ---- abort provenance ----
  // The global totals are sums over the per-site counters, and every abort
  // lands in one conflict-matrix cell; check_invariants() HLS_ASSERTs the
  // matrix total, and the EXPECTs keep the laws visible as named failures.
  std::uint64_t cause_total = 0;
  for (int c = 0; c < static_cast<int>(AbortCause::kCount); ++c) {
    std::uint64_t site_sum = 0;
    for (int s = 0; s < cfg.num_sites; ++s) {
      site_sum += sys.site_metrics(s).aborts[c];
    }
    const auto cause = static_cast<AbortCause>(c);
    EXPECT_EQ(m.aborts(cause), site_sum) << "cause " << c;
    cause_total += m.aborts(cause);
  }
  EXPECT_EQ(cause_total, m.aborts_total());
  EXPECT_EQ(m.conflict_matrix_total(), cause_total);
  std::uint64_t winner_cells = 0;
  for (int v = 0; v < m.num_sites(); ++v) {
    for (int w = 0; w < m.num_sites(); ++w) {
      winner_cells += m.conflict(v, w);
    }
  }
  EXPECT_EQ(winner_cells, m.aborts_with_winner());
  EXPECT_LE(m.aborts_with_winner(), cause_total);
  // Wasted work: the per-cause ledgers and the victims' home-site tallies
  // are the same entries summed two ways.
  double site_wasted_cpu = 0.0;
  double site_wasted_io = 0.0;
  for (int s = 0; s < cfg.num_sites; ++s) {
    site_wasted_cpu += sys.site_metrics(s).wasted_cpu;
    site_wasted_io += sys.site_metrics(s).wasted_io;
  }
  EXPECT_NEAR(site_wasted_cpu, m.wasted_cpu_total(), 1e-6);
  EXPECT_NEAR(site_wasted_io, m.wasted_io_total(), 1e-6);
  // Per-transaction wasted totals cover at least the CPU + I/O ledgers
  // (they also include wasted wait time), one sample per completion.
  EXPECT_EQ(m.wasted_per_txn.count(), m.completions);
  EXPECT_GE(m.wasted_per_txn.sum() + 1e-6,
            m.wasted_cpu_total() + m.wasted_io_total());

  // ---- phase-sum identity, aggregated ----
  double phase_total = 0.0;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    const SampleStat& s = m.rt_phase[static_cast<std::size_t>(p)];
    // One sample per completion and phase, even for zero-second phases, so
    // phase means compose with the response-time mean.
    EXPECT_EQ(s.count(), m.completions)
        << obs::phase_name(static_cast<obs::Phase>(p));
    phase_total += s.sum();
  }
  EXPECT_NEAR(phase_total, m.rt_all.sum(),
              1e-9 * (1.0 + std::abs(m.rt_all.sum())));

  // ---- Little's law from the sampler series ----
  const std::vector<obs::SampleRow>& series = sys.sample_series();
  ASSERT_FALSE(series.empty());
  double mean_live = 0.0;
  for (const obs::SampleRow& row : series) {
    mean_live += row.live_txns;
  }
  mean_live /= static_cast<double>(series.size());
  // ∫N dt == Σ response times minus the response legs (population empty at
  // both ends): a central commit retires the transaction from the live set
  // when the commit is processed, but its completion is dated one constant
  // comm_delay later — the flight home is part of rt_all yet never
  // observable as a live transaction, so every shipped-A and class-B
  // completion contributes exactly comm_delay of unsampleable area. The
  // 0.25 s sampling grid turns the corrected identity into an
  // approximation. (An all-shipped cell like always-central makes the
  // uncorrected comparison fail: the gap is ~comm_delay/W of the area.)
  const double response_legs =
      cfg.comm_delay * static_cast<double>(m.completions_shipped_a +
                                           m.completions_class_b);
  const double exact_area = m.rt_all.sum() - response_legs;
  const double sampled_area = mean_live * t_end;
  EXPECT_NEAR(sampled_area, exact_area, 0.15 * exact_area);
  // λ·W with λ over the full horizon (arrivals stopped at t = 40) and W
  // the mean observable (live) span.
  const double lambda = static_cast<double>(m.completions) / t_end;
  const double mean_live_span =
      exact_area / static_cast<double>(m.completions);
  EXPECT_NEAR(mean_live, lambda * mean_live_span, 0.15 * mean_live);

  // The series is strictly ordered on the configured cadence and its
  // last row precedes the drain's end.
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_NEAR(series[i].time - series[i - 1].time, cfg.obs_sample_interval, 1e-9);
  }
  EXPECT_LE(series.back().time, t_end + 1e-9);

  // ---- per-resource Little's law (exact, per CPU) ----
  // No measurement reset ran, so both ledgers cover [0, t_end] and — with
  // every queue empty after the drain — the time-averaged signals equal the
  // completed-burst ledgers exactly (up to float reassociation): ∫busy dt ==
  // Σ service, ∫queue_length dt == Σ (completion - submit).
  const auto expect_little = [t_end](const FcfsResource& cpu) {
    EXPECT_EQ(cpu.queue_length(), 0u) << cpu.name();
    EXPECT_NEAR(cpu.utilization() * t_end, cpu.busy_seconds(),
                1e-9 * (1.0 + cpu.busy_seconds()))
        << cpu.name();
    EXPECT_NEAR(cpu.average_queue_length() * t_end, cpu.sojourn_seconds(),
                1e-9 * (1.0 + cpu.sojourn_seconds()))
        << cpu.name();
  };
  expect_little(sys.central_cpu());
  for (int s = 0; s < cfg.num_sites; ++s) {
    expect_little(sys.local_cpu(s));
  }

  // ---- telemetry gauges drain to zero ----
  // The wait-queue, in-flight-message and IO-occupancy gauges mirror
  // integer populations, so a drained system must read exactly zero on all
  // of them (a leak here means a gauge update was skipped on some path).
  EXPECT_EQ(sys.central_locks().waiters(), 0u);
  EXPECT_TRUE(sys.central_locks().wait_telemetry_enabled());
  EXPECT_EQ(sys.io_in_flight(obs::kCentralTrack), 0);
  for (int s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(sys.local_locks(s).waiters(), 0u) << "site " << s;
    EXPECT_TRUE(sys.local_locks(s).wait_telemetry_enabled()) << "site " << s;
    EXPECT_EQ(sys.io_in_flight(s), 0) << "site " << s;
  }
  // The extended sampler rows carried those gauges; the last row taken
  // before the drain finished must already exist and be extended.
  EXPECT_TRUE(series.back().extended);

  // ---- lock-heat sanity ----
  // Heat buckets count lock-table accesses (requests + authentication
  // grabs): with completions in every grid cell, some bucket somewhere is
  // hot, and every bucket is finite and attributable.
  std::uint64_t heat_total = 0;
  for (std::uint64_t h : sys.central_locks().heat()) {
    heat_total += h;
  }
  for (int s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(sys.local_locks(s).heat().size(),
              static_cast<std::size_t>(cfg.obs_heat_buckets))
        << "site " << s;
    for (std::uint64_t h : sys.local_locks(s).heat()) {
      heat_total += h;
    }
  }
  EXPECT_GT(heat_total, 0u);
}

// Every factory-constructible spec appears at least once: all eleven base
// kinds, both `failsafe:` forms, and `adapt:` in all its nestings — with the
// adaptive wrappers also exercised under faults and message chaos.
INSTANTIATE_TEST_SUITE_P(
    Grid, ConservationTest,
    ::testing::Values(
        GridPoint{1, "no-load-sharing", false, false},
        GridPoint{1, "always-central", false, false},
        GridPoint{1, "static:0.3", false, false},
        GridPoint{1, "min-average-queue", false, false},
        GridPoint{1, "min-average-nsys", false, false},
        GridPoint{7, "static-optimal", false, false},
        GridPoint{7, "measured-rt", false, false},
        GridPoint{7, "min-incoming-queue", false, false},
        GridPoint{7, "min-incoming-nsys", false, false},
        GridPoint{7, "min-average-nsys", true, false},
        GridPoint{42, "static:0.3", true, false},
        GridPoint{42, "queue-length", true, false},
        GridPoint{42, "util-threshold:-0.2", true, false},
        GridPoint{7, "failsafe:min-average-nsys", true, false},
        GridPoint{42, "failsafe@2.5:queue-length", true, true},
        GridPoint{11, "min-average-nsys", false, true},
        GridPoint{11, "static:0.3", true, true},
        GridPoint{42, "queue-length", true, true},
        GridPoint{1, "adapt:util-threshold:0", false, false},
        GridPoint{7, "adapt:failsafe:util-threshold:-0.1", true, false},
        GridPoint{11, "adapt@1.5:min-average-nsys", false, true},
        GridPoint{42, "adapt:failsafe:min-average-nsys", true, true}));

}  // namespace
}  // namespace hls
