#include "hybrid/metrics.hpp"

#include <gtest/gtest.h>

namespace hls {
namespace {

TEST(Metrics, FreshMetricsAreZero) {
  Metrics m;
  EXPECT_EQ(m.completions, 0u);
  EXPECT_DOUBLE_EQ(m.throughput(), 0.0);
  EXPECT_DOUBLE_EQ(m.ship_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(m.runs_per_txn(), 1.0);
  EXPECT_EQ(m.aborts_total(), 0u);
}

TEST(Metrics, ThroughputOverWindow) {
  Metrics m;
  m.measure_start = 100.0;
  m.measure_end = 300.0;
  m.completions = 500;
  EXPECT_DOUBLE_EQ(m.throughput(), 2.5);
  EXPECT_DOUBLE_EQ(m.window_seconds(), 200.0);
}

/// Three sites with distinct counts in every per-site counter, so a derived
/// total that skipped a site or read the wrong field would be off.
Metrics three_sites() {
  Metrics m;
  m.reset(0.0, 3);
  const std::uint64_t arrivals[] = {100, 60, 40};
  const std::uint64_t shipped[] = {20, 25, 5};
  for (int s = 0; s < 3; ++s) {
    SiteMetrics& sm = m.sites[static_cast<std::size_t>(s)];
    const auto k = static_cast<std::uint64_t>(s + 1);
    sm.arrivals_class_a = arrivals[s];
    sm.shipped_class_a = shipped[s];
    sm.ship_timeouts = 3 * k;
    sm.ship_retries = 2 * k;
    sm.ship_fallbacks = k;
    sm.dup_msgs_dropped = 10 * k;
    sm.msgs_resequenced = 7 * k;
    sm.aborts[static_cast<int>(AbortCause::LocalPreempted)] = k;
    sm.aborts[static_cast<int>(AbortCause::CentralInvalidated)] = 2 * k;
    sm.aborts[static_cast<int>(AbortCause::Deadlock)] = 4 * k;
  }
  return m;
}

TEST(Metrics, ShipFraction) {
  const Metrics m = three_sites();
  EXPECT_DOUBLE_EQ(m.ship_fraction(), 0.25);  // 50 of 200
}

TEST(Metrics, RunsPerTxn) {
  Metrics m = three_sites();
  m.completions = 168;
  EXPECT_DOUBLE_EQ(m.runs_per_txn(), 1.25);  // 42 reruns over 168
}

TEST(Metrics, AbortsTotalSumsCauses) {
  const Metrics m = three_sites();
  EXPECT_EQ(m.aborts(AbortCause::LocalPreempted), 6u);
  EXPECT_EQ(m.aborts(AbortCause::CentralInvalidated), 12u);
  EXPECT_EQ(m.aborts(AbortCause::AuthRefused), 0u);
  EXPECT_EQ(m.aborts(AbortCause::Deadlock), 24u);
  EXPECT_EQ(m.aborts_total(), 42u);
}

TEST(Metrics, DerivedTotalsSumOverSites) {
  Metrics m = three_sites();
  EXPECT_EQ(m.num_sites(), 3);
  EXPECT_EQ(m.arrivals_class_a(), 200u);
  EXPECT_EQ(m.shipped_class_a(), 50u);
  EXPECT_EQ(m.ship_timeouts(), 18u);
  EXPECT_EQ(m.ship_retries(), 12u);
  EXPECT_EQ(m.ship_fallbacks(), 6u);
  EXPECT_EQ(m.dup_msgs_dropped(), 60u);
  EXPECT_EQ(m.msgs_resequenced(), 42u);
  // Winners are the conflict matrix's site columns; the trailing column
  // holds aborts without one.
  m.record_conflict(0, 2);
  m.record_conflict(2, 1);
  m.record_conflict(1, -2);
  EXPECT_EQ(m.aborts_with_winner(), 2u);
  EXPECT_EQ(m.conflict(1, m.num_sites()), 1u);
  EXPECT_EQ(m.conflict_matrix_total(), 3u);
}

TEST(Metrics, ResetClearsAndRestamps) {
  Metrics m = three_sites();
  m.completions = 10;
  m.rt_all.add(1.0);
  m.record_conflict(0, 1);
  m.reset(42.0, 2);
  EXPECT_EQ(m.completions, 0u);
  EXPECT_EQ(m.rt_all.count(), 0u);
  EXPECT_DOUBLE_EQ(m.measure_start, 42.0);
  EXPECT_EQ(m.num_sites(), 2);
  EXPECT_EQ(m.arrivals_class_a(), 0u);
  EXPECT_EQ(m.aborts_total(), 0u);
  EXPECT_EQ(m.conflict_matrix.size(), 6u);  // 2 victim rows x (2 + 1)
  EXPECT_EQ(m.conflict_matrix_total(), 0u);
}

TEST(SiteMetricsStruct, ShipFraction) {
  SiteMetrics sm;
  EXPECT_DOUBLE_EQ(sm.ship_fraction(), 0.0);
  sm.arrivals_class_a = 10;
  sm.shipped_class_a = 4;
  EXPECT_DOUBLE_EQ(sm.ship_fraction(), 0.4);
}

TEST(Transaction, AbortBookkeeping) {
  Transaction t;
  EXPECT_FALSE(t.is_rerun());
  t.count_abort(AbortCause::Deadlock);
  t.count_abort(AbortCause::Deadlock);
  EXPECT_EQ(t.aborts[static_cast<int>(AbortCause::Deadlock)], 2);
  t.run_count = 1;
  EXPECT_TRUE(t.is_rerun());
}

TEST(Transaction, WritesAnything) {
  Transaction t;
  t.locks = {{1, LockMode::Shared}, {2, LockMode::Shared}};
  EXPECT_FALSE(t.writes_anything());
  t.locks.push_back({3, LockMode::Exclusive});
  EXPECT_TRUE(t.writes_anything());
}

TEST(LockModes, CompatibilityMatrix) {
  EXPECT_TRUE(compatible(LockMode::Shared, LockMode::Shared));
  EXPECT_FALSE(compatible(LockMode::Shared, LockMode::Exclusive));
  EXPECT_FALSE(compatible(LockMode::Exclusive, LockMode::Shared));
  EXPECT_FALSE(compatible(LockMode::Exclusive, LockMode::Exclusive));
}

}  // namespace
}  // namespace hls
