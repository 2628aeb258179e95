#include "sim/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hls {
namespace {

TEST(FcfsResource, SingleJobCompletesAfterServiceTime) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  double done_at = -1.0;
  cpu.submit(2.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done_at, 2.0);
}

TEST(FcfsResource, JobsServeInFifoOrder) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  std::vector<int> order;
  std::vector<double> times;
  for (int i = 0; i < 3; ++i) {
    cpu.submit(1.0, [&, i] {
      order.push_back(i);
      times.push_back(sim.now());
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(FcfsResource, QueueLengthIncludesInService) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  EXPECT_EQ(cpu.queue_length(), 0u);
  cpu.submit(1.0, [] {});
  cpu.submit(1.0, [] {});
  cpu.submit(1.0, [] {});
  EXPECT_EQ(cpu.queue_length(), 3u);
  EXPECT_TRUE(cpu.busy());
  sim.run_until(1.0);
  EXPECT_EQ(cpu.queue_length(), 2u);
  sim.run();
  EXPECT_EQ(cpu.queue_length(), 0u);
  EXPECT_FALSE(cpu.busy());
}

TEST(FcfsResource, ZeroServiceJobKeepsFifoOrder) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  std::vector<int> order;
  cpu.submit(1.0, [&] { order.push_back(0); });
  cpu.submit(0.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(FcfsResource, CompletionSubmittedWorkQueuesBehindWaiters) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  std::vector<int> order;
  cpu.submit(1.0, [&] {
    order.push_back(0);
    // Submitted at completion time: must queue behind job 1 (already waiting).
    cpu.submit(1.0, [&] { order.push_back(2); });
  });
  cpu.submit(1.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(FcfsResource, FifoOrderSurvivesQueueGrowthWhileWrapped) {
  // The queue is a ring with room for 4 jobs at first. Finishing two of
  // four jobs and submitting more wraps it, and the fifth waiting job grows
  // it while wrapped (then once more). Service order, completion times and
  // queue_length() must not notice.
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  std::vector<int> order;
  std::vector<double> times;
  auto submit = [&](int tag) {
    cpu.submit(1.0, [&, tag] {
      order.push_back(tag);
      times.push_back(sim.now());
    });
  };
  for (int i = 0; i < 4; ++i) {
    submit(i);
  }
  sim.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(cpu.queue_length(), 2u);
  for (int i = 4; i < 9; ++i) {
    submit(i);
    EXPECT_EQ(cpu.queue_length(), static_cast<std::size_t>(i - 1));
  }
  sim.run_until(3.0);
  EXPECT_EQ(cpu.queue_length(), 6u);
  for (int i = 9; i < 14; ++i) {
    submit(i);
  }
  EXPECT_EQ(cpu.queue_length(), 11u);
  sim.run();
  EXPECT_EQ(cpu.queue_length(), 0u);
  ASSERT_EQ(order.size(), 14u);
  for (int i = 0; i < 14; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_DOUBLE_EQ(times[i], i + 1.0);  // never idle: back-to-back service
  }
  EXPECT_EQ(cpu.completed_bursts(), 14u);
}

TEST(FcfsResource, UtilizationFractionCorrect) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  cpu.submit(2.0, [] {});
  sim.run_until(8.0);
  EXPECT_NEAR(cpu.utilization(), 0.25, 1e-12);
}

TEST(FcfsResource, AverageQueueLengthCorrect) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  cpu.submit(2.0, [] {});
  cpu.submit(2.0, [] {});
  sim.run_until(8.0);
  // Queue length: 2 for [0,2), 1 for [2,4), 0 for [4,8) -> avg = 6/8.
  EXPECT_NEAR(cpu.average_queue_length(), 0.75, 1e-12);
}

TEST(FcfsResource, ResetStatsRestartsAccounting) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  cpu.submit(4.0, [] {});
  sim.run_until(4.0);
  cpu.reset_stats();
  sim.run_until(8.0);
  EXPECT_NEAR(cpu.utilization(), 0.0, 1e-12);
  EXPECT_EQ(cpu.completed_bursts(), 0u);
}

TEST(FcfsResource, CompletedBurstsCount) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  for (int i = 0; i < 5; ++i) {
    cpu.submit(0.5, [] {});
  }
  sim.run();
  EXPECT_EQ(cpu.completed_bursts(), 5u);
}

TEST(FcfsResource, BusyWindowUtilizationIsOne) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  for (int i = 0; i < 4; ++i) {
    cpu.submit(1.0, [] {});
  }
  sim.run_until(4.0);
  EXPECT_NEAR(cpu.utilization(), 1.0, 1e-12);
}

TEST(FcfsResource, LedgersSatisfyLittlesLawIdentities) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  // Two overlapping bursts plus a late one: with the queue empty at t=10,
  // ∫busy dt equals the completed service sum and ∫queue dt equals the
  // summed submit→completion sojourns — the identities conservation_test
  // asserts on every CPU in the grid.
  cpu.submit(2.0, [] {});
  cpu.submit(1.0, [] {});
  sim.schedule_at(5.0, [&] { cpu.submit(3.0, [] {}); });
  sim.run_until(10.0);
  EXPECT_EQ(cpu.queue_length(), 0u);
  EXPECT_DOUBLE_EQ(cpu.busy_seconds(), 6.0);
  // Sojourns: [0,2] + [0,3] + [5,8] = 2 + 3 + 3 = 8.
  EXPECT_DOUBLE_EQ(cpu.sojourn_seconds(), 8.0);
  EXPECT_NEAR(cpu.utilization() * 10.0, cpu.busy_seconds(), 1e-12);
  EXPECT_NEAR(cpu.average_queue_length() * 10.0, cpu.sojourn_seconds(), 1e-12);
}

TEST(FcfsResource, ResetStatsClearsLedgers) {
  Simulator sim;
  FcfsResource cpu(sim, "cpu");
  cpu.submit(3.0, [] {});
  sim.run_until(4.0);
  cpu.reset_stats();
  EXPECT_DOUBLE_EQ(cpu.busy_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(cpu.sojourn_seconds(), 0.0);
  cpu.submit(1.0, [] {});
  sim.run_until(6.0);
  // Only post-reset work appears, so the identities hold on the new window.
  EXPECT_DOUBLE_EQ(cpu.busy_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(cpu.sojourn_seconds(), 1.0);
  EXPECT_NEAR(cpu.utilization() * 2.0, cpu.busy_seconds(), 1e-12);
  EXPECT_NEAR(cpu.average_queue_length() * 2.0, cpu.sojourn_seconds(), 1e-12);
}

}  // namespace
}  // namespace hls
