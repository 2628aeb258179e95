#include "util/task_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

namespace hls {
namespace {

TEST(TaskPool, CoversEveryIndexExactlyOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_indexed(hits.size(),
                            [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(TaskPool, ReusableAcrossBatchesAndEmptyBatch) {
  TaskPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for_indexed(0, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 0);
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for_indexed(10, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(TaskPool, SingleWorkerRunsInlineInOrder) {
  TaskPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for_indexed(6, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(TaskPool, PropagatesFirstException) {
  TaskPool pool(4);
  EXPECT_THROW(pool.parallel_for_indexed(
                   100,
                   [&](std::size_t i) {
                     if (i == 13) {
                       throw std::runtime_error("boom");
                     }
                   }),
               std::runtime_error);
  // The pool survives the failed batch and keeps working.
  std::atomic<int> total{0};
  pool.parallel_for_indexed(8, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 8);
}

TEST(TaskPool, ManySmallBatchesKeepWorkersCoherent) {
  TaskPool pool(4);
  std::atomic<long> sum{0};
  long expected = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t n = static_cast<std::size_t>(round % 7);
    pool.parallel_for_indexed(
        n, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i) + 1); });
    for (std::size_t i = 0; i < n; ++i) {
      expected += static_cast<long>(i) + 1;
    }
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(TaskPool, JobsFromEnvIsAtLeastOne) {
  EXPECT_GE(TaskPool::jobs_from_env(), 1u);
}

// HLS_JOBS is parsed here, never by building a pool: a large value would
// ask for that many threads.
TEST(TaskPool, ParseJobsTakesWholeNumbersUpToTheCap) {
  EXPECT_EQ(TaskPool::parse_jobs("1"), 1u);
  EXPECT_EQ(TaskPool::parse_jobs("4"), 4u);
  EXPECT_EQ(TaskPool::parse_jobs("256"), TaskPool::kMaxJobs);
  for (const char* bad : {"0", "257", "100000", "99999999999999999999999", "-1",
                          "4x", "4.0", "1e2", " 4", "abc", ""}) {
    EXPECT_EQ(TaskPool::parse_jobs(bad), std::nullopt) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace hls
