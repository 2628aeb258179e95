#include "util/ring.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "util/unique_function.hpp"

// Counts every global allocation in this test binary, so the tests can
// assert that a ring allocates only when it grows. Not inlined: GCC would
// otherwise see free() meet a new-expression's pointer at call sites and
// warn (-Wmismatched-new-delete).
namespace {
std::size_t g_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hls {
namespace {

/// Pushes `values` onto `ring` in order.
void push_all(Ring<int>& ring, const std::vector<int>& values) {
  for (int v : values) {
    ring.push_back(int{v});
  }
}

std::vector<int> drain(Ring<int>& ring) {
  std::vector<int> out;
  while (!ring.empty()) {
    out.push_back(ring.pop_front());
  }
  return out;
}

TEST(Ring, EmptyRingOwnsNoMemory) {
  const std::size_t before = g_allocations;
  {
    Ring<int> ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.capacity(), 0u);
  }
  EXPECT_EQ(g_allocations, before);
}

TEST(Ring, FirstGrowthMakesRoomForFour) {
  Ring<int> ring;
  const std::size_t before = g_allocations;
  for (int i = 0; i < 4; ++i) {
    ring.push_back(int{i});
  }
  EXPECT_EQ(g_allocations, before + 1);
  EXPECT_EQ(ring.capacity(), 4u);
  ring.push_back(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(Ring, WrapsAroundInFifoOrder) {
  Ring<int> ring;
  push_all(ring, {0, 1, 2});
  // Slide the window around the 4-slot buffer several times.
  for (int next = 3; next < 40; ++next) {
    EXPECT_EQ(ring.pop_front(), next - 3);
    ring.push_back(int{next});
    ASSERT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.front(), next - 2);
    EXPECT_EQ(ring[2], next);
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(drain(ring), (std::vector<int>{37, 38, 39}));
}

TEST(Ring, GrowthWhileWrappedKeepsOrder) {
  Ring<int> ring;
  push_all(ring, {0, 1, 2, 3});
  EXPECT_EQ(ring.pop_front(), 0);
  EXPECT_EQ(ring.pop_front(), 1);
  push_all(ring, {4, 5});  // wrapped: the front is at slot 2 of 4
  ASSERT_EQ(ring.capacity(), 4u);
  push_all(ring, {6, 7, 8});  // grows while wrapped
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i) + 2);
  }
  EXPECT_EQ(drain(ring), (std::vector<int>{2, 3, 4, 5, 6, 7, 8}));
}

TEST(Ring, HoldsMoveOnlyClosures) {
  Ring<UniqueFunction<int()>> ring;
  auto big = std::make_unique<int>(41);
  ring.push_back([p = std::move(big)] { return *p + 1; });  // move-only capture
  for (int i = 0; i < 6; ++i) {
    ring.push_back([i] { return i; });  // grows past 4 with a closure inside
  }
  EXPECT_EQ(ring.size(), 7u);
  UniqueFunction<int()> first = ring.pop_front();
  EXPECT_EQ(first(), 42);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(ring.pop_front()(), i);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, KeepsCapacityAfterADrain) {
  Ring<int> ring;
  std::vector<int> values(20);
  for (int i = 0; i < 20; ++i) {
    values[i] = i;
  }
  push_all(ring, values);
  EXPECT_EQ(drain(ring), values);
  const std::size_t capacity = ring.capacity();
  EXPECT_EQ(capacity, 32u);
  // Refilling up to the kept capacity, at any offset, allocates nothing.
  const std::size_t before = g_allocations;
  std::size_t popped = 0;
  for (int round = 0; round < 3; ++round) {
    push_all(ring, values);
    ring.pop_front();
    ring.push_back(99);
    for (; !ring.empty(); ++popped) {
      ring.pop_front();
    }
  }
  EXPECT_EQ(g_allocations, before);
  EXPECT_EQ(popped, 3 * values.size());
  EXPECT_EQ(ring.capacity(), capacity);
}

}  // namespace
}  // namespace hls
