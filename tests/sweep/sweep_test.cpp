// Unit tests for the parallel sweep driver.
#include "sweep/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace sweep {
namespace {

TEST(ThreadPoolTest, RunsAllJobs) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.enqueue([&count, i] {
      count.fetch_add(1, std::memory_order_relaxed);
      return i * 2;
    }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(sum, 2 * (99 * 100 / 2));
}

TEST(SweepTest, MapPreservesOrder) {
  std::vector<int> points(50);
  std::iota(points.begin(), points.end(), 0);
  ThreadPool pool(4);
  auto results = map(points, [](const int& p) { return p * p; }, pool);
  ASSERT_EQ(results.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)], i * i);
  }
}

TEST(SweepTest, ParallelSimulationsAreIndependent) {
  // Each point runs its own deterministic computation; results must not
  // interfere even when run concurrently.
  std::vector<std::uint64_t> seeds{1, 2, 3, 4, 5, 6, 7, 8};
  auto run = [](const std::uint64_t& seed) {
    std::uint64_t x = seed;
    for (int i = 0; i < 10000; ++i) x = x * 6364136223846793005ULL + 1;
    return x;
  };
  ThreadPool pool(4);
  auto a = map(seeds, run, pool);
  auto b = map(seeds, run, pool);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace sweep
