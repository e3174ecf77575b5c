// sim::Fifo: the lazily allocated ring beneath wait lists, mailboxes and
// the runtime's per-link queues.
#include "sim/fifo.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <random>
#include <utility>

namespace sim {
namespace {

TEST(Fifo, KeepsOrderAcrossWrapAndGrowth) {
  Fifo<int> q;
  std::deque<int> oracle;
  std::mt19937 rng(3);
  int next = 0;
  for (int step = 0; step < 5000; ++step) {
    if (rng() % 3 != 0 || oracle.empty()) {
      q.push_back(next);
      oracle.push_back(next++);
    } else {
      ASSERT_EQ(q.front(), oracle.front());
      q.pop_front();
      oracle.pop_front();
    }
    ASSERT_EQ(q.size(), oracle.size());
  }
  while (!oracle.empty()) {
    ASSERT_EQ(q.front(), oracle.front());
    q.pop_front();
    oracle.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(Fifo, PopAndClearDestroyAtOnce) {
  auto token = std::make_shared<int>(7);
  Fifo<std::shared_ptr<int>> q;
  for (int i = 0; i < 6; ++i) q.push_back(token);  // grows past 4
  EXPECT_EQ(token.use_count(), 7);
  q.pop_front();
  EXPECT_EQ(token.use_count(), 6);
  q.clear();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(q.empty());
  q.push_back(token);
  {
    Fifo<std::shared_ptr<int>> moved(std::move(q));
    EXPECT_TRUE(q.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.size(), 1u);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);  // the destructor clears
}

}  // namespace
}  // namespace sim
