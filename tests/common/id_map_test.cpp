// common::IdMap / common::IdSet: the dense id tables beneath the kernels,
// backends, runtime, media and packer.
#include "common/id_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/strong_id.hpp"

namespace common {
namespace {

struct TestTag {
  static const char* prefix() { return "t"; }
};
using TestId = StrongId<TestTag>;

// Counts live instances so the tests can see construction and teardown.
struct Tracked {
  static inline int live = 0;
  int value = 0;
  explicit Tracked(int v) : value(v) { ++live; }
  Tracked(const Tracked& o) : value(o.value) { ++live; }
  ~Tracked() { --live; }
};

TEST(IdMap, PagesAreSizedInBytes) {
  // 16-byte entries: 16 per 256-byte page; oversized entries: one each.
  EXPECT_EQ((IdMap<std::uint64_t, std::uint64_t>::kSlots), 16u);
  EXPECT_EQ((IdMap<TestId, std::array<char, 1000>>::kSlots), 1u);
  // Tiny entries stop at the 64-bit live mask.
  EXPECT_EQ((IdMap<std::uint8_t, std::uint8_t>::kSlots), 64u);
}

TEST(IdMap, IterationIsAscendingWhateverInsertionOrder) {
  std::vector<std::uint64_t> ids(300);
  std::iota(ids.begin(), ids.end(), 0);
  std::mt19937_64 rng(7);
  std::shuffle(ids.begin(), ids.end(), rng);
  IdMap<TestId, std::uint64_t> m;
  for (std::uint64_t id : ids) m.emplace(TestId(id * 3), id);
  ASSERT_EQ(m.size(), ids.size());
  std::uint64_t expect = 0;
  for (const auto& [id, v] : m) {
    EXPECT_EQ(id.value(), expect * 3);
    EXPECT_EQ(v, expect);
    ++expect;
  }
  EXPECT_EQ(expect, ids.size());
}

TEST(IdMap, EraseDuringIterationReturnsNextLiveEntry) {
  IdMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 100; ++i) m[i * 7] = static_cast<int>(i);
  for (auto it = m.begin(); it != m.end();) {
    if (it->second % 2 == 0) {
      const std::uint64_t next_key = it->first + 7;
      it = m.erase(it);
      if (it != m.end()) {
        EXPECT_EQ(it->first, next_key);
      }
    } else {
      ++it;
    }
  }
  ASSERT_EQ(m.size(), 50u);
  for (const auto& [k, v] : m) EXPECT_EQ(v % 2, 1) << k;
  // Erasing everything through the iterator ends at end().
  auto it = m.begin();
  while (it != m.end()) it = m.erase(it);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.begin(), m.end());
}

TEST(IdMap, ReferencesStayValidWhileTheDirectoryGrows) {
  IdMap<TestId, std::string> m;
  std::string& held = m[TestId(500)];
  held = "held";
  const std::string* addr = &held;
  // Grow the directory at the back, then below its first page.
  for (std::uint64_t i = 501; i < 20000; ++i) m.emplace(TestId(i), "x");
  for (std::uint64_t i = 0; i < 500; ++i) m.emplace(TestId(i), "y");
  EXPECT_EQ(&m.at(TestId(500)), addr);
  EXPECT_EQ(*addr, "held");
  // Trimming the directory's empty prefix does not move it either.
  for (std::uint64_t i = 0; i < 500; ++i) m.erase(TestId(i));
  EXPECT_EQ(&m.at(TestId(500)), addr);
}

TEST(IdMap, PageIsReleasedWhenItsLastEntryIsErased) {
  using Map = IdMap<std::uint64_t, std::uint64_t>;  // 16 entries a page
  Map m;
  EXPECT_EQ(m.page_count(), 0u);
  for (std::uint64_t i = 0; i < Map::kSlots; ++i) m[i] = i;
  m[Map::kSlots] = 0;  // first entry of the second page
  EXPECT_EQ(m.page_count(), 2u);
  m.erase(Map::kSlots);
  EXPECT_EQ(m.page_count(), 1u);
  for (std::uint64_t i = 0; i + 1 < Map::kSlots; ++i) m.erase(i);
  EXPECT_EQ(m.page_count(), 1u);
  m.erase(Map::kSlots - 1);
  EXPECT_EQ(m.page_count(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(IdMap, EntriesAreDestroyedExactlyOnce) {
  ASSERT_EQ(Tracked::live, 0);
  {
    IdMap<std::uint64_t, Tracked> m;
    for (std::uint64_t i = 0; i < 100; ++i) m.emplace(i * 5, static_cast<int>(i));
    EXPECT_EQ(Tracked::live, 100);
    // emplace of a present id constructs nothing
    EXPECT_FALSE(m.emplace(5, 99).second);
    EXPECT_EQ(m.at(5).value, 1);
    EXPECT_EQ(Tracked::live, 100);
    m.erase(0);
    EXPECT_EQ(Tracked::live, 99);
    m.clear();
    EXPECT_EQ(Tracked::live, 0);
    EXPECT_TRUE(m.empty());
    for (std::uint64_t i = 0; i < 10; ++i) m.emplace(i, 0);
  }
  EXPECT_EQ(Tracked::live, 0);  // the destructor clears
}

TEST(IdMap, AtOnAMissingIdThrows) {
  IdMap<TestId, int> m;
  EXPECT_THROW((void)m.at(TestId(3)), std::out_of_range);
  m[TestId(3)] = 1;
  EXPECT_EQ(m.at(TestId(3)), 1);
  EXPECT_THROW((void)m.at(TestId(4)), std::out_of_range);
  const auto& cm = m;
  EXPECT_THROW((void)cm.at(TestId(1000)), std::out_of_range);
  EXPECT_FALSE(m.contains(TestId(4)));
  EXPECT_TRUE(m.contains(TestId(3)));
  EXPECT_EQ(m.find(TestId(99)), m.end());
}

// Random insert / erase / lookup against a std::map oracle, over dense
// ids (a live window sliding up, as a counter-keyed table sees) and
// sparse ones (scattered over a wide range).
void run_against_oracle(std::uint64_t seed, bool dense) {
  std::mt19937_64 rng(seed);
  IdMap<std::uint64_t, std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> oracle;
  std::uint64_t next = 0;
  const auto pick = [&]() -> std::uint64_t {
    if (dense) {
      const std::uint64_t lo = next > 64 ? next - 64 : 0;
      return lo + rng() % (next - lo + 1);
    }
    return rng() % 1'000'000;
  };
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng() % 10;
    if (op < 4) {
      const std::uint64_t id = dense ? next++ : pick();
      const std::uint64_t v = rng();
      const bool inserted = m.emplace(id, v).second;
      EXPECT_EQ(inserted, oracle.emplace(id, v).second);
    } else if (op < 7) {
      const std::uint64_t id = pick();
      EXPECT_EQ(m.erase(id), oracle.erase(id));
    } else if (op < 9) {
      const std::uint64_t id = pick();
      auto it = m.find(id);
      auto ot = oracle.find(id);
      ASSERT_EQ(it == m.end(), ot == oracle.end());
      if (ot != oracle.end()) {
        EXPECT_EQ(it->second, ot->second);
      }
    } else if (!oracle.empty()) {
      // erase through an iterator and check the successor
      auto ot = oracle.lower_bound(pick());
      if (ot == oracle.end()) ot = oracle.begin();
      auto it = m.find(ot->first);
      ASSERT_NE(it, m.end());
      it = m.erase(it);
      ot = oracle.erase(ot);
      ASSERT_EQ(it == m.end(), ot == oracle.end());
      if (ot != oracle.end()) {
        EXPECT_EQ(it->first, ot->first);
      }
    }
    ASSERT_EQ(m.size(), oracle.size());
    if (step % 500 == 0) {
      ASSERT_TRUE(std::equal(m.begin(), m.end(), oracle.begin(), oracle.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first &&
                                      a.second == b.second;
                             }));
    }
  }
  ASSERT_TRUE(std::equal(m.begin(), m.end(), oracle.begin(), oracle.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
}

TEST(IdMap, RandomizedDenseIdsAgreeWithStdMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) run_against_oracle(seed, true);
}

TEST(IdMap, RandomizedSparseIdsAgreeWithStdMap) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) run_against_oracle(seed, false);
}

TEST(IdSet, InsertContainsErase) {
  IdSet<TestId> s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.insert(TestId(130)));
  EXPECT_FALSE(s.insert(TestId(130)));
  EXPECT_TRUE(s.insert(TestId(2)));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(TestId(130)));
  EXPECT_FALSE(s.contains(TestId(131)));
  EXPECT_FALSE(s.contains(TestId(100000)));
  EXPECT_EQ(s.erase(TestId(130)), 1u);
  EXPECT_EQ(s.erase(TestId(130)), 0u);
  EXPECT_FALSE(s.contains(TestId(130)));
  EXPECT_EQ(s.size(), 1u);
}

}  // namespace
}  // namespace common
