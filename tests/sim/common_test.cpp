// Unit tests for common utilities (ids, results).
#include <gtest/gtest.h>

#include <sstream>

#include "common/result.hpp"
#include "common/strong_id.hpp"

namespace {

struct WidgetTag {
  static const char* prefix() { return "widget"; }
};
struct GadgetTag {
  static const char* prefix() { return "gadget"; }
};
using WidgetId = common::StrongId<WidgetTag>;
using GadgetId = common::StrongId<GadgetTag>;

TEST(StrongIdTest, DefaultIsInvalid) {
  WidgetId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, WidgetId::invalid());
}

TEST(StrongIdTest, DistinctTypesDoNotMix) {
  static_assert(!std::is_convertible_v<WidgetId, GadgetId>);
  static_assert(!std::is_convertible_v<std::uint64_t, WidgetId>);
}

TEST(StrongIdTest, AllocatorIsMonotonic) {
  common::IdAllocator<WidgetId> alloc;
  EXPECT_EQ(alloc.next().value(), 0u);
  EXPECT_EQ(alloc.next().value(), 1u);
  EXPECT_EQ(alloc.issued(), 2u);
}

TEST(StrongIdTest, StreamsWithPrefix) {
  std::ostringstream os;
  os << WidgetId(4);
  EXPECT_EQ(os.str(), "widget4");
}

enum class Errc { kBad, kWorse };

common::Result<int, Errc> half(int x) {
  if (x % 2 != 0) return common::Err(Errc::kBad);
  return x / 2;
}

TEST(ResultTest, SuccessAndError) {
  auto ok = half(10);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);

  auto bad = half(3);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Errc::kBad);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(StatusTest, DefaultIsOk) {
  common::Status<Errc> st;
  EXPECT_TRUE(st.ok());
  common::Status<Errc> bad = common::Err(Errc::kWorse);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), Errc::kWorse);
}

}  // namespace
