// Unit tests for LYNX message serialization.
#include "lynx/message.hpp"

#include <gtest/gtest.h>

namespace lynx {
namespace {

TEST(MessageTest, RoundTripsAllValueTypes) {
  Message m = make_message(
      "mixed", {std::int64_t(-42), 3.25, std::string("hi"),
                Bytes{1, 2, 3, 255}, LinkHandle(7)});
  Serialized s = serialize(m);
  ASSERT_EQ(s.enclosures.size(), 1u);
  EXPECT_EQ(s.enclosures[0], LinkHandle(7));

  Message back = deserialize(s.body, {LinkHandle(99)});
  EXPECT_EQ(back.op, "mixed");
  ASSERT_EQ(back.args.size(), 5u);
  EXPECT_EQ(std::get<std::int64_t>(back.args[0]), -42);
  EXPECT_EQ(std::get<double>(back.args[1]), 3.25);
  EXPECT_EQ(std::get<std::string>(back.args[2]), "hi");
  EXPECT_EQ(std::get<Bytes>(back.args[3]), (Bytes{1, 2, 3, 255}));
  // the receiver-side enclosure handle is substituted
  EXPECT_EQ(std::get<LinkHandle>(back.args[4]), LinkHandle(99));
}

TEST(MessageTest, EmptyMessage) {
  Message m = make_message("nop", {});
  Serialized s = serialize(m);
  EXPECT_TRUE(s.enclosures.empty());
  Message back = deserialize(s.body, {});
  EXPECT_EQ(back.op, "nop");
  EXPECT_TRUE(back.args.empty());
}

TEST(MessageTest, MultipleEnclosuresKeepOrder) {
  Message m = make_message("many", {LinkHandle(1), std::int64_t(5),
                                    LinkHandle(2), LinkHandle(3)});
  EXPECT_EQ(m.count_links(), 3u);
  Serialized s = serialize(m);
  ASSERT_EQ(s.enclosures.size(), 3u);
  EXPECT_EQ(s.enclosures[0], LinkHandle(1));
  EXPECT_EQ(s.enclosures[1], LinkHandle(2));
  EXPECT_EQ(s.enclosures[2], LinkHandle(3));
  Message back =
      deserialize(s.body, {LinkHandle(10), LinkHandle(20), LinkHandle(30)});
  EXPECT_EQ(std::get<LinkHandle>(back.args[0]), LinkHandle(10));
  EXPECT_EQ(std::get<LinkHandle>(back.args[2]), LinkHandle(20));
  EXPECT_EQ(std::get<LinkHandle>(back.args[3]), LinkHandle(30));
}

TEST(MessageTest, SignatureReflectsTypes) {
  Message m = make_message("sig", {std::int64_t(1), 2.0, std::string("x")});
  auto sig = m.signature();
  ASSERT_EQ(sig.size(), 3u);
  EXPECT_EQ(sig[0], ValueType::kInt);
  EXPECT_EQ(sig[1], ValueType::kReal);
  EXPECT_EQ(sig[2], ValueType::kString);
}

TEST(MessageTest, PayloadSizeScalesWithContent) {
  Message small = make_message("op", {Bytes(10, 0)});
  Message large = make_message("op", {Bytes(1000, 0)});
  EXPECT_EQ(serialize(large).body.size() - serialize(small).body.size(),
            990u);
}

TEST(MessageTest, HeadroomIsLeftFreeInFrontOfTheBody) {
  Message m = make_message("op", {std::int64_t(7), Bytes(32, 0x11)});
  Serialized plain = serialize(m);
  Serialized roomy = serialize(m, 21);
  EXPECT_EQ(roomy.body, plain.body);
  std::uint8_t* header = roomy.body.prepend(21);
  header[0] = 0xee;
  EXPECT_EQ(roomy.body.size(), plain.body.size() + 21);
  roomy.body.drop_front(21);
  EXPECT_EQ(roomy.body, plain.body);
  Message back = deserialize(roomy.body, {});
  EXPECT_EQ(std::get<std::int64_t>(back.args[0]), 7);
  EXPECT_EQ(std::get<Bytes>(back.args[1]), Bytes(32, 0x11));
}

// A body with argument count `argc` and then the bytes `rest`.
Bytes body_with(std::uint32_t argc, Bytes rest) {
  Bytes b = {2, 0, 0, 0, 'o', 'p'};
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(argc >> (8 * i)));
  b.insert(b.end(), rest.begin(), rest.end());
  return b;
}

TEST(MessageDeathTest, UnknownValueTagAsserts) {
  // One int argument, then an argument tagged 9: there is no such type.
  Bytes body = body_with(2, {0, 1, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0});
  EXPECT_DEATH((void)deserialize(body, {}), "unknown LYNX value tag");
}

TEST(MessageDeathTest, HugeArgumentCountAssertsInsteadOfAllocating) {
  // The count claims four billion arguments; the body holds none.  The
  // decoder must report truncation, not try to reserve room for them.
  Bytes body = body_with(0xffffffffu, {});
  EXPECT_DEATH((void)deserialize(body, {}), "truncated LYNX message");
}

}  // namespace
}  // namespace lynx
