// Unit tests for the three medium models.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/faulty_medium.hpp"

#include "net/butterfly_switch.hpp"
#include "net/csma_bus.hpp"
#include "net/loopback.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"

namespace net {
namespace {

struct Delivery {
  NodeId at;
  sim::Time when;
  std::string tag;
};

Frame make_frame(NodeId src, NodeId dst, std::size_t bytes, std::string tag) {
  return Frame{src, dst, bytes, std::move(tag)};
}

class Collector {
 public:
  Collector(sim::Engine& e, Medium& m, std::vector<NodeId> nodes)
      : engine_(&e) {
    for (NodeId n : nodes) {
      m.attach(n, [this, n](const Frame& f) {
        deliveries.push_back({n, engine_->now(), f.as<std::string>()});
      });
    }
  }
  std::vector<Delivery> deliveries;

 private:
  sim::Engine* engine_;
};

TEST(LoopbackTest, DeliversWithFixedLatency) {
  sim::Engine e;
  Loopback lo(e, sim::usec(25));
  Collector c(e, lo, {NodeId(0), NodeId(1)});
  lo.send(make_frame(NodeId(0), NodeId(1), 100, "hello"));
  e.run();
  ASSERT_EQ(c.deliveries.size(), 1u);
  EXPECT_EQ(c.deliveries[0].at, NodeId(1));
  EXPECT_EQ(c.deliveries[0].when, sim::usec(25));
  EXPECT_EQ(c.deliveries[0].tag, "hello");
  EXPECT_EQ(e.total(&sim::Counts::frames_sent), 1u);
  EXPECT_EQ(e.total(&sim::Counts::bytes_sent), 100u);
}

TEST(LoopbackTest, BroadcastSkipsSender) {
  sim::Engine e;
  Loopback lo(e, sim::usec(1));
  Collector c(e, lo, {NodeId(0), NodeId(1), NodeId(2)});
  lo.broadcast(make_frame(NodeId(0), NodeId::invalid(), 10, "b"));
  e.run();
  EXPECT_EQ(c.deliveries.size(), 2u);
  for (const auto& d : c.deliveries) EXPECT_NE(d.at, NodeId(0));
}


TEST(LoopbackTest, ZeroLossFixedLatencyContract) {
  // Loopback's contract: every frame arrives, exactly once, exactly
  // `latency` after send, in send order — the baseline the fault layer
  // must preserve when wrapping with an empty plan.
  auto run = [](bool wrapped) {
    sim::Engine e;
    Loopback lo(e, sim::usec(40));
    fault::FaultyMedium fm(e, lo, 123);
    Medium& m = wrapped ? static_cast<Medium&>(fm) : lo;
    Collector c(e, m, {NodeId(0), NodeId(1)});
    for (int i = 0; i < 25; ++i) {
      e.schedule(sim::usec(10) * i, [&m, i] {
        m.send(make_frame(NodeId(0), NodeId(1), 10, std::to_string(i)));
      });
    }
    e.run();
    return c.deliveries;
  };
  auto bare = run(false);
  auto thru = run(true);
  ASSERT_EQ(bare.size(), 25u);
  ASSERT_EQ(thru.size(), 25u);
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i].tag, std::to_string(i));
    EXPECT_EQ(bare[i].when, sim::usec(10) * static_cast<std::int64_t>(i) +
                                sim::usec(40));
    EXPECT_EQ(thru[i].when, bare[i].when);
    EXPECT_EQ(thru[i].tag, bare[i].tag);
  }
}

TEST(TokenRingTest, ServiceTimeScalesWithPayload) {
  sim::Engine e;
  TokenRing ring(e);
  // 1000 B + 32 B header at 10 Mb/s = 825.6 us of clocking,
  // + 150 us token + 50 us overhead.
  const auto t0 = ring.service_time(0);
  const auto t1000 = ring.service_time(1000);
  EXPECT_EQ(t1000 - t0, sim::transmission_time(8000, 10'000'000));
  EXPECT_GT(t0, sim::usec(150));
}

TEST(TokenRingTest, UnicastArrivesAfterServicePlusPropagation) {
  sim::Engine e;
  TokenRingParams p;
  TokenRing ring(e, p);
  Collector c(e, ring, {NodeId(0), NodeId(1)});
  ring.send(make_frame(NodeId(0), NodeId(1), 200, "x"));
  e.run();
  ASSERT_EQ(c.deliveries.size(), 1u);
  EXPECT_EQ(c.deliveries[0].when, ring.service_time(200) + p.propagation);
}

TEST(TokenRingTest, TransmissionsAreSerialized) {
  sim::Engine e;
  TokenRingParams p;
  TokenRing ring(e, p);
  Collector c(e, ring, {NodeId(0), NodeId(1), NodeId(2)});
  ring.send(make_frame(NodeId(0), NodeId(1), 0, "first"));
  ring.send(make_frame(NodeId(2), NodeId(1), 0, "second"));
  e.run();
  ASSERT_EQ(c.deliveries.size(), 2u);
  EXPECT_EQ(c.deliveries[0].tag, "first");
  EXPECT_EQ(c.deliveries[1].tag, "second");
  // Second frame waits for the first to finish service.
  EXPECT_EQ(c.deliveries[1].when, 2 * ring.service_time(0) + p.propagation);
}

TEST(CsmaBusTest, KilobyteCostsRoughlyEightMs) {
  sim::Engine e;
  CsmaBus bus(e, sim::Rng(1));
  const double ms = sim::to_msec(bus.clock_out_time(1000));
  EXPECT_GT(ms, 7.9);
  EXPECT_LT(ms, 8.5);
}

TEST(CsmaBusTest, BusyBusForcesBackoff) {
  sim::Engine e;
  CsmaBusParams p;
  p.broadcast_drop_prob = 0.0;
  CsmaBus bus(e, sim::Rng(7), p);
  Collector c(e, bus, {NodeId(0), NodeId(1), NodeId(2)});
  bus.send(make_frame(NodeId(0), NodeId(1), 1000, "a"));
  bus.send(make_frame(NodeId(2), NodeId(1), 0, "b"));
  e.run();
  ASSERT_EQ(c.deliveries.size(), 2u);
  EXPECT_GE(e.total(&sim::Counts::backoffs), 1u);
  EXPECT_EQ(c.deliveries[0].tag, "a");
}

TEST(CsmaBusTest, BroadcastDropsAreApplied) {
  sim::Engine e;
  CsmaBusParams p;
  p.broadcast_drop_prob = 0.5;
  CsmaBus bus(e, sim::Rng(3), p);
  std::vector<NodeId> nodes;
  for (std::uint32_t i = 0; i < 41; ++i) nodes.push_back(NodeId(i));
  Collector c(e, bus, nodes);
  bus.broadcast(make_frame(NodeId(0), NodeId::invalid(), 10, "b"));
  e.run();
  // 40 potential receivers at 50% drop: expect far from both extremes.
  EXPECT_GT(c.deliveries.size(), 5u);
  EXPECT_LT(c.deliveries.size(), 35u);
  EXPECT_GT(e.total(&sim::Counts::bus_drops), 0u);
}

TEST(CsmaBusTest, UnicastIsReliableByDefault) {
  sim::Engine e;
  CsmaBus bus(e, sim::Rng(5));
  Collector c(e, bus, {NodeId(0), NodeId(1)});
  for (int i = 0; i < 50; ++i) {
    bus.send(make_frame(NodeId(0), NodeId(1), 10, std::to_string(i)));
  }
  e.run();
  EXPECT_EQ(c.deliveries.size(), 50u);
  EXPECT_EQ(e.total(&sim::Counts::bus_drops), 0u);
}


TEST(CsmaBusTest, DropObserverSeesEachLostFrame) {
  sim::Engine e;
  CsmaBusParams p;
  p.broadcast_drop_prob = 0.5;
  CsmaBus bus(e, sim::Rng(3), p);
  std::vector<NodeId> nodes;
  for (std::uint32_t i = 0; i < 21; ++i) nodes.push_back(NodeId(i));
  Collector c(e, bus, nodes);
  std::uint64_t observed = 0;
  std::uint64_t observed_at_node1 = 0;
  bus.set_drop_observer([&](const Frame& f, NodeId receiver) {
    ++observed;
    if (receiver == NodeId(1)) ++observed_at_node1;
    EXPECT_NE(f.id, 0u);  // dropped frames are already stamped
  });
  for (int i = 0; i < 10; ++i) {
    bus.broadcast(make_frame(NodeId(0), NodeId::invalid(), 10, "b"));
  }
  e.run();
  EXPECT_GT(observed, 0u);
  EXPECT_EQ(observed, e.total(&sim::Counts::bus_drops));
  EXPECT_EQ(observed_at_node1, e.counts(1).bus_drops);
  // Per-node counters partition the total.
  std::uint64_t sum = 0;
  for (NodeId n : nodes) sum += e.counts(n.value()).bus_drops;
  EXPECT_EQ(sum, e.total(&sim::Counts::bus_drops));
  EXPECT_EQ(e.counts(999).bus_drops, 0u);  // never attached, never counted
}

TEST(CsmaBusTest, FramesAreStampedWithUniqueIds) {
  sim::Engine e;
  CsmaBus bus(e, sim::Rng(5));
  std::vector<std::uint64_t> ids;
  bus.attach(NodeId(0), [](const Frame&) {});
  bus.attach(NodeId(1), [&](const Frame& f) { ids.push_back(f.id); });
  for (int i = 0; i < 20; ++i) {
    bus.send(make_frame(NodeId(0), NodeId(1), 10, "x"));
  }
  e.run();
  ASSERT_EQ(ids.size(), 20u);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_NE(ids.front(), 0u);
}

// -- the compressed backoff chain ---------------------------------------------

// Draws `entry`'s chain from time `t`, attempt `*attempt` on, up to the
// first retry at or after `until`, as the bus does for a deferred frame.
sim::Time first_retry(const CsmaBus& bus, std::uint64_t entry, sim::Time t,
                      sim::Time until, int* attempt) {
  do {
    t += bus.backoff_delay(entry, (*attempt)++);
  } while (t < until);
  return t;
}

// A deferring frame's one retry event fires at the sum of its own draws:
// the first partial sum at or after the end of the transmission it found.
TEST(CsmaBusTest, RetryFiresAtTheSumOfTheFramesOwnDraws) {
  sim::Engine e;
  CsmaBusParams p;
  p.broadcast_drop_prob = 0.0;
  CsmaBus bus(e, sim::Rng(11), p);
  Collector c(e, bus, {NodeId(0), NodeId(1), NodeId(2)});
  bus.send(make_frame(NodeId(0), NodeId(1), 1000, "a"));  // entry 1
  bus.send(make_frame(NodeId(2), NodeId(1), 0, "b"));     // entry 2
  const sim::Time busy_until = bus.clock_out_time(1000);
  int draws = 0;
  const sim::Time retry = first_retry(bus, 2, 0, busy_until, &draws);
  e.run();
  ASSERT_EQ(c.deliveries.size(), 2u);
  EXPECT_EQ(c.deliveries[0].when, busy_until + p.propagation);
  EXPECT_EQ(c.deliveries[1].tag, "b");
  EXPECT_EQ(c.deliveries[1].when,
            retry + bus.clock_out_time(0) + p.propagation);
  // An 8 ms transmission outlasts several slot windows: every draw is
  // counted, though only one retry event fired.  Each unicast frame is
  // delivered by one event: three events in all.
  EXPECT_GT(draws, 2);
  EXPECT_EQ(e.total(&sim::Counts::backoffs),
            static_cast<std::uint64_t>(draws));
  EXPECT_EQ(e.events_fired(), 3u);
}

TEST(CsmaBusTest, BackoffDrawsStayInTheirWindow) {
  sim::Engine e;
  CsmaBusParams p;
  CsmaBus bus(e, sim::Rng(5), p);
  for (std::uint64_t entry = 1; entry <= 50; ++entry) {
    for (int attempt = 0; attempt < 10; ++attempt) {
      const sim::Duration d = bus.backoff_delay(entry, attempt);
      const sim::Duration window =
          p.slot_time * (1 << std::min(attempt, p.max_backoff_exponent));
      EXPECT_GE(d, p.slot_time);
      EXPECT_LE(d, window);
      EXPECT_EQ(d % p.slot_time, 0);
      EXPECT_EQ(d, bus.backoff_delay(entry, attempt));  // pure
    }
  }
}

// The bus is idle from busy_until_ on, whichever same-instant event the
// engine fires first.  A zero-byte frame clocks out in exactly one slot
// here, and a first backoff is exactly one slot, so the deferred frame's
// retry lands on the instant the first transmission ends.
TEST(CsmaBusTest, RetryAtEndOfTransmissionFindsTheBusIdle) {
  std::vector<sim::TiePolicy> policies = {{sim::TieBreak::kFifo}};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    policies.push_back({sim::TieBreak::kSeededPermutation, seed});
  }
  for (const sim::TiePolicy& policy : policies) {
    sim::Engine e;
    e.set_tie_policy(policy);
    CsmaBusParams p;
    p.header_bytes = 0;
    p.frame_overhead = p.slot_time;
    p.broadcast_drop_prob = 0.0;
    CsmaBus bus(e, sim::Rng(3), p);
    ASSERT_EQ(bus.clock_out_time(0), p.slot_time);
    ASSERT_EQ(bus.backoff_delay(2, 0), p.slot_time);
    Collector c(e, bus, {NodeId(0), NodeId(1), NodeId(2)});
    bus.send(make_frame(NodeId(0), NodeId(1), 0, "a"));
    bus.send(make_frame(NodeId(2), NodeId(1), 0, "b"));
    e.run();
    ASSERT_EQ(c.deliveries.size(), 2u) << sim::to_string(policy.kind);
    EXPECT_EQ(e.total(&sim::Counts::backoffs), 1u)
        << sim::to_string(policy.kind);
    EXPECT_EQ(c.deliveries[1].tag, "b");
    EXPECT_EQ(c.deliveries[1].when, 2 * p.slot_time + p.propagation)
        << sim::to_string(policy.kind) << " seed " << policy.seed;
  }
}

// Backoff is keyed on the bus's entry number, not on Frame::id: two
// entries of one frame id (what FaultyMedium's duplicates are) draw
// independent chains, so they do not retry in lockstep.  Both defer
// behind a long frame; whichever chain ends first takes the idle bus,
// and the other, if it lands inside that transmission, draws on.
TEST(CsmaBusTest, SameIdDuplicatesDrawIndependentChains) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Engine e;
    CsmaBusParams p;
    p.broadcast_drop_prob = 0.0;
    CsmaBus bus(e, sim::Rng(seed), p);
    Collector c(e, bus, {NodeId(0), NodeId(1), NodeId(2)});
    bus.send(make_frame(NodeId(0), NodeId(1), 1000, "a"));  // entry 1
    Frame dup = make_frame(NodeId(2), NodeId(1), 0, "dup");
    dup.id = 42;
    bus.send(dup);             // entry 2
    bus.send(std::move(dup));  // entry 3, same id
    const sim::Duration tx = bus.clock_out_time(0);
    int attempts[2] = {0, 0};
    sim::Time retry[2];
    for (int i = 0; i < 2; ++i) {
      retry[i] = first_retry(bus, 2 + i, 0, bus.clock_out_time(1000),
                             &attempts[i]);
    }
    // Same-instant retries fire in scheduling order: entry 2 first.
    const int winner = retry[0] <= retry[1] ? 0 : 1;
    const int other = 1 - winner;
    const sim::Time winner_end = retry[winner] + tx;
    if (retry[other] < winner_end) {
      retry[other] = first_retry(bus, 2 + other, retry[other], winner_end,
                                 &attempts[other]);
    }
    e.run();
    ASSERT_EQ(c.deliveries.size(), 3u);
    EXPECT_EQ(c.deliveries[1].when, winner_end + p.propagation)
        << "seed " << seed;
    EXPECT_EQ(c.deliveries[2].when, retry[other] + tx + p.propagation)
        << "seed " << seed;
    EXPECT_EQ(e.total(&sim::Counts::backoffs),
              static_cast<std::uint64_t>(attempts[0] + attempts[1]));
  }
}

TEST(CsmaBusTest, UnicastDropObserverSeesEachLostFrame) {
  sim::Engine e;
  CsmaBusParams p;
  p.unicast_drop_prob = 0.5;
  CsmaBus bus(e, sim::Rng(4), p);
  Collector c(e, bus, {NodeId(0), NodeId(1)});
  std::vector<std::uint64_t> lost;
  bus.set_drop_observer([&](const Frame& f, NodeId receiver) {
    EXPECT_EQ(receiver, NodeId(1));
    lost.push_back(f.id);
  });
  for (int i = 0; i < 40; ++i) {
    bus.send(make_frame(NodeId(0), NodeId(1), 10, std::to_string(i)));
  }
  e.run();
  EXPECT_GT(lost.size(), 5u);
  EXPECT_LT(lost.size(), 35u);
  EXPECT_EQ(lost.size(), e.total(&sim::Counts::bus_drops));
  EXPECT_EQ(e.counts(1).bus_drops, e.total(&sim::Counts::bus_drops));
  EXPECT_EQ(c.deliveries.size() + lost.size(), 40u);
  // Lost frames still used the wire.
  EXPECT_EQ(e.total(&sim::Counts::frames_sent), 40u);
}

// ---- frame bodies ------------------------------------------------------

// Delivers every frame's string body, then appends to it: a receiver
// that shared its body with another copy would show the other's mark.
struct Scribbler {
  std::vector<std::string> seen;
  FrameHandler handler() {
    return [this](Frame f) {
      seen.push_back(f.as<std::string>());
      f.as<std::string>() += "!";
    };
  }
};

TEST(FrameBodyTest, CsmaBusBroadcastCopiesAreIndependent) {
  sim::Engine e;
  CsmaBus bus(e, sim::Rng(3), CsmaBusParams{.broadcast_drop_prob = 0.0});
  Scribbler rx;
  bus.attach(NodeId(0), [](Frame) {});
  bus.attach(NodeId(1), rx.handler());
  bus.attach(NodeId(2), rx.handler());
  bus.broadcast(make_frame(NodeId(0), NodeId::invalid(), 10, "b"));
  e.run();
  ASSERT_EQ(rx.seen.size(), 2u);
  EXPECT_EQ(rx.seen[0], "b");
  EXPECT_EQ(rx.seen[1], "b");
}

TEST(FrameBodyTest, FaultyMediumDuplicateIsAnIndependentCopy) {
  sim::Engine e;
  Loopback wire(e, sim::usec(100));
  fault::Plan plan;
  plan.background(fault::BackgroundModel{.duplicate_prob = 1.0});
  fault::FaultyMedium medium(e, wire, /*seed=*/7, plan);
  Scribbler rx;
  medium.attach(NodeId(0), [](Frame) {});
  medium.attach(NodeId(1), rx.handler());
  medium.send(make_frame(NodeId(0), NodeId(1), 10, "dup"));
  e.run();
  ASSERT_EQ(rx.seen.size(), 2u);
  EXPECT_EQ(rx.seen[0], "dup");
  EXPECT_EQ(rx.seen[1], "dup");
}

TEST(FrameBodyTest, TakeAfterACopyLeavesTheOriginalWhole) {
  Frame original = make_frame(NodeId(0), NodeId(1), 10, "payload");
  Frame copy = original;
  EXPECT_NE(&copy.as<std::string>(), &original.as<std::string>());
  EXPECT_EQ(copy.take<std::string>(), "payload");
  EXPECT_FALSE(copy.holds<std::string>());
  ASSERT_TRUE(original.holds<std::string>());
  EXPECT_EQ(original.as<std::string>(), "payload");
  EXPECT_EQ(original.take<std::string>(), "payload");
}

TEST(FrameBodyTest, HoldsIsFalseForAnotherType) {
  const Frame frame = make_frame(NodeId(0), NodeId(1), 10, "s");
  EXPECT_TRUE(frame.holds<std::string>());
  EXPECT_FALSE(frame.holds<int>());
  EXPECT_FALSE(frame.holds<std::vector<char>>());
  EXPECT_FALSE(Frame{}.holds<std::string>());
}

TEST(FrameBodyTest, FreedBlockIsReusedByAnotherTypeOfItsSizeClass) {
  // Both fit the pool's first 64-byte class.
  using Words = std::array<std::uint64_t, 6>;
  static_assert(sizeof(Words) <= 64 && sizeof(std::string) <= 64);
  const void* block = nullptr;
  {
    FrameBody words(Words{1, 2, 3, 4, 5, 6});
    block = &words.as<Words>();
    EXPECT_EQ(words.as<Words>()[5], 6u);
  }
  FrameBody text(std::string(40, 'x'));
  EXPECT_EQ(static_cast<const void*>(&text.as<std::string>()), block);
  EXPECT_FALSE(text.holds<Words>());
  EXPECT_EQ(text.as<std::string>(), std::string(40, 'x'));
}

TEST(ButterflyTest, StagesGrowWithNodes) {
  EXPECT_EQ(ButterflyFabric({.nodes = 1}).stages(), 0u);
  EXPECT_EQ(ButterflyFabric({.nodes = 4}).stages(), 1u);
  EXPECT_EQ(ButterflyFabric({.nodes = 16}).stages(), 2u);
  EXPECT_EQ(ButterflyFabric({.nodes = 64}).stages(), 3u);
  EXPECT_EQ(ButterflyFabric({.nodes = 128}).stages(), 4u);
}

TEST(ButterflyTest, RemoteCostsMoreThanLocal) {
  ButterflyFabric fab;
  EXPECT_GT(fab.word_reference(true), fab.word_reference(false));
  EXPECT_GT(fab.block_transfer(100, true), fab.block_transfer(100, false));
}

TEST(ButterflyTest, BlockTransferScalesPerByte) {
  ButterflyFabric fab;
  const auto d100 = fab.block_transfer(100, true);
  const auto d200 = fab.block_transfer(200, true);
  EXPECT_EQ(d200 - d100, 100 * ButterflyParams{}.per_byte_block);
}


TEST(ButterflyTest, ContendedRemoteTransferPaysPerContender) {
  // Switch contention (the paper's ~4% degradation source, Â§3.2): each
  // simultaneous contender adds one full hop traversal per stage.
  ButterflyFabric fab({.nodes = 64});
  const auto clean = fab.block_transfer(100, true);
  const auto c1 = fab.block_transfer(100, true, 1);
  const auto c4 = fab.block_transfer(100, true, 4);
  EXPECT_EQ(clean, fab.block_transfer(100, true, 0));
  const auto per = ButterflyParams{}.hop_latency *
                   static_cast<sim::Duration>(fab.stages());
  EXPECT_EQ(c1 - clean, per);
  EXPECT_EQ(c4 - clean, 4 * per);
  // Local transfers never cross the switch, so contention is free.
  EXPECT_EQ(fab.block_transfer(100, false, 8), fab.block_transfer(100, false));
}

}  // namespace
}  // namespace net
