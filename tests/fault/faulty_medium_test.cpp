// Unit tests for the fault-injection layer: FaultyMedium, Plan,
// InvariantChecker.  These exercise the decorator against the real
// medium models (Loopback for timing, CsmaBus/TokenRing for traffic).
#include "fault/faulty_medium.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/invariant_checker.hpp"
#include "net/csma_bus.hpp"
#include "net/loopback.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"

namespace fault {
namespace {

using net::NodeId;

net::Frame make_frame(NodeId src, NodeId dst, std::size_t bytes,
                      std::string tag) {
  return net::Frame{src, dst, bytes, std::move(tag)};
}

struct Delivery {
  NodeId at;
  sim::Time when;
  std::string tag;
};

class Collector {
 public:
  Collector(sim::Engine& e, net::Medium& m, std::vector<NodeId> nodes)
      : engine_(&e) {
    for (NodeId n : nodes) {
      m.attach(n, [this, n](const net::Frame& f) {
        deliveries.push_back({n, engine_->now(), f.as<std::string>()});
      });
    }
  }
  std::vector<Delivery> deliveries;

 private:
  sim::Engine* engine_;
};

// -------- timing transparency -------------------------------------------

TEST(FaultyMedium, EmptyPlanIsTimingTransparent) {
  // Run the same traffic through a bare Loopback and a wrapped one;
  // delivery times must be identical to the nanosecond.
  std::vector<Delivery> bare;
  std::uint64_t bare_frames = 0;
  std::uint64_t bare_bytes = 0;
  {
    sim::Engine e;
    net::Loopback lo(e, sim::usec(25));
    Collector c(e, lo, {NodeId(0), NodeId(1)});
    lo.send(make_frame(NodeId(0), NodeId(1), 100, "a"));
    lo.send(make_frame(NodeId(1), NodeId(0), 50, "b"));
    e.run();
    bare = c.deliveries;
    bare_frames = e.total(&sim::Counts::frames_sent);
    bare_bytes = e.total(&sim::Counts::bytes_sent);
  }
  std::vector<Delivery> wrapped;
  {
    sim::Engine e;
    net::Loopback lo(e, sim::usec(25));
    FaultyMedium fm(e, lo, 1);
    Collector c(e, fm, {NodeId(0), NodeId(1)});
    fm.send(make_frame(NodeId(0), NodeId(1), 100, "a"));
    fm.send(make_frame(NodeId(1), NodeId(0), 50, "b"));
    e.run();
    wrapped = c.deliveries;
    EXPECT_EQ(fm.fault_log().size(), 0u);
    EXPECT_EQ(e.total(&sim::Counts::deliveries), 2u);
    EXPECT_EQ(e.total(&sim::Counts::frames_sent), bare_frames);
    EXPECT_EQ(e.total(&sim::Counts::bytes_sent), bare_bytes);
  }
  ASSERT_EQ(bare.size(), wrapped.size());
  for (std::size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(bare[i].when, wrapped[i].when);
    EXPECT_EQ(bare[i].at, wrapped[i].at);
    EXPECT_EQ(bare[i].tag, wrapped[i].tag);
  }
}

// -------- individual fault kinds ----------------------------------------

TEST(FaultyMedium, BackgroundDropLosesFrames) {
  sim::Engine e;
  net::Loopback lo(e, sim::usec(1));
  FaultyMedium fm(e, lo, 42,
                  Plan{}.background({.drop_prob = 1.0}));
  Collector c(e, fm, {NodeId(0), NodeId(1)});
  for (int i = 0; i < 10; ++i) {
    fm.send(make_frame(NodeId(0), NodeId(1), 10, "x"));
  }
  e.run();
  EXPECT_EQ(c.deliveries.size(), 0u);
  EXPECT_EQ(e.total(&sim::Counts::injected_drops), 10u);
  for (const FaultRecord& r : fm.fault_log()) {
    EXPECT_EQ(r.kind, FaultKind::kDrop);
  }
}

TEST(FaultyMedium, DuplicateInjectsExtraCopyWithSameId) {
  sim::Engine e;
  net::Loopback lo(e, sim::usec(1));
  FaultyMedium fm(e, lo, 7,
                  Plan{}.background({.duplicate_prob = 1.0}));
  std::vector<std::uint64_t> seen_ids;
  fm.attach(NodeId(0), [](const net::Frame&) {});
  fm.attach(NodeId(1),
            [&](const net::Frame& f) { seen_ids.push_back(f.id); });
  fm.send(make_frame(NodeId(0), NodeId(1), 10, "x"));
  e.run();
  ASSERT_EQ(seen_ids.size(), 2u);
  EXPECT_EQ(seen_ids[0], seen_ids[1]);
  EXPECT_NE(seen_ids[0], 0u);
  EXPECT_EQ(e.total(&sim::Counts::injected_duplicates), 1u);
}

TEST(FaultyMedium, CorruptFramesAreDiscardedAtTheReceiver) {
  sim::Engine e;
  net::Loopback lo(e, sim::usec(1));
  FaultyMedium fm(e, lo, 9,
                  Plan{}.background({.corrupt_prob = 1.0}));
  Collector c(e, fm, {NodeId(0), NodeId(1)});
  fm.send(make_frame(NodeId(0), NodeId(1), 10, "x"));
  e.run();
  EXPECT_EQ(c.deliveries.size(), 0u);
  EXPECT_EQ(e.total(&sim::Counts::corrupt_discards), 1u);
  // Both the corruption and the checksum rejection are logged.
  ASSERT_EQ(fm.fault_log().size(), 2u);
  EXPECT_EQ(fm.fault_log()[0].kind, FaultKind::kCorrupt);
  EXPECT_EQ(fm.fault_log()[1].kind, FaultKind::kCorruptDiscard);
}

TEST(FaultyMedium, JitterDelaysButDelivers) {
  sim::Engine e;
  net::Loopback lo(e, sim::usec(10));
  FaultyMedium fm(e, lo, 11,
                  Plan{}.background({.max_jitter = sim::msec(1)}));
  Collector c(e, fm, {NodeId(0), NodeId(1)});
  for (int i = 0; i < 8; ++i) {
    fm.send(make_frame(NodeId(0), NodeId(1), 10, "x"));
  }
  e.run();
  EXPECT_EQ(c.deliveries.size(), 8u);
  EXPECT_GT(e.total(&sim::Counts::injected_delays), 0u);
  for (const Delivery& d : c.deliveries) {
    EXPECT_GE(d.when, sim::usec(10));
    EXPECT_LE(d.when, sim::usec(10) + sim::msec(1));
  }
}

TEST(FaultyMedium, DropWindowOnlyAffectsItsInterval) {
  sim::Engine e;
  net::Loopback lo(e, sim::usec(1));
  FaultyMedium fm(e, lo, 3,
                  Plan{}.drop_between(sim::msec(1), sim::msec(2), 1.0));
  Collector c(e, fm, {NodeId(0), NodeId(1)});
  // One frame before, one inside, one after the window.
  e.schedule(sim::msec(0), [&] {
    fm.send(make_frame(NodeId(0), NodeId(1), 10, "before"));
  });
  e.schedule(sim::msec(1) + sim::usec(500), [&] {
    fm.send(make_frame(NodeId(0), NodeId(1), 10, "inside"));
  });
  e.schedule(sim::msec(3), [&] {
    fm.send(make_frame(NodeId(0), NodeId(1), 10, "after"));
  });
  e.run();
  ASSERT_EQ(c.deliveries.size(), 2u);
  EXPECT_EQ(c.deliveries[0].tag, "before");
  EXPECT_EQ(c.deliveries[1].tag, "after");
  EXPECT_EQ(e.total(&sim::Counts::injected_drops), 1u);
}

TEST(FaultyMedium, CutLinkKillsUnicastBothWaysUntilHealed) {
  sim::Engine e;
  net::Loopback lo(e, sim::usec(1));
  FaultyMedium fm(e, lo, 5);
  Collector c(e, fm, {NodeId(0), NodeId(1), NodeId(2)});
  fm.cut_link(NodeId(0), NodeId(1));
  EXPECT_TRUE(fm.link_cut(NodeId(0), NodeId(1)));
  EXPECT_TRUE(fm.link_cut(NodeId(1), NodeId(0)));
  EXPECT_FALSE(fm.link_cut(NodeId(0), NodeId(2)));
  fm.send(make_frame(NodeId(0), NodeId(1), 10, "dead"));
  fm.send(make_frame(NodeId(1), NodeId(0), 10, "dead"));
  fm.send(make_frame(NodeId(0), NodeId(2), 10, "alive"));
  e.run();
  ASSERT_EQ(c.deliveries.size(), 1u);
  EXPECT_EQ(c.deliveries[0].tag, "alive");

  fm.heal_link(NodeId(0), NodeId(1));
  fm.send(make_frame(NodeId(0), NodeId(1), 10, "healed"));
  e.run();
  ASSERT_EQ(c.deliveries.size(), 2u);
  EXPECT_EQ(c.deliveries[1].tag, "healed");
}

TEST(FaultyMedium, PartitionSeversIslandFromRest) {
  sim::Engine e;
  net::Loopback lo(e, sim::usec(1));
  FaultyMedium fm(e, lo, 5);
  Collector c(e, fm, {NodeId(0), NodeId(1), NodeId(2), NodeId(3)});
  fm.partition({NodeId(0), NodeId(1)});
  // Within the island and within the rest: fine.  Across: dead.
  fm.send(make_frame(NodeId(0), NodeId(1), 10, "island"));
  fm.send(make_frame(NodeId(2), NodeId(3), 10, "rest"));
  fm.send(make_frame(NodeId(0), NodeId(2), 10, "across"));
  fm.send(make_frame(NodeId(3), NodeId(1), 10, "across"));
  e.run();
  ASSERT_EQ(c.deliveries.size(), 2u);
  EXPECT_EQ(c.deliveries[0].tag, "island");
  EXPECT_EQ(c.deliveries[1].tag, "rest");

  fm.heal_all();
  fm.send(make_frame(NodeId(0), NodeId(2), 10, "healed"));
  e.run();
  EXPECT_EQ(c.deliveries.size(), 3u);
}

TEST(FaultyMedium, CrashedNodeNeitherSendsNorReceives) {
  sim::Engine e;
  net::Loopback lo(e, sim::usec(1));
  FaultyMedium fm(e, lo, 5);
  Collector c(e, fm, {NodeId(0), NodeId(1)});
  std::vector<NodeId> crashes;
  std::vector<NodeId> restarts;
  fm.on_crash([&](NodeId n) { crashes.push_back(n); });
  fm.on_restart([&](NodeId n) { restarts.push_back(n); });

  fm.crash(NodeId(1));
  EXPECT_TRUE(fm.crashed(NodeId(1)));
  fm.send(make_frame(NodeId(0), NodeId(1), 10, "to-crashed"));
  fm.send(make_frame(NodeId(1), NodeId(0), 10, "from-crashed"));
  e.run();
  EXPECT_EQ(c.deliveries.size(), 0u);

  fm.restart(NodeId(1));
  EXPECT_FALSE(fm.crashed(NodeId(1)));
  fm.send(make_frame(NodeId(0), NodeId(1), 10, "back"));
  e.run();
  ASSERT_EQ(c.deliveries.size(), 1u);
  EXPECT_EQ(c.deliveries[0].tag, "back");
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_EQ(crashes[0], NodeId(1));
  ASSERT_EQ(restarts.size(), 1u);
  EXPECT_EQ(restarts[0], NodeId(1));
}

TEST(FaultyMedium, CutKillsFramesAlreadyInFlight) {
  // The severance check runs again at the delivery boundary, so a frame
  // that left before the cut but would arrive after it is lost.
  sim::Engine e;
  net::Loopback lo(e, sim::msec(10));  // slow wire
  FaultyMedium fm(e, lo, 5, Plan{}.cut_link(sim::msec(5), NodeId(0), NodeId(1)));
  Collector c(e, fm, {NodeId(0), NodeId(1)});
  fm.send(make_frame(NodeId(0), NodeId(1), 10, "in-flight"));
  e.run();
  EXPECT_EQ(c.deliveries.size(), 0u);
}

// -------- plan scheduling -----------------------------------------------

TEST(FaultyMedium, PlanActionsFireAtTheirTimes) {
  sim::Engine e;
  net::Loopback lo(e, sim::usec(1));
  FaultyMedium fm(e, lo, 5,
                  Plan{}
                      .crash(sim::msec(1), NodeId(1))
                      .restart(sim::msec(2), NodeId(1))
                      .cut_link(sim::msec(3), NodeId(0), NodeId(1))
                      .heal_all(sim::msec(4)));
  fm.attach(NodeId(0), [](const net::Frame&) {});
  fm.attach(NodeId(1), [](const net::Frame&) {});
  e.run();
  const auto& log = fm.fault_log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].kind, FaultKind::kCrash);
  EXPECT_EQ(log[0].at, sim::msec(1));
  EXPECT_EQ(log[1].kind, FaultKind::kRestart);
  EXPECT_EQ(log[2].kind, FaultKind::kCut);
  EXPECT_EQ(log[3].kind, FaultKind::kHeal);
  EXPECT_EQ(log[3].at, sim::msec(4));
  EXPECT_FALSE(fm.crashed(NodeId(1)));
  EXPECT_FALSE(fm.link_cut(NodeId(0), NodeId(1)));
}

// -------- determinism ----------------------------------------------------

// One full run over a lossy CsmaBus: returns (fault digest, delivery
// count, final time) so two runs can be compared field by field.
struct RunResult {
  std::uint64_t digest;
  std::uint64_t deliveries;
  sim::Time end_time;
};

RunResult lossy_bus_run(std::uint64_t seed) {
  sim::Engine e;
  net::CsmaBus bus(e, sim::Rng(99), {});
  FaultyMedium fm(e, bus, seed,
                  Plan{}
                      .background({.drop_prob = 0.2,
                                   .duplicate_prob = 0.1,
                                   .corrupt_prob = 0.05,
                                   .max_jitter = sim::usec(300)})
                      .cut_link(sim::msec(2), NodeId(0), NodeId(1))
                      .heal_all(sim::msec(4)));
  Collector c(e, fm, {NodeId(0), NodeId(1), NodeId(2)});
  for (int i = 0; i < 40; ++i) {
    e.schedule(sim::usec(100) * i, [&fm, i] {
      fm.send(make_frame(NodeId(i % 3), NodeId((i + 1) % 3), 64, "w"));
    });
  }
  e.run();
  return {fm.fault_digest(), e.total(&sim::Counts::deliveries), e.now()};
}

TEST(FaultyMedium, SameSeedSamePlanIsByteIdentical) {
  RunResult a = lossy_bus_run(1234);
  RunResult b = lossy_bus_run(1234);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.end_time, b.end_time);
}

TEST(FaultyMedium, DifferentSeedsDiverge) {
  RunResult a = lossy_bus_run(1234);
  RunResult b = lossy_bus_run(4321);
  EXPECT_NE(a.digest, b.digest);
}

// -------- invariant checker ----------------------------------------------

TEST(InvariantChecker, CleanRunOverFaultyMediumHoldsAllInvariants) {
  sim::Engine e;
  net::TokenRing ring(e, {});
  FaultyMedium fm(e, ring, 77,
                  Plan{}
                      .background({.drop_prob = 0.15,
                                   .duplicate_prob = 0.1,
                                   .corrupt_prob = 0.1,
                                   .max_jitter = sim::usec(500)})
                      .crash(sim::msec(1), NodeId(2))
                      .restart(sim::msec(3), NodeId(2))
                      .partition(sim::msec(4), {NodeId(0)})
                      .heal_all(sim::msec(6)));
  InvariantChecker check(fm);
  Collector c(e, fm, {NodeId(0), NodeId(1), NodeId(2), NodeId(3)});
  for (int i = 0; i < 120; ++i) {
    e.schedule(sim::usec(80) * i, [&fm, i] {
      fm.send(make_frame(NodeId(i % 4), NodeId((i + 1) % 4), 32, "w"));
    });
  }
  e.run();
  EXPECT_TRUE(check.ok()) << check.violations().front();
  EXPECT_GT(check.deliveries_checked(), 0u);
  EXPECT_GT(check.faults_checked(), 0u);
}

TEST(InvariantChecker, CrashedReceiverIsGuardedNotDelivered) {
  // The medium's own guard must hold: a frame aimed at a crashed node is
  // recorded as a kCrashDrop and never reaches the handler, so the
  // checker stays clean.
  sim::Engine e;
  net::Loopback lo(e, sim::usec(1));
  FaultyMedium fm(e, lo, 1);
  InvariantChecker check(fm);
  Collector c(e, fm, {NodeId(0), NodeId(1)});
  fm.crash(NodeId(1));
  fm.send(make_frame(NodeId(0), NodeId(1), 8, "doomed"));
  e.run();
  EXPECT_TRUE(check.ok());
  EXPECT_EQ(c.deliveries.size(), 0u);
  ASSERT_FALSE(fm.fault_log().empty());
  EXPECT_EQ(fm.fault_log().back().kind, FaultKind::kCrashDrop);
}

TEST(FaultRecord, DigestIsOrderSensitive) {
  FaultRecord a{sim::msec(1), FaultKind::kDrop, 1, NodeId(0), NodeId(1), 0};
  FaultRecord b{sim::msec(2), FaultKind::kCut, 0, NodeId(0), NodeId(1), 0};
  EXPECT_NE(digest({a, b}), digest({b, a}));
  EXPECT_EQ(digest({a, b}), digest({a, b}));
  EXPECT_NE(digest({a}), digest({}));
}

}  // namespace
}  // namespace fault
