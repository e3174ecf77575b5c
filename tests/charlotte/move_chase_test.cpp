// Kernel-level edge cases around moving Charlotte link ends: stale
// senders chasing a moved end (MsgNackMoved retransmission), serial
// move chains, and cancel racing delivery.
#include "charlotte/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../support/co_check.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"

namespace charlotte {
namespace {

using net::NodeId;

Payload bytes(std::string s) { return Payload(s.begin(), s.end()); }
std::string text(const Payload& p) { return std::string(p.begin(), p.end()); }

struct World {
  sim::Engine engine;
  net::TokenRing ring{engine};
  Cluster cluster{engine, 6, ring};
};

// A chain: the end hops P0 -> P1 -> ... -> Pn while the fixed-end
// holder stays put; then the fixed end sends and the kernel must chase
// the current location through NACKs / home updates.
sim::Task<> chain_hop(Cluster* cl, Pid from, Pid to, EndId via_end,
                      EndId moving) {
  Kernel& k = cl->kernel_of(from);
  CO_CHECK_EQ(co_await k.send(from, via_end, bytes("hop"), moving),
              Status::kOk);
  Completion c = co_await k.wait(from);
  CO_CHECK_EQ(c.status, Status::kOk);
  (void)to;
}

sim::Task<> chain_recv_end(Cluster* cl, Pid me, EndId via, EndId* out) {
  Kernel& k = cl->kernel_of(me);
  CO_CHECK_EQ(co_await k.receive(me, via, 100), Status::kOk);
  Completion c = co_await k.wait(me);
  CO_CHECK_EQ(c.status, Status::kOk);
  CO_CHECK(c.enclosure.valid());
  *out = c.enclosure;
}

TEST(CharlotteMoveChase, FixedEndReachesEndAfterSerialHops) {
  World w;
  // P0..P3 in a chain; F is the fixed-end holder.
  std::vector<Pid> p;
  for (int i = 0; i < 4; ++i) {
    p.push_back(w.cluster.create_process(NodeId(static_cast<std::uint32_t>(i))));
  }
  Pid f = w.cluster.create_process(NodeId(4));

  // transfer links p[i] <-> p[i+1]
  std::vector<LinkPair> xfer;
  for (int i = 0; i < 3; ++i) {
    xfer.push_back(w.cluster.bootstrap_link(p[static_cast<std::size_t>(i)],
                                            p[static_cast<std::size_t>(i) + 1]));
  }
  // the mobile link: F <-> p0
  LinkPair mobile = w.cluster.bootstrap_link(f, p[0]);

  // hop the end down the chain
  std::vector<EndId> got(3);
  w.engine.spawn("h0", chain_hop(&w.cluster, p[0], p[1], xfer[0].end1,
                                 mobile.end2));
  w.engine.spawn("r0", chain_recv_end(&w.cluster, p[1], xfer[0].end2,
                                      &got[0]));
  w.engine.run();
  w.engine.spawn("h1",
                 chain_hop(&w.cluster, p[1], p[2], xfer[1].end1, got[0]));
  w.engine.spawn("r1", chain_recv_end(&w.cluster, p[2], xfer[1].end2,
                                      &got[1]));
  w.engine.run();
  w.engine.spawn("h2",
                 chain_hop(&w.cluster, p[2], p[3], xfer[2].end1, got[1]));
  w.engine.spawn("r2", chain_recv_end(&w.cluster, p[3], xfer[2].end2,
                                      &got[2]));
  w.engine.run();

  // now F (whose peer_node was updated by the home on every hop, or is
  // stale if notifications raced) sends on the mobile link
  std::vector<std::string> log;
  w.engine.spawn("send", [](Cluster* cl, Pid me, EndId end,
                            std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = cl->kernel_of(me);
    CO_CHECK_EQ(co_await k.send(me, end, bytes("find-me")), Status::kOk);
    Completion c = co_await k.wait(me);
    lg->push_back(std::string("send:") + to_string(c.status));
  }(&w.cluster, f, mobile.end1, &log));
  w.engine.spawn("recv", [](Cluster* cl, Pid me, EndId end,
                            std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = cl->kernel_of(me);
    CO_CHECK_EQ(co_await k.receive(me, end, 100), Status::kOk);
    Completion c = co_await k.wait(me);
    lg->push_back("got:" + text(c.data));
  }(&w.cluster, p[3], got[2], &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "got:find-me");
  EXPECT_EQ(log[1], "send:ok");
  EXPECT_TRUE(w.engine.process_failures().empty());
}

TEST(CharlotteMoveChase, SendRacingMoveIsRetransmitted) {
  // F sends to the mobile end WHILE it is being moved from A to B: the
  // message may land at A after the end left and must be NACKed to the
  // new location.
  World w;
  Pid a = w.cluster.create_process(NodeId(0));
  Pid b = w.cluster.create_process(NodeId(1));
  Pid f = w.cluster.create_process(NodeId(2));
  LinkPair xfer = w.cluster.bootstrap_link(a, b);
  LinkPair mobile = w.cluster.bootstrap_link(f, a);

  std::vector<std::string> log;
  // A ships the end to B.
  w.engine.spawn("ship",
                 chain_hop(&w.cluster, a, b, xfer.end1, mobile.end2));
  EndId at_b;
  w.engine.spawn("take", chain_recv_end(&w.cluster, b, xfer.end2, &at_b));
  // F fires immediately — racing the move.
  w.engine.spawn("race", [](Cluster* cl, Pid me, EndId end,
                            std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = cl->kernel_of(me);
    CO_CHECK_EQ(co_await k.send(me, end, bytes("racer")), Status::kOk);
    Completion c = co_await k.wait(me);
    lg->push_back(std::string("send:") + to_string(c.status));
  }(&w.cluster, f, mobile.end1, &log));
  w.engine.run();
  ASSERT_TRUE(at_b.valid());

  // B eventually receives the racer on the moved end.
  w.engine.spawn("recv", [](Cluster* cl, Pid me, EndId end,
                            std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = cl->kernel_of(me);
    CO_CHECK_EQ(co_await k.receive(me, end, 100), Status::kOk);
    Completion c = co_await k.wait(me);
    lg->push_back("got:" + text(c.data));
  }(&w.cluster, b, at_b, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  // completion order depends on whether the racer landed before or
  // after the hop; both entries must be present either way
  std::sort(log.begin(), log.end());
  EXPECT_EQ(log[0], "got:racer");
  EXPECT_EQ(log[1], "send:ok");
  EXPECT_TRUE(w.engine.process_failures().empty());
}

TEST(CharlotteMoveChase, CancelLosesWhenReceiverAlreadyGotIt) {
  World w;
  Pid a = w.cluster.create_process(NodeId(0));
  Pid b = w.cluster.create_process(NodeId(1));
  LinkPair pair = w.cluster.bootstrap_link(a, b);
  std::vector<std::string> log;
  // B posts the receive first, so delivery happens promptly; A's cancel
  // must lose the race and the send completes Ok.
  w.engine.spawn("recv", [](Cluster* cl, Pid me, EndId end,
                            std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = cl->kernel_of(me);
    CO_CHECK_EQ(co_await k.receive(me, end, 100), Status::kOk);
    Completion c = co_await k.wait(me);
    lg->push_back("got:" + text(c.data));
  }(&w.cluster, b, pair.end2, &log));
  w.engine.spawn("send", [](Cluster* cl, Pid me, EndId end,
                            std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = cl->kernel_of(me);
    CO_CHECK_EQ(co_await k.send(me, end, bytes("fast")), Status::kOk);
    // wait long enough for the delivery to complete, then cancel
    co_await cl->engine().sleep(sim::msec(200));
    Status st = co_await k.cancel(me, end, Direction::kSend);
    lg->push_back(std::string("cancel:") + to_string(st));
    Completion c = co_await k.wait(me);
    lg->push_back(std::string("send:") + to_string(c.status));
  }(&w.cluster, a, pair.end1, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "got:fast");
  // the activity already completed, so there is nothing left to cancel
  EXPECT_EQ(log[1], "cancel:no-activity");
  EXPECT_EQ(log[2], "send:ok");
}

}  // namespace
}  // namespace charlotte
