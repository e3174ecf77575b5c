// Unit / integration tests for the simulated Charlotte kernel.
//
// Test programs are written as simulated-process coroutines making
// kernel calls, exactly the way the LYNX run-time package will.
#include "charlotte/kernel.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "net/token_ring.hpp"
#include "sim/engine.hpp"

#include "../support/co_check.hpp"

namespace charlotte {
namespace {

using net::NodeId;

Payload bytes(std::string s) { return Payload(s.begin(), s.end()); }
std::string text(const Payload& p) { return std::string(p.begin(), p.end()); }

struct World {
  sim::Engine engine;
  net::TokenRing ring{engine};
  Cluster cluster{engine, 4, ring};
};

// -------- MakeLink basics ------------------------------------------------

sim::Task<> make_link_prog(Cluster* cl, Pid pid, LinkPair* out) {
  auto result = co_await cl->kernel_of(pid).make_link(pid);
  CO_CHECK(result.ok());
  *out = result.value();
}

TEST(CharlotteKernel, MakeLinkReturnsTwoDistinctEnds) {
  World w;
  Pid p = w.cluster.create_process(NodeId(0));
  LinkPair pair;
  w.engine.spawn("p", make_link_prog(&w.cluster, p, &pair));
  w.engine.run();
  EXPECT_TRUE(pair.end1.valid());
  EXPECT_TRUE(pair.end2.valid());
  EXPECT_NE(pair.end1, pair.end2);
  EXPECT_GT(w.engine.now(), 0);  // the call charged CPU time
}

// -------- simple send/receive across nodes -------------------------------

// One process creates a link; since both ends start in one process, the
// common bootstrap is: parent makes a link, keeps end1, and the test
// harness "loads" the child with end2 (as the Crystal loader did).
// grant_end simulates that loader hand-off for tests.
sim::Task<> sender_prog(Cluster* cl, Pid pid, EndId end, std::string body,
                        std::vector<std::string>* log) {
  Kernel& k = cl->kernel_of(pid);
  Status st = co_await k.send(pid, end, bytes(body));
  CO_CHECK_EQ(st, Status::kOk);
  Completion c = co_await k.wait(pid);
  CO_CHECK_EQ(c.status, Status::kOk);
  CO_CHECK_EQ(c.direction, Direction::kSend);
  log->push_back("sent:" + std::to_string(c.length));
}

sim::Task<> receiver_prog(Cluster* cl, Pid pid, EndId end,
                          std::vector<std::string>* log) {
  Kernel& k = cl->kernel_of(pid);
  Status st = co_await k.receive(pid, end, 4096);
  CO_CHECK_EQ(st, Status::kOk);
  Completion c = co_await k.wait(pid);
  CO_CHECK_EQ(c.status, Status::kOk);
  CO_CHECK_EQ(c.direction, Direction::kReceive);
  log->push_back("got:" + text(c.data));
}

// Shorthand for the loader hand-off.
struct Bootstrap {
  static LinkPair link_between(Cluster& cl, Pid a, Pid b) {
    return cl.bootstrap_link(a, b);
  }
};

TEST(CharlotteKernel, CrossNodeSendReceive) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(1));
  LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);

  std::vector<std::string> log;
  w.engine.spawn("recv", receiver_prog(&w.cluster, pb, pair.end2, &log));
  w.engine.spawn("send", sender_prog(&w.cluster, pa, pair.end1, "hello", &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "got:hello");
  EXPECT_EQ(log[1], "sent:5");
  EXPECT_TRUE(w.engine.process_failures().empty());
}

TEST(CharlotteKernel, SendBeforeReceiveIsHeldByKernel) {
  // The paper: "retransmitted requests will be delayed by the kernel"
  // until a Receive is posted.  Here: send first, post receive later.
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(1));
  LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);

  std::vector<std::string> log;
  w.engine.spawn("send", sender_prog(&w.cluster, pa, pair.end1, "early", &log));
  w.engine.run();  // sender blocks in wait(); message parked at B's kernel
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(w.engine.live_processes(), 1u);

  w.engine.spawn("recv", receiver_prog(&w.cluster, pb, pair.end2, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "got:early");
}

TEST(CharlotteKernel, ReceiveTruncatesToPostedLength) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(1));
  LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);

  std::vector<std::string> log;
  auto recv_small = [](Cluster* cl, Pid pid, EndId end,
                       std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = cl->kernel_of(pid);
    CO_CHECK_EQ(co_await k.receive(pid, end, 3), Status::kOk);
    Completion c = co_await k.wait(pid);
    lg->push_back("got:" + text(c.data));
  };
  w.engine.spawn("recv", recv_small(&w.cluster, pb, pair.end2, &log));
  w.engine.spawn("send",
                 sender_prog(&w.cluster, pa, pair.end1, "truncate-me", &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "got:tru");
  EXPECT_EQ(log[1], "sent:3");  // sender learns the delivered length
}

// -------- one outstanding activity per direction --------------------------

sim::Task<> double_send_prog(Cluster* cl, Pid pid, EndId end,
                             std::vector<Status>* out) {
  Kernel& k = cl->kernel_of(pid);
  out->push_back(co_await k.send(pid, end, bytes("one")));
  out->push_back(co_await k.send(pid, end, bytes("two")));
}

TEST(CharlotteKernel, SecondSendWithoutWaitIsRejected) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(1));
  LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);
  std::vector<Status> sts;
  w.engine.spawn("p", double_send_prog(&w.cluster, pa, pair.end1, &sts));
  w.engine.run();
  ASSERT_EQ(sts.size(), 2u);
  EXPECT_EQ(sts[0], Status::kOk);
  EXPECT_EQ(sts[1], Status::kActivityPending);
}

// Sends `end` (enclosing `enclosure`) and records the status and the
// simulated time the call took.
struct TimedStatus {
  Status status;
  sim::Duration took;
};

sim::Task<> timed_send(Cluster* cl, Pid pid, EndId end, EndId enclosure,
                       std::vector<TimedStatus>* out) {
  const sim::Time t0 = cl->engine().now();
  const Status st =
      co_await cl->kernel_of(pid).send(pid, end, {}, enclosure);
  out->push_back(TimedStatus{st, cl->engine().now() - t0});
}

// Every send refusal, in the order the kernel checks them.
sim::Task<> send_refusals(Cluster* cl, Pid pa, Pid pc, LinkPair foreign,
                          std::vector<TimedStatus>* out) {
  Kernel& k = cl->kernel_of(pa);
  const EndId none = EndId::invalid();
  // pb's end lives on another node (unknown here), then a bogus id.
  co_await timed_send(cl, pa, foreign.end2, none, out);  // kNoSuchEnd
  co_await timed_send(cl, pa, EndId(999), none, out);    // kNoSuchEnd
  // pc shares pa's node but not its end.
  co_await timed_send(cl, pc, foreign.end1, none, out);  // kNotOwner
  auto dead = co_await k.make_link(pa);
  CO_CHECK(dead.ok());
  CO_CHECK_EQ(co_await k.destroy(pa, dead.value().end1), Status::kOk);
  co_await timed_send(cl, pa, dead.value().end1, none, out);  // kLinkDestroyed
  auto moving = co_await k.make_link(pa);
  CO_CHECK(moving.ok());
  const LinkPair m = moving.value();
  // An end may not enclose itself.
  co_await timed_send(cl, pa, m.end2, m.end2, out);  // kBadEnclosure
  // Enclose m.end1 in a send pb never receives: it stays in transit, and
  // the carrier's send stays pending.
  co_await timed_send(cl, pa, foreign.end1, m.end1, out);  // kOk
  co_await timed_send(cl, pa, m.end1, none, out);          // kEndInTransit
  // Nor may an end in transit, or a dead one, be enclosed.
  auto spare = co_await k.make_link(pa);
  CO_CHECK(spare.ok());
  const EndId carrier = spare.value().end1;
  co_await timed_send(cl, pa, carrier, m.end1, out);  // kBadEnclosure
  co_await timed_send(cl, pa, carrier, dead.value().end1, out);  // same
  co_await timed_send(cl, pa, foreign.end1, none, out);  // kActivityPending
}

TEST(CharlotteKernel, SendOnForeignEndRejected) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(1));
  Pid pc = w.cluster.create_process(NodeId(0));
  LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);
  std::vector<TimedStatus> sts;
  w.engine.spawn("p", send_refusals(&w.cluster, pa, pc, pair, &sts));
  w.engine.run();
  EXPECT_TRUE(w.engine.process_failures().empty());
  const Status want[] = {Status::kNoSuchEnd,     Status::kNoSuchEnd,
                         Status::kNotOwner,      Status::kLinkDestroyed,
                         Status::kBadEnclosure,  Status::kOk,
                         Status::kEndInTransit,  Status::kBadEnclosure,
                         Status::kBadEnclosure,  Status::kActivityPending};
  ASSERT_EQ(sts.size(), std::size(want));
  for (std::size_t i = 0; i < sts.size(); ++i) {
    SCOPED_TRACE("send " + std::to_string(i));
    EXPECT_EQ(sts[i].status, want[i]);
    if (want[i] != Status::kOk) {
      EXPECT_EQ(sts[i].took, w.cluster.costs().call_overhead);
    }
  }
}

// -------- cancel ----------------------------------------------------------

TEST(CharlotteKernel, CancelReceiveBeforeArrivalSucceeds) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(1));
  LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);
  std::vector<Status> sts;
  auto prog = [](Cluster* cl, Pid pid, EndId end,
                 std::vector<Status>* out) -> sim::Task<> {
    Kernel& k = cl->kernel_of(pid);
    out->push_back(co_await k.receive(pid, end, 100));
    out->push_back(co_await k.cancel(pid, end, Direction::kReceive));
    out->push_back(co_await k.cancel(pid, end, Direction::kReceive));
  };
  w.engine.spawn("p", prog(&w.cluster, pb, pair.end2, &sts));
  w.engine.run();
  ASSERT_EQ(sts.size(), 3u);
  EXPECT_EQ(sts[0], Status::kOk);
  EXPECT_EQ(sts[1], Status::kOk);          // cancel succeeded
  EXPECT_EQ(sts[2], Status::kNoActivity);  // nothing left to cancel
}

sim::Task<> recv_then_late_cancel(Cluster* cl, Pid pid, EndId end,
                                  std::vector<std::string>* log) {
  Kernel& k = cl->kernel_of(pid);
  CO_CHECK_EQ(co_await k.receive(pid, end, 100), Status::kOk);
  // Busy-wait (in simulated time) until the message has landed, then try
  // to cancel: the paper's §3.2.1 "Cancel will fail" scenario.
  while (!k.completion_ready(pid)) {
    co_await cl->engine().sleep(sim::msec(5));
  }
  Status st = co_await k.cancel(pid, end, Direction::kReceive);
  log->push_back(std::string("cancel:") + to_string(st));
  Completion c = co_await k.wait(pid);
  log->push_back("got:" + text(c.data));
}

TEST(CharlotteKernel, CancelReceiveAfterArrivalFails) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(1));
  LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);
  std::vector<std::string> recv_log;
  std::vector<std::string> send_log;
  w.engine.spawn("recv",
                 recv_then_late_cancel(&w.cluster, pb, pair.end2, &recv_log));
  w.engine.spawn("send",
                 sender_prog(&w.cluster, pa, pair.end1, "surprise", &send_log));
  w.engine.run();
  ASSERT_EQ(recv_log.size(), 2u);
  EXPECT_EQ(recv_log[0], "cancel:cancel-too-late");
  EXPECT_EQ(recv_log[1], "got:surprise");
  ASSERT_EQ(send_log.size(), 1u);
  EXPECT_EQ(send_log[0], "sent:8");
}

TEST(CharlotteKernel, CancelSendBeforeDeliverySucceeds) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(1));
  LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);
  std::vector<std::string> log;
  auto prog = [](Cluster* cl, Pid pid, EndId end,
                 std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = cl->kernel_of(pid);
    auto enc = co_await k.make_link(pid);
    CO_CHECK(enc.ok());
    CO_CHECK_EQ(co_await k.send(pid, end, bytes("doomed"), enc.value().end1),
                Status::kOk);
    CO_CHECK_EQ(co_await k.cancel(pid, end, Direction::kSend), Status::kOk);
    Completion c = co_await k.wait(pid);
    lg->push_back(std::string("send-outcome:") + to_string(c.status));
    // The cancelled send gave its enclosure back.
    lg->push_back(std::string("enclosure:") +
                  to_string(co_await k.receive(pid, enc.value().end1, 8)));
  };
  // No receiver is ever posted, so the cancel always wins.
  w.engine.spawn("p", prog(&w.cluster, pa, pair.end1, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "send-outcome:cancelled");
  EXPECT_EQ(log[1], "enclosure:ok");
}

// -------- enclosures (moving link ends) -----------------------------------

// A creates a data link D (two ends) and ships end2 of D to B over the
// transfer link T.  Then A and B exchange a message over D to prove the
// moved end works.
sim::Task<> enclosure_sender(Cluster* cl, Pid pid, EndId tend, EndId keep,
                             EndId give, std::vector<std::string>* log) {
  Kernel& k = cl->kernel_of(pid);
  CO_CHECK_EQ(co_await k.send(pid, tend, bytes("take-this"), give), Status::kOk);
  Completion c = co_await k.wait(pid);
  CO_CHECK_EQ(c.status, Status::kOk);
  log->push_back("moved");
  // now talk over the data link
  CO_CHECK_EQ(co_await k.send(pid, keep, bytes("over-moved-link")), Status::kOk);
  c = co_await k.wait(pid);
  CO_CHECK_EQ(c.status, Status::kOk);
  log->push_back("spoke");
}

sim::Task<> enclosure_receiver(Cluster* cl, Pid pid, EndId tend,
                               std::vector<std::string>* log) {
  Kernel& k = cl->kernel_of(pid);
  CO_CHECK_EQ(co_await k.receive(pid, tend, 100), Status::kOk);
  Completion c = co_await k.wait(pid);
  CO_CHECK_EQ(c.status, Status::kOk);
  CO_CHECK(c.enclosure.valid());
  log->push_back("received-end");
  EndId mine = c.enclosure;
  CO_CHECK_EQ(co_await k.receive(pid, mine, 100), Status::kOk);
  c = co_await k.wait(pid);
  CO_CHECK_EQ(c.status, Status::kOk);
  log->push_back("heard:" + text(c.data));
}

TEST(CharlotteKernel, EnclosureMovesEndAcrossNodes) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(2));
  LinkPair t = Bootstrap::link_between(w.cluster, pa, pb);

  // A makes the data link entirely inside itself.
  LinkPair d;
  w.engine.spawn("mk", make_link_prog(&w.cluster, pa, &d));
  w.engine.run();

  std::vector<std::string> log;
  w.engine.spawn("recv", enclosure_receiver(&w.cluster, pb, t.end2, &log));
  w.engine.spawn("send", enclosure_sender(&w.cluster, pa, t.end1, d.end1,
                                          d.end2, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0], "received-end");
  EXPECT_EQ(log[1], "moved");
  EXPECT_EQ(log[2], "heard:over-moved-link");
  EXPECT_EQ(log[3], "spoke");
  EXPECT_TRUE(w.engine.process_failures().empty());
  EXPECT_GT(w.engine.total(&sim::Counts::move_protocol_frames), 0u);
}

TEST(CharlotteKernel, CannotEncloseCarrierOrPeer) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  LinkPair d;
  w.engine.spawn("mk", make_link_prog(&w.cluster, pa, &d));
  w.engine.run();
  std::vector<Status> sts;
  auto prog = [](Cluster* cl, Pid pid, EndId end, EndId enc,
                 std::vector<Status>* out) -> sim::Task<> {
    out->push_back(co_await cl->kernel_of(pid).send(pid, end, {}, enc));
  };
  w.engine.spawn("p1", prog(&w.cluster, pa, d.end1, d.end1, &sts));
  w.engine.spawn("p2", prog(&w.cluster, pa, d.end1, d.end2, &sts));
  w.engine.run();
  ASSERT_EQ(sts.size(), 2u);
  EXPECT_EQ(sts[0], Status::kBadEnclosure);
  EXPECT_EQ(sts[1], Status::kBadEnclosure);
}

// -------- destroy & termination -------------------------------------------

sim::Task<> blocked_receiver(Cluster* cl, Pid pid, EndId end,
                             std::vector<std::string>* log) {
  Kernel& k = cl->kernel_of(pid);
  CO_CHECK_EQ(co_await k.receive(pid, end, 100), Status::kOk);
  Completion c = co_await k.wait(pid);
  log->push_back(std::string("recv-outcome:") + to_string(c.status));
}

sim::Task<> destroyer(Cluster* cl, Pid pid, EndId end,
                      sim::Duration after = sim::msec(20)) {
  co_await cl->engine().sleep(after);
  Status st = co_await cl->kernel_of(pid).destroy(pid, end);
  CO_CHECK_EQ(st, Status::kOk);
}

TEST(CharlotteKernel, DestroyFailsPeersBlockedReceive) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(1));
  LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);
  std::vector<std::string> log;
  w.engine.spawn("recv", blocked_receiver(&w.cluster, pb, pair.end2, &log));
  // The destroyer's own blocked receive fails the same way.
  w.engine.spawn("own", blocked_receiver(&w.cluster, pa, pair.end1, &log));
  w.engine.spawn("destroy", destroyer(&w.cluster, pa, pair.end1));
  w.engine.run();
  EXPECT_EQ(log, std::vector<std::string>(2, "recv-outcome:link-destroyed"));
}

TEST(CharlotteKernel, SendOnDestroyedLinkFails) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(1));
  LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);
  std::vector<std::string> log;
  auto prog = [](Cluster* cl, Pid pid, EndId end,
                 std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = cl->kernel_of(pid);
    // wait for the destroy to propagate
    co_await cl->engine().sleep(sim::msec(100));
    Status st = co_await k.send(pid, end, bytes("x"));
    if (st == Status::kOk) {
      Completion c = co_await k.wait(pid);
      st = c.status;
    }
    lg->push_back(std::string("send:") + to_string(st));
  };
  w.engine.spawn("destroy", destroyer(&w.cluster, pa, pair.end1));
  w.engine.spawn("send", prog(&w.cluster, pb, pair.end2, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "send:link-destroyed");

  // A send already waiting at the peer when it destroys the link fails
  // too, and gives its enclosure back.
  World w2;
  pa = w2.cluster.create_process(NodeId(0));
  pb = w2.cluster.create_process(NodeId(1));
  pair = Bootstrap::link_between(w2.cluster, pa, pb);
  std::vector<std::string> log2;
  w2.engine.spawn("destroy",
                  destroyer(&w2.cluster, pa, pair.end1, sim::msec(100)));
  w2.engine.spawn("send", [](Cluster* cl, Pid pid, EndId end,
                             std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = cl->kernel_of(pid);
    auto enc = co_await k.make_link(pid);
    CO_CHECK(enc.ok());
    CO_CHECK_EQ(co_await k.send(pid, end, bytes("x"), enc.value().end1),
                Status::kOk);
    Completion c = co_await k.wait(pid);
    lg->push_back(std::string("send:") + to_string(c.status));
    lg->push_back(std::string("enclosure:") +
                  to_string(co_await k.receive(pid, enc.value().end1, 8)));
  }(&w2.cluster, pb, pair.end2, &log2));
  w2.engine.run();
  EXPECT_EQ(log2, (std::vector<std::string>{"send:link-destroyed",
                                            "enclosure:ok"}));
  // The Msg, its bounce (MsgNackDestroyed), the DestroyUpdate and the two
  // LinkDowns: the bounce fails the send before LinkDown arrives.
  EXPECT_EQ(w2.engine.total(&sim::Counts::frames_emitted), 5u);
}

TEST(CharlotteKernel, ProcessTerminationDestroysItsLinks) {
  World w;
  Pid pa = w.cluster.create_process(NodeId(0));
  Pid pb = w.cluster.create_process(NodeId(1));
  LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);
  std::vector<std::string> log;
  w.engine.spawn("recv", blocked_receiver(&w.cluster, pb, pair.end2, &log));
  w.engine.schedule(sim::msec(30), [&] { w.cluster.terminate(pa); });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "recv-outcome:link-destroyed");
  EXPECT_FALSE(w.cluster.kernel_of(pa).process_alive(pa));
}

// -------- figure 1: both ends moved simultaneously ------------------------

// Processes A and D hold link 3.  A passes its end to B while D passes
// its end to C, concurrently.  Afterwards B->C must still work.
sim::Task<> fig1_mover(Cluster* cl, Pid pid, EndId via, EndId moving) {
  Kernel& k = cl->kernel_of(pid);
  CO_CHECK_EQ(co_await k.send(pid, via, bytes("end"), moving), Status::kOk);
  Completion c = co_await k.wait(pid);
  CO_CHECK_EQ(c.status, Status::kOk);
}

sim::Task<> fig1_taker_speaker(Cluster* cl, Pid pid, EndId via,
                               std::vector<std::string>* log) {
  Kernel& k = cl->kernel_of(pid);
  CO_CHECK_EQ(co_await k.receive(pid, via, 100), Status::kOk);
  Completion c = co_await k.wait(pid);
  CO_CHECK_EQ(c.status, Status::kOk);
  CO_CHECK(c.enclosure.valid());
  EndId mine = c.enclosure;
  CO_CHECK_EQ(co_await k.send(pid, mine, bytes("across-link3")), Status::kOk);
  c = co_await k.wait(pid);
  log->push_back(std::string("b-send:") + to_string(c.status));
}

sim::Task<> fig1_taker_listener(Cluster* cl, Pid pid, EndId via,
                                std::vector<std::string>* log) {
  Kernel& k = cl->kernel_of(pid);
  CO_CHECK_EQ(co_await k.receive(pid, via, 100), Status::kOk);
  Completion c = co_await k.wait(pid);
  CO_CHECK_EQ(c.status, Status::kOk);
  CO_CHECK(c.enclosure.valid());
  EndId mine = c.enclosure;
  CO_CHECK_EQ(co_await k.receive(pid, mine, 100), Status::kOk);
  c = co_await k.wait(pid);
  CO_CHECK_EQ(c.status, Status::kOk);
  log->push_back("c-heard:" + text(c.data));
}

TEST(CharlotteKernel, Figure1SimultaneousMoveOfBothEnds) {
  World w;
  Pid a = w.cluster.create_process(NodeId(0));
  Pid b = w.cluster.create_process(NodeId(1));
  Pid c = w.cluster.create_process(NodeId(2));
  Pid d = w.cluster.create_process(NodeId(3));
  LinkPair ab = Bootstrap::link_between(w.cluster, a, b);  // link 1
  LinkPair dc = Bootstrap::link_between(w.cluster, d, c);  // link 2
  // link 3 starts as A<->D: make in A, transplant one end to D.
  LinkPair l3 = Bootstrap::link_between(w.cluster, a, d);

  std::vector<std::string> log;
  w.engine.spawn("A", fig1_mover(&w.cluster, a, ab.end1, l3.end1));
  w.engine.spawn("D", fig1_mover(&w.cluster, d, dc.end1, l3.end2));
  w.engine.spawn("B", fig1_taker_speaker(&w.cluster, b, ab.end2, &log));
  w.engine.spawn("C", fig1_taker_listener(&w.cluster, c, dc.end2, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 2u) << "B and C must both finish";
  EXPECT_EQ(log[0], "c-heard:across-link3");
  EXPECT_EQ(log[1], "b-send:ok");
  EXPECT_TRUE(w.engine.process_failures().empty());
  // B's first send reaches C's end after one NACK-driven resend, and one
  // PeerMoved is chased on after an end that had moved: 15 frames.
  EXPECT_EQ(w.engine.total(&sim::Counts::nack_retransmits), 1u);
  EXPECT_EQ(w.engine.total(&sim::Counts::frames_emitted), 15u);
}

// -------- determinism ------------------------------------------------------

TEST(CharlotteKernel, RunsAreDeterministic) {
  auto run = [] {
    World w;
    Pid pa = w.cluster.create_process(NodeId(0));
    Pid pb = w.cluster.create_process(NodeId(1));
    LinkPair pair = Bootstrap::link_between(w.cluster, pa, pb);
    std::vector<std::string> log;
    w.engine.spawn("recv", receiver_prog(&w.cluster, pb, pair.end2, &log));
    w.engine.spawn("send",
                   sender_prog(&w.cluster, pa, pair.end1, "det", &log));
    w.engine.run();
    return std::pair(w.engine.now(), log);
  };
  auto r1 = run();
  auto r2 = run();
  EXPECT_EQ(r1.first, r2.first);
  EXPECT_EQ(r1.second, r2.second);
}

}  // namespace
}  // namespace charlotte
