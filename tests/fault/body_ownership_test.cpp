// Message body ownership (DESIGN.md "Message body ownership"): a body is
// one buffer, shared by every holder, and a holder that narrows its view
// — a truncating receive, a header strip — never changes the bytes
// another holder sees.  Each test puts a second holder on the wire after
// the first has narrowed its view and checks that it still sees every
// byte.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "../support/co_check.hpp"
#include "../support/spy_medium.hpp"
#include "charlotte/kernel.hpp"
#include "common/body.hpp"
#include "fault/faulty_medium.hpp"
#include "net/csma_bus.hpp"
#include "net/loopback.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"
#include "soda/kernel.hpp"

namespace {

using common::Body;
using net::NodeId;
using test_support::SpyMedium;

constexpr const char* kMessage = "0123456789abcdef";

Body bytes(std::string s) { return Body(s.begin(), s.end()); }
std::string text(const Body& b) { return std::string(b.begin(), b.end()); }

// ---- Charlotte: truncating receive, then a MsgNackMoved resend --------

const charlotte::wire::Msg* as_msg(const net::Frame& f) {
  return std::get_if<charlotte::wire::Msg>(
      &f.as<charlotte::wire::KernelFrame>());
}

sim::Task<> charlotte_send(charlotte::Cluster* cl, charlotte::Pid me,
                           charlotte::EndId end, charlotte::Completion* out,
                           bool* settled) {
  charlotte::Kernel& k = cl->kernel_of(me);
  CO_CHECK_EQ(co_await k.send(me, end, bytes(kMessage)),
              charlotte::Status::kOk);
  *out = co_await k.wait(me);
  *settled = true;
}

sim::Task<> charlotte_receive(charlotte::Cluster* cl, charlotte::Pid me,
                              charlotte::EndId end, std::size_t max_len,
                              charlotte::Completion* out) {
  charlotte::Kernel& k = cl->kernel_of(me);
  CO_CHECK_EQ(co_await k.receive(me, end, max_len), charlotte::Status::kOk);
  *out = co_await k.wait(me);
}

TEST(BodyOwnership, CharlotteTruncatedReceiveLeavesNackMovedResendWhole) {
  sim::Engine e;
  net::Loopback wire(e, sim::usec(100));
  SpyMedium spy(wire);
  charlotte::Cluster cluster(e, 2, spy);
  const charlotte::Pid pa = cluster.create_process(NodeId(0));
  const charlotte::Pid pb = cluster.create_process(NodeId(1));
  const charlotte::LinkPair link = cluster.bootstrap_link(pa, pb);

  // The receiver's ack never arrives, so the sender keeps its Msg.
  bool drop_acks = true;
  spy.drop = [&](const net::Frame& f) {
    return drop_acks && std::holds_alternative<charlotte::wire::MsgAck>(
                            f.as<charlotte::wire::KernelFrame>());
  };
  spy.log_filter = [](const net::Frame& f) { return as_msg(f) != nullptr; };

  charlotte::Completion sent;
  bool settled = false;
  charlotte::Completion got;
  e.spawn("send", charlotte_send(&cluster, pa, link.end1, &sent, &settled));
  e.spawn("recv", charlotte_receive(&cluster, pb, link.end2, 4, &got));
  e.run();
  ASSERT_EQ(got.status, charlotte::Status::kOk);
  EXPECT_EQ(text(got.data), "0123");
  ASSERT_EQ(spy.logged.size(), 1u);
  const std::uint64_t seq = as_msg(spy.logged[0])->seq;
  EXPECT_FALSE(settled) << "the send settled without its ack";

  // The receiving end "moved" (to where it already is): the sender
  // resends its retained Msg, which must carry the whole body.
  drop_acks = false;
  spy.inject(net::Frame{NodeId(1), NodeId(0), 24,
                        charlotte::wire::KernelFrame(
                            charlotte::wire::MsgNackMoved{
                                seq, link.end1, link.end2, NodeId(1)})});
  e.run();
  ASSERT_EQ(spy.logged.size(), 2u);
  EXPECT_EQ(as_msg(spy.logged[1])->seq, seq);
  EXPECT_EQ(text(as_msg(spy.logged[1])->data), kMessage);
  EXPECT_EQ(text(as_msg(spy.logged[0])->data), kMessage);
  EXPECT_EQ(text(got.data), "0123");
  // The duplicate was screened and re-acked with the delivered length.
  ASSERT_TRUE(settled);
  EXPECT_EQ(sent.status, charlotte::Status::kOk);
  EXPECT_EQ(sent.length, 4u);
  EXPECT_EQ(e.counts(0).nack_retransmits, 1u);
  EXPECT_TRUE(e.process_failures().empty());
}

// ---- SODA: accept below send_total, then a retransmitted ReqFrag ------

const soda::Kernel::ReqFrag* as_req_frag(const net::Frame& f) {
  return std::get_if<soda::Kernel::ReqFrag>(
      &f.as<soda::Kernel::WireFrame>());
}

sim::Task<> soda_accepter(soda::Network* nw, soda::Pid me, soda::Name* name,
                          sim::Gate* ready, soda::Payload* taken) {
  soda::Kernel& k = nw->kernel_of(me);
  *name = co_await k.generate_name(me);
  CO_CHECK_EQ(co_await k.advertise(me, *name), soda::Status::kOk);
  ready->open();
  soda::Interrupt intr = co_await k.next_interrupt(me);
  const auto* r = std::get_if<soda::RequestInterrupt>(&intr);
  CO_CHECK(r != nullptr);
  CO_CHECK_EQ(r->send_bytes, 16u);
  auto accepted = co_await k.accept(me, r->request, soda::Oob{}, {}, 4);
  CO_CHECK(accepted.ok());
  *taken = std::move(accepted.value());
}

sim::Task<> soda_requester(soda::Network* nw, soda::Pid me, soda::Pid target,
                           soda::Name* name, sim::Gate* ready,
                           std::size_t* delivered) {
  co_await ready->wait();
  soda::Kernel& k = nw->kernel_of(me);
  auto req = co_await k.request(me, target, *name, soda::Oob{},
                                bytes(kMessage), 0);
  CO_CHECK(req.ok());
  soda::Interrupt intr = co_await k.next_interrupt(me);
  const auto* c = std::get_if<soda::CompletionInterrupt>(&intr);
  CO_CHECK(c != nullptr);
  *delivered = c->delivered;
}

TEST(BodyOwnership, SodaShortAcceptLeavesRetransmittedReqFragWhole) {
  sim::Engine e;
  net::Loopback wire(e, sim::usec(100));
  SpyMedium spy(wire);
  soda::Costs costs;
  costs.ack_timeout = sim::msec(50);
  soda::Network network(e, 2, spy, costs);
  const soda::Pid pa = network.create_process(NodeId(0));
  const soda::Pid pb = network.create_process(NodeId(1));

  // Silence the accepter's node for a while: no acks and no accept
  // fragments reach the requester, so its kernel retransmits the
  // ReqFrag after the accept has already taken 4 of its 16 bytes.
  spy.drop = [&](const net::Frame& f) {
    return f.src == NodeId(1) && e.now() < sim::msec(120);
  };
  spy.log_filter = [](const net::Frame& f) {
    return as_req_frag(f) != nullptr;
  };

  soda::Name name;
  sim::Gate ready(e);
  soda::Payload taken;
  std::size_t delivered = 0;
  e.spawn("accept", soda_accepter(&network, pb, &name, &ready, &taken));
  e.spawn("request",
          soda_requester(&network, pa, pb, &name, &ready, &delivered));
  e.run();

  EXPECT_EQ(text(taken), "0123");
  EXPECT_EQ(delivered, 4u);
  ASSERT_GE(spy.logged.size(), 2u) << "the ReqFrag was never retransmitted";
  for (const net::Frame& f : spy.logged) {
    EXPECT_EQ(as_req_frag(f)->send_total, 16u);
    EXPECT_EQ(text(as_req_frag(f)->data), kMessage);
  }
  EXPECT_GE(e.counts(0).retries, 1u);
  EXPECT_TRUE(e.process_failures().empty());
}

// ---- media: one frame, several deliveries ----------------------------

// Records each delivery's bytes, then narrows its own view the way a
// receiver does, so a later delivery of the same frame would show it.
struct Recorder {
  std::vector<std::string> seen;
  std::vector<const std::uint8_t*> buffers;

  net::FrameHandler handler() {
    return [this](net::Frame f) {
      Body b = f.take<Body>();
      seen.push_back(text(b));
      buffers.push_back(b.data());
      b.drop_front(2);
      b.truncate(3);
    };
  }
};

TEST(BodyOwnership, FaultyMediumDuplicateDeliversTheWholeBodyTwice) {
  sim::Engine e;
  net::Loopback wire(e, sim::usec(100));
  fault::Plan plan;
  plan.background(fault::BackgroundModel{.duplicate_prob = 1.0});
  fault::FaultyMedium medium(e, wire, /*seed=*/7, plan);
  Recorder rx;
  medium.attach(NodeId(0), [](net::Frame) {});
  medium.attach(NodeId(1), rx.handler());

  const Body sent = bytes(kMessage);
  medium.send(net::Frame{NodeId(0), NodeId(1), sent.size(), sent});
  e.run();

  EXPECT_EQ(e.total(&sim::Counts::injected_duplicates), 1u);
  ASSERT_EQ(rx.seen.size(), 2u);
  EXPECT_EQ(rx.seen[0], kMessage);
  EXPECT_EQ(rx.seen[1], kMessage);
  // Both deliveries read the sender's buffer; neither copied it.
  EXPECT_EQ(rx.buffers[0], sent.data());
  EXPECT_EQ(rx.buffers[1], sent.data());
  EXPECT_EQ(text(sent), kMessage);
}

template <typename Medium>
void expect_broadcast_fan_out(sim::Engine& e, Medium& medium) {
  Recorder rx1;
  Recorder rx2;
  medium.attach(NodeId(0), [](net::Frame) {});
  medium.attach(NodeId(1), rx1.handler());
  medium.attach(NodeId(2), rx2.handler());

  const Body sent = bytes(kMessage);
  medium.broadcast(net::Frame{NodeId(0), NodeId::invalid(), sent.size(), sent});
  e.run();

  ASSERT_EQ(rx1.seen.size(), 1u);
  ASSERT_EQ(rx2.seen.size(), 1u);
  EXPECT_EQ(rx1.seen[0], kMessage);
  EXPECT_EQ(rx2.seen[0], kMessage);
  EXPECT_EQ(rx1.buffers[0], sent.data());
  EXPECT_EQ(rx2.buffers[0], sent.data());
  EXPECT_EQ(text(sent), kMessage);
}

TEST(BodyOwnership, TokenRingBroadcastSharesOneBody) {
  sim::Engine e;
  net::TokenRing ring(e);
  expect_broadcast_fan_out(e, ring);
}

TEST(BodyOwnership, CsmaBusBroadcastSharesOneBody) {
  sim::Engine e;
  net::CsmaBus bus(e, sim::Rng(3),
                   net::CsmaBusParams{.broadcast_drop_prob = 0.0});
  expect_broadcast_fan_out(e, bus);
}

// ---- the Body itself ---------------------------------------------------

TEST(Body, CopiesShareOneBufferAndKeepTheirOwnWindows) {
  const Body whole = bytes(kMessage);
  Body head = whole;
  Body tail = whole.slice(10, 6);
  head.truncate(4);
  EXPECT_EQ(head.data(), whole.data());
  EXPECT_EQ(text(head), "0123");
  EXPECT_EQ(text(tail), "abcdef");
  tail.drop_front(3);
  EXPECT_EQ(text(tail), "def");
  EXPECT_EQ(text(whole), kMessage);
  EXPECT_FALSE(whole.unique());
}

TEST(Body, PrependWritesIntoTheHeadroom) {
  Body b = Body::make(3, /*headroom=*/2);
  std::uint8_t* body = b.writable();
  body[0] = 'x';
  body[1] = 'y';
  body[2] = 'z';
  std::uint8_t* header = b.prepend(2);
  header[0] = 'h';
  header[1] = ':';
  EXPECT_EQ(header + 2, body);
  EXPECT_EQ(text(b), "h:xyz");
  b.drop_front(2);
  EXPECT_EQ(text(b), "xyz");
}

TEST(Body, MovedFromBodyIsEmpty) {
  Body a = bytes(kMessage);
  const std::uint8_t* buffer = a.data();
  Body b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.data(), buffer);
  EXPECT_TRUE(b.unique());
}

TEST(BodyDeathTest, WritingASharedBodyAsserts) {
  Body a = Body::make(4, 2);
  const Body b = a;
  EXPECT_DEATH((void)a.writable(), "writing a shared body");
  EXPECT_DEATH((void)a.prepend(1), "writing a shared body");
}

}  // namespace
