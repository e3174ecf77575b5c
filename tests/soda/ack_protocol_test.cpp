// The ack protocol on the SODA fragment transport (DESIGN.md §12): the
// Charlotte regression battery ported to the request/accept wire.  Pins
// the cumulative-ack watermark against arbitrarily delayed duplicates,
// the sender-frontier hole repair, retransmit accounting under adaptive
// RTO, and the piggyback win.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "../support/co_check.hpp"
#include "fault/faulty_medium.hpp"
#include "net/csma_bus.hpp"
#include "sim/engine.hpp"
#include "soda/kernel.hpp"

namespace soda {
namespace {

using net::NodeId;

Payload bytes(std::string s) { return Payload(s.begin(), s.end()); }
std::string text(const Payload& p) { return std::string(p.begin(), p.end()); }

// A medium that keeps a copy of the first request fragment leaving
// `watch_src` and can re-inject it later — the "duplicate delayed by
// the network for an arbitrarily long time" that windowed dedup schemes
// (like the kernel's 64-entry ring of accepted requests) cannot screen.
class ReplayMedium final : public net::Medium {
 public:
  ReplayMedium(net::Medium& inner, NodeId watch_src)
      : inner_(&inner), watch_src_(watch_src) {}

  void attach(NodeId node, net::FrameHandler handler) override {
    inner_->attach(node, std::move(handler));
  }
  void send(net::Frame frame) override {
    stamp(frame);
    if (!captured_.has_value() && frame.src == watch_src_) {
      if (const auto* wf = std::any_cast<Kernel::WireFrame>(&frame.body);
          wf != nullptr && std::holds_alternative<Kernel::ReqFrag>(*wf)) {
        captured_ = frame;  // same id: a duplicate, not a new frame
      }
    }
    inner_->send(std::move(frame));
  }
  void broadcast(net::Frame frame) override {
    stamp(frame);
    inner_->broadcast(std::move(frame));
  }
  [[nodiscard]] std::uint64_t frames_sent() const override {
    return inner_->frames_sent();
  }
  [[nodiscard]] std::uint64_t bytes_sent() const override {
    return inner_->bytes_sent();
  }

  void replay() {
    ASSERT_TRUE(captured_.has_value()) << "no ReqFrag frame was captured";
    inner_->send(net::Frame(*captured_));
  }

 private:
  net::Medium* inner_;
  NodeId watch_src_;
  std::optional<net::Frame> captured_;
};

// One request/accept round trip; the server side records the payload it
// took, the client side records the reply it got.
sim::Task<> serve_n(Network* nw, Pid me, Name* out, sim::Gate* ready, int n,
                    std::vector<std::string>* log) {
  Kernel& k = nw->kernel_of(me);
  Name name = co_await k.generate_name(me);
  CO_CHECK_EQ(co_await k.advertise(me, name), Status::kOk);
  *out = name;
  ready->open();
  for (int i = 0; i < n; ++i) {
    Interrupt intr = co_await k.next_interrupt(me);
    auto* req = std::get_if<RequestInterrupt>(&intr);
    CO_CHECK(req != nullptr);
    auto taken =
        co_await k.accept(me, req->request, Oob{1, 0}, bytes("pong"), 4096);
    CO_CHECK(taken.ok());
    log->push_back("took:" + text(taken.value()));
  }
}

sim::Task<> call_n(Network* nw, Pid me, Pid server, Name* name,
                   sim::Gate* ready, int n, std::vector<std::string>* log) {
  co_await ready->wait();
  Kernel& k = nw->kernel_of(me);
  for (int i = 0; i < n; ++i) {
    auto req = co_await k.request(me, server, *name, Oob{},
                                  bytes("m" + std::to_string(i)), 4096);
    CO_CHECK(req.ok());
    Interrupt intr = co_await k.next_interrupt(me);
    auto* done = std::get_if<CompletionInterrupt>(&intr);
    CO_CHECK(done != nullptr);
    if (log != nullptr) log->push_back("got:" + text(done->data));
  }
}

// A 64-entry FIFO of recently accepted request ids cannot screen a
// duplicate fragment delayed past 64 subsequent requests: it falls out
// of the window and would be parked (and serviced) a second time.  The
// per-peer transport watermark is windowless: the duplicate of request
// #1 is screened no matter how many requests intervene.
TEST(SodaAckProtocol, DelayedDuplicateBeyondOldWindowIsScreened) {
  sim::Engine e;
  net::CsmaBus bus(e, sim::Rng(7));
  ReplayMedium medium(bus, NodeId(1));  // watch the client's requests
  Costs costs;
  costs.ack_timeout = sim::msec(10);
  Network nw(e, 2, medium, costs);

  Pid server = nw.create_process(NodeId(0));
  Pid client = nw.create_process(NodeId(1));
  Name name;
  sim::Gate ready(e);
  constexpr int kRounds = 70;  // > the 64-entry done ring

  std::vector<std::string> served;
  e.spawn("serve", serve_n(&nw, server, &name, &ready, kRounds, &served));
  e.spawn("call", call_n(&nw, client, server, &name, &ready, kRounds, nullptr));
  e.run();
  EXPECT_EQ(served.size(), static_cast<std::size_t>(kRounds));
  EXPECT_EQ(served.front(), "took:m0");
  EXPECT_TRUE(e.process_failures().empty());

  // The network "finds" the long-lost duplicate of request #1, then a
  // genuinely new request follows.  The server takes exactly one more
  // request, and it must be the fresh one.
  medium.replay();
  std::vector<std::string> tail;
  auto one_more = [](Network* n, Pid me, std::vector<std::string>* log)
      -> sim::Task<> {
    Kernel& k = n->kernel_of(me);
    Interrupt intr = co_await k.next_interrupt(me);
    auto* req = std::get_if<RequestInterrupt>(&intr);
    CO_CHECK(req != nullptr);
    auto taken =
        co_await k.accept(me, req->request, Oob{1, 0}, bytes("pong"), 4096);
    CO_CHECK(taken.ok());
    log->push_back("took:" + text(taken.value()));
  };
  auto fresh = [](Network* n, Pid me, Pid srv, Name* nm) -> sim::Task<> {
    Kernel& k = n->kernel_of(me);
    auto req =
        co_await k.request(me, srv, *nm, Oob{}, bytes("fresh"), 4096);
    CO_CHECK(req.ok());
    (void)co_await k.next_interrupt(me);
  };
  e.spawn("serve-tail", one_more(&nw, server, &tail));
  e.spawn("call-fresh", fresh(&nw, client, server, &name));
  e.run();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail.front(), "took:fresh");
}

// The sender frontier must repair watermark holes left by abandoned
// sends (Charlotte's "watermark travels with the moved end", restated
// for SODA's per-peer streams): a request that exhausts its transport
// attempts against a silent peer leaves its tseqs permanently unacked.
// Every later fragment carries tseq_base — the sender's lowest live
// tseq — so the receiver jumps its watermark over the hole and the
// cumulative ack stream keeps retiring later sends.  Without the
// repair, the server's acks would be stuck at watermark 0, the client
// would retransmit the second request to exhaustion, and the slow
// accept below would turn into a spurious CrashInterrupt.
TEST(SodaAckProtocol, FrontierRepairUnsticksWatermarkAfterAbandonedSend) {
  sim::Engine e;
  net::CsmaBus bus(e, sim::Rng(7));
  // Every client->server frame dies until 80 ms: request #1 is
  // abandoned after max_transport_attempts of silence.
  fault::FaultyMedium fm(
      e, bus, 13,
      fault::Plan{}.drop_between(0, sim::msec(80), 1.0, NodeId(1), NodeId(0)));
  Costs costs;
  costs.ack_timeout = sim::msec(10);
  // Fixed spacing: abandoned well before 80 ms.
  costs.rto_min = costs.rto_max = costs.ack_timeout;
  Network nw(e, 2, fm, costs);

  Pid server = nw.create_process(NodeId(0));
  Pid client = nw.create_process(NodeId(1));
  Name name;
  sim::Gate ready(e);
  std::vector<std::string> log;

  auto serve = [](sim::Engine* eng, Network* n, Pid me, Name* out,
                  sim::Gate* gate) -> sim::Task<> {
    Kernel& k = n->kernel_of(me);
    Name nm = co_await k.generate_name(me);
    CO_CHECK_EQ(co_await k.advertise(me, nm), Status::kOk);
    *out = nm;
    gate->open();
    Interrupt intr = co_await k.next_interrupt(me);
    auto* req = std::get_if<RequestInterrupt>(&intr);
    CO_CHECK(req != nullptr);
    // Sit on the request for several RTOs: only the cumulative ack can
    // stop the client from retransmitting — and the ack only helps if
    // the watermark has jumped the abandoned request's hole.
    co_await eng->sleep(sim::msec(60));
    auto taken =
        co_await k.accept(me, req->request, Oob{1, 0}, bytes("pong"), 4096);
    CO_CHECK(taken.ok());
  };
  auto call = [](sim::Engine* eng, Network* n, Pid me, Pid srv, Name* nm,
                 sim::Gate* gate, std::vector<std::string>* lg) -> sim::Task<> {
    co_await gate->wait();
    Kernel& k = n->kernel_of(me);
    auto r1 = co_await k.request(me, srv, *nm, Oob{}, bytes("doomed"), 4096);
    CO_CHECK(r1.ok());
    Interrupt i1 = co_await k.next_interrupt(me);
    lg->push_back(std::holds_alternative<CrashInterrupt>(i1) ? "crash"
                                                             : "unexpected");
    co_await eng->sleep(sim::msec(100));  // outlive the drop window
    auto r2 = co_await k.request(me, srv, *nm, Oob{}, bytes("ping"), 4096);
    CO_CHECK(r2.ok());
    Interrupt i2 = co_await k.next_interrupt(me);
    auto* done = std::get_if<CompletionInterrupt>(&i2);
    CO_CHECK(done != nullptr);
    lg->push_back("got:" + text(done->data));
  };
  e.spawn("serve", serve(&e, &nw, server, &name, &ready));
  e.spawn("call", call(&e, &nw, client, server, &name, &ready, &log));
  e.run();

  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "crash");
  EXPECT_EQ(log[1], "got:pong");
  // Exactly the abandoned request's retransmissions: the second request
  // was retired by the (repaired) cumulative ack before its RTO fired.
  EXPECT_EQ(nw.kernel(NodeId(1)).retries(),
            static_cast<std::uint64_t>(costs.max_transport_attempts - 1));
  EXPECT_TRUE(e.process_failures().empty());
}

// Satellite bugfix pin: a re-ack racing a just-armed retransmit timer.
// The original fragment is dropped; the timeout retransmit gets through
// and its cumulative ack races the next timer tick.  With fixed pacing
// (rto_min == rto_max == ack_timeout) the tick wins: a spurious second
// retransmit goes out and is billed to retries().  With the adaptive
// RTO the backed-off tick loses the race and the counter records
// exactly the one real retransmission.  Both runs must deliver exactly
// once either way.
std::uint64_t run_reack_race(bool adaptive, std::vector<std::string>* log) {
  sim::Engine e;
  net::CsmaBus bus(e, sim::Rng(7));
  // The only ReqFrag copy before 14 ms is the original transmission
  // (at ~11 ms, after the request call's marshalling sleep); the
  // retransmit leaves one RTO later, after the window.
  fault::FaultyMedium fm(
      e, bus, 11,
      fault::Plan{}.drop_between(0, sim::msec(14), 1.0, NodeId(1), NodeId(0)));
  Costs costs;
  costs.ack_timeout = sim::msec(15);
  costs.ack_coalesce_delay = 0;  // ack the retransmit immediately
  if (!adaptive) costs.rto_min = costs.rto_max = costs.ack_timeout;
  // Slow frame handling so the retransmit's ack lands between the
  // fixed tick (one RTO after the retransmit) and the backed-off tick
  // (two RTOs after): the race both pacings are being timed on.
  costs.frame_processing = sim::usec(9000);
  Network nw(e, 2, fm, costs);

  Pid server = nw.create_process(NodeId(0));
  Pid client = nw.create_process(NodeId(1));
  Name name;
  sim::Gate ready(e);
  std::vector<std::string> served;
  e.spawn("serve", serve_n(&nw, server, &name, &ready, 1, &served));
  e.spawn("call", call_n(&nw, client, server, &name, &ready, 1, log));
  e.run();
  EXPECT_EQ(served.size(), 1u);
  EXPECT_TRUE(e.process_failures().empty());
  return nw.kernel(NodeId(1)).retries();
}

TEST(SodaAckProtocol, ReackRaceDoesNotInflateRetransmitsUnderBackoff) {
  std::vector<std::string> fixed_log;
  const std::uint64_t fixed = run_reack_race(false, &fixed_log);
  ASSERT_EQ(fixed_log.size(), 1u);
  EXPECT_EQ(fixed_log[0], "got:pong");
  // Fixed pacing: the second tick fires before the ack arrives — a
  // spurious retransmit is in flight and billed.
  EXPECT_EQ(fixed, 2u);

  std::vector<std::string> adaptive_log;
  const std::uint64_t adaptive = run_reack_race(true, &adaptive_log);
  ASSERT_EQ(adaptive_log.size(), 1u);
  EXPECT_EQ(adaptive_log[0], "got:pong");
  // Backoff doubles the second interval: the ack wins the race and the
  // stats stay honest.
  EXPECT_EQ(adaptive, 1u);
  EXPECT_LT(adaptive, fixed);
}

// Piggybacking: with coalescing on, the request fragments' ack rides
// the accept fragments and the accept's ack rides the next request, so
// the wire carries fewer frames than with every ack sent standalone at
// once (ack_coalesce_delay = 0) — for the identical workload and
// identical delivery log.
TEST(SodaAckProtocol, PiggybackedAcksSaveStandaloneFrames) {
  auto run = [](sim::Duration coalesce, std::vector<std::string>* served,
                std::vector<std::string>* got) {
    sim::Engine e;
    net::CsmaBus bus(e, sim::Rng(7));
    Costs costs;
    costs.ack_timeout = sim::msec(10);
    costs.ack_coalesce_delay = coalesce;
    costs.frame_processing = sim::usec(200);  // accept within the window
    Network nw(e, 2, bus, costs);

    Pid server = nw.create_process(NodeId(0));
    Pid client = nw.create_process(NodeId(1));
    Name name;
    sim::Gate ready(e);
    constexpr int kRounds = 8;
    e.spawn("serve", serve_n(&nw, server, &name, &ready, kRounds, served));
    e.spawn("call", call_n(&nw, client, server, &name, &ready, kRounds, got));
    e.run();
    EXPECT_TRUE(e.process_failures().empty());
    return nw.total_frames();
  };

  std::vector<std::string> served_off, got_off, served_on, got_on;
  const std::uint64_t frames_off = run(0, &served_off, &got_off);
  const std::uint64_t frames_on = run(sim::msec(5), &served_on, &got_on);
  EXPECT_EQ(served_off, served_on);  // identical semantics either way
  EXPECT_EQ(got_off, got_on);
  ASSERT_EQ(got_on.size(), 8u);
  EXPECT_LT(frames_on, frames_off);
}

}  // namespace
}  // namespace soda
