// Batch-loss recovery (ISSUE 7 satellite): dropping one form::Batch
// frame loses every enclosure in it — all-or-nothing, because the fault
// layer drops whole net::Frames — and each substrate's existing
// recovery machinery must re-deliver all of them.
//
//   * Charlotte: the per-Msg retransmit timer resends until the drop
//     window closes (the retransmits re-batch on their way out).
//   * SODA: transport-level per-fragment acks (Costs::ack_timeout)
//     drive retransmission of every enclosed ReqFrag.
//   * Chrysalis has no wire frames; its formation batches dual-queue
//     notices, and the loss analogue is a batched enqueue finding
//     the queue full — overflow data are dropped exactly as a lone
//     enqueue's would be, the call reports kQueueFull, and the caller
//     (the backend's flags-are-absolute recheck discipline) re-derives
//     and re-posts the hints.  The kernel-level contract is pinned here.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "../support/co_check.hpp"
#include "charlotte/kernel.hpp"
#include "chrysalis/kernel.hpp"
#include "fault/faulty_medium.hpp"
#include "net/csma_bus.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"
#include "soda/kernel.hpp"

namespace form {
namespace {

using net::NodeId;

// ---- Charlotte: dropped batch re-delivered by retransmit timers -----------

charlotte::Payload ch_bytes(std::string s) {
  return charlotte::Payload(s.begin(), s.end());
}
std::string ch_text(const charlotte::Payload& p) {
  return std::string(p.begin(), p.end());
}

sim::Task<> ch_send(charlotte::Cluster* cl, charlotte::Pid me,
                    charlotte::EndId end, std::string body) {
  charlotte::Kernel& k = cl->kernel_of(me);
  CO_CHECK_EQ(co_await k.send(me, end, ch_bytes(std::move(body))),
              charlotte::Status::kOk);
  charlotte::Completion c = co_await k.wait(me);
  CO_CHECK_EQ(c.status, charlotte::Status::kOk);
  CO_CHECK_EQ(c.direction, charlotte::Direction::kSend);
}

sim::Task<> ch_recv(charlotte::Cluster* cl, charlotte::Pid me,
                    charlotte::EndId end, std::vector<std::string>* log,
                    std::vector<sim::Time>* when) {
  charlotte::Kernel& k = cl->kernel_of(me);
  CO_CHECK_EQ(co_await k.receive(me, end, 4096), charlotte::Status::kOk);
  charlotte::Completion c = co_await k.wait(me);
  CO_CHECK_EQ(c.status, charlotte::Status::kOk);
  log->push_back(ch_text(c.data));
  when->push_back(cl->engine().now());
}

TEST(FormBatchLoss, CharlotteDroppedBatchIsFullyRedelivered) {
  sim::Engine e;
  net::TokenRing ring(e);
  // Everything node0 -> node1 dies for the first 100 ms: the initial
  // Msg batch AND its first re-batched retransmissions.  The reverse
  // (ack) direction stays clean.
  constexpr sim::Duration kDark = sim::msec(100);
  fault::FaultyMedium fm(
      e, ring, 21,
      fault::Plan{}.drop_between(0, kDark, 1.0, NodeId(0), NodeId(1)));
  charlotte::Costs costs;
  costs.ack_coalesce_delay = 0;
  costs.form_delay = sim::msec(2);
  costs.send_retransmit_timeout = sim::msec(40);
  costs.max_send_attempts = 10;
  charlotte::Cluster cluster(e, 2, fm, costs);

  // Three sender processes on node 0, all posting at t = 0: their Msg
  // frames leave the kernel within one formation window and share one
  // Batch — the frame the plan kills, losing all three enclosures.
  constexpr int kN = 3;
  std::vector<charlotte::LinkPair> links;
  std::vector<charlotte::Pid> senders;
  std::vector<charlotte::Pid> receivers;
  for (int i = 0; i < kN; ++i) {
    senders.push_back(cluster.create_process(NodeId(0)));
    receivers.push_back(cluster.create_process(NodeId(1)));
    links.push_back(cluster.bootstrap_link(senders.back(), receivers.back()));
  }
  std::vector<std::string> log;
  std::vector<sim::Time> when;
  for (int i = 0; i < kN; ++i) {
    e.spawn("send" + std::to_string(i),
            ch_send(&cluster, senders[i], links[i].end1,
                    "m" + std::to_string(i)));
    e.spawn("recv" + std::to_string(i),
            ch_recv(&cluster, receivers[i], links[i].end2, &log, &when));
  }
  e.run();

  // Every enclosure of the dropped batch arrived exactly once.
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kN));
  std::sort(log.begin(), log.end());
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)], "m" + std::to_string(i));
  }
  EXPECT_TRUE(e.process_failures().empty());

  // The recovery really ran: batches formed, frames were injected-drop
  // casualties, retransmits fired, and nothing landed inside the dark
  // window.
  const sim::Counts& sender = e.counts(0);
  EXPECT_GE(sender.batches_sent, 1u);
  EXPECT_GE(sender.enclosures_batched, static_cast<std::uint64_t>(kN));
  EXPECT_GE(e.total(&sim::Counts::injected_drops), 1u);
  EXPECT_GT(sender.nack_retransmits, 0u);
  for (sim::Time t : when) EXPECT_GT(t, kDark);
}

// ---- SODA: dropped batch re-delivered by transport acks -------------------

soda::Payload so_bytes(std::string s) {
  return soda::Payload(s.begin(), s.end());
}
std::string so_text(const soda::Payload& p) {
  return std::string(p.begin(), p.end());
}

sim::Task<> so_server(soda::Network* nw, soda::Pid me, soda::Name* out,
                      sim::Gate* ready, int n, std::vector<std::string>* log) {
  soda::Kernel& k = nw->kernel_of(me);
  soda::Name name = co_await k.generate_name(me);
  CO_CHECK_EQ(co_await k.advertise(me, name), soda::Status::kOk);
  *out = name;
  ready->open();
  for (int i = 0; i < n; ++i) {
    soda::Interrupt intr = co_await k.next_interrupt(me);
    auto* req = std::get_if<soda::RequestInterrupt>(&intr);
    CO_CHECK(req != nullptr);
    auto taken =
        co_await k.accept(me, req->request, soda::Oob{}, so_bytes("pong"),
                          4096);
    CO_CHECK(taken.ok());
    log->push_back("served:" + so_text(taken.value()));
  }
}

sim::Task<> so_client(soda::Network* nw, soda::Pid me, soda::Pid server,
                      soda::Name* name, sim::Gate* ready, int n,
                      std::vector<std::string>* log,
                      std::vector<sim::Time>* when) {
  co_await ready->wait();
  soda::Kernel& k = nw->kernel_of(me);
  // Back-to-back requests: each request call pays ~2.3 ms of kernel
  // work (call overhead + frame processing), so all n ReqFrags enter
  // the packer inside one 8 ms formation window and leave as a single
  // Batch — the frame the plan kills.
  for (int i = 0; i < n; ++i) {
    auto req = co_await k.request(me, server, *name, soda::Oob{},
                                  so_bytes("p" + std::to_string(i)), 4096);
    CO_CHECK(req.ok());
  }
  for (int i = 0; i < n; ++i) {
    soda::Interrupt intr = co_await k.next_interrupt(me);
    auto* done = std::get_if<soda::CompletionInterrupt>(&intr);
    CO_CHECK(done != nullptr);
    log->push_back("got:" + so_text(done->data));
    when->push_back(nw->engine().now());
  }
}

TEST(FormBatchLoss, SodaDroppedBatchIsFullyRedelivered) {
  sim::Engine e;
  net::CsmaBusParams bus_params;
  bus_params.broadcast_drop_prob = 0.0;
  net::CsmaBus bus(e, sim::Rng(7), bus_params);
  // The client -> server direction is dark for 50 ms; the per-fragment
  // transport retransmit (every 12 ms) carries the batch through once
  // the window closes.  Give-up is 12 attempts = 144 ms, far past it.
  constexpr sim::Duration kDark = sim::msec(50);
  fault::FaultyMedium fm(
      e, bus, 33,
      fault::Plan{}.drop_between(0, kDark, 1.0, NodeId(1), NodeId(0)));
  soda::Costs costs;
  costs.form_delay = sim::msec(8);
  costs.ack_timeout = sim::msec(12);
  costs.max_transport_attempts = 12;
  soda::Network nw(e, 2, fm, costs);

  soda::Pid server = nw.create_process(NodeId(0));
  soda::Pid client = nw.create_process(NodeId(1));
  constexpr int kN = 3;
  soda::Name name;
  sim::Gate ready(e);
  std::vector<std::string> server_log;
  std::vector<std::string> client_log;
  std::vector<sim::Time> when;
  e.spawn("server", so_server(&nw, server, &name, &ready, kN, &server_log));
  e.spawn("client", so_client(&nw, client, server, &name, &ready, kN,
                              &client_log, &when));
  e.run();

  ASSERT_EQ(server_log.size(), static_cast<std::size_t>(kN));
  std::sort(server_log.begin(), server_log.end());
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(server_log[static_cast<std::size_t>(i)],
              "served:p" + std::to_string(i));
  }
  ASSERT_EQ(client_log.size(), static_cast<std::size_t>(kN));
  for (const std::string& got : client_log) EXPECT_EQ(got, "got:pong");
  EXPECT_TRUE(e.process_failures().empty());

  // The batch formed, died, and was re-driven by the transport layer.
  const sim::Counts& sender = e.counts(1);
  EXPECT_GE(sender.batches_sent, 1u);
  EXPECT_GE(sender.enclosures_batched, static_cast<std::uint64_t>(kN));
  EXPECT_GE(e.total(&sim::Counts::injected_drops), 1u);
  for (sim::Time t : when) EXPECT_GT(t, kDark);
}

// ---- Chrysalis: batched notices vs. a full dual queue ---------------------

TEST(FormBatchLoss, ChrysalisBatchedEnqueueSurvivesQueueOverflowViaRetry) {
  sim::Engine e;
  chrysalis::Kernel kernel(e);
  chrysalis::Pid p = kernel.create_process(NodeId(0));

  std::vector<std::uint32_t> got;
  std::vector<chrysalis::Status> sts;
  std::uint64_t dispatches = 0;
  auto prog = [](chrysalis::Kernel* k, chrysalis::Pid pid,
                 std::vector<std::uint32_t>* out,
                 std::vector<chrysalis::Status>* st,
                 std::uint64_t* calls) -> sim::Task<> {
    auto dq = co_await k->make_dual_queue(pid, 2);
    CO_CHECK(dq.ok());
    auto ev = co_await k->make_event(pid);
    CO_CHECK(ev.ok());
    const std::uint64_t before =
        k->engine().total(&sim::Counts::enqueue_calls);
    // Four batched notices against capacity 2: the first two land, the
    // overflow pair is dropped on the floor — hints are hints — and the
    // single dispatch honestly reports the loss.  (gcc can't keep an
    // initializer list's backing array across a co_await suspension, so
    // the batches are named vectors.)
    std::vector<std::uint32_t> first{1, 2, 3, 4};
    st->push_back(co_await k->enqueue(pid, dq.value(), first));
    for (int i = 0; i < 2; ++i) {
      auto o = co_await k->dequeue_many(pid, dq.value(), ev.value(), 1);
      CO_CHECK(o.ok());
      CO_CHECK(!o.value().would_block);
      out->push_back(o.value().data.front());
    }
    // The caller's recovery — Chrysalis flags are ABSOLUTE, so the
    // recheck discipline re-derives the lost hints and re-posts them.
    std::vector<std::uint32_t> retry{3, 4};
    st->push_back(co_await k->enqueue(pid, dq.value(), retry));
    for (int i = 0; i < 2; ++i) {
      auto o = co_await k->dequeue_many(pid, dq.value(), ev.value(), 1);
      CO_CHECK(o.ok());
      CO_CHECK(!o.value().would_block);
      out->push_back(o.value().data.front());
    }
    *calls = k->engine().total(&sim::Counts::enqueue_calls) - before;
  };
  e.spawn("p", prog(&kernel, p, &got, &sts, &dispatches));
  e.run();

  ASSERT_EQ(sts.size(), 2u);
  EXPECT_EQ(sts[0], chrysalis::Status::kQueueFull);  // overflow reported
  EXPECT_EQ(sts[1], chrysalis::Status::kOk);         // retry delivered
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 3, 4}));  // FIFO kept
  // Six data moved in two dispatches — the frames-per-message analogue
  // Chrysalis formation is measured by (sim::Counts::enqueue_calls, E16).
  EXPECT_EQ(dispatches, 2u);
  EXPECT_TRUE(e.process_failures().empty());
}

}  // namespace
}  // namespace form
