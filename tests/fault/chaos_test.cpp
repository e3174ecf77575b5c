// Chaos tests: the three kernels running over an impaired medium.
//
// The point of the suite is the paper's §2/§3.1 contrast made
// executable: under a cut link, Charlotte (full link-state knowledge)
// raises an *absolute* failure notice — kLinkFailed — while SODA
// (hints + timeout) first retries and only eventually gives up or,
// if the cut heals in time, converges as if nothing happened.
// Chrysalis needs no test here: its processes share one Butterfly
// memory and never touch a Medium, so the fault layer has nothing to
// break.  Every scenario runs under an InvariantChecker.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "../support/co_check.hpp"
#include "charlotte/kernel.hpp"
#include "fault/faulty_medium.hpp"
#include "fault/invariant_checker.hpp"
#include "net/csma_bus.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"
#include "soda/kernel.hpp"

namespace fault {
namespace {

using net::NodeId;

// ===================== Charlotte under link cuts =====================

charlotte::Payload ch_bytes(std::string s) {
  return charlotte::Payload(s.begin(), s.end());
}

// Wires a FaultyMedium's topology events into a Charlotte cluster: cuts
// become sever() notices, crashes become node-down notices.  This is
// the "distributed kernel knows the state of every link" half of the
// paper's contrast.
void wire_charlotte_notices(FaultyMedium& fm, charlotte::Cluster& cluster) {
  fm.observe_faults([&cluster](const FaultRecord& r) {
    if (r.kind == FaultKind::kCut) cluster.sever(r.src, r.dst);
  });
  fm.on_crash([&cluster](NodeId n) { cluster.notify_node_down(n); });
}

sim::Task<> ch_expect_failed_send(charlotte::Cluster* cl, charlotte::Pid me,
                                  charlotte::EndId end,
                                  std::vector<std::string>* log) {
  charlotte::Kernel& k = cl->kernel_of(me);
  charlotte::Status st = co_await k.send(me, end, ch_bytes("doomed"));
  CO_CHECK_EQ(st, charlotte::Status::kOk);  // posted fine; the wire is cut
  charlotte::Completion c = co_await k.wait(me);
  log->push_back(std::string("send:") + charlotte::to_string(c.status));
}

sim::Task<> ch_expect_failed_recv(charlotte::Cluster* cl, charlotte::Pid me,
                                  charlotte::EndId end,
                                  std::vector<std::string>* log) {
  charlotte::Kernel& k = cl->kernel_of(me);
  charlotte::Status st = co_await k.receive(me, end, 4096);
  CO_CHECK_EQ(st, charlotte::Status::kOk);
  charlotte::Completion c = co_await k.wait(me);
  log->push_back(std::string("recv:") + charlotte::to_string(c.status));
}

TEST(Chaos, CharlotteCutGivesPromptAbsoluteFailureNotice) {
  // The fault layer tells the cluster about the cut (as Charlotte's
  // real distributed kernel would know); both pending activities fail
  // with kLinkFailed immediately — no retransmission needed, and in
  // fact no retransmit timer is even enabled.
  sim::Engine e;
  net::TokenRing ring(e);
  FaultyMedium fm(e, ring, 21,
                  Plan{}.cut_link(sim::msec(200), NodeId(0), NodeId(1)));
  InvariantChecker check(fm);
  charlotte::Cluster cluster(e, 2, fm);
  wire_charlotte_notices(fm, cluster);

  charlotte::Pid a = cluster.create_process(NodeId(0));
  charlotte::Pid b = cluster.create_process(NodeId(1));
  charlotte::LinkPair link = cluster.bootstrap_link(a, b);

  std::vector<std::string> log;
  // Both sides park a receive; neither would ever learn anything from
  // the (silent) wire.  The notice is what fails them — promptly, and
  // with no retransmit machinery enabled at all.
  e.spawn("recv-a", ch_expect_failed_recv(&cluster, a, link.end1, &log));
  e.spawn("recv-b", ch_expect_failed_recv(&cluster, b, link.end2, &log));
  e.run();

  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "recv:link-failed");
  EXPECT_EQ(log[1], "recv:link-failed");
  // The notice arrived at the cut, not after some timeout-and-retry
  // dance: the run ends as soon as the failure fans out.
  EXPECT_LT(e.now(), sim::msec(250));
  EXPECT_TRUE(check.ok()) << check.violations().front();
  EXPECT_TRUE(e.process_failures().empty());
}

TEST(Chaos, CharlotteRetransmitExhaustionDeclaresLinkFailed) {
  // No notice wiring this time: the kernel must *discover* the failure
  // through its own retransmission protocol and still end with the
  // same absolute kLinkFailed — never a silent hang.
  sim::Engine e;
  net::TokenRing ring(e);
  FaultyMedium fm(e, ring, 22,
                  Plan{}.cut_link(0, NodeId(0), NodeId(1)));
  InvariantChecker check(fm);
  charlotte::Costs costs;
  costs.send_retransmit_timeout = sim::msec(100);
  charlotte::Cluster cluster(e, 2, fm, costs);

  charlotte::Pid a = cluster.create_process(NodeId(0));
  charlotte::Pid b = cluster.create_process(NodeId(1));
  charlotte::LinkPair link = cluster.bootstrap_link(a, b);

  std::vector<std::string> log;
  e.spawn("send", ch_expect_failed_send(&cluster, a, link.end1, &log));
  e.run();

  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "send:link-failed");
  EXPECT_GT(e.counts(0).nack_retransmits, 0u);
  EXPECT_TRUE(check.ok()) << check.violations().front();
  EXPECT_TRUE(e.process_failures().empty());
}

TEST(Chaos, CharlotteSurvivesLossyRingWithRetransmission) {
  // Background loss, no cut: every Msg/Ack eventually gets through and
  // the round trip completes exactly once (the dedupe ring absorbs
  // retransmitted copies).
  sim::Engine e;
  net::TokenRing ring(e);
  FaultyMedium fm(e, ring, 23,
                  Plan{}.background({.drop_prob = 0.3}));
  InvariantChecker check(fm);
  charlotte::Costs costs;
  costs.send_retransmit_timeout = sim::msec(100);
  charlotte::Cluster cluster(e, 2, fm, costs);

  charlotte::Pid a = cluster.create_process(NodeId(0));
  charlotte::Pid b = cluster.create_process(NodeId(1));
  charlotte::LinkPair link = cluster.bootstrap_link(a, b);

  std::vector<std::string> log;
  constexpr int kRounds = 8;
  auto sender = [](charlotte::Cluster* cl, charlotte::Pid me,
                   charlotte::EndId end,
                   std::vector<std::string>* lg) -> sim::Task<> {
    charlotte::Kernel& k = cl->kernel_of(me);
    for (int i = 0; i < kRounds; ++i) {
      CO_CHECK_EQ(co_await k.send(me, end, ch_bytes("hello")),
                  charlotte::Status::kOk);
      charlotte::Completion c = co_await k.wait(me);
      CO_CHECK_EQ(c.status, charlotte::Status::kOk);
    }
    lg->push_back("send:done");
  };
  auto receiver = [](charlotte::Cluster* cl, charlotte::Pid me,
                     charlotte::EndId end,
                     std::vector<std::string>* lg) -> sim::Task<> {
    charlotte::Kernel& k = cl->kernel_of(me);
    for (int i = 0; i < kRounds; ++i) {
      CO_CHECK_EQ(co_await k.receive(me, end, 4096), charlotte::Status::kOk);
      charlotte::Completion c = co_await k.wait(me);
      CO_CHECK_EQ(c.status, charlotte::Status::kOk);
      CO_CHECK_EQ(std::string(c.data.begin(), c.data.end()), "hello");
    }
    lg->push_back("recv:done");
  };
  e.spawn("recv", receiver(&cluster, b, link.end2, &log));
  e.spawn("send", sender(&cluster, a, link.end1, &log));
  e.run();

  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "recv:done");
  EXPECT_EQ(log[1], "send:done");
  EXPECT_GT(e.total(&sim::Counts::injected_drops), 0u);
  EXPECT_TRUE(check.ok()) << check.violations().front();
  EXPECT_TRUE(e.process_failures().empty());
}

// ===================== SODA under cuts and loss =====================

soda::Payload so_bytes(std::string s) {
  return soda::Payload(s.begin(), s.end());
}

sim::Task<> so_server(soda::Network* nw, soda::Pid me, soda::Name* out,
                      sim::Gate* ready, std::vector<std::string>* log) {
  soda::Kernel& k = nw->kernel_of(me);
  soda::Name n = co_await k.generate_name(me);
  CO_CHECK_EQ(co_await k.advertise(me, n), soda::Status::kOk);
  *out = n;
  ready->open();
  soda::Interrupt intr = co_await k.next_interrupt(me);
  auto* req = std::get_if<soda::RequestInterrupt>(&intr);
  CO_CHECK(req != nullptr);
  auto taken = co_await k.accept(me, req->request, soda::Oob{1, 0},
                                 so_bytes("pong"), 4096);
  CO_CHECK(taken.ok());
  log->push_back("server-got:" +
                 std::string(taken.value().begin(), taken.value().end()));
}

sim::Task<> so_client(soda::Network* nw, soda::Pid me, soda::Pid server,
                      soda::Name* name, sim::Gate* ready,
                      std::vector<std::string>* log) {
  co_await ready->wait();
  soda::Kernel& k = nw->kernel_of(me);
  auto req = co_await k.request(me, server, *name, soda::Oob{}, so_bytes("ping"),
                                4096);
  CO_CHECK(req.ok());
  soda::Interrupt intr = co_await k.next_interrupt(me);
  if (auto* done = std::get_if<soda::CompletionInterrupt>(&intr)) {
    log->push_back("client-got:" +
                   std::string(done->data.begin(), done->data.end()));
  } else if (std::get_if<soda::CrashInterrupt>(&intr) != nullptr) {
    log->push_back("client-crashnote");
  } else {
    log->push_back("client-rejected");
  }
}

soda::Costs soda_ack_costs() {
  soda::Costs c;
  c.ack_timeout = sim::msec(10);
  return c;
}

TEST(Chaos, SodaConvergesWhenCutHealsBeforeTimeout) {
  // The cut opens just as the request goes out and heals well inside
  // the retransmission budget: SODA's per-fragment acks + retries carry
  // the rendezvous through with no application-visible anomaly.  This
  // is the "out-of-date hints" half of the contrast — nothing tells
  // SODA about the cut; it just keeps trying.
  sim::Engine e;
  net::CsmaBus bus(e, sim::Rng(7));
  FaultyMedium fm(e, bus, 31,
                  Plan{}
                      .cut_link(sim::msec(4), NodeId(0), NodeId(1))
                      .heal_all(sim::msec(30)));
  InvariantChecker check(fm);
  soda::Network nw(e, 2, fm, soda_ack_costs());

  soda::Pid s = nw.create_process(NodeId(0));
  soda::Pid c = nw.create_process(NodeId(1));
  soda::Name name;
  sim::Gate ready(e);
  std::vector<std::string> log;
  e.spawn("server", so_server(&nw, s, &name, &ready, &log));
  e.spawn("client", so_client(&nw, c, s, &name, &ready, &log));
  e.run();

  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "server-got:ping");
  EXPECT_EQ(log[1], "client-got:pong");
  EXPECT_GT(e.counts(1).retries, 0u);
  EXPECT_TRUE(check.ok()) << check.violations().front();
  EXPECT_TRUE(e.process_failures().empty());
}

TEST(Chaos, SodaEventuallyTimesOutOnPermanentCut) {
  // The same scenario without the heal: no notice ever arrives, so the
  // client burns through max_transport_attempts and concludes — by
  // timeout alone — that the target is gone (CrashInterrupt).
  sim::Engine e;
  net::CsmaBus bus(e, sim::Rng(7));
  FaultyMedium fm(e, bus, 32,
                  Plan{}.cut_link(sim::msec(4), NodeId(0), NodeId(1)));
  InvariantChecker check(fm);
  soda::Network nw(e, 2, fm, soda_ack_costs());

  soda::Pid s = nw.create_process(NodeId(0));
  soda::Pid c = nw.create_process(NodeId(1));
  soda::Name name;
  sim::Gate ready(e);
  std::vector<std::string> log;
  e.spawn("server", so_server(&nw, s, &name, &ready, &log));
  e.spawn("client", so_client(&nw, c, s, &name, &ready, &log));
  e.run();

  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back(), "client-crashnote");
  EXPECT_TRUE(check.ok()) << check.violations().front();
}

TEST(Chaos, SodaSurvivesDuplicatingLossyBus) {
  // Heavy background impairment, duplicates included: the per-fragment
  // bitmaps and the done-ring must keep the exchange exactly-once.
  sim::Engine e;
  net::CsmaBus bus(e, sim::Rng(7));
  FaultyMedium fm(e, bus, 33,
                  Plan{}.background({.drop_prob = 0.2,
                                     .duplicate_prob = 0.2,
                                     .max_jitter = sim::usec(400)}));
  InvariantChecker check(fm);
  soda::Network nw(e, 2, fm, soda_ack_costs());

  soda::Pid s = nw.create_process(NodeId(0));
  soda::Pid c = nw.create_process(NodeId(1));
  soda::Name name;
  sim::Gate ready(e);
  std::vector<std::string> log;
  e.spawn("server", so_server(&nw, s, &name, &ready, &log));
  e.spawn("client", so_client(&nw, c, s, &name, &ready, &log));
  e.run();

  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "server-got:ping");
  EXPECT_EQ(log[1], "client-got:pong");
  EXPECT_TRUE(check.ok()) << check.violations().front();
  EXPECT_TRUE(e.process_failures().empty());
}

// ===================== seed sweep =====================

TEST(Chaos, HundredSeedSweepHoldsInvariants) {
  // 100 different fault universes; every run must hold all medium-level
  // invariants, and the rendezvous must always *resolve* — completion
  // or crash notice, never a hang (the engine drains either way).
  int converged = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    sim::Engine e;
    net::CsmaBus bus(e, sim::Rng(7));
    FaultyMedium fm(e, bus, seed,
                    Plan{}.background({.drop_prob = 0.15,
                                       .duplicate_prob = 0.1,
                                       .corrupt_prob = 0.05,
                                       .max_jitter = sim::usec(300)}));
    InvariantChecker check(fm);
    soda::Network nw(e, 3, fm, soda_ack_costs());

    soda::Pid s = nw.create_process(NodeId(0));
    soda::Pid c = nw.create_process(NodeId(1));
    soda::Name name;
    sim::Gate ready(e);
    std::vector<std::string> log;
    e.spawn("server", so_server(&nw, s, &name, &ready, &log));
    e.spawn("client", so_client(&nw, c, s, &name, &ready, &log));
    e.run();

    ASSERT_TRUE(check.ok())
        << "seed " << seed << ": " << check.violations().front();
    ASSERT_TRUE(e.process_failures().empty()) << "seed " << seed;
    if (log.size() == 2 && log[1] == "client-got:pong") ++converged;
  }
  // Impairment is stiff but survivable; most universes should converge.
  EXPECT_GT(converged, 60);
}

}  // namespace
}  // namespace fault
