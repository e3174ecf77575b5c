// Unit / integration tests for the simulated SODA kernel.
#include "soda/kernel.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../support/co_check.hpp"
#include "net/csma_bus.hpp"
#include "sim/engine.hpp"

namespace soda {
namespace {

using net::NodeId;

Payload bytes(std::string s) { return Payload(s.begin(), s.end()); }
std::string text(const Payload& p) { return std::string(p.begin(), p.end()); }

struct World {
  explicit World(double drop = 0.0, std::size_t nodes = 4)
      : bus(engine, sim::Rng(42), {.broadcast_drop_prob = drop}),
        network(engine, nodes, bus) {}
  sim::Engine engine;
  net::CsmaBus bus;
  Network network;
};

// ---- names & discover ------------------------------------------------------

sim::Task<> advertiser(Network* nw, Pid me, Name* out, sim::Gate* ready) {
  Kernel& k = nw->kernel_of(me);
  Name n = co_await k.generate_name(me);
  CO_CHECK_EQ(co_await k.advertise(me, n), Status::kOk);
  *out = n;
  ready->open();
}

sim::Task<> discoverer(Network* nw, Pid me, Name* name, sim::Gate* ready,
                       std::vector<std::string>* log) {
  co_await ready->wait();
  Kernel& k = nw->kernel_of(me);
  auto found = co_await k.discover(me, *name);
  log->push_back(found.has_value()
                     ? "found:" + std::to_string(found->value())
                     : "not-found");
}

TEST(SodaKernel, DiscoverFindsAdvertisedName) {
  World w;
  Pid a = w.network.create_process(NodeId(0));
  Pid b = w.network.create_process(NodeId(1));
  Name name;
  sim::Gate ready(w.engine);
  std::vector<std::string> log;
  w.engine.spawn("adv", advertiser(&w.network, a, &name, &ready));
  w.engine.spawn("disc", discoverer(&w.network, b, &name, &ready, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "found:" + std::to_string(a.value()));
}

TEST(SodaKernel, DiscoverTimesOutOnUnknownName) {
  World w;
  Pid b = w.network.create_process(NodeId(1));
  sim::Gate ready(w.engine);
  ready.open();
  Name bogus(777);
  std::vector<std::string> log;
  w.engine.spawn("disc", discoverer(&w.network, b, &bogus, &ready, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "not-found");
}

TEST(SodaKernel, GeneratedNamesAreUnique) {
  World w;
  Pid a = w.network.create_process(NodeId(0));
  auto prog = [](Network* nw, Pid me, std::vector<Name>* out) -> sim::Task<> {
    Kernel& k = nw->kernel_of(me);
    for (int i = 0; i < 10; ++i) out->push_back(co_await k.generate_name(me));
  };
  std::vector<Name> names;
  w.engine.spawn("p", prog(&w.network, a, &names));
  w.engine.run();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

// ---- put / accept round trip -------------------------------------------------

// Server: advertise, wait for a request interrupt, accept with a reply.
sim::Task<> echo_server(Network* nw, Pid me, Name* out, sim::Gate* ready,
                        std::vector<std::string>* log) {
  Kernel& k = nw->kernel_of(me);
  Name n = co_await k.generate_name(me);
  CO_CHECK_EQ(co_await k.advertise(me, n), Status::kOk);
  *out = n;
  ready->open();
  Interrupt intr = co_await k.next_interrupt(me);
  auto* req = std::get_if<RequestInterrupt>(&intr);
  CO_CHECK(req != nullptr);
  log->push_back("server-oob:" + std::to_string(req->oob[0]));
  auto taken = co_await k.accept(me, req->request, Oob{9, 0},
                                 bytes("pong"), 4096);
  CO_CHECK(taken.ok());
  log->push_back("server-got:" + text(taken.value()));
}

sim::Task<> echo_client(Network* nw, Pid me, Pid server, Name* name,
                        sim::Gate* ready, std::vector<std::string>* log) {
  co_await ready->wait();
  Kernel& k = nw->kernel_of(me);
  auto req = co_await k.request(me, server, *name, Oob{5, 0}, bytes("ping"),
                                4096);
  CO_CHECK(req.ok());
  Interrupt intr = co_await k.next_interrupt(me);
  auto* done = std::get_if<CompletionInterrupt>(&intr);
  CO_CHECK(done != nullptr);
  CO_CHECK_EQ(done->request, req.value());
  log->push_back("client-got:" + text(done->data) + "/oob:" +
                 std::to_string(done->oob[0]));
}

TEST(SodaKernel, ExchangeRoundTrip) {
  World w;
  Pid s = w.network.create_process(NodeId(0));
  Pid c = w.network.create_process(NodeId(1));
  Name name;
  sim::Gate ready(w.engine);
  std::vector<std::string> log;
  w.engine.spawn("server", echo_server(&w.network, s, &name, &ready, &log));
  w.engine.spawn("client",
                 echo_client(&w.network, c, s, &name, &ready, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "server-oob:5");
  EXPECT_EQ(log[1], "server-got:ping");
  EXPECT_EQ(log[2], "client-got:pong/oob:9");
  EXPECT_TRUE(w.engine.process_failures().empty());
}

TEST(SodaKernel, LargePayloadIsFragmentedAndReassembled) {
  World w;
  Pid s = w.network.create_process(NodeId(0));
  Pid c = w.network.create_process(NodeId(1));
  Name name;
  sim::Gate ready(w.engine);
  std::vector<std::string> log;
  std::string big(1000, 'x');
  big[0] = 'A';
  big[999] = 'Z';

  auto server = [](Network* nw, Pid me, Name* out, sim::Gate* rd,
                   std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = nw->kernel_of(me);
    Name n = co_await k.generate_name(me);
    CO_CHECK_EQ(co_await k.advertise(me, n), Status::kOk);
    *out = n;
    rd->open();
    Interrupt intr = co_await k.next_interrupt(me);
    auto* req = std::get_if<RequestInterrupt>(&intr);
    CO_CHECK(req != nullptr);
    CO_CHECK_EQ(req->send_bytes, 1000u);
    auto taken = co_await k.accept(me, req->request, Oob{}, {}, 4096);
    CO_CHECK(taken.ok());
    CO_CHECK_EQ(taken.value().size(), 1000u);
    lg->push_back(std::string("edges:") +
                  static_cast<char>(taken.value().front()) +
                  static_cast<char>(taken.value().back()));
  };
  auto big_client = [](Network* nw, Pid me, Pid server_pid, Name* nm,
                       sim::Gate* rd, Payload data,
                       std::vector<std::string>* lg) -> sim::Task<> {
    co_await rd->wait();
    Kernel& k = nw->kernel_of(me);
    auto req = co_await k.request(me, server_pid, *nm, Oob{}, std::move(data),
                                  0);
    CO_CHECK(req.ok());
    Interrupt intr = co_await k.next_interrupt(me);
    CO_CHECK(std::holds_alternative<CompletionInterrupt>(intr));
    lg->push_back("client-done");
  };
  w.engine.spawn("server", server(&w.network, s, &name, &ready, &log));
  w.engine.spawn("client",
                 big_client(&w.network, c, s, &name, &ready,
                            Payload(big.begin(), big.end()), &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "edges:AZ");
  EXPECT_EQ(log[1], "client-done");
  // 1000 B at 256 B MTU = 4 request fragments (+1 accept frame).
  EXPECT_GE(w.engine.total(&sim::Counts::frames_emitted), 5u);
}

// ---- handler masking / retry ----------------------------------------------------

sim::Task<> masked_server(Network* nw, Pid me, Name* out, sim::Gate* ready,
                          std::vector<std::string>* log) {
  Kernel& k = nw->kernel_of(me);
  Name n = co_await k.generate_name(me);
  CO_CHECK_EQ(co_await k.advertise(me, n), Status::kOk);
  k.close_handler(me);  // masked: requests must be NACKed + retried
  *out = n;
  ready->open();
  co_await nw->engine().sleep(sim::msec(60));
  k.open_handler(me);
  Interrupt intr = co_await k.next_interrupt(me);
  auto* req = std::get_if<RequestInterrupt>(&intr);
  CO_CHECK(req != nullptr);
  auto taken = co_await k.accept(me, req->request, Oob{}, {}, 100);
  CO_CHECK(taken.ok());
  log->push_back("served-after-unmask");
}

TEST(SodaKernel, ClosedHandlerDelaysRequestViaKernelRetry) {
  World w;
  Pid s = w.network.create_process(NodeId(0));
  Pid c = w.network.create_process(NodeId(1));
  Name name;
  sim::Gate ready(w.engine);
  std::vector<std::string> log;
  w.engine.spawn("server", masked_server(&w.network, s, &name, &ready, &log));
  w.engine.spawn("client",
                 echo_client(&w.network, c, s, &name, &ready, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "served-after-unmask");
  EXPECT_GT(w.engine.counts(1).retries, 0u);
}

TEST(SodaKernel, UnadvertisedNameEventuallyRejects) {
  World w;
  Pid s = w.network.create_process(NodeId(0));
  Pid c = w.network.create_process(NodeId(1));
  std::vector<std::string> log;
  auto client = [](Network* nw, Pid me, Pid target,
                   std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = nw->kernel_of(me);
    auto req = co_await k.request(me, target, Name(424242), Oob{}, {}, 0);
    CO_CHECK(req.ok());
    Interrupt intr = co_await k.next_interrupt(me);
    CO_CHECK(std::holds_alternative<RejectInterrupt>(intr));
    lg->push_back("rejected");
  };
  w.engine.spawn("client", client(&w.network, c, s, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "rejected");
}

// ---- crash notification ------------------------------------------------------

TEST(SodaKernel, DeathBeforeAcceptRaisesCrashInterrupt) {
  World w;
  Pid s = w.network.create_process(NodeId(0));
  Pid c = w.network.create_process(NodeId(1));
  Name name;
  sim::Gate ready(w.engine);
  std::vector<std::string> log;

  auto server = [](Network* nw, Pid me, Name* out,
                   sim::Gate* rd) -> sim::Task<> {
    Kernel& k = nw->kernel_of(me);
    Name n = co_await k.generate_name(me);
    CO_CHECK_EQ(co_await k.advertise(me, n), Status::kOk);
    *out = n;
    rd->open();
    // Take the interrupt but never accept; die instead.
    Interrupt intr = co_await k.next_interrupt(me);
    CO_CHECK(std::holds_alternative<RequestInterrupt>(intr));
    nw->terminate(me);
  };
  auto client = [](Network* nw, Pid me, Pid target, Name* nm, sim::Gate* rd,
                   std::vector<std::string>* lg) -> sim::Task<> {
    co_await rd->wait();
    Kernel& k = nw->kernel_of(me);
    auto req = co_await k.request(me, target, *nm, Oob{}, bytes("hi"), 0);
    CO_CHECK(req.ok());
    Interrupt intr = co_await k.next_interrupt(me);
    CO_CHECK(std::holds_alternative<CrashInterrupt>(intr));
    lg->push_back("crash-detected");
  };
  w.engine.spawn("server", server(&w.network, s, &name, &ready));
  w.engine.spawn("client",
                 client(&w.network, c, s, &name, &ready, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "crash-detected");
}

TEST(SodaKernel, RequestToDeadProcessCrashes) {
  World w;
  Pid s = w.network.create_process(NodeId(0));
  Pid c = w.network.create_process(NodeId(1));
  w.network.terminate(s);
  std::vector<std::string> log;
  auto client = [](Network* nw, Pid me, Pid target,
                   std::vector<std::string>* lg) -> sim::Task<> {
    Kernel& k = nw->kernel_of(me);
    auto req = co_await k.request(me, target, Name(1), Oob{}, {}, 0);
    CO_CHECK(req.ok());
    Interrupt intr = co_await k.next_interrupt(me);
    CO_CHECK(std::holds_alternative<CrashInterrupt>(intr));
    lg->push_back("dead");
  };
  w.engine.spawn("client", client(&w.network, c, s, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "dead");
}

// ---- per-pair limit ------------------------------------------------------------

TEST(SodaKernel, PerPairOutstandingLimitEnforced) {
  World w;
  Pid s = w.network.create_process(NodeId(0));
  Pid c = w.network.create_process(NodeId(1));
  std::vector<Status> sts;
  auto client = [](Network* nw, Pid me, Pid target,
                   std::vector<Status>* out) -> sim::Task<> {
    Kernel& k = nw->kernel_of(me);
    for (int i = 0; i < 10; ++i) {
      auto r = co_await k.request(me, target, Name(50), Oob{}, {}, 0);
      out->push_back(r.ok() ? Status::kOk : r.error());
    }
  };
  w.engine.spawn("client", client(&w.network, c, s, &sts));
  w.engine.run_until(sim::msec(80));  // before rejects drain the pair count
  ASSERT_EQ(sts.size(), 10u);
  int ok = 0, limited = 0;
  for (Status st : sts) {
    if (st == Status::kOk) ++ok;
    if (st == Status::kTooManyRequests) ++limited;
  }
  EXPECT_EQ(ok, 8);  // default max_outstanding_per_pair
  EXPECT_EQ(limited, 2);
}

// ---- unreliable broadcast -------------------------------------------------------

TEST(SodaKernel, DiscoverIsUnreliableUnderDrops) {
  // With a very lossy bus, discover sometimes fails even though the name
  // exists — the property the LYNX mapping's heuristics must tolerate.
  int found = 0, lost = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    sim::Engine engine;
    net::CsmaBus bus(engine, sim::Rng(seed), {.broadcast_drop_prob = 0.5});
    Network nw(engine, 3, bus);
    Pid a = nw.create_process(NodeId(0));
    Pid b = nw.create_process(NodeId(1));
    Name name;
    sim::Gate ready(engine);
    std::vector<std::string> log;
    engine.spawn("adv", advertiser(&nw, a, &name, &ready));
    engine.spawn("disc", discoverer(&nw, b, &name, &ready, &log));
    engine.run();
    if (log.at(0).starts_with("found")) {
      ++found;
    } else {
      ++lost;
    }
  }
  EXPECT_GT(found, 5);
  EXPECT_GT(lost, 2);
}

}  // namespace
}  // namespace soda
