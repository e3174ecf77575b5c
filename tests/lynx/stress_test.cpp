// Property-style parameterized stress tests (TEST_P over seeds and
// backends): randomized multi-client workloads with payload-size sweeps,
// queue open/close churn, link churn, and determinism checks.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "../support/co_check.hpp"
#include "load/universe.hpp"
#include "lynx/lynx.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace lynx {
namespace {

using load::Substrate;
using load::to_string;

// A polymorphic world: one server (node 0) + K clients on the chosen
// substrate, each client wired to the server by one link.
struct MultiWorld {
  MultiWorld(Substrate sub, std::size_t n_clients, std::uint64_t seed)
      : universe(engine, spec_of(sub, n_clients, seed)),
        server(&universe.spawn("server", 0)) {
    for (std::size_t i = 0; i < n_clients; ++i) {
      clients.push_back(&universe.spawn("client" + std::to_string(i), i + 1));
    }
    server_ends.resize(n_clients);
    client_ends.resize(n_clients);
    for (std::size_t i = 0; i < n_clients; ++i) {
      engine.spawn("wire", wire(this, i));
    }
    engine.run();
  }

  static load::UniverseSpec spec_of(Substrate sub, std::size_t n_clients,
                                    std::uint64_t seed) {
    load::UniverseSpec spec;
    spec.substrate = sub;
    // Chrysalis runs on the default 16-node Butterfly.
    spec.nodes = sub == Substrate::kChrysalis ? 16 : n_clients + 1;
    spec.seed = seed;
    return spec;
  }

  static sim::Task<> wire(MultiWorld* w, std::size_t i) {
    auto [a, b] = co_await w->universe.connect(*w->server, *w->clients[i]);
    w->server_ends[i] = a;
    w->client_ends[i] = b;
  }

  sim::Engine engine;
  load::Universe universe;
  Process* server;
  std::vector<Process*> clients;
  std::vector<LinkHandle> server_ends;
  std::vector<LinkHandle> client_ends;
};

// ---- the randomized workload -------------------------------------------------

// Server: serve `total` checksum ops across all links (fair receive).
sim::Task<> checksum_server(ThreadCtx& ctx, std::vector<LinkHandle> links,
                            int total) {
  for (LinkHandle l : links) ctx.enable_requests(l);
  for (int i = 0; i < total; ++i) {
    Incoming in = co_await ctx.receive();
    const auto& data = std::get<Bytes>(in.msg.args.at(1));
    std::int64_t sum = std::accumulate(data.begin(), data.end(),
                                       std::int64_t{0});
    Message rep;
    rep.args.emplace_back(std::get<std::int64_t>(in.msg.args.at(0)));
    rep.args.emplace_back(sum);
    co_await ctx.reply(in, std::move(rep));
  }
}

// Client: `ops` calls with random payload sizes; verifies checksums.
sim::Task<> checksum_client(ThreadCtx& ctx, LinkHandle link, int ops,
                            std::uint64_t seed, int* verified) {
  sim::Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const auto len = static_cast<std::size_t>(rng.next_below(1200));
    Bytes data(len);
    std::int64_t expect = 0;
    for (auto& b : data) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
      expect += b;
    }
    Message req = make_message("checksum", {std::int64_t(i), data});
    Message rep = co_await ctx.call(link, std::move(req));
    CO_CHECK_EQ(std::get<std::int64_t>(rep.args.at(0)), i);
    CO_CHECK_EQ(std::get<std::int64_t>(rep.args.at(1)), expect);
    ++*verified;
  }
}

struct StressParam {
  StressParam(Substrate s, std::uint64_t sd)
      : substrate_id(static_cast<std::uint32_t>(s)), seed(sd) {}
  [[nodiscard]] Substrate substrate() const {
    return static_cast<Substrate>(substrate_id);
  }
  // Zero-extended to 32 bits: gtest names each case with a byte dump of
  // its parameter, and padding next to a one-byte enum would vary it.
  std::uint32_t substrate_id;
  std::uint64_t seed;
};

class StressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(StressTest, RandomizedChecksumWorkloadCompletes) {
  const StressParam p = GetParam();
  constexpr int kClients = 3;
  constexpr int kOpsPerClient = 4;
  MultiWorld w(p.substrate(), kClients, p.seed);
  int verified = 0;
  w.server->spawn_thread("srv", [&](ThreadCtx& ctx) {
    return checksum_server(ctx, w.server_ends, kClients * kOpsPerClient);
  });
  for (int i = 0; i < kClients; ++i) {
    w.clients[static_cast<std::size_t>(i)]->spawn_thread(
        "cli", [&, i](ThreadCtx& ctx) {
          return checksum_client(
              ctx, w.client_ends[static_cast<std::size_t>(i)], kOpsPerClient,
              p.seed * 1000 + static_cast<std::uint64_t>(i), &verified);
        });
  }
  w.engine.run();
  std::string diag;
  for (const auto& f : w.server->thread_failures()) diag += f + "; ";
  for (const auto& c : w.clients) {
    for (const auto& f : c->thread_failures()) diag += f + "; ";
  }
  EXPECT_EQ(verified, kClients * kOpsPerClient)
      << to_string(p.substrate()) << " seed " << p.seed << " :: " << diag;
  EXPECT_TRUE(w.engine.process_failures().empty());
  EXPECT_TRUE(w.server->thread_failures().empty()) << diag;
}

TEST_P(StressTest, WorkloadIsDeterministic) {
  const StressParam p = GetParam();
  auto run = [&] {
    MultiWorld w(p.substrate(), 2, p.seed);
    int verified = 0;
    w.server->spawn_thread("srv", [&](ThreadCtx& ctx) {
      return checksum_server(ctx, w.server_ends, 4);
    });
    for (int i = 0; i < 2; ++i) {
      w.clients[static_cast<std::size_t>(i)]->spawn_thread(
          "cli", [&, i](ThreadCtx& ctx) {
            return checksum_client(
                ctx, w.client_ends[static_cast<std::size_t>(i)], 2,
                p.seed + static_cast<std::uint64_t>(i), &verified);
          });
    }
    w.engine.run();
    return w.engine.now();
  };
  EXPECT_EQ(run(), run());
}

std::string param_name(const ::testing::TestParamInfo<StressParam>& info) {
  return std::string(to_string(info.param.substrate())) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, StressTest,
    ::testing::Values(StressParam{Substrate::kCharlotte, 1},
                      StressParam{Substrate::kCharlotte, 2},
                      StressParam{Substrate::kCharlotte, 3},
                      StressParam{Substrate::kSoda, 1},
                      StressParam{Substrate::kSoda, 2},
                      StressParam{Substrate::kSoda, 3},
                      StressParam{Substrate::kChrysalis, 1},
                      StressParam{Substrate::kChrysalis, 2},
                      StressParam{Substrate::kChrysalis, 3}),
    param_name);

// ---- link churn: create, move, use, destroy, repeat ---------------------------

sim::Task<> churn_client(ThreadCtx& ctx, LinkHandle via, int rounds,
                         int* completed) {
  for (int r = 0; r < rounds; ++r) {
    LocalLinkPair pair = co_await ctx.new_link();
    Message req = make_message("adopt", {pair.end2});
    (void)co_await ctx.call(via, std::move(req));
    Message ping = make_message("ping", {std::int64_t(r)});
    Message rep = co_await ctx.call(pair.end1, std::move(ping));
    CO_CHECK_EQ(std::get<std::int64_t>(rep.args.at(0)), r);
    co_await ctx.destroy(pair.end1);
    ++*completed;
  }
}

sim::Task<> churn_server(ThreadCtx& ctx, LinkHandle via, int rounds) {
  ctx.enable_requests(via);
  for (int r = 0; r < rounds; ++r) {
    Incoming in = co_await ctx.receive();
    LinkHandle got = std::get<LinkHandle>(in.msg.args.at(0));
    Message empty;
    co_await ctx.reply(in, std::move(empty));
    ctx.enable_requests(got);
    Incoming ping = co_await ctx.receive();
    Message rep;
    rep.args = ping.msg.args;
    co_await ctx.reply(ping, std::move(rep));
    // client destroys; we just keep serving the front link
  }
}

class ChurnTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(ChurnTest, LinkLifecycleChurnSurvives) {
  const StressParam p = GetParam();
  MultiWorld w(p.substrate(), 1, p.seed);
  constexpr int kRounds = 5;
  int completed = 0;
  w.server->spawn_thread("srv", [&](ThreadCtx& ctx) {
    return churn_server(ctx, w.server_ends[0], kRounds);
  });
  w.clients[0]->spawn_thread("cli", [&](ThreadCtx& ctx) {
    return churn_client(ctx, w.client_ends[0], kRounds, &completed);
  });
  w.engine.run();
  EXPECT_EQ(completed, kRounds) << to_string(p.substrate());
  EXPECT_TRUE(w.engine.process_failures().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ChurnTest,
    ::testing::Values(StressParam{Substrate::kCharlotte, 7},
                      StressParam{Substrate::kSoda, 7},
                      StressParam{Substrate::kChrysalis, 7}),
    param_name);

// ---- crash injection: server dies mid-burst -----------------------------------

class CrashTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(CrashTest, ServerCrashSurfacesAsExceptionEverywhere) {
  const StressParam p = GetParam();
  MultiWorld w(p.substrate(), 2, p.seed);
  std::vector<std::string> outcomes;
  w.server->spawn_thread("srv", [&](ThreadCtx& ctx) {
    return checksum_server(ctx, w.server_ends, 1000);  // never finishes
  });
  for (int i = 0; i < 2; ++i) {
    w.clients[static_cast<std::size_t>(i)]->spawn_thread(
        "cli", [&, i](ThreadCtx& ctx) {
          return [](ThreadCtx& c, LinkHandle l,
                    std::vector<std::string>* out) -> sim::Task<> {
            try {
              // Long enough that no substrate drains the burst before
              // the 250 ms crash (the ack fast paths finish 100 calls
              // early on Chrysalis).
              for (int k = 0; k < 400; ++k) {
                Message req =
                    make_message("checksum", {std::int64_t(k), Bytes(10, 1)});
                (void)co_await c.call(l, std::move(req));
              }
              out->push_back("finished?!");
            } catch (const LynxError& e) {
              out->push_back(std::string(lynx::to_string(e.kind())));
            }
          }(ctx, w.client_ends[static_cast<std::size_t>(i)], &outcomes);
        });
  }
  // kill the server process mid-burst
  w.engine.schedule(sim::msec(250), [&] { w.server->terminate(); });
  w.engine.run_until(sim::sec(30));
  ASSERT_EQ(outcomes.size(), 2u) << to_string(p.substrate());
  for (const auto& o : outcomes) EXPECT_EQ(o, "link-destroyed");
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, CrashTest,
    ::testing::Values(StressParam{Substrate::kCharlotte, 5},
                      StressParam{Substrate::kSoda, 5},
                      StressParam{Substrate::kChrysalis, 5}),
    param_name);

}  // namespace
}  // namespace lynx
