// Heap allocations per RPC on each substrate, with a ceiling.
//
// This executable replaces the global operator new with a counting one
// (which is why it is its own binary) and drives a fixed echo run: one
// client calling one server over a bootstrap link, the calibrated
// default costs.  The 64-byte echo is the fixed per-message cost; the
// 1.8 KB echo is the bulk regime, where SODA fragments the body; the
// formation runs send through the RPC-formation packer.  Simulated
// results do not depend on how many allocations the host makes, so
// nothing else would notice a runtime, backend or kernel change that
// starts copying message bodies again (each copy of a body is one more
// allocation) or a table that goes back to allocating a node per entry.
// The ceilings sit a little above the current counts; lower them when a
// change cuts more.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "load/universe.hpp"
#include "lynx/lynx.hpp"
#include "sim/engine.hpp"

namespace {

std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace load {
namespace {

using lynx::Bytes;
using lynx::Incoming;
using lynx::LinkHandle;
using lynx::Message;
using lynx::ThreadCtx;

constexpr int kWarmup = 20;
constexpr int kMeasured = 200;

sim::Task<> echo_server(ThreadCtx& ctx, LinkHandle link) {
  ctx.enable_requests(link);
  for (;;) {
    Incoming in = co_await ctx.receive();
    Message rep;
    rep.args = std::move(in.msg.args);
    co_await ctx.reply(in, std::move(rep));
  }
}

Message echo_request(const Bytes& body) {
  return lynx::make_message("echo", {body});
}

sim::Task<> echo_client(ThreadCtx& ctx, LinkHandle link,
                        std::size_t body_bytes, std::uint64_t* allocations) {
  const Bytes body(body_bytes, 0x5a);
  for (int i = 0; i < kWarmup; ++i) {
    (void)co_await ctx.call(link, echo_request(body));
  }
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < kMeasured; ++i) {
    (void)co_await ctx.call(link, echo_request(body));
  }
  *allocations = g_allocations - before;
}

sim::Task<> wire(Universe* u, lynx::Process* client, lynx::Process* server,
                 std::size_t body_bytes, std::uint64_t* allocations) {
  auto [ce, se] = co_await u->connect(*client, *server);
  server->spawn_thread("echo", [se](ThreadCtx& ctx) {
    return echo_server(ctx, se);
  });
  client->spawn_thread("client", [ce, body_bytes, allocations](ThreadCtx& ctx) {
    return echo_client(ctx, ce, body_bytes, allocations);
  });
}

struct Echo {
  Substrate substrate;
  std::size_t body_bytes = 64;
  bool formation = false;
};

double allocations_per_rpc(const Echo& echo) {
  sim::Engine engine;
  UniverseSpec spec;
  spec.substrate = echo.substrate;
  if (echo.formation) spec.with_formation(sim::msec(5));
  Universe u(engine, spec);
  lynx::Process& client = u.spawn("client", 0);
  lynx::Process& server = u.spawn("server", 1);
  std::uint64_t allocations = 0;
  engine.spawn("wire", wire(&u, &client, &server, echo.body_bytes,
                            &allocations));
  engine.run();
  EXPECT_EQ(engine.counts(0).operations_completed,  // the client's node
            static_cast<std::uint64_t>(kWarmup + kMeasured));
  return static_cast<double>(allocations) / kMeasured;
}

double recorded(const Echo& echo) {
  const double per_rpc = allocations_per_rpc(echo);
  ::testing::Test::RecordProperty("allocations_per_rpc",
                                  std::to_string(per_rpc));
  return per_rpc;
}

constexpr std::size_t kBulk = 1800;

TEST(AllocCount, CharlotteEchoStaysUnderCeiling) {
  EXPECT_LE(recorded({Substrate::kCharlotte}), 18.0);  // 16.9 measured
}

TEST(AllocCount, SodaEchoStaysUnderCeiling) {
  EXPECT_LE(recorded({Substrate::kSoda}), 29.0);  // 25.1 measured
}

TEST(AllocCount, ChrysalisEchoStaysUnderCeiling) {
  EXPECT_LE(recorded({Substrate::kChrysalis}), 18.0);  // 16.0 measured
}

TEST(AllocCount, CharlotteBulkEchoStaysUnderCeiling) {
  EXPECT_LE(recorded({Substrate::kCharlotte, kBulk}), 18.0);  // 16.9 measured
}

TEST(AllocCount, SodaBulkEchoStaysUnderCeiling) {
  EXPECT_LE(recorded({Substrate::kSoda, kBulk}), 35.0);  // 31.1 measured
}

TEST(AllocCount, ChrysalisBulkEchoStaysUnderCeiling) {
  EXPECT_LE(recorded({Substrate::kChrysalis, kBulk}), 18.0);  // 16.0 measured
}

TEST(AllocCount, CharlotteFormationEchoStaysUnderCeiling) {
  EXPECT_LE(recorded({Substrate::kCharlotte, 64, true}), 18.0);  // 16.9 measured
}

TEST(AllocCount, SodaFormationEchoStaysUnderCeiling) {
  EXPECT_LE(recorded({Substrate::kSoda, 64, true}), 31.0);  // 27.1 measured
}

}  // namespace
}  // namespace load
