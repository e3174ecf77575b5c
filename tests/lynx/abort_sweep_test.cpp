// An abort that lands anywhere in a call ends that call with kAborted
// and leaves nothing behind for the thread's next operation.
//
// The sweep runs the echo pair on each substrate.  The server never
// opens its request queue and exits after 100 ms, so the call can only
// end by abort (a call the abort missed would instead fail with
// link-destroyed when the server exits).  The client aborts its own
// call `offset` after issuing it, for every offset from 0 to 30 ms in
// 100 µs steps — through the gather sleep, the kernel placing the
// request, admission retries and the wait — and then runs one more
// operation, which must not feel the abort a second time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "load/universe.hpp"
#include "lynx/lynx.hpp"
#include "sim/engine.hpp"

namespace load {
namespace {

using lynx::LinkHandle;
using lynx::LynxError;
using lynx::Process;
using lynx::ThreadCtx;

constexpr sim::Duration kStep = sim::usec(100);
constexpr sim::Duration kLast = sim::msec(30);

sim::Task<> idle_server(ThreadCtx& ctx) {
  co_await ctx.delay(sim::msec(100));
}

sim::Task<> aborted_caller(ThreadCtx& ctx, Process* self, LinkHandle link,
                           sim::Duration offset, std::string* outcome) {
  const lynx::ThreadId me = ctx.id();
  ctx.engine().schedule(offset, [self, me] { self->abort_thread(me); });
  try {
    (void)co_await ctx.call(link, lynx::make_message("echo", {}));
    *outcome = "returned";
  } catch (const LynxError& e) {
    *outcome = to_string(e.kind());
  }
  try {
    co_await ctx.delay(sim::msec(1));
    *outcome += "/clean";
  } catch (const LynxError& e) {
    *outcome += std::string("/") + to_string(e.kind());
  }
}

sim::Task<> wire(Universe* u, Process* client, Process* server,
                 sim::Duration offset, std::string* outcome) {
  auto [ce, se] = co_await u->connect(*client, *server);
  (void)se;
  server->spawn_thread("idle", [](ThreadCtx& ctx) { return idle_server(ctx); });
  client->spawn_thread("caller", [client, ce, offset, outcome](ThreadCtx& ctx) {
    return aborted_caller(ctx, client, ce, offset, outcome);
  });
}

std::string abort_outcome(const UniverseSpec& spec, sim::Duration offset) {
  sim::Engine engine;
  Universe u(engine, spec);
  Process& client = u.spawn("client", 0);
  Process& server = u.spawn("server", 1);
  std::string outcome = "unfinished";
  engine.spawn("wire", wire(&u, &client, &server, offset, &outcome));
  engine.run();
  return outcome;
}

std::string label(sim::Duration offset, const std::string& outcome) {
  return std::to_string(offset / sim::usec(1)) + "us:" + outcome;
}

// The offsets at which the abort did not end the call cleanly.
std::vector<std::string> sweep(const UniverseSpec& spec) {
  std::vector<std::string> bad;
  for (sim::Duration offset = 0; offset <= kLast; offset += kStep) {
    const std::string outcome = abort_outcome(spec, offset);
    if (outcome != "aborted/clean") bad.push_back(label(offset, outcome));
  }
  return bad;
}

std::vector<std::string> sweep(Substrate substrate) {
  UniverseSpec spec;
  spec.substrate = substrate;
  return sweep(spec);
}

TEST(AbortSweep, ChrysalisCallFeelsEveryAbort) {
  EXPECT_EQ(sweep(Substrate::kChrysalis), std::vector<std::string>{});
}

TEST(AbortSweep, SodaCallFeelsEveryAbort) {
  EXPECT_EQ(sweep(Substrate::kSoda), std::vector<std::string>{});
}

// With a per-pair admission budget of one, the link's standing status
// signal fills it, so SODA refuses the call's request every time and
// the send polls every 10 ms without ever placing it.  An abort must
// still end the call: the refused send resolves as cancelled.
TEST(AbortSweep, SodaRefusedCallFeelsEveryAbort) {
  UniverseSpec spec;
  spec.substrate = Substrate::kSoda;
  spec.soda.max_outstanding_per_pair = 1;
  EXPECT_EQ(sweep(spec), std::vector<std::string>{});
}

// Charlotte still misses an abort that lands while its request is the
// link's active send, in the kernel's active_out/bounce path (ROADMAP,
// "Fix first"): the call fails with link-destroyed when the server
// exits, and the abort bites the next operation.  The window is pinned
// exactly, so that a fix, or a window that grows, shows up here.
TEST(AbortSweep, CharlotteMissesAbortsOnlyInItsKnownWindow) {
  std::vector<std::string> known;
  for (sim::Duration offset = sim::usec(600); offset <= sim::usec(9500);
       offset += kStep) {
    known.push_back(label(offset, "link-destroyed/aborted"));
  }
  EXPECT_EQ(sweep(Substrate::kCharlotte), known);
}

}  // namespace
}  // namespace load
