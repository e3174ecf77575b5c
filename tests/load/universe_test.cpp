// Error paths of Universe::connect, the one place substrate-blind code
// (load::Runner, the schedule explorer, replica::Group) wires two
// processes.  Its error surface is part of the checker's trusted base: a
// dead engine or a terminated process must surface as a typed LynxError,
// and connecting the same pair twice must yield a second, fully
// independent link.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "load/universe.hpp"
#include "lynx/lynx.hpp"
#include "sim/engine.hpp"

namespace load {
namespace {

using lynx::Incoming;
using lynx::LinkHandle;
using lynx::LynxError;
using lynx::Message;
using lynx::Process;
using lynx::ThreadCtx;

// Coroutine bodies are free functions (CP.51); the outcome lands in a
// log the test asserts on after engine.run().
sim::Task<> try_connect(Universe* u, Process* a, Process* b,
                        std::vector<std::string>* log,
                        LinkHandle* a_end = nullptr,
                        LinkHandle* b_end = nullptr) {
  try {
    auto [ae, be] = co_await u->connect(*a, *b);
    if (a_end != nullptr) *a_end = ae;
    if (b_end != nullptr) *b_end = be;
    log->push_back("ok");
  } catch (const LynxError& e) {
    log->push_back(std::string("error:") + to_string(e.kind()));
  }
}

sim::Task<> echo_once_server(ThreadCtx& ctx, LinkHandle link) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  Message rep;
  rep.args = in.msg.args;
  co_await ctx.reply(in, std::move(rep));
}

sim::Task<> echo_once_client(ThreadCtx& ctx, LinkHandle link,
                             std::vector<std::string>* log) {
  Message req = lynx::make_message("echo", {std::string("ping")});
  Message rep = co_await ctx.call(link, std::move(req));
  log->push_back(std::get<std::string>(rep.args.at(0)));
}

TEST(ConnectAny, ConnectAfterEngineShutdownIsLinkDestroyed) {
  sim::Engine engine;
  Universe u(engine, UniverseSpec{});
  Process& a = u.spawn("a", 0);
  Process& b = u.spawn("b", 1);
  std::vector<std::string> log;
  engine.spawn("wire", try_connect(&u, &a, &b, &log));
  engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "ok");

  engine.shutdown();
  ASSERT_TRUE(engine.is_shut_down());
  engine.spawn("late-wire", try_connect(&u, &a, &b, &log));
  engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1], "error:link-destroyed");
}

TEST(ConnectAny, ConnectToTerminatedProcessIsLinkDestroyed) {
  sim::Engine engine;
  Universe u(engine, UniverseSpec{});
  Process& a = u.spawn("a", 0);
  Process& b = u.spawn("b", 1);
  b.terminate();
  std::vector<std::string> log;
  engine.spawn("wire", try_connect(&u, &a, &b, &log));
  engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "error:link-destroyed");
}

TEST(ConnectAny, DoubleConnectYieldsIndependentWorkingLinks) {
  // Re-wiring the same pair is legal: the second link is fresh, and
  // traffic on both round-trips (the explorer's multi-channel workload
  // leans on exactly this).  Checked on every substrate.
  for (Substrate s : all_substrates()) {
    sim::Engine engine;
    UniverseSpec spec;
    spec.substrate = s;
    Universe u(engine, spec);
    Process& server = u.spawn("server", 0);
    Process& client = u.spawn("client", 1);
    std::vector<std::string> wire_log;
    LinkHandle se1;
    LinkHandle ce1;
    LinkHandle se2;
    LinkHandle ce2;
    engine.spawn("wire1",
                 try_connect(&u, &server, &client, &wire_log, &se1, &ce1));
    engine.run();
    engine.spawn("wire2",
                 try_connect(&u, &server, &client, &wire_log, &se2, &ce2));
    engine.run();
    ASSERT_EQ(wire_log, (std::vector<std::string>{"ok", "ok"})) << to_string(s);
    ASSERT_TRUE(se2.valid() && ce2.valid()) << to_string(s);
    EXPECT_NE(se1, se2) << to_string(s);
    EXPECT_NE(ce1, ce2) << to_string(s);

    std::vector<std::string> echo_log;
    server.spawn_thread("srv1", [se1](ThreadCtx& ctx) {
      return echo_once_server(ctx, se1);
    });
    server.spawn_thread("srv2", [se2](ThreadCtx& ctx) {
      return echo_once_server(ctx, se2);
    });
    client.spawn_thread("cli1", [ce1, &echo_log](ThreadCtx& ctx) {
      return echo_once_client(ctx, ce1, &echo_log);
    });
    client.spawn_thread("cli2", [ce2, &echo_log](ThreadCtx& ctx) {
      return echo_once_client(ctx, ce2, &echo_log);
    });
    engine.run();
    EXPECT_EQ(echo_log, (std::vector<std::string>{"ping", "ping"}))
        << to_string(s);
    EXPECT_TRUE(server.thread_failures().empty()) << to_string(s);
    EXPECT_TRUE(client.thread_failures().empty()) << to_string(s);
  }
}

}  // namespace
}  // namespace load
