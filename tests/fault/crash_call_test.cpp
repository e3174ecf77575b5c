// The FaultyMedium contract at the LYNX layer: a server node that
// crashes while a lynx::call() is in flight must surface as an error
// (kLinkDestroyed) at the caller or deliver exactly once — never hang
// — on every substrate.  Each substrate earns it differently:
// Charlotte by the distributed kernel's absolute node-down notice,
// SODA by the crashed node's reboot announcement (nothing is learned
// while it is down — the lazy hint philosophy), Chrysalis by plain
// process termination inside the shared Butterfly.  A second set of
// scenarios checks that Universe::connect works against a node that
// crashed and came back with a fresh process.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "load/universe.hpp"
#include "lynx/lynx.hpp"
#include "sim/engine.hpp"

namespace fault {
namespace {

// A two-node world (server node 0, client node 1) with replica::Group's
// crash wiring: the universe announces crashes the substrate's way, and
// SODA runs transport acks so calls into a dead node die by exhaustion.
load::UniverseSpec crash_spec(load::Substrate s) {
  load::UniverseSpec spec;
  spec.substrate = s;
  spec.nodes = s == load::Substrate::kChrysalis ? 16 : 2;
  spec.faults = Plan{};
  spec.soda.ack_timeout = sim::msec(10);
  return spec;
}

struct CallOutcome {
  bool done = false;
  bool ok = false;
  std::optional<lynx::ErrorKind> error;
};

// Coroutine bodies are free functions (CP.51); spawn sites wrap them.
sim::Task<> wire_pair(load::Universe* u, lynx::Process* server,
                      lynx::Process* client, lynx::LinkHandle* server_end,
                      lynx::LinkHandle* client_end) {
  auto [se, ce] = co_await u->connect(*server, *client);
  *server_end = se;
  *client_end = ce;
}

// Serves the first request, then has the harness crash this node a
// hair later — while the client's call is parked awaiting the reply —
// and parks on a receive() the crash will kill.
sim::Task<> serve_one_then_crash(lynx::ThreadCtx& ctx, lynx::LinkHandle link,
                                 std::function<void()> crash) {
  ctx.enable_requests(link);
  (void)co_await ctx.receive();
  crash();
  try {
    (void)co_await ctx.receive();
  } catch (const lynx::LynxError&) {
    // Terminated mid-park; nothing to do.
  }
}

sim::Task<> serve_calls(lynx::ThreadCtx& ctx, lynx::LinkHandle link, int n) {
  ctx.enable_requests(link);
  for (int i = 0; i < n; ++i) {
    lynx::Incoming in = co_await ctx.receive();
    lynx::Message rep;
    rep.args = in.msg.args;
    co_await ctx.reply(in, std::move(rep));
  }
}

sim::Task<> call_once(lynx::ThreadCtx& ctx, lynx::LinkHandle link,
                      CallOutcome* out) {
  try {
    lynx::Message req;
    req.op = "ping";
    req.args.push_back(std::int64_t{7});
    (void)co_await ctx.call(link, std::move(req));
    out->ok = true;
  } catch (const lynx::LynxError& e) {
    out->error = e.kind();
  }
  out->done = true;
}

TEST(CrashCall, CrashDuringInFlightCallSurfacesOrDeliversNeverHangs) {
  for (load::Substrate s : load::all_substrates()) {
    sim::Engine engine;
    load::Universe w(engine, crash_spec(s));
    lynx::Process* server = &w.spawn("server", 0);
    lynx::Process* client = &w.spawn("client", 1);
    lynx::LinkHandle server_end;
    lynx::LinkHandle client_end;
    engine.spawn("wire",
                 wire_pair(&w, server, client, &server_end, &client_end));
    engine.run();
    ASSERT_TRUE(server_end.valid()) << load::to_string(s);

    CallOutcome out;
    load::Universe* wp = &w;
    server->spawn_thread("srv", [wp, server_end](lynx::ThreadCtx& c) {
      return serve_one_then_crash(c, server_end, [wp] {
        wp->engine().schedule(sim::usec(1), [wp] {
          wp->crash(0);
          // The node returns (empty — no new process) a while later:
          // on SODA this is the reboot announcement that fails the
          // parked call; on Charlotte the earlier node-down notice
          // already did.
          wp->engine().schedule(sim::msec(100), [wp] { wp->restart(0); });
        });
      });
    });
    client->spawn_thread("cli", [client_end, &out](lynx::ThreadCtx& c) {
      return call_once(c, client_end, &out);
    });

    const bool finished = engine.run_until(sim::sec(30));
    EXPECT_TRUE(finished) << load::to_string(s) << ": engine wedged";
    ASSERT_TRUE(out.done) << load::to_string(s) << ": call hung forever";
    // The request was consumed and the server died before replying, so
    // the only conforming outcome is the absolute error; a completed
    // call would have meant exactly-once delivery, also acceptable in
    // general, but impossible in this construction.
    EXPECT_FALSE(out.ok) << load::to_string(s);
    ASSERT_TRUE(out.error.has_value()) << load::to_string(s);
    EXPECT_EQ(*out.error, lynx::ErrorKind::kLinkDestroyed)
        << load::to_string(s) << ": " << lynx::to_string(*out.error);
    EXPECT_FALSE(w.invariant_violation().has_value()) << load::to_string(s);
    EXPECT_TRUE(client->thread_failures().empty()) << load::to_string(s);
  }
}

TEST(CrashCall, ConnectAnyReachesRestartedServerNode) {
  for (load::Substrate s : load::all_substrates()) {
    sim::Engine engine;
    load::Universe w(engine, crash_spec(s));
    lynx::Process* old_server = &w.spawn("server", 0);
    lynx::Process* client = &w.spawn("client", 1);
    lynx::LinkHandle server_end;
    lynx::LinkHandle client_end;
    engine.spawn("wire",
                 wire_pair(&w, old_server, client, &server_end, &client_end));
    engine.run();
    ASSERT_TRUE(server_end.valid()) << load::to_string(s);

    // Crash the server node outright, then bring the node back.
    w.crash(0);
    engine.schedule(sim::msec(50), [&w] { w.restart(0); });
    engine.run();

    // A fresh process on the restarted node must be reachable by
    // Universe::connect, and a call over the new link must complete.
    lynx::Process* new_server = &w.spawn("server2", 0);
    lynx::LinkHandle new_server_end;
    lynx::LinkHandle new_client_end;
    engine.spawn("rewire", wire_pair(&w, new_server, client, &new_server_end,
                                     &new_client_end));
    const bool wired = engine.run_until(sim::sec(30));
    ASSERT_TRUE(wired) << load::to_string(s) << ": rewire wedged";
    ASSERT_TRUE(new_server_end.valid())
        << load::to_string(s) << ": connect never completed";

    CallOutcome out;
    new_server->spawn_thread("srv", [new_server_end](lynx::ThreadCtx& c) {
      return serve_calls(c, new_server_end, 1);
    });
    client->spawn_thread("cli", [new_client_end, &out](lynx::ThreadCtx& c) {
      return call_once(c, new_client_end, &out);
    });
    const bool finished = engine.run_until(sim::sec(30));
    EXPECT_TRUE(finished) << load::to_string(s) << ": engine wedged";
    ASSERT_TRUE(out.done) << load::to_string(s) << ": call hung";
    EXPECT_TRUE(out.ok) << load::to_string(s) << ": call failed"
                        << (out.error ? lynx::to_string(*out.error) : "");
    EXPECT_FALSE(w.invariant_violation().has_value()) << load::to_string(s);
  }
}

}  // namespace
}  // namespace fault
