// End-to-end tests: LYNX runtime over the Chrysalis backend.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "../support/co_check.hpp"
#include "lynx/chrysalis_backend.hpp"
#include "lynx/runtime.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace lynx {
namespace {

using net::NodeId;

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& x : v) out += x + "; ";
  return out;
}

struct World {
  explicit World(ChrysalisBackendParams bp = {})
      : server(engine, "server",
               std::make_unique<ChrysalisBackend>(kernel, NodeId(0), bp)),
        client(engine, "client",
               std::make_unique<ChrysalisBackend>(kernel, NodeId(1), bp)) {}

  sim::Engine engine;
  chrysalis::Kernel kernel{engine};
  Process server;
  Process client;
  LinkHandle server_end;
  LinkHandle client_end;

  void boot() {
    server.start();
    client.start();
    engine.spawn("connect", wire(this));
    engine.run();
    RELYNX_ASSERT(server_end.valid() && client_end.valid());
  }

  static sim::Task<> wire(World* w) {
    auto [se, ce] = co_await ChrysalisBackend::connect(w->server, w->client);
    w->server_end = se;
    w->client_end = ce;
  }
};

// ---- simple RPC ----------------------------------------------------------

sim::Task<> echo_server_thread(ThreadCtx& ctx, LinkHandle link, int n) {
  ctx.enable_requests(link);
  for (int i = 0; i < n; ++i) {
    Incoming in = co_await ctx.receive();
    CO_CHECK_EQ(in.msg.op, "echo");
    Message rep;
    rep.args = in.msg.args;  // echo the params back
    co_await ctx.reply(in, rep);
  }
}

sim::Task<> echo_client_thread(ThreadCtx& ctx, LinkHandle link, int n,
                               std::vector<std::string>* log) {
  for (int i = 0; i < n; ++i) {
    Message req = make_message(
        "echo", {std::int64_t(i), std::string("hello-") + std::to_string(i)});
    Message rep = co_await ctx.call(link, std::move(req));
    CO_CHECK_EQ(rep.args.size(), 2u);
    CO_CHECK_EQ(std::get<std::int64_t>(rep.args[0]), i);
    log->push_back(std::get<std::string>(rep.args[1]));
  }
}

TEST(LynxChrysalis, EchoRpcRoundTrips) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("serve", [&](ThreadCtx& ctx) {
    return echo_server_thread(ctx, w.server_end, 3);
  });
  w.client.spawn_thread("drive", [&](ThreadCtx& ctx) {
    return echo_client_thread(ctx, w.client_end, 3, &log);
  });
  w.engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"hello-0", "hello-1", "hello-2"}));
  EXPECT_TRUE(w.engine.process_failures().empty());
  EXPECT_TRUE(w.server.thread_failures().empty());
  EXPECT_TRUE(w.client.thread_failures().empty());
  EXPECT_GT(w.engine.now(), 0);
}

// ---- moving links (single and multiple enclosures) ------------------------

// With `in_reply` the taker makes the links and sends their far ends
// back in its reply instead.
sim::Task<> mover_thread(ThreadCtx& ctx, LinkHandle via, int n_new_links,
                         std::vector<std::string>* log,
                         bool in_reply = false) {
  // Make n fresh links, keep end1s, send all end2s in ONE message.
  std::vector<LinkHandle> keep;
  Message req = make_message("take", {});
  for (int i = 0; i < n_new_links && !in_reply; ++i) {
    LocalLinkPair pair = co_await ctx.new_link();
    keep.push_back(pair.end1);
    req.args.emplace_back(pair.end2);
  }
  Message rep = co_await ctx.call(via, std::move(req));
  CO_CHECK_EQ(rep.op, "take");
  if (in_reply) {
    CO_CHECK_EQ(static_cast<int>(rep.count_links()), n_new_links);
    for (const Value& v : rep.args) keep.push_back(std::get<LinkHandle>(v));
  }
  // Now exercise each moved link with an RPC served by the taker.
  for (std::size_t i = 0; i < keep.size(); ++i) {
    Message probe =
        make_message("probe", {static_cast<std::int64_t>(i)});
    Message r = co_await ctx.call(keep[i], std::move(probe));
    log->push_back("probe-ok-" +
                   std::to_string(std::get<std::int64_t>(r.args.at(0))));
  }
}

sim::Task<> taker_thread(ThreadCtx& ctx, LinkHandle via, int n_expected,
                         std::vector<std::string>* log,
                         bool in_reply = false) {
  ctx.enable_requests(via);
  Incoming in = co_await ctx.receive();
  CO_CHECK_EQ(in.msg.op, "take");
  std::vector<LinkHandle> got;
  Message rep;
  if (in_reply) {
    for (int i = 0; i < n_expected; ++i) {
      LocalLinkPair pair = co_await ctx.new_link();
      got.push_back(pair.end1);
      rep.args.emplace_back(pair.end2);
    }
  } else {
    CO_CHECK_EQ(static_cast<int>(in.msg.count_links()), n_expected);
    for (const Value& v : in.msg.args) got.push_back(std::get<LinkHandle>(v));
  }
  co_await ctx.reply(in, std::move(rep));
  log->push_back("took-" + std::to_string(got.size()));
  for (LinkHandle h : got) ctx.enable_requests(h);
  for (int i = 0; i < n_expected; ++i) {
    Incoming probe = co_await ctx.receive();
    CO_CHECK_EQ(probe.msg.op, "probe");
    Message rep;
    rep.args = probe.msg.args;
    co_await ctx.reply(probe, std::move(rep));
  }
}

void moves_three_links(bool in_reply) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("take", [&](ThreadCtx& ctx) {
    return taker_thread(ctx, w.server_end, 3, &log, in_reply);
  });
  w.client.spawn_thread("move", [&](ThreadCtx& ctx) {
    return mover_thread(ctx, w.client_end, 3, &log, in_reply);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 4u) << "server: " << join(w.server.thread_failures())
                            << " client: "
                            << join(w.client.thread_failures())
                            << " engine: "
                            << join(w.engine.process_failures());
  EXPECT_EQ(log[0], "took-3");
  EXPECT_EQ(log[1], "probe-ok-0");
  EXPECT_EQ(log[2], "probe-ok-1");
  EXPECT_EQ(log[3], "probe-ok-2");
  EXPECT_TRUE(w.server.thread_failures().empty());
  EXPECT_TRUE(w.client.thread_failures().empty());
}

TEST(LynxChrysalis, MovesMultipleLinksInOneMessage) {
  moves_three_links(/*in_reply=*/false);
}

// A reply that moves ends waits for the caller's CONSUMED notice before
// the replier gives them up, so the replier logs "took" only then.
TEST(LynxChrysalis, MovesMultipleLinksInOneReply) {
  moves_three_links(/*in_reply=*/true);
}

// ---- screening: closed request queues park messages ------------------------

sim::Task<> lazy_server_thread(ThreadCtx& ctx, LinkHandle link,
                               std::vector<std::string>* log) {
  // Do NOT open the queue yet; the request must wait in the link buffer.
  co_await ctx.delay(sim::msec(50));
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  log->push_back("served-late:" + in.msg.op);
  Message empty;
  co_await ctx.reply(in, std::move(empty));
}

TEST(LynxChrysalis, ClosedQueueParksRequestUntilOpened) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("lazy", [&](ThreadCtx& ctx) {
    return lazy_server_thread(ctx, w.server_end, &log);
  });
  w.client.spawn_thread("eager", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      Message req = make_message("park-me", {});
      (void)co_await c.call(l, std::move(req));
      lg->push_back("client-returned");
    }(ctx, w.client_end, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "served-late:park-me");
  EXPECT_EQ(log[1], "client-returned");
}

// ---- destruction ------------------------------------------------------------

sim::Task<> destroyer_thread(ThreadCtx& ctx, LinkHandle link) {
  co_await ctx.delay(sim::msec(10));
  co_await ctx.destroy(link);
}

sim::Task<> victim_call_thread(ThreadCtx& ctx, LinkHandle link,
                               std::vector<std::string>* log,
                               sim::Duration linger = 0) {
  try {
    Message req = make_message("doomed", {});
    (void)co_await ctx.call(link, std::move(req));
    log->push_back("unexpected-success");
  } catch (const LynxError& e) {
    log->push_back(std::string("caught:") + to_string(e.kind()));
  }
  // keep the process alive (so termination does not race the scenario)
  if (linger > 0) co_await ctx.engine().sleep(linger);
}

TEST(LynxChrysalis, DestroyRaisesExceptionAtPeer) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("destroyer", [&](ThreadCtx& ctx) {
    return destroyer_thread(ctx, w.server_end);
  });
  w.client.spawn_thread("victim", [&](ThreadCtx& ctx) {
    return victim_call_thread(ctx, w.client_end, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "caught:link-destroyed");
}

// ---- termination destroys links ---------------------------------------------

TEST(LynxChrysalis, ProcessEndDestroysLinks) {
  World w;
  w.boot();
  std::vector<std::string> log;
  // The server thread returns immediately: the process terminates and
  // must destroy its links, which the client observes as an exception.
  w.server.spawn_thread("quit", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c) -> sim::Task<> {
      co_await c.delay(sim::msec(5));
    }(ctx);
  });
  w.client.spawn_thread("victim", [&](ThreadCtx& ctx) {
    return victim_call_thread(ctx, w.client_end, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "caught:link-destroyed");
  EXPECT_TRUE(w.server.terminated());
}

// A reply that moves ends parks until the caller consumes it; if the
// caller's process ends first, its DESTROYED notice must settle the
// parked reply.  The caller ends at every 20 us from 40 to 70 ms, around
// the reply at about 57 ms, and the replier must finish every time.
sim::Task<> enclosing_replier(ThreadCtx& ctx, LinkHandle link,
                              std::string* outcome) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  co_await ctx.delay(sim::msec(50));
  Message rep;
  for (int i = 0; i < 2; ++i) {
    LocalLinkPair pair = co_await ctx.new_link();
    rep.args.emplace_back(pair.end2);
  }
  try {
    co_await ctx.reply(in, std::move(rep));
    *outcome = "replied";
  } catch (const LynxError& e) {
    *outcome = std::string("reply:") + to_string(e.kind());
  }
}

TEST(LynxChrysalis, EnclosingReplyEndsWhenCallerEnds) {
  std::set<std::string> outcomes;
  for (sim::Duration at = sim::msec(40); at <= sim::msec(70);
       at += sim::usec(20)) {
    World w;
    w.boot();
    std::vector<std::string> log;
    std::string outcome = "unfinished";
    w.server.spawn_thread("reply", [&](ThreadCtx& ctx) {
      return enclosing_replier(ctx, w.server_end, &outcome);
    });
    w.client.spawn_thread("call", [&](ThreadCtx& ctx) {
      return victim_call_thread(ctx, w.client_end, &log, sim::sec(1));
    });
    w.engine.schedule(at, [&] { w.client.terminate(); });
    w.engine.run();
    ASSERT_NE(outcome, "unfinished") << "caller ended at " << at << " ns";
    outcomes.insert(outcome);
  }
  EXPECT_EQ(outcomes,
            (std::set<std::string>{"replied", "reply:link-destroyed"}));
}

// ---- reply to aborted caller is DETECTED on Chrysalis (capability 4) --------

sim::Task<> slow_replier_thread(ThreadCtx& ctx, LinkHandle link,
                                std::vector<std::string>* log) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  co_await ctx.delay(sim::msec(40));  // caller aborts during this window
  try {
    Message empty;
  co_await ctx.reply(in, std::move(empty));
    log->push_back("reply-sent");
  } catch (const LynxError& e) {
    log->push_back(std::string("replier-caught:") + to_string(e.kind()));
  }
}

// The caller consumed the request before aborting, so its send ends
// with the CONSUMED notice: posted after the coalesce delay, or at once
// when coalescing is off.
void replier_feels_abort(ChrysalisBackendParams bp) {
  World w(bp);
  trace::Recorder rec(w.engine);
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("slow", [&](ThreadCtx& ctx) {
    return slow_replier_thread(ctx, w.server_end, &log);
  });
  ThreadId caller = w.client.spawn_thread("caller", [&](ThreadCtx& ctx) {
    return victim_call_thread(ctx, w.client_end, &log, sim::msec(200));
  });
  w.engine.schedule(sim::msec(20), [&, caller] {
    w.client.abort_thread(caller);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "caught:aborted");
  EXPECT_EQ(log[1], "replier-caught:reply-unwanted");
  // Both errors were announced on the trace, where the checker reads them.
  std::vector<std::uint64_t> announced;
  for (const trace::Record& r : rec.snapshot()) {
    if (r.kind == trace::Kind::kInstant &&
        rec.label_name(r.label) == "rpc.error") {
      announced.push_back(r.a);
    }
  }
  EXPECT_EQ(announced,
            (std::vector<std::uint64_t>{
                static_cast<std::uint64_t>(ErrorKind::kAborted),
                static_cast<std::uint64_t>(ErrorKind::kReplyUnwanted)}));
}

TEST(LynxChrysalis, ReplierFeelsExceptionWhenCallerAborted) {
  replier_feels_abort({});
}

TEST(LynxChrysalis, ReplierFeelsExceptionWhenCallerAbortedUncoalesced) {
  ChrysalisBackendParams bp;
  bp.consumed_coalesce_delay = 0;
  replier_feels_abort(bp);
}

// ---- fairness: no queue ignored forever ---------------------------------------

sim::Task<> fair_server_thread(ThreadCtx& ctx, std::vector<LinkHandle> links,
                               int total, std::vector<int>* served_per_link) {
  for (LinkHandle l : links) ctx.enable_requests(l);
  for (int i = 0; i < total; ++i) {
    Incoming in = co_await ctx.receive();
    for (std::size_t j = 0; j < links.size(); ++j) {
      if (links[j] == in.link) ++(*served_per_link)[j];
    }
    Message empty;
  co_await ctx.reply(in, std::move(empty));
  }
}

sim::Task<> hammer_client_thread(ThreadCtx& ctx, LinkHandle link, int n) {
  for (int i = 0; i < n; ++i) {
    Message req = make_message("op", {std::int64_t(i)});
    (void)co_await ctx.call(link, std::move(req));
  }
}

TEST(LynxChrysalis, ReceiveIsFairAcrossLinks) {
  sim::Engine engine;
  chrysalis::Kernel kernel(engine);
  Process server(engine, "server",
                 std::make_unique<ChrysalisBackend>(kernel, NodeId(0)));
  std::vector<std::unique_ptr<Process>> clients;
  std::vector<LinkHandle> server_ends(3);
  std::vector<LinkHandle> client_ends(3);
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<Process>(
        engine, "client" + std::to_string(i),
        std::make_unique<ChrysalisBackend>(
            kernel, NodeId(1 + static_cast<std::uint32_t>(i)))));
  }
  server.start();
  for (auto& c : clients) c->start();
  for (int i = 0; i < 3; ++i) {
    engine.spawn("wire", [](Process* s, Process* c, LinkHandle* se,
                            LinkHandle* ce) -> sim::Task<> {
      auto [a, b] = co_await ChrysalisBackend::connect(*s, *c);
      *se = a;
      *ce = b;
    }(&server, clients[static_cast<std::size_t>(i)].get(), &server_ends[static_cast<std::size_t>(i)],
                            &client_ends[static_cast<std::size_t>(i)]));
  }
  engine.run();

  std::vector<int> served(3, 0);
  server.spawn_thread("serve", [&](ThreadCtx& ctx) {
    return fair_server_thread(ctx, server_ends, 15, &served);
  });
  for (int i = 0; i < 3; ++i) {
    clients[static_cast<std::size_t>(i)]->spawn_thread(
        "hammer", [&, i](ThreadCtx& ctx) {
          return hammer_client_thread(ctx, client_ends[static_cast<std::size_t>(i)], 5);
        });
  }
  engine.run();
  EXPECT_EQ(served, (std::vector<int>{5, 5, 5}));
  EXPECT_TRUE(server.thread_failures().empty());
}

}  // namespace
}  // namespace lynx
