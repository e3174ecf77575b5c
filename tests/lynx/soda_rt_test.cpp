// End-to-end tests: LYNX runtime over the SODA backend.
//
// Exercises §4.2: hints, move-by-accept, the moved-link cache, discover
// fallback, the freeze/unfreeze search, and the capabilities that
// distinguish SODA from Charlotte.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../support/co_check.hpp"
#include "lynx/runtime.hpp"
#include "lynx/soda_backend.hpp"
#include "net/csma_bus.hpp"
#include "sim/engine.hpp"

namespace lynx {
namespace {

using net::NodeId;

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& x : v) out += x + "; ";
  return out;
}

net::CsmaBusParams quiet_bus() {
  net::CsmaBusParams p;
  p.broadcast_drop_prob = 0.0;  // deterministic discover in most tests
  return p;
}

struct World {
  explicit World(net::CsmaBusParams bus_params = quiet_bus(),
                 SodaBackendParams bp = {})
      : bus(engine, sim::Rng(2026), bus_params),
        network(engine, 6, bus),
        server(engine, "server",
               std::make_unique<SodaBackend>(network, directory, NodeId(0),
                                             bp)),
        client(engine, "client",
               std::make_unique<SodaBackend>(network, directory, NodeId(1),
                                             bp)) {}

  sim::Engine engine;
  SodaDirectory directory;
  net::CsmaBus bus;
  soda::Network network;
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
    auto [se, ce] = co_await SodaBackend::connect(w->server, w->client);
    w->server_end = se;
    w->client_end = ce;
  }

  // The client's node's protocol counts.
  [[nodiscard]] sim::Counts& client_counts() { return engine.counts(1); }
};

sim::Task<> echo_server_thread(ThreadCtx& ctx, LinkHandle link, int n) {
  ctx.enable_requests(link);
  for (int i = 0; i < n; ++i) {
    Incoming in = co_await ctx.receive();
    Message rep;
    rep.args = in.msg.args;
    co_await ctx.reply(in, std::move(rep));
  }
}

sim::Task<> echo_client_thread(ThreadCtx& ctx, LinkHandle link, int n,
                               std::vector<std::string>* log) {
  for (int i = 0; i < n; ++i) {
    Message req = make_message("echo", {std::string("s") + std::to_string(i)});
    Message rep = co_await ctx.call(link, std::move(req));
    log->push_back(std::get<std::string>(rep.args.at(0)));
  }
}

TEST(LynxSoda, EchoRpcRoundTrips) {
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
  EXPECT_EQ(log, (std::vector<std::string>{"s0", "s1", "s2"}))
      << join(w.server.thread_failures()) << join(w.client.thread_failures());
  // Screening by accept: nothing unwanted was ever received.
  EXPECT_EQ(w.client_counts().unwanted_received, 0u);
}

TEST(LynxSoda, MovesMultipleLinksInOneMessage) {
  World w;
  w.boot();
  std::vector<std::string> log;
  constexpr int kLinks = 3;

  auto mover = [](ThreadCtx& ctx, LinkHandle via, int n,
                  std::vector<std::string>* lg) -> sim::Task<> {
    std::vector<LinkHandle> keep;
    Message req = make_message("take", {});
    for (int i = 0; i < n; ++i) {
      LocalLinkPair pair = co_await ctx.new_link();
      keep.push_back(pair.end1);
      req.args.emplace_back(pair.end2);
    }
    Message rep = co_await ctx.call(via, std::move(req));
    (void)rep;
    for (std::size_t i = 0; i < keep.size(); ++i) {
      Message probe = make_message("probe", {static_cast<std::int64_t>(i)});
      Message r = co_await ctx.call(keep[i], std::move(probe));
      lg->push_back("ok" +
                    std::to_string(std::get<std::int64_t>(r.args.at(0))));
    }
  };
  auto taker = [](ThreadCtx& ctx, LinkHandle via, int n,
                  std::vector<std::string>* lg) -> sim::Task<> {
    ctx.enable_requests(via);
    Incoming in = co_await ctx.receive();
    CO_CHECK_EQ(static_cast<int>(in.msg.count_links()), n);
    std::vector<LinkHandle> got;
    for (const Value& v : in.msg.args) got.push_back(std::get<LinkHandle>(v));
    Message empty;
    co_await ctx.reply(in, std::move(empty));
    lg->push_back("took");
    for (LinkHandle h : got) ctx.enable_requests(h);
    for (int i = 0; i < n; ++i) {
      Incoming probe = co_await ctx.receive();
      Message rep;
      rep.args = probe.msg.args;
      co_await ctx.reply(probe, std::move(rep));
    }
  };

  w.server.spawn_thread("take", [&](ThreadCtx& ctx) {
    return taker(ctx, w.server_end, kLinks, &log);
  });
  w.client.spawn_thread("move", [&](ThreadCtx& ctx) {
    return mover(ctx, w.client_end, kLinks, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u + kLinks)
      << join(w.server.thread_failures()) << join(w.client.thread_failures());
  EXPECT_EQ(log[0], "took");
  // Each enclosure carries its far end's location, so the taker reaches
  // the mover without a single stale hint.
  EXPECT_EQ(w.engine.counts(0).hint_misses, 0u);  // the taker's node
}

// ---- capability 4: aborted caller detected by the replier -------------------

sim::Task<> soda_slow_replier(ThreadCtx& ctx, LinkHandle link,
                              std::vector<std::string>* log) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  co_await ctx.delay(sim::msec(300));
  try {
    Message rep;
    co_await ctx.reply(in, std::move(rep));
    log->push_back("reply-sent");
  } catch (const LynxError& e) {
    log->push_back(std::string("replier-caught:") + to_string(e.kind()));
  }
}

sim::Task<> soda_aborting_caller(ThreadCtx& ctx, LinkHandle link,
                                 std::vector<std::string>* log) {
  try {
    Message req = make_message("slow", {});
    (void)co_await ctx.call(link, std::move(req));
    log->push_back("unexpected-success");
  } catch (const LynxError& e) {
    log->push_back(std::string("caller-caught:") + to_string(e.kind()));
  }
  co_await ctx.delay(sim::msec(800));  // keep the process alive
}

TEST(LynxSoda, ReplierFeelsExceptionWhenCallerAborted) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("slow", [&](ThreadCtx& ctx) {
    return soda_slow_replier(ctx, w.server_end, &log);
  });
  ThreadId caller = w.client.spawn_thread("caller", [&](ThreadCtx& ctx) {
    return soda_aborting_caller(ctx, w.client_end, &log);
  });
  w.engine.schedule(sim::msec(150), [&, caller] {
    w.client.abort_thread(caller);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 2u) << join(w.server.thread_failures())
                            << join(w.client.thread_failures());
  EXPECT_EQ(log[0], "caller-caught:aborted");
  EXPECT_EQ(log[1], "replier-caught:reply-unwanted");
}

// ---- capability 3: cancel recovers enclosures -------------------------------

sim::Task<> cancel_mover(ThreadCtx& ctx, LinkHandle via,
                         std::vector<std::string>* log) {
  LocalLinkPair pair = co_await ctx.new_link();
  try {
    Message req = make_message("never-served", {pair.end2});
    (void)co_await ctx.call(via, std::move(req));
    log->push_back("unexpected-success");
  } catch (const LynxError& e) {
    log->push_back(std::string("caught:") + to_string(e.kind()));
  }
  // The enclosure was recovered: both ends are still ours and usable.
  Message self_req = make_message("loopback", {std::int64_t(1)});
  // prove end2 still exists by destroying it cleanly (no exception)
  co_await ctx.destroy(pair.end2);
  co_await ctx.destroy(pair.end1);
  log->push_back("enclosure-recovered");
  (void)self_req;
  co_await ctx.delay(sim::msec(100));
}

TEST(LynxSoda, CancelledSendRecoversEnclosure) {
  // The server never opens its queue, so the request stays parked at the
  // kernel; the abort revokes it and the enclosure never moves.
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("idle", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c) -> sim::Task<> {
      co_await c.delay(sim::sec(1));
    }(ctx);
  });
  ThreadId mover = w.client.spawn_thread("mover", [&](ThreadCtx& ctx) {
    return cancel_mover(ctx, w.client_end, &log);
  });
  w.engine.schedule(sim::msec(120), [&, mover] {
    w.client.abort_thread(mover);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 2u) << join(w.client.thread_failures());
  EXPECT_EQ(log[0], "caught:aborted");
  EXPECT_EQ(log[1], "enclosure-recovered");
}

// ---- crash detection ----------------------------------------------------------

TEST(LynxSoda, PeerTerminationRaisesException) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("quit", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c) -> sim::Task<> {
      co_await c.delay(sim::msec(10));
    }(ctx);
  });
  w.client.spawn_thread("victim", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      co_await c.delay(sim::msec(100));  // after the server is gone
      try {
        Message req = make_message("x", {});
        (void)co_await c.call(l, std::move(req));
        lg->push_back("unexpected-success");
      } catch (const LynxError& e) {
        lg->push_back(std::string("caught:") + to_string(e.kind()));
      }
    }(ctx, w.client_end, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u) << join(w.client.thread_failures());
  EXPECT_EQ(log[0], "caught:link-destroyed");
}

// ---- termination while a thread is inside destroy ---------------------------

// The client's call and status signal are parked at the server when a
// server thread destroys the link; the destroy answers both DESTROYED,
// one kernel accept at a time.  The process terminates `offset` into
// that destroy, and its shutdown destroys the same end concurrently and
// forgets it.  The thread's destroy must notice the end is gone when it
// resumes instead of reading the forgotten record (ASan catches a read
// of it).
TEST(LynxSoda, TerminationDuringDestroyForgetsTheEndOnce) {
  for (sim::Duration offset = 0; offset <= sim::msec(8);
       offset += sim::usec(250)) {
    World w;
    w.boot();
    std::vector<std::string> log;
    w.server.spawn_thread("destroyer", [&](ThreadCtx& ctx) {
      return [](ThreadCtx& c, Process* self, LinkHandle l,
                sim::Duration at) -> sim::Task<> {
        co_await c.delay(sim::msec(50));  // the client's puts are parked
        c.engine().schedule(at, [self] { self->terminate(); });
        co_await c.destroy(l);
      }(ctx, &w.server, w.server_end, offset);
    });
    w.client.spawn_thread("caller", [&](ThreadCtx& ctx) {
      return [](ThreadCtx& c, LinkHandle l,
                std::vector<std::string>* lg) -> sim::Task<> {
        try {
          Message req = make_message("x", {});
          (void)co_await c.call(l, std::move(req));
          lg->push_back("unexpected-success");
        } catch (const LynxError& e) {
          lg->push_back(std::string("caught:") + to_string(e.kind()));
        }
      }(ctx, w.client_end, &log);
    });
    w.engine.run();
    EXPECT_EQ(log, (std::vector<std::string>{"caught:link-destroyed"}))
        << "terminate " << offset << " ns into the destroy; "
        << join(w.server.thread_failures()) << join(w.client.thread_failures());
    EXPECT_TRUE(w.server.thread_failures().empty())
        << join(w.server.thread_failures());
  }
}

// ---- dormant link moved, then used: cache redirect (E10) --------------------

// Chain: A holds link L to C (via bootstrap), A ships its end of L to B;
// C's hint still points at A.  When C finally uses L, A redirects it to
// B from the moved-link cache.  With `watch`, C keeps its request queue
// open on L from the start, so its status signal is parked at A when the
// end moves, and A answers it MOVED instead.
struct DormantMove {
  std::vector<std::string> log;
  sim::Counts a;  // the mover's node
  sim::Counts c;  // the far end's node
};

DormantMove dormant_move(bool watch) {
  sim::Engine engine;
  SodaDirectory directory;
  net::CsmaBus bus(engine, sim::Rng(7), quiet_bus());
  soda::Network network(engine, 6, bus);
  Process a(engine, "A",
            std::make_unique<SodaBackend>(network, directory, NodeId(0)));
  Process b(engine, "B",
            std::make_unique<SodaBackend>(network, directory, NodeId(1)));
  Process c(engine, "C",
            std::make_unique<SodaBackend>(network, directory, NodeId(2)));
  a.start();
  b.start();
  c.start();
  LinkHandle ab_a, ab_b;  // transfer link A<->B
  LinkHandle l_a, l_c;    // link L: A<->C
  engine.spawn("wire", [](Process* pa, Process* pb, Process* pc,
                          LinkHandle* w1, LinkHandle* w2, LinkHandle* w3,
                          LinkHandle* w4) -> sim::Task<> {
    auto [x, y] = co_await SodaBackend::connect(*pa, *pb);
    *w1 = x;
    *w2 = y;
    auto [u, v] = co_await SodaBackend::connect(*pa, *pc);
    *w3 = u;
    *w4 = v;
  }(&a, &b, &c, &ab_a, &ab_b, &l_a, &l_c));
  engine.run();

  std::vector<std::string> log;
  // A: ship its end of L to B over the transfer link; stay alive.
  a.spawn_thread("ship", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle via, LinkHandle moving,
              std::vector<std::string>* lg) -> sim::Task<> {
      Message req = make_message("take", {moving});
      (void)co_await cx.call(via, std::move(req));
      lg->push_back("a-shipped");
      co_await cx.delay(sim::sec(2));
    }(ctx, ab_a, l_a, &log);
  });
  // B: receive the end, then serve one request on it.
  b.spawn_thread("takeserve", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle via,
              std::vector<std::string>* lg) -> sim::Task<> {
      cx.enable_requests(via);
      Incoming in = co_await cx.receive();
      LinkHandle got = std::get<LinkHandle>(in.msg.args.at(0));
      Message empty;
      co_await cx.reply(in, std::move(empty));
      cx.enable_requests(got);
      Incoming r = co_await cx.receive();
      lg->push_back("b-served:" + r.msg.op);
      Message rep;
      co_await cx.reply(r, std::move(rep));
    }(ctx, ab_b, &log);
  });
  // C: wait until the move is long done, then use the dormant link; its
  // hint (A) is stale and must be fixed via A's cache.
  c.spawn_thread("lateuser", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle l, bool watch_l,
              std::vector<std::string>* lg) -> sim::Task<> {
      if (watch_l) cx.enable_requests(l);
      co_await cx.delay(sim::msec(500));
      Message req = make_message("late", {});
      Message rep = co_await cx.call(l, std::move(req));
      (void)rep;
      lg->push_back("c-late-ok");
    }(ctx, l_c, watch, &log);
  });
  engine.run();
  EXPECT_TRUE(a.thread_failures().empty()) << join(a.thread_failures());
  EXPECT_TRUE(b.thread_failures().empty()) << join(b.thread_failures());
  EXPECT_TRUE(c.thread_failures().empty()) << join(c.thread_failures());
  return {log, engine.counts(0), engine.counts(2)};
}

TEST(LynxSoda, DormantMovedLinkIsFoundViaCache) {
  const DormantMove r = dormant_move(/*watch=*/false);
  EXPECT_EQ(r.log, (std::vector<std::string>{"a-shipped", "b-served:late",
                                             "c-late-ok"}));
  EXPECT_GE(r.a.moved_redirects, 1u);  // A redirected C from its cache
  EXPECT_GE(r.c.hint_misses, 1u);      // C's hint was stale
}

TEST(LynxSoda, WatchedMovedLinkLearnsNewOwnerFromSignal) {
  const DormantMove r = dormant_move(/*watch=*/true);
  EXPECT_EQ(r.log, (std::vector<std::string>{"a-shipped", "b-served:late",
                                             "c-late-ok"}));
  EXPECT_EQ(r.a.moved_redirects, 0u);  // C's call went straight to B
  EXPECT_GE(r.c.hint_misses, 1u);      // the MOVED answer fixed C's hint
}

// ---- a request that parks while its end's move bounces ----------------------

// C watches L (its status signal parks at A) while A ships its end of L
// to B, and C calls on L `offset` after A's shipping call began.  Wherever
// C's request meets the end — parked at A before the move, arriving
// while the move's bounce answers the parked signal MOVED, or after A
// forgot the end — it must reach B.  A request that parks while the
// bounce runs is answered by the same bounce; one the bounce skipped
// would wait at A until A exits, 2 s later.
std::vector<std::string> call_during_move(sim::Duration offset) {
  sim::Engine engine;
  SodaDirectory directory;
  net::CsmaBus bus(engine, sim::Rng(7), quiet_bus());
  soda::Network network(engine, 6, bus);
  Process a(engine, "A",
            std::make_unique<SodaBackend>(network, directory, NodeId(0)));
  Process b(engine, "B",
            std::make_unique<SodaBackend>(network, directory, NodeId(1)));
  Process c(engine, "C",
            std::make_unique<SodaBackend>(network, directory, NodeId(2)));
  for (Process* p : {&a, &b, &c}) p->start();
  std::pair<LinkHandle, LinkHandle> ab, l;  // l = A<->C, the moving link
  engine.spawn("wire", [](Process* pa, Process* pb, Process* pc,
                          std::pair<LinkHandle, LinkHandle>* wab,
                          std::pair<LinkHandle, LinkHandle>* wl)
                           -> sim::Task<> {
    *wab = co_await SodaBackend::connect(*pa, *pb);
    *wl = co_await SodaBackend::connect(*pa, *pc);
  }(&a, &b, &c, &ab, &l));
  engine.run();

  std::vector<std::string> log;
  a.spawn_thread("ship", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle via, LinkHandle moving,
              std::vector<std::string>* lg) -> sim::Task<> {
      Message req = make_message("take", {moving});
      (void)co_await cx.call(via, std::move(req));
      lg->push_back("a-shipped");
      co_await cx.delay(sim::sec(2));
    }(ctx, ab.first, l.first, &log);
  });
  b.spawn_thread("takeserve", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle via,
              std::vector<std::string>* lg) -> sim::Task<> {
      cx.enable_requests(via);
      Incoming in = co_await cx.receive();
      LinkHandle got = std::get<LinkHandle>(in.msg.args.at(0));
      Message empty;
      co_await cx.reply(in, std::move(empty));
      cx.enable_requests(got);
      Incoming r = co_await cx.receive();
      lg->push_back("b-served:" + r.msg.op);
      Message rep;
      co_await cx.reply(r, std::move(rep));
    }(ctx, ab.second, &log);
  });
  c.spawn_thread("caller", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle mine, sim::Duration at,
              std::vector<std::string>* lg) -> sim::Task<> {
      cx.enable_requests(mine);
      co_await cx.delay(at);
      const sim::Time issued = cx.engine().now();
      Message req = make_message("call", {});
      (void)co_await cx.call(mine, std::move(req));
      lg->push_back(cx.engine().now() - issued < sim::sec(1) ? "c-returned"
                                                             : "c-late");
    }(ctx, l.second, offset, &log);
  });
  engine.run();
  for (Process* p : {&a, &b, &c}) {
    for (const std::string& f : p->thread_failures()) log.push_back(f);
  }
  return log;
}

TEST(LynxSoda, RequestParkedDuringMoveBounceReachesNewOwner) {
  for (sim::Duration at = 0; at <= sim::msec(20); at += sim::usec(100)) {
    std::vector<std::string> log = call_during_move(at);
    std::sort(log.begin(), log.end());
    EXPECT_EQ(log, (std::vector<std::string>{"a-shipped", "b-served:call",
                                             "c-returned"}))
        << "C calls " << at << " ns after A begins shipping";
  }
}

// An end that moved A->B, back to A, then A->C leaves two entries for
// its name in A's moved cache.  The dormant peer D still hints A; A must
// answer with the newest entry (C).  Answering with the oldest (B) sends
// D to B, whose own cache sends it back to A, and the call ping-pongs
// between the two for as long as they both live.
TEST(LynxSoda, ReturnedThenMovedEndRedirectsToNewestOwner) {
  sim::Engine engine;
  SodaDirectory directory;
  net::CsmaBus bus(engine, sim::Rng(7), quiet_bus());
  soda::Network network(engine, 6, bus);
  Process a(engine, "A",
            std::make_unique<SodaBackend>(network, directory, NodeId(0)));
  Process b(engine, "B",
            std::make_unique<SodaBackend>(network, directory, NodeId(1)));
  Process c(engine, "C",
            std::make_unique<SodaBackend>(network, directory, NodeId(2)));
  Process d(engine, "D",
            std::make_unique<SodaBackend>(network, directory, NodeId(3)));
  for (Process* p : {&a, &b, &c, &d}) p->start();
  // A<->B and A<->C carry the end; L = A<->D is the link that moves.
  std::pair<LinkHandle, LinkHandle> ab, ac, l;
  engine.spawn("wire", [](Process* pa, Process* pb, Process* pc, Process* pd,
                          std::pair<LinkHandle, LinkHandle>* wab,
                          std::pair<LinkHandle, LinkHandle>* wac,
                          std::pair<LinkHandle, LinkHandle>* wl)
                           -> sim::Task<> {
    *wab = co_await SodaBackend::connect(*pa, *pb);
    *wac = co_await SodaBackend::connect(*pa, *pc);
    *wl = co_await SodaBackend::connect(*pa, *pd);
  }(&a, &b, &c, &d, &ab, &ac, &l));
  engine.run();

  std::vector<std::string> log;
  // A: ship L to B and take it back in the reply, then ship it to C.
  a.spawn_thread("shuttle", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle to_b, LinkHandle to_c,
              LinkHandle moving, std::vector<std::string>* lg)
               -> sim::Task<> {
      Message there = make_message("take", {moving});
      Message back = co_await cx.call(to_b, std::move(there));
      Message onward = make_message("take", {back.args.at(0)});
      (void)co_await cx.call(to_c, std::move(onward));
      lg->push_back("a-shipped");
      co_await cx.delay(sim::sec(20));
    }(ctx, ab.first, ac.first, l.first, &log);
  });
  // B: return the end in its reply, then stay alive.
  b.spawn_thread("bounce", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle via) -> sim::Task<> {
      cx.enable_requests(via);
      Incoming in = co_await cx.receive();
      Message rep;
      rep.args.push_back(in.msg.args.at(0));
      co_await cx.reply(in, std::move(rep));
      co_await cx.delay(sim::sec(20));
    }(ctx, ab.second);
  });
  // C: keep the end and serve one request on it.
  c.spawn_thread("keep", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle via,
              std::vector<std::string>* lg) -> sim::Task<> {
      cx.enable_requests(via);
      Incoming in = co_await cx.receive();
      LinkHandle got = std::get<LinkHandle>(in.msg.args.at(0));
      Message empty;
      co_await cx.reply(in, std::move(empty));
      cx.enable_requests(got);
      Incoming r = co_await cx.receive();
      lg->push_back("c-served:" + r.msg.op);
      Message rep;
      co_await cx.reply(r, std::move(rep));
    }(ctx, ac.second, &log);
  });
  // D: dormant until 2 s, then call on L with a hint that still names A.
  sim::Time issued = 0;
  sim::Time done = 0;
  d.spawn_thread("late", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, sim::Engine* eng, LinkHandle l, sim::Time* t0,
              sim::Time* t1, std::vector<std::string>* lg) -> sim::Task<> {
      co_await cx.delay(sim::sec(2));
      *t0 = eng->now();
      Message req = make_message("late", {});
      (void)co_await cx.call(l, std::move(req));
      *t1 = eng->now();
      lg->push_back("d-late-ok");
    }(ctx, &engine, l.second, &issued, &done, &log);
  });
  engine.run();
  ASSERT_EQ(log, (std::vector<std::string>{"a-shipped", "c-served:late",
                                           "d-late-ok"}))
      << join(a.thread_failures()) << join(b.thread_failures())
      << join(c.thread_failures()) << join(d.thread_failures());
  EXPECT_LE(done - issued, sim::sec(1));
  EXPECT_LE(engine.counts(3).hint_misses, 2u);  // D's node
}

}  // namespace
}  // namespace lynx
