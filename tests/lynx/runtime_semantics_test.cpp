// Runtime-semantics tests (backend-independent rules from paper §2.1),
// run over the Chrysalis backend for speed.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "../support/co_check.hpp"
#include "load/universe.hpp"
#include "lynx/chrysalis_backend.hpp"
#include "lynx/runtime.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace lynx {
namespace {

using net::NodeId;

struct World {
  sim::Engine engine;
  chrysalis::Kernel kernel{engine};
  Process server{engine, "server",
                 std::make_unique<ChrysalisBackend>(kernel, NodeId(0))};
  Process client{engine, "client",
                 std::make_unique<ChrysalisBackend>(kernel, NodeId(1))};
  LinkHandle server_end;
  LinkHandle client_end;

  void boot() {
    server.start();
    client.start();
    engine.spawn("connect", wire(this));
    engine.run();
  }
  static sim::Task<> wire(World* w) {
    auto [se, ce] = co_await ChrysalisBackend::connect(w->server, w->client);
    w->server_end = se;
    w->client_end = ce;
  }
};

// ---- typed operations -------------------------------------------------------

sim::Task<> bad_replier(ThreadCtx& ctx, LinkHandle link) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  // Reply op is forced to match the request: the runtime rewrites it.
  Message rep;
  rep.op = "totally-wrong";
  co_await ctx.reply(in, std::move(rep));
}

TEST(LynxSemantics, ReplyOpAlwaysAnswersTheRequest) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("bad", [&](ThreadCtx& ctx) {
    return bad_replier(ctx, w.server_end);
  });
  w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      Message req = make_message("compute", {});
      Message rep = co_await c.call(l, std::move(req));
      lg->push_back("op:" + rep.op);
    }(ctx, w.client_end, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "op:compute");
}

TEST(LynxSemantics, UndeclaredOperationIsRejected) {
  World w;
  w.boot();
  w.server.declare_operation("read");
  w.server.declare_operation("write");
  std::vector<std::string> log;
  w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l) -> sim::Task<> {
      c.enable_requests(l);
      Incoming in = co_await c.receive();  // only 'read' gets through
      CO_CHECK_EQ(in.msg.op, "read");
      Message rep;
      co_await c.reply(in, std::move(rep));
    }(ctx, w.server_end);
  });
  w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      try {
        // The rejection carries the enclosed end back.
        LocalLinkPair spare = co_await c.new_link();
        Message bad = make_message("format-disk", {spare.end2});
        (void)co_await c.call(l, std::move(bad));
        lg->push_back("unexpected-success");
      } catch (const LynxError& e) {
        lg->push_back(std::string("rejected:") + to_string(e.kind()));
      }
      Message good = make_message("read", {});
      (void)co_await c.call(l, std::move(good));
      lg->push_back("read-ok");
    }(ctx, w.client_end, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "rejected:operation-rejected");
  EXPECT_EQ(log[1], "read-ok");
  EXPECT_TRUE(w.engine.process_failures().empty());
  EXPECT_TRUE(w.client.thread_failures().empty());
  EXPECT_TRUE(w.server.thread_failures().empty());
}

// ---- enclosure restrictions (§2.1) ------------------------------------------

TEST(LynxSemantics, CannotEncloseCarrierEnd) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      try {
        Message req = make_message("take", {l});  // enclose the carrier!
        (void)co_await c.call(l, std::move(req));
        lg->push_back("unexpected-success");
      } catch (const LynxError& e) {
        lg->push_back(std::string("caught:") + to_string(e.kind()));
      }
      Message again = make_message("take", {});
      (void)co_await c.call(l, std::move(again));
      lg->push_back("took");
    }(ctx, w.client_end, &log);
  });
  // A reply may not enclose its carrier either; the obligation survives.
  w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      c.enable_requests(l);
      Incoming in = co_await c.receive();
      try {
        Message rep = make_message("take", {l});  // enclose the carrier!
        co_await c.reply(in, std::move(rep));
        lg->push_back("unexpected-reply");
      } catch (const LynxError& e) {
        lg->push_back(std::string("reply-caught:") + to_string(e.kind()));
      }
      Message ok;
      co_await c.reply(in, std::move(ok));
    }(ctx, w.server_end, &log);
  });
  w.engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"caught:link-busy",
                                           "reply-caught:link-busy", "took"}));
}

// "a process is not permitted to move a link ... on which it owes a
// reply for an already-received request"
sim::Task<> owing_server(ThreadCtx& ctx, LinkHandle front, LinkHandle other,
                         std::vector<std::string>* log) {
  ctx.enable_requests(front);
  Incoming in = co_await ctx.receive();  // we now owe a reply on `front`
  try {
    Message req = make_message("move-it", {front});
    (void)co_await ctx.call(other, std::move(req));
    log->push_back("unexpected-success");
  } catch (const LynxError& e) {
    log->push_back(std::string("caught:") + to_string(e.kind()));
  }
  Message rep;
  co_await ctx.reply(in, std::move(rep));
  log->push_back("replied");
}

TEST(LynxSemantics, CannotMoveEndWithOwedReply) {
  sim::Engine engine;
  chrysalis::Kernel kernel(engine);
  Process a(engine, "a", std::make_unique<ChrysalisBackend>(kernel, NodeId(0)));
  Process b(engine, "b", std::make_unique<ChrysalisBackend>(kernel, NodeId(1)));
  Process c(engine, "c", std::make_unique<ChrysalisBackend>(kernel, NodeId(2)));
  a.start();
  b.start();
  c.start();
  LinkHandle ab_a, ab_b, ac_a, ac_c;
  engine.spawn("wire", [](Process* pa, Process* pb, Process* pc,
                          LinkHandle* o1, LinkHandle* o2, LinkHandle* o3,
                          LinkHandle* o4) -> sim::Task<> {
    auto [x1, y1] = co_await ChrysalisBackend::connect(*pa, *pb);
    *o1 = x1;
    *o2 = y1;
    auto [x2, y2] = co_await ChrysalisBackend::connect(*pa, *pc);
    *o3 = x2;
    *o4 = y2;
  }(&a, &b, &c, &ab_a, &ab_b, &ac_a, &ac_c));
  engine.run();

  std::vector<std::string> log;
  a.spawn_thread("owing", [&](ThreadCtx& ctx) {
    return owing_server(ctx, ab_a, ac_a, &log);
  });
  b.spawn_thread("caller", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      Message req = make_message("op", {});
      (void)co_await cx.call(l, std::move(req));
      lg->push_back("caller-done");
    }(ctx, ab_b, &log);
  });
  c.spawn_thread("sink", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle l) -> sim::Task<> {
      cx.enable_requests(l);
      co_await cx.delay(sim::sec(1));
    }(ctx, ac_c);
  });
  engine.run();
  ASSERT_GE(log.size(), 3u);
  EXPECT_EQ(log[0], "caught:link-busy");
  EXPECT_EQ(log[1], "replied");
  EXPECT_EQ(log[2], "caller-done");
}

// ---- per-link call serialization ---------------------------------------------

// Two client threads call on the SAME link; stop-and-wait means the
// second call must queue behind the first — both complete, in order.
sim::Task<> numbered_caller(ThreadCtx& ctx, LinkHandle link, int id,
                            std::vector<int>* order) {
  Message req = make_message("op", {std::int64_t(id)});
  Message rep = co_await ctx.call(link, std::move(req));
  order->push_back(static_cast<int>(std::get<std::int64_t>(rep.args.at(0))));
}

// Both ends serve one request and call once on their one link.
sim::Task<> serve_one(ThreadCtx& ctx, LinkHandle link,
                      std::vector<std::string>* log) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  Message rep;
  co_await ctx.reply(in, std::move(rep));
  log->push_back("served:" + in.msg.op);
}

sim::Task<> call_after(ThreadCtx& ctx, LinkHandle link, sim::Duration after,
                       std::string op, std::vector<std::string>* log) {
  co_await ctx.delay(after);
  Message req = make_message(op, {});
  (void)co_await ctx.call(link, std::move(req));
  log->push_back("returned:" + op);
}

TEST(LynxSemantics, CallsOnOneLinkSerialize) {
  World w;
  w.boot();
  std::vector<int> order;
  w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l) -> sim::Task<> {
      c.enable_requests(l);
      for (int i = 0; i < 3; ++i) {
        Incoming in = co_await c.receive();
        Message rep;
        rep.args = in.msg.args;
        co_await c.reply(in, std::move(rep));
      }
    }(ctx, w.server_end);
  });
  for (int i = 0; i < 3; ++i) {
    w.client.spawn_thread("cli" + std::to_string(i), [&, i](ThreadCtx& ctx) {
      return numbered_caller(ctx, w.client_end, i, &order);
    });
  }
  w.engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(w.client.thread_failures().empty());

  // A reply in flight holds its link like a call does: a call the
  // replier's process makes on the same link, at any moment of the
  // reply, waits for it.
  std::set<std::vector<std::string>> logs;
  for (sim::Duration at = 0; at <= sim::msec(6); at += sim::usec(50)) {
    World v;
    v.boot();
    std::vector<std::string> log;
    v.server.spawn_thread("serve", [&](ThreadCtx& ctx) {
      return serve_one(ctx, v.server_end, &log);
    });
    v.client.spawn_thread("call", [&](ThreadCtx& ctx) {
      return call_after(ctx, v.client_end, 0, "ping", &log);
    });
    v.client.spawn_thread("serve", [&](ThreadCtx& ctx) {
      return serve_one(ctx, v.client_end, &log);
    });
    v.server.spawn_thread("call", [&](ThreadCtx& ctx) {
      return call_after(ctx, v.server_end, at, "pong", &log);
    });
    v.engine.run();
    EXPECT_TRUE(v.engine.process_failures().empty()) << "at " << at;
    EXPECT_TRUE(v.server.thread_failures().empty()) << "at " << at;
    EXPECT_TRUE(v.client.thread_failures().empty()) << "at " << at;
    std::sort(log.begin(), log.end());
    logs.insert(log);
  }
  EXPECT_EQ(logs, (std::set<std::vector<std::string>>{
                      {"returned:ping", "returned:pong", "served:ping",
                       "served:pong"}}));
}

// The server never opens its queue and exits after 100 ms: the call in
// flight and both callers queued behind it must all feel the link die.
sim::Task<> outcome_caller(ThreadCtx& ctx, LinkHandle link,
                           std::vector<std::string>* log) {
  try {
    Message req = make_message("op", {});
    (void)co_await ctx.call(link, std::move(req));
    log->push_back("unexpected-reply");
  } catch (const LynxError& e) {
    log->push_back(to_string(e.kind()));
  }
}

TEST(LynxSemantics, EveryQueuedCallerFeelsLinkDeath) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("idle", [](ThreadCtx& ctx) {
    return ctx.delay(sim::msec(100));
  });
  for (int i = 0; i < 3; ++i) {
    w.client.spawn_thread("cli" + std::to_string(i), [&](ThreadCtx& ctx) {
      return outcome_caller(ctx, w.client_end, &log);
    });
  }
  w.engine.run();
  EXPECT_EQ(log, (std::vector<std::string>(3, "link-destroyed")));
}

// A local destroy releases every caller on the link.  One caller's
// call is outstanding and a second queues behind it when a third
// thread of the client destroys the link: both callers must feel
// link-destroyed, on every substrate, whether the server has taken the
// first request and sits on it (destroyed at 200 ms, once the request
// is delivered everywhere: the caller awaits its reply) or never opens
// its queue (destroyed at 20 ms: the request is still being sent).
sim::Task<> hold_request(ThreadCtx& ctx, LinkHandle link) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  co_await ctx.delay(sim::msec(500));
  try {
    Message rep;
    co_await ctx.reply(in, std::move(rep));
  } catch (const LynxError&) {
    // the client destroyed the link long ago
  }
}

sim::Task<> destroy_after(ThreadCtx& ctx, LinkHandle link, sim::Duration at,
                          std::vector<std::string>* log) {
  co_await ctx.delay(at);
  co_await ctx.destroy(link);
  log->push_back("destroyed");
}

sim::Task<> wire_destroy_race(load::Universe* u, Process* client,
                              Process* server, bool server_receives,
                              std::vector<std::string>* log) {
  auto [ce, se] = co_await u->connect(*client, *server);
  server->spawn_thread("server", [se, server_receives](ThreadCtx& ctx) {
    return server_receives ? hold_request(ctx, se)
                           : ctx.delay(sim::msec(500));
  });
  const sim::Duration destroy_at =
      server_receives ? sim::msec(200) : sim::msec(20);
  for (int i = 0; i < 2; ++i) {
    client->spawn_thread("cli" + std::to_string(i), [ce, log](ThreadCtx& ctx) {
      return outcome_caller(ctx, ce, log);
    });
  }
  client->spawn_thread("destroyer", [ce, destroy_at, log](ThreadCtx& ctx) {
    return destroy_after(ctx, ce, destroy_at, log);
  });
}

TEST(LynxSemantics, LocalDestroyReleasesEveryCaller) {
  for (const bool server_receives : {true, false}) {
    for (load::Substrate sub : load::all_substrates()) {
      sim::Engine engine;
      load::UniverseSpec spec;
      spec.substrate = sub;
      load::Universe u(engine, spec);
      Process& client = u.spawn("client", 0);
      Process& server = u.spawn("server", 1);
      std::vector<std::string> log;
      engine.spawn("wire", wire_destroy_race(&u, &client, &server,
                                             server_receives, &log));
      engine.run();
      std::sort(log.begin(), log.end());
      const std::string where = std::string(load::to_string(sub)) +
                                (server_receives ? ", reply awaited"
                                                 : ", request in flight");
      EXPECT_EQ(log, (std::vector<std::string>{"destroyed", "link-destroyed",
                                               "link-destroyed"}))
          << where;
      EXPECT_TRUE(client.thread_failures().empty()) << where;
    }
  }
}

// An abort that lands anywhere in an echo, on either side of the
// replier's send, settles that send once and touches nothing the
// runtime freed after it: on each substrate the replier is aborted at
// every 250 µs offset into the echo, until well past its end.  Both
// threads always finish, and each substrate's outcome counts are
// pinned.  (The ASan build is what sees a send read after it was
// freed.)
sim::Task<> echo_once(ThreadCtx& ctx, LinkHandle link, std::string* outcome) {
  try {
    ctx.enable_requests(link);
    Incoming in = co_await ctx.receive();
    Message rep;
    co_await ctx.reply(in, std::move(rep));
    *outcome = "replied";
  } catch (const LynxError& e) {
    *outcome = to_string(e.kind());
  }
}

sim::Task<> call_once(ThreadCtx& ctx, LinkHandle link, std::string* outcome) {
  try {
    Message req = make_message("echo", {});
    (void)co_await ctx.call(link, std::move(req));
    *outcome = "returned";
  } catch (const LynxError& e) {
    *outcome = to_string(e.kind());
  }
}

sim::Task<> wire_aborted_echo(load::Universe* u, Process* client,
                              Process* server, sim::Duration abort_at,
                              std::string* served, std::string* called) {
  auto [ce, se] = co_await u->connect(*client, *server);
  const ThreadId tid = server->spawn_thread("srv", [se, served](ThreadCtx& c) {
    return echo_once(c, se, served);
  });
  client->spawn_thread("cli", [ce, called](ThreadCtx& c) {
    return call_once(c, ce, called);
  });
  u->engine().schedule(abort_at,
                       [server, tid] { server->abort_thread(tid); });
}

TEST(LynxSemantics, AbortAcrossAReplySettlesItsSendOnce) {
  using Counts = std::map<std::string, int>;
  const std::map<load::Substrate, std::pair<sim::Duration, Counts>> pinned{
      {load::Substrate::kCharlotte,
       {sim::msec(120),
        {{"aborted/link-destroyed", 113}, {"replied/returned", 367}}}},
      {load::Substrate::kSoda,
       {sim::msec(40),
        {{"aborted/link-destroyed", 37}, {"replied/returned", 123}}}},
      {load::Substrate::kChrysalis,
       {sim::msec(40),
        {{"aborted/link-destroyed", 5}, {"replied/returned", 155}}}},
  };
  for (const auto& [sub, until_counts] : pinned) {
    const auto& [until, expected] = until_counts;
    Counts outcomes;
    for (sim::Duration at = sim::usec(250); at <= until;
         at += sim::usec(250)) {
      sim::Engine engine;
      load::UniverseSpec spec;
      spec.substrate = sub;
      load::Universe u(engine, spec);
      Process& client = u.spawn("client", 0);
      Process& server = u.spawn("server", 1);
      std::string served = "unfinished";
      std::string called = "unfinished";
      engine.spawn("wire", wire_aborted_echo(&u, &client, &server, at,
                                             &served, &called));
      engine.run();
      EXPECT_TRUE(engine.process_failures().empty()) << "at " << at;
      ++outcomes[served + "/" + called];
    }
    EXPECT_EQ(outcomes, expected) << load::to_string(sub);
  }
}

// A send stays cancellable only while it is awaited.  This backend
// settles each send from an event of its own and, in that same event,
// aborts the sender before its thread resumes: the runtime must not
// cancel a send that has already settled (on Charlotte and SODA an
// early-settled reply is still at the kernel, where a cancel could
// revoke a reply the server was told went out).
class SettleThenAbortBackend final : public Backend {
 public:
  explicit SettleThenAbortBackend(sim::Engine& engine) : engine_(&engine) {}

  [[nodiscard]] Capabilities capabilities() const override { return {}; }
  void start(Sink) override {}
  void shutdown() override {}
  [[nodiscard]] std::size_t header_bytes(std::size_t) const override {
    return 0;
  }
  [[nodiscard]] std::size_t max_packet_bytes() const override {
    return 1 << 16;
  }
  [[nodiscard]] sim::Task<std::pair<BLink, BLink>> make_link() override {
    co_return std::pair(BLink(1), BLink(2));
  }
  void begin_send(BLink, WireMessage, std::uint64_t id) override {
    engine_->schedule(sim::usec(10), [this, id] {
      settle(id, SendOutcome{});
      after_settle();
    });
  }
  void cancel_send(std::uint64_t id) override { cancelled.push_back(id); }
  void set_interest(BLink, bool, bool) override {}
  void retract_reply_interest(BLink) override {}
  [[nodiscard]] sim::Task<void> destroy(BLink) override { co_return; }

  std::function<void()> after_settle;
  std::vector<std::uint64_t> cancelled;

 private:
  sim::Engine* engine_;
};

sim::Task<> call_unanswered(ThreadCtx& ctx, LinkHandle link) {
  Message req = make_message("echo", {});
  (void)co_await ctx.call(link, std::move(req));
}

TEST(LynxSemantics, AbortAfterASendSettlesDoesNotCancelIt) {
  sim::Engine engine;
  auto backend = std::make_unique<SettleThenAbortBackend>(engine);
  SettleThenAbortBackend* fake = backend.get();
  Process p(engine, "p", std::move(backend));
  const LinkHandle link = p.adopt_link(BLink(1));
  p.start();
  const ThreadId tid = p.spawn_thread("caller", [link](ThreadCtx& ctx) {
    return call_unanswered(ctx, link);
  });
  fake->after_settle = [&p, tid] { p.abort_thread(tid); };
  engine.run();
  EXPECT_TRUE(fake->cancelled.empty());
}

// ---- message size: the backend's buffer ------------------------------------

// The echo argument whose packet (header plus serialized body) is
// exactly `packet` bytes.
std::size_t arg_bytes_for_packet(const Backend& b, std::size_t packet) {
  const Serialized empty = serialize(make_message("echo", {Bytes{}}));
  return packet - b.header_bytes(0) - empty.body.size();
}

sim::Task<> echo_n(ThreadCtx& ctx, LinkHandle link, int n) {
  ctx.enable_requests(link);
  for (int i = 0; i < n; ++i) {
    Incoming in = co_await ctx.receive();
    Message rep;
    rep.args = in.msg.args;
    co_await ctx.reply(in, std::move(rep));
  }
}

// Calls with each argument size in turn; logs the echoed size or the
// error kind.
sim::Task<> call_sizes(ThreadCtx& ctx, LinkHandle link,
                       std::vector<std::size_t> sizes,
                       std::vector<std::string>* log) {
  for (const std::size_t n : sizes) {
    try {
      Message req = make_message("echo", {Bytes(n, 7)});
      Message rep = co_await ctx.call(link, std::move(req));
      log->push_back(std::to_string(std::get<Bytes>(rep.args.at(0)).size()));
    } catch (const LynxError& e) {
      log->push_back(to_string(e.kind()));
    }
  }
}

sim::Task<> wire_sizes(load::Universe* u, Process* client, Process* server,
                       std::vector<std::size_t> sizes,
                       std::vector<std::string>* log) {
  auto [ce, se] = co_await u->connect(*client, *server);
  server->spawn_thread("srv", [se](ThreadCtx& c) { return echo_n(c, se, 2); });
  client->spawn_thread("cli", [ce, sizes, log](ThreadCtx& c) {
    return call_sizes(c, ce, sizes, log);
  });
}

// The largest message whose packet fills the receiving buffer echoes
// whole; one byte more fails the calling thread with kMessageTooLarge
// before anything is sent, and the link still carries a small call.
TEST(LynxSemantics, OversizedMessageFailsTheCallNotTheProcess) {
  for (const load::Substrate sub : load::all_substrates()) {
    sim::Engine engine;
    load::UniverseSpec spec;
    spec.substrate = sub;
    load::Universe u(engine, spec);
    Process& client = u.spawn("client", 0);
    Process& server = u.spawn("server", 1);
    const std::size_t limit = client.backend().max_packet_bytes();
    const std::size_t fits = arg_bytes_for_packet(client.backend(), limit);
    const Serialized full = serialize(make_message("echo", {Bytes(fits, 7)}));
    ASSERT_EQ(client.backend().header_bytes(0) + full.body.size(), limit);
    std::vector<std::string> log;
    engine.spawn("wire", wire_sizes(&u, &client, &server, {fits, fits + 1, 8},
                                    &log));
    engine.run();
    EXPECT_EQ(log, (std::vector<std::string>{std::to_string(fits),
                                             "message-too-large", "8"}))
        << load::to_string(sub);
    EXPECT_TRUE(engine.process_failures().empty()) << load::to_string(sub);
  }
}

// ---- message ordering within a queue (§2.1) -----------------------------------

TEST(LynxSemantics, MessagesInOneQueueArriveInOrder) {
  World w;
  w.boot();
  std::vector<int> seen;
  w.server.spawn_thread("srv", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l, std::vector<int>* out) -> sim::Task<> {
      c.enable_requests(l);
      for (int i = 0; i < 10; ++i) {
        Incoming in = co_await c.receive();
        out->push_back(
            static_cast<int>(std::get<std::int64_t>(in.msg.args.at(0))));
        Message rep;
        co_await c.reply(in, std::move(rep));
      }
    }(ctx, w.server_end, &seen);
  });
  w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l) -> sim::Task<> {
      for (int i = 0; i < 10; ++i) {
        Message req = make_message("op", {std::int64_t(i)});
        (void)co_await c.call(l, std::move(req));
      }
    }(ctx, w.client_end);
  });
  w.engine.run();
  std::vector<int> expect;
  for (int i = 0; i < 10; ++i) expect.push_back(i);
  EXPECT_EQ(seen, expect);
}

// ---- invalid handles ------------------------------------------------------------

TEST(LynxSemantics, InvalidHandleThrows) {
  World w;
  std::vector<std::string> log;
  w.client.spawn_thread("cli", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, std::vector<std::string>* lg) -> sim::Task<> {
      try {
        Message req = make_message("x", {});
        (void)co_await c.call(LinkHandle(424242), std::move(req));
      } catch (const LynxError& e) {
        lg->push_back(std::string("call:") + to_string(e.kind()));
      }
      try {
        c.enable_requests(LinkHandle(424242));
      } catch (const LynxError& e) {
        lg->push_back(std::string("enable:") + to_string(e.kind()));
      }
    }(ctx, &log);
  });
  w.boot();  // a thread registered before start() runs once it starts
  w.engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "call:invalid-link");
  EXPECT_EQ(log[1], "enable:invalid-link");
}

// ---- abort while blocked in receive ---------------------------------------------

TEST(LynxSemantics, AbortWakesBlockedReceiver) {
  World w;
  trace::Recorder rec(w.engine);
  w.boot();
  std::vector<std::string> log;
  ThreadId tid = w.server.spawn_thread("blocked", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c, LinkHandle l,
              std::vector<std::string>* lg) -> sim::Task<> {
      c.enable_requests(l);
      try {
        (void)co_await c.receive();
        lg->push_back("unexpected-message");
      } catch (const LynxError& e) {
        lg->push_back(std::string("caught:") + to_string(e.kind()));
      }
    }(ctx, w.server_end, &log);
  });
  w.client.spawn_thread("idle", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c) -> sim::Task<> {
      co_await c.delay(sim::msec(100));
    }(ctx);
  });
  w.engine.schedule(sim::msec(20), [&, tid] { w.server.abort_thread(tid); });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "caught:aborted");
  // The abort was announced on the trace, where the checker reads it.
  std::vector<std::uint64_t> announced;
  for (const trace::Record& r : rec.snapshot()) {
    if (r.kind == trace::Kind::kInstant &&
        rec.label_name(r.label) == "rpc.error") {
      announced.push_back(r.a);
    }
  }
  EXPECT_EQ(announced, (std::vector<std::uint64_t>{
                           static_cast<std::uint64_t>(ErrorKind::kAborted)}));
}

}  // namespace
}  // namespace lynx
