// End-to-end tests: LYNX runtime over the Charlotte backend.
//
// Includes the paper's §3.2.1 unwanted-message scenarios (retry /
// forbid / allow), the figure-2 multi-enclosure protocol, and the two
// documented semantic deviations.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "../support/co_check.hpp"
#include "lynx/charlotte_backend.hpp"
#include "lynx/runtime.hpp"
#include "net/token_ring.hpp"
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
  sim::Engine engine;
  net::TokenRing ring{engine};
  charlotte::Cluster cluster{engine, 4, ring};
  Process server{engine, "server",
                 std::make_unique<CharlotteBackend>(cluster, NodeId(0))};
  Process client{engine, "client",
                 std::make_unique<CharlotteBackend>(cluster, NodeId(1))};
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
    auto [se, ce] = co_await CharlotteBackend::connect(w->server, w->client);
    w->server_end = se;
    w->client_end = ce;
  }

  // Each process's node's protocol counts.
  [[nodiscard]] sim::Counts& server_counts() { return engine.counts(0); }
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
    Message req = make_message("echo", {std::string("m") + std::to_string(i)});
    Message rep = co_await ctx.call(link, std::move(req));
    log->push_back(std::get<std::string>(rep.args.at(0)));
  }
}

TEST(LynxCharlotte, EchoRpcRoundTrips) {
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
  EXPECT_EQ(log, (std::vector<std::string>{"m0", "m1", "m2"}))
      << join(w.server.thread_failures()) << join(w.client.thread_failures());
  EXPECT_TRUE(w.engine.process_failures().empty());
  // simple case (figure 2 top): exactly 1 request + 1 reply per op,
  // no retry/forbid/goahead traffic
  EXPECT_EQ(w.client_counts().requests_sent, 3u);
  EXPECT_EQ(w.server_counts().replies_sent, 3u);
  EXPECT_EQ(w.client_counts().requests_returned, 0u);
  EXPECT_EQ(w.server_counts().forbids_sent, 0u);
  EXPECT_EQ(w.server_counts().retries_sent, 0u);
}

TEST(LynxCharlotte, LatencyIsTensOfMilliseconds) {
  // §3.3: a simple remote operation costs ~57 ms on Charlotte.  The
  // exact number is calibrated by the benches; here just pin the band.
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("serve", [&](ThreadCtx& ctx) {
    return echo_server_thread(ctx, w.server_end, 1);
  });
  w.client.spawn_thread("drive", [&](ThreadCtx& ctx) {
    return echo_client_thread(ctx, w.client_end, 1, &log);
  });
  const sim::Time before = w.engine.now();
  w.engine.run();
  const double ms = sim::to_msec(w.engine.now() - before);
  EXPECT_GT(ms, 20.0);
  EXPECT_LT(ms, 200.0);
}

// ---- single enclosure move -------------------------------------------------

sim::Task<> single_mover(ThreadCtx& ctx, LinkHandle via,
                         std::vector<std::string>* log) {
  LocalLinkPair pair = co_await ctx.new_link();
  Message req = make_message("take", {pair.end2});
  Message rep = co_await ctx.call(via, std::move(req));
  (void)rep;
  Message probe = make_message("probe", {std::int64_t(7)});
  Message r = co_await ctx.call(pair.end1, std::move(probe));
  log->push_back("probe:" +
                 std::to_string(std::get<std::int64_t>(r.args.at(0))));
}

sim::Task<> single_taker(ThreadCtx& ctx, LinkHandle via,
                         std::vector<std::string>* log) {
  ctx.enable_requests(via);
  Incoming in = co_await ctx.receive();
  CO_CHECK_EQ(in.msg.count_links(), 1u);
  LinkHandle got = std::get<LinkHandle>(in.msg.args.at(0));
  Message empty;
  co_await ctx.reply(in, std::move(empty));
  ctx.enable_requests(got);
  Incoming probe = co_await ctx.receive();
  log->push_back("taker-got:" + probe.msg.op);
  Message rep;
  rep.args = probe.msg.args;
  co_await ctx.reply(probe, std::move(rep));
}

TEST(LynxCharlotte, MovesSingleLinkAcrossProcesses) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("take", [&](ThreadCtx& ctx) {
    return single_taker(ctx, w.server_end, &log);
  });
  w.client.spawn_thread("move", [&](ThreadCtx& ctx) {
    return single_mover(ctx, w.client_end, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 2u) << join(w.server.thread_failures())
                            << join(w.client.thread_failures());
  EXPECT_EQ(log[0], "taker-got:probe");
  EXPECT_EQ(log[1], "probe:7");
  // one enclosure: no goahead, no enc packets (figure 2 simple case)
  EXPECT_EQ(w.server_counts().goaheads_sent, 0u);
  EXPECT_EQ(w.client_counts().enc_packets_sent, 0u);
}

// ---- figure 2: multiple enclosures ------------------------------------------

// The caller probes n links whose far ends end up at the server.  The
// caller makes them and encloses their ends in its request, or, with
// `in_reply`, the server makes them and encloses its ends in the reply.
sim::Task<> multi_mover(ThreadCtx& ctx, LinkHandle via, int n,
                        std::vector<std::string>* log, bool in_reply = false) {
  std::vector<LinkHandle> keep;
  Message req = make_message("take", {});
  for (int i = 0; i < n && !in_reply; ++i) {
    LocalLinkPair pair = co_await ctx.new_link();
    keep.push_back(pair.end1);
    req.args.emplace_back(pair.end2);
  }
  Message rep = co_await ctx.call(via, std::move(req));
  if (in_reply) {
    CO_CHECK_EQ(static_cast<int>(rep.count_links()), n);
    for (const Value& v : rep.args) keep.push_back(std::get<LinkHandle>(v));
  }
  for (std::size_t i = 0; i < keep.size(); ++i) {
    Message probe = make_message("probe", {static_cast<std::int64_t>(i)});
    Message r = co_await ctx.call(keep[i], std::move(probe));
    log->push_back("ok" + std::to_string(std::get<std::int64_t>(r.args.at(0))));
  }
}

sim::Task<> multi_taker(ThreadCtx& ctx, LinkHandle via, int n,
                        std::vector<std::string>* log, bool in_reply = false) {
  ctx.enable_requests(via);
  Incoming in = co_await ctx.receive();
  std::vector<LinkHandle> got;
  Message rep;
  if (in_reply) {
    for (int i = 0; i < n; ++i) {
      LocalLinkPair pair = co_await ctx.new_link();
      got.push_back(pair.end1);
      rep.args.emplace_back(pair.end2);
    }
  } else {
    CO_CHECK_EQ(static_cast<int>(in.msg.count_links()), n);
    for (const Value& v : in.msg.args) got.push_back(std::get<LinkHandle>(v));
  }
  co_await ctx.reply(in, std::move(rep));
  log->push_back("took");
  for (LinkHandle h : got) ctx.enable_requests(h);
  for (int i = 0; i < n; ++i) {
    Incoming probe = co_await ctx.receive();
    Message rep;
    rep.args = probe.msg.args;
    co_await ctx.reply(probe, std::move(rep));
  }
}

TEST(LynxCharlotte, Figure2MultiEnclosureRequest) {
  World w;
  trace::Recorder rec(w.engine);
  w.boot();
  std::vector<std::string> log;
  constexpr int kLinks = 4;
  w.server.spawn_thread("take", [&](ThreadCtx& ctx) {
    return multi_taker(ctx, w.server_end, kLinks, &log);
  });
  w.client.spawn_thread("move", [&](ThreadCtx& ctx) {
    return multi_mover(ctx, w.client_end, kLinks, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u + kLinks)
      << join(w.server.thread_failures()) << join(w.client.thread_failures());
  // figure 2 bottom: first packet carries enclosure 1; the receiver
  // sends GOAHEAD; the remaining n-1 ride in ENC packets.
  EXPECT_EQ(w.server_counts().goaheads_sent, 1u);
  EXPECT_EQ(w.client_counts().enc_packets_sent,
            static_cast<std::uint64_t>(kLinks - 1));
  EXPECT_EQ(w.client_counts().requests_returned, 0u);
  // Every ENC packet carries the causal identity of its request.
  std::set<trace::TraceId> requests;
  std::vector<trace::TraceId> encs;
  for (const trace::Record& r : rec.snapshot()) {
    if (rec.label_name(r.label) == "pkt.request") requests.insert(r.trace);
    if (rec.label_name(r.label) == "pkt.enc") encs.push_back(r.trace);
  }
  ASSERT_EQ(encs.size(), static_cast<std::size_t>(kLinks - 1));
  for (trace::TraceId t : encs) EXPECT_TRUE(requests.contains(t)) << t;
}

TEST(LynxCharlotte, Figure2MultiEnclosureReply) {
  World w;
  w.boot();
  std::vector<std::string> log;
  constexpr int kLinks = 3;
  w.server.spawn_thread("give", [&](ThreadCtx& ctx) {
    return multi_taker(ctx, w.server_end, kLinks, &log, /*in_reply=*/true);
  });
  w.client.spawn_thread("take", [&](ThreadCtx& ctx) {
    return multi_mover(ctx, w.client_end, kLinks, &log, /*in_reply=*/true);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u + kLinks)
      << join(w.server.thread_failures()) << join(w.client.thread_failures());
  // A reply needs no GOAHEAD: its enclosures after the first stream
  // straight out in ENC packets.
  EXPECT_EQ(w.client_counts().goaheads_sent, 0u);
  EXPECT_EQ(w.server_counts().enc_packets_sent,
            static_cast<std::uint64_t>(kLinks - 1));
}

// ---- §3.2.1: bidirectional requests force FORBID ---------------------------

// A requests an operation on L and awaits the reply; B (in another
// coroutine, before the first one replies) requests an operation on L in
// the reverse direction — "the coroutine mechanism ... makes such a
// scenario entirely plausible".  A's Receive is posted (for the reply it
// wants), so A inadvertently receives B's request and must bounce it
// with FORBID; once A's own call completes and A opens its request
// queue, it sends ALLOW and B's request goes through.
sim::Task<> forbid_b_server(ThreadCtx& ctx, LinkHandle link,
                            std::vector<std::string>* log,
                            sim::Duration hold = sim::msec(150)) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();  // A's "forward"
  co_await ctx.delay(hold);              // window for the counter-request
  Message rep;
  co_await ctx.reply(in, std::move(rep));
  log->push_back("b-served-forward");
}

sim::Task<> forbid_b_counter(ThreadCtx& ctx, LinkHandle link,
                             std::vector<std::string>* log) {
  co_await ctx.delay(sim::msec(80));  // after A's request is in flight
  Message counter = make_message("reverse", {});
  Message rep = co_await ctx.call(link, std::move(counter));
  (void)rep;
  log->push_back("b-counter-done");
}

sim::Task<> forbid_client_a(ThreadCtx& ctx, LinkHandle link,
                            std::vector<std::string>* log) {
  // Request queue CLOSED during the call: B's counter-request is
  // unwanted when it arrives.
  Message req = make_message("forward", {});
  Message rep = co_await ctx.call(link, std::move(req));
  (void)rep;
  log->push_back("a-call-done");
  // Now willing: serve the counter-request.
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  CO_CHECK_EQ(in.msg.op, "reverse");
  Message r;
  co_await ctx.reply(in, std::move(r));
  log->push_back("a-served-reverse");
}

TEST(LynxCharlotte, BidirectionalRequestsTriggerForbidAllow) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("B-serve", [&](ThreadCtx& ctx) {
    return forbid_b_server(ctx, w.server_end, &log);
  });
  w.server.spawn_thread("B-counter", [&](ThreadCtx& ctx) {
    return forbid_b_counter(ctx, w.server_end, &log);
  });
  w.client.spawn_thread("A", [&](ThreadCtx& ctx) {
    return forbid_client_a(ctx, w.client_end, &log);
  });
  w.engine.run();
  EXPECT_EQ(log.size(), 4u) << join(w.server.thread_failures())
                            << join(w.client.thread_failures());
  // A received B's request unintentionally and bounced it once: after
  // a FORBID, B holds the request until A's ALLOW.
  EXPECT_EQ(w.client_counts().unwanted_received, 1u);
  EXPECT_EQ(w.client_counts().forbids_sent, 1u);
  EXPECT_EQ(w.client_counts().retries_sent, 0u);
  EXPECT_EQ(w.client_counts().allows_sent, 1u);
  EXPECT_EQ(w.server_counts().requests_returned, 1u);
}

// B replies to A's call at once and issues its counter-request at 48 ms,
// while the kernel has not yet acknowledged that reply: the request
// waits in the backend's queue.  Aborted there at 51 ms, it is revoked
// locally, so A, ready to serve it, never receives it.
sim::Task<> aborted_b_counter(ThreadCtx& ctx, LinkHandle link,
                              std::vector<std::string>* log) {
  co_await ctx.delay(sim::msec(48));
  try {
    Message counter = make_message("reverse", {});
    (void)co_await ctx.call(link, std::move(counter));
    log->push_back("b-counter-done");
  } catch (const LynxError& e) {
    log->push_back(std::string("b-counter:") + to_string(e.kind()));
  }
  co_await ctx.delay(sim::sec(1));  // B stays up: A could still be sent it
}

TEST(LynxCharlotte, AbortWhileQueuedRevokesTheRequest) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("B-serve", [&](ThreadCtx& ctx) {
    return forbid_b_server(ctx, w.server_end, &log, /*hold=*/0);
  });
  const ThreadId counter =
      w.server.spawn_thread("B-counter", [&](ThreadCtx& ctx) {
        return aborted_b_counter(ctx, w.server_end, &log);
      });
  w.client.spawn_thread("A", [&](ThreadCtx& ctx) {
    return forbid_client_a(ctx, w.client_end, &log);
  });
  w.engine.schedule(sim::msec(51),
                    [&, counter] { w.server.abort_thread(counter); });
  w.engine.run();
  // A's thread stays parked in receive(): the request never arrives.
  EXPECT_EQ(log, (std::vector<std::string>{"b-served-forward",
                                           "b-counter:aborted",
                                           "a-call-done"}));
  EXPECT_EQ(w.client_counts().unwanted_received, 0u);
}

// ---- §3.2.1: a closing request queue bounces with RETRY --------------------

// B opens its request queue, then closes it at 50 ms; A's request lands
// while B's kernel Receive is still being cancelled.  B wants nothing on
// the link, so it returns the request with RETRY rather than FORBID; A
// resends at once, and the kernel holds the resend until B reopens.
sim::Task<> retry_b_server(ThreadCtx& ctx, LinkHandle link,
                           std::vector<std::string>* log) {
  ctx.enable_requests(link);
  co_await ctx.delay(sim::msec(50));
  ctx.disable_requests(link);
  co_await ctx.delay(sim::msec(200));
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  Message rep;
  co_await ctx.reply(in, std::move(rep));
  log->push_back("b-served");
}

sim::Task<> retry_a_caller(ThreadCtx& ctx, LinkHandle link,
                           std::vector<std::string>* log) {
  co_await ctx.delay(sim::msec(26));  // lands during B's Receive cancel
  Message req = make_message("late", {});
  (void)co_await ctx.call(link, std::move(req));
  log->push_back("a-call-done");
}

TEST(LynxCharlotte, ClosingRequestQueueBouncesWithRetry) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("B", [&](ThreadCtx& ctx) {
    return retry_b_server(ctx, w.server_end, &log);
  });
  w.client.spawn_thread("A", [&](ThreadCtx& ctx) {
    return retry_a_caller(ctx, w.client_end, &log);
  });
  w.engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"b-served", "a-call-done"}))
      << join(w.server.thread_failures()) << join(w.client.thread_failures());
  EXPECT_EQ(w.server_counts().unwanted_received, 1u);
  EXPECT_EQ(w.server_counts().retries_sent, 1u);
  EXPECT_EQ(w.server_counts().forbids_sent, 0u);
  EXPECT_EQ(w.client_counts().requests_returned, 1u);
}

// ---- deviation: replier is NOT told about an aborted caller ----------------

sim::Task<> slow_replier(ThreadCtx& ctx, LinkHandle link,
                         std::vector<std::string>* log) {
  ctx.enable_requests(link);
  Incoming in = co_await ctx.receive();
  co_await ctx.delay(sim::msec(200));
  try {
    Message rep;
    co_await ctx.reply(in, std::move(rep));
    log->push_back("reply-sent-without-exception");
  } catch (const LynxError& e) {
    log->push_back(std::string("replier-caught:") + to_string(e.kind()));
  }
  // serve the caller's second (post-abort) call normally
  Incoming in2 = co_await ctx.receive();
  Message rep2;
  co_await ctx.reply(in2, std::move(rep2));
}

sim::Task<> aborting_caller(ThreadCtx& ctx, LinkHandle link,
                            std::vector<std::string>* log) {
  try {
    Message req = make_message("slow", {});
    (void)co_await ctx.call(link, std::move(req));
    log->push_back("unexpected-success");
  } catch (const LynxError& e) {
    log->push_back(std::string("caller-caught:") + to_string(e.kind()));
  }
  // The caller coroutine died, but the process lives on and makes a
  // second call on the same link.  The reply queue reopens, the stale
  // reply to the aborted call arrives first, and the run-time silently
  // discards it — the server never learns (the Charlotte deviation).
  co_await ctx.delay(sim::msec(400));
  Message again = make_message("slow", {});
  Message rep = co_await ctx.call(link, std::move(again));
  (void)rep;
  log->push_back("second-call-ok");
}

TEST(LynxCharlotte, ReplyToAbortedCallerSucceedsSilently) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("slow", [&](ThreadCtx& ctx) {
    return slow_replier(ctx, w.server_end, &log);
  });
  ThreadId caller = w.client.spawn_thread("caller", [&](ThreadCtx& ctx) {
    return aborting_caller(ctx, w.client_end, &log);
  });
  w.engine.schedule(sim::msec(100), [&, caller] {
    w.client.abort_thread(caller);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 3u) << join(w.server.thread_failures())
                            << join(w.client.thread_failures());
  EXPECT_EQ(log[0], "caller-caught:aborted");
  // THE CHARLOTTE DEVIATION: the server does NOT feel an exception.
  EXPECT_EQ(log[1], "reply-sent-without-exception");
  EXPECT_EQ(log[2], "second-call-ok");
}

// ---- destroy / termination ---------------------------------------------------

sim::Task<> call_expect_destroyed(ThreadCtx& ctx, LinkHandle link,
                                  std::vector<std::string>* log) {
  try {
    Message req = make_message("x", {});
    (void)co_await ctx.call(link, std::move(req));
    log->push_back("unexpected-success");
  } catch (const LynxError& e) {
    log->push_back(std::string("caught:") + to_string(e.kind()));
  }
}

TEST(LynxCharlotte, PeerTerminationRaisesException) {
  World w;
  w.boot();
  std::vector<std::string> log;
  w.server.spawn_thread("quit", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& c) -> sim::Task<> {
      co_await c.delay(sim::msec(5));
    }(ctx);
  });
  w.client.spawn_thread("victim", [&](ThreadCtx& ctx) {
    return call_expect_destroyed(ctx, w.client_end, &log);
  });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "caught:link-destroyed");
}

TEST(LynxCharlotte, DeterministicAcrossRuns) {
  auto run = [] {
    World w;
    w.boot();
    std::vector<std::string> log;
    w.server.spawn_thread("serve", [&](ThreadCtx& ctx) {
      return echo_server_thread(ctx, w.server_end, 5);
    });
    w.client.spawn_thread("drive", [&](ThreadCtx& ctx) {
      return echo_client_thread(ctx, w.client_end, 5, &log);
    });
    w.engine.run();
    return std::pair(w.engine.now(), log);
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace lynx
