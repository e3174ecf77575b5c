// The §4.2 absolute fallback: freeze/unfreeze search.
//
// "Perhaps the simplest [fall-back mechanism] looks like this: every
//  process advertises a freeze name.  When C discovers its hint for L is
//  bad, it posts a SODA request on the freeze name of every process
//  currently in existence..."
//
// We force the fallback: the mover's cache capacity is zero (it forgets
// and un-advertises moved names immediately) and the broadcast medium
// drops everything (discover can never succeed).  Only the freeze
// search can find the link.
#include <gtest/gtest.h>

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

struct FreezeWorldResult {
  bool served = false;
  std::uint64_t freezes = 0;
  std::uint64_t discover_failures = 0;
  std::uint64_t moved_redirects = 0;
};

FreezeWorldResult run(double broadcast_drop, bool enable_freeze) {
  sim::Engine engine;
  SodaDirectory directory;
  net::CsmaBus bus(engine, sim::Rng(31),
                   {.broadcast_drop_prob = broadcast_drop});
  soda::Network network(engine, 5, bus);
  SodaBackendParams bp;
  bp.moved_cache_capacity = 0;  // forget moves instantly
  bp.discover_attempts = 2;
  bp.enable_freeze_fallback = enable_freeze;

  Process a(engine, "A",
            std::make_unique<SodaBackend>(network, directory, NodeId(0), bp));
  Process b(engine, "B",
            std::make_unique<SodaBackend>(network, directory, NodeId(1), bp));
  Process c(engine, "C",
            std::make_unique<SodaBackend>(network, directory, NodeId(2), bp));
  a.start();
  b.start();
  c.start();

  LinkHandle ab_a, ab_b, l_a, l_c;
  engine.spawn("wire", [](Process* pa, Process* pb, Process* pc,
                          LinkHandle* o1, LinkHandle* o2, LinkHandle* o3,
                          LinkHandle* o4) -> sim::Task<> {
    auto [x1, y1] = co_await SodaBackend::connect(*pa, *pb);
    *o1 = x1;
    *o2 = y1;
    auto [x2, y2] = co_await SodaBackend::connect(*pa, *pc);
    *o3 = x2;
    *o4 = y2;
  }(&a, &b, &c, &ab_a, &ab_b, &l_a, &l_c));
  engine.run();

  // A ships its end of L to B, then forgets it (cache capacity 0).
  a.spawn_thread("ship", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle via, LinkHandle moving) -> sim::Task<> {
      Message req = make_message("take", {moving});
      (void)co_await cx.call(via, std::move(req));
      co_await cx.delay(sim::sec(20));
    }(ctx, ab_a, l_a);
  });
  static bool served_flag;
  served_flag = false;
  b.spawn_thread("serve", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle via) -> sim::Task<> {
      cx.enable_requests(via);
      Incoming in = co_await cx.receive();
      LinkHandle got = std::get<LinkHandle>(in.msg.args.at(0));
      Message empty;
      co_await cx.reply(in, std::move(empty));
      cx.enable_requests(got);
      Incoming late = co_await cx.receive();
      served_flag = true;
      Message rep;
      co_await cx.reply(late, std::move(rep));
    }(ctx, ab_b);
  });
  c.spawn_thread("late", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle l) -> sim::Task<> {
      co_await cx.delay(sim::sec(1));  // move finishes & is forgotten
      try {
        Message req = make_message("late", {});
        (void)co_await cx.call(l, std::move(req));
      } catch (const LynxError&) {
        // without the freeze fallback the link is presumed destroyed
      }
    }(ctx, l_c);
  });
  engine.run_until(sim::sec(30));

  FreezeWorldResult r;
  r.served = served_flag;
  const sim::Counts& st = engine.counts(2);  // C's node
  r.freezes = st.freeze_searches;
  r.discover_failures = st.discover_failures;
  r.moved_redirects = engine.counts(0).moved_redirects;  // A's node
  return r;
}

TEST(SodaFreeze, FreezeSearchFindsFullyForgottenLink) {
  // broadcast 100% lossy: discover can never work; cache is disabled;
  // only the freeze search can locate the moved end.
  FreezeWorldResult r = run(/*broadcast_drop=*/1.0, /*enable_freeze=*/true);
  EXPECT_TRUE(r.served);
  EXPECT_GE(r.discover_failures, 1u);
  EXPECT_GE(r.freezes, 1u);
  EXPECT_EQ(r.moved_redirects, 0u);  // the cache really was disabled
}

TEST(SodaFreeze, WithoutFallbackLinkIsPresumedDestroyed) {
  FreezeWorldResult r = run(/*broadcast_drop=*/1.0, /*enable_freeze=*/false);
  // "A process that is unable to find the far end of a link must assume
  //  it has been destroyed."
  EXPECT_FALSE(r.served);
  EXPECT_GE(r.discover_failures, 1u);
  EXPECT_EQ(r.freezes, 0u);
}

TEST(SodaFreeze, DiscoverAloneSufficesWhenBroadcastWorks) {
  FreezeWorldResult r = run(/*broadcast_drop=*/0.0, /*enable_freeze=*/true);
  EXPECT_TRUE(r.served);
  EXPECT_EQ(r.freezes, 0u);  // discover found it on the first try
}

}  // namespace
}  // namespace lynx
