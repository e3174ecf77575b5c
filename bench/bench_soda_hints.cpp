// E10 (paper §4.2, §4.2.1): SODA hint maintenance under moved links.
//
//   "The only real problems occur when an end of a dormant link is
//    moved. ... If each process keeps a cache of links it has known
//    about recently ... then A may remember it sent L to B, and can
//    tell C where it went.  If A has forgotten, C can use the discover
//    command ... A process that is unable to find the far end of a link
//    must assume it has been destroyed."
//
// This bench moves a dormant link down a chain of processes, then has
// the fixed end finally speak.  Depending on cache capacity and
// broadcast loss, the late user is served by (a) cache redirects hop by
// hop, (b) a discover broadcast, or (c) the freeze/unfreeze search.
#include "harness.hpp"

#include "common/assert.hpp"

namespace {

using namespace bench;
using lynx::Incoming;
using lynx::LinkHandle;
using lynx::Message;
using lynx::ThreadCtx;

bool& flag_slot() {
  static bool flag = false;
  return flag;
}

struct ChainResult {
  bool served = false;
  double late_call_ms = 0;
  std::uint64_t redirects = 0;
  std::uint64_t discovers = 0;
  std::uint64_t discover_failures = 0;
  std::uint64_t freezes = 0;
};

// C holds one end of L; the other end hops A -> B -> ... -> Z through a
// chain of transfer links; then C makes one call on L.
ChainResult run_chain(int hops, std::size_t cache_capacity,
                      double broadcast_drop, std::uint64_t seed) {
  load::UniverseSpec spec;
  spec.substrate = load::Substrate::kSoda;
  spec.nodes = static_cast<std::size_t>(hops) + 3;
  spec.bus = net::CsmaBusParams{};
  spec.bus.broadcast_drop_prob = broadcast_drop;
  spec.seed = seed;
  spec.soda_backend.moved_cache_capacity = cache_capacity;
  sim::Engine engine;
  load::Universe u(engine, spec);

  std::vector<lynx::Process*> chain;
  for (int i = 0; i <= hops; ++i) {
    chain.push_back(&u.spawn("hop" + std::to_string(i),
                             static_cast<std::size_t>(i)));
  }
  lynx::Process& user = u.spawn("user", static_cast<std::size_t>(hops) + 1);

  // wiring: transfer links hop[i] <-> hop[i+1]; link L: hop0 <-> user
  std::vector<LinkHandle> xfer_out(static_cast<std::size_t>(hops));
  std::vector<LinkHandle> xfer_in(static_cast<std::size_t>(hops));
  LinkHandle l_mover, l_user;
  engine.spawn("wire", [](load::Universe* u, std::vector<lynx::Process*>* ch,
                          lynx::Process* usr, std::vector<LinkHandle>* xo,
                          std::vector<LinkHandle>* xi, LinkHandle* lm,
                          LinkHandle* lu, int n) -> sim::Task<> {
    for (int i = 0; i < n; ++i) {
      auto [a, b] = co_await u->connect(
          *(*ch)[static_cast<std::size_t>(i)],
          *(*ch)[static_cast<std::size_t>(i) + 1]);
      (*xo)[static_cast<std::size_t>(i)] = a;
      (*xi)[static_cast<std::size_t>(i)] = b;
    }
    auto [m, usr_end] = co_await u->connect(*(*ch)[0], *usr);
    *lm = m;
    *lu = usr_end;
  }(&u, &chain, &user, &xfer_out, &xfer_in, &l_mover, &l_user, hops));
  engine.run();

  // hop0 ships L's end down the chain; every hop forwards; the last hop
  // serves.  The user waits until the dust settles, then calls.
  chain[0]->spawn_thread("ship", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle via, LinkHandle moving) -> sim::Task<> {
      Message req = lynx::make_message("take", {moving});
      (void)co_await cx.call(via, std::move(req));
      co_await cx.delay(sim::sec(30));  // stay alive (cache source)
    }(ctx, xfer_out[0], l_mover);
  });
  for (int i = 1; i < hops; ++i) {
    chain[static_cast<std::size_t>(i)]->spawn_thread(
        "forward", [&, i](ThreadCtx& ctx) {
          return [](ThreadCtx& cx, LinkHandle in_link,
                    LinkHandle out_link) -> sim::Task<> {
            cx.enable_requests(in_link);
            Incoming in = co_await cx.receive();
            LinkHandle got = std::get<LinkHandle>(in.msg.args.at(0));
            Message empty;
            co_await cx.reply(in, std::move(empty));
            Message fwd = lynx::make_message("take", {got});
            (void)co_await cx.call(out_link, std::move(fwd));
            co_await cx.delay(sim::sec(30));
          }(ctx, xfer_in[static_cast<std::size_t>(i) - 1],
                                xfer_out[static_cast<std::size_t>(i)]);
        });
  }
  flag_slot() = false;
  chain[static_cast<std::size_t>(hops)]->spawn_thread(
      "serve", [&](ThreadCtx& ctx) {
        return [](ThreadCtx& cx, LinkHandle in_link,
                  bool* flag) -> sim::Task<> {
          cx.enable_requests(in_link);
          Incoming in = co_await cx.receive();
          LinkHandle got = std::get<LinkHandle>(in.msg.args.at(0));
          Message empty;
          co_await cx.reply(in, std::move(empty));
          cx.enable_requests(got);
          Incoming late = co_await cx.receive();
          *flag = true;
          Message rep;
          co_await cx.reply(late, std::move(rep));
        }(ctx, xfer_in[static_cast<std::size_t>(hops) - 1], &flag_slot());
      });

  sim::Time t0 = 0, t1 = 0;
  user.spawn_thread("late", [&](ThreadCtx& ctx) {
    return [](ThreadCtx& cx, LinkHandle l, sim::Time* a, sim::Time* b,
              sim::Engine* e) -> sim::Task<> {
      co_await cx.delay(sim::sec(2));  // the link goes dormant
      *a = e->now();
      Message req = lynx::make_message("late", {});
      (void)co_await cx.call(l, std::move(req));
      *b = e->now();
    }(ctx, l_user, &t0, &t1, &engine);
  });
  engine.run_until(sim::sec(40));

  ChainResult r;
  r.served = flag_slot();
  flag_slot() = false;
  r.late_call_ms = sim::to_msec(t1 - t0);
  // Only the chain moves ends, so every redirect is served by a hop.
  r.redirects = engine.total(&sim::Counts::moved_redirects);
  const sim::Counts& ust = engine.counts(static_cast<std::uint32_t>(hops) + 1);
  r.discovers = ust.discover_searches;
  r.discover_failures = ust.discover_failures;
  r.freezes = ust.freeze_searches;
  return r;
}

void report() {
  table_header("E10: dormant-link moves, hints and fallbacks (paper §4.2)");
  std::printf("%-6s %-8s %-6s | %-6s %10s %10s %10s %8s\n", "hops",
              "cache", "drop", "served", "late ms", "redirects",
              "discovers", "freezes");
  struct Case {
    int hops;
    std::size_t cache;
    double drop;
    std::uint64_t seed;
  };
  const std::vector<Case> cases = {
      {1, 64, 0.0, 11}, {2, 64, 0.0, 12},  {3, 64, 0.0, 13},
      {2, 0, 0.0, 14},  {3, 0, 0.05, 15},
  };
  for (const Case& c : cases) {
    ChainResult r = run_chain(c.hops, c.cache, c.drop, c.seed);
    std::printf("%-6d %-8zu %-6.2f | %-6s %10.1f %10llu %10llu %8llu\n",
                c.hops, c.cache, c.drop, r.served ? "yes" : "NO",
                r.late_call_ms,
                static_cast<unsigned long long>(r.redirects),
                static_cast<unsigned long long>(r.discovers),
                static_cast<unsigned long long>(r.discover_failures +
                                                r.freezes));
    RELYNX_ASSERT(r.served);
  }
  print_note("shape checks: with a warm cache the stragglers chase");
  print_note("redirects hop by hop; with an evicted cache (capacity 0)");
  print_note("the user falls back to discover (and, under loss, the");
  print_note("freeze search) — 'hints can be better than absolutes' as");
  print_note("long as the failure path exists.");
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(&argc, argv, "soda_hints");
  report();
  return 0;
}
