// Figure 1 from the paper, as a runnable program: "link moving at both
// ends".
//
// Processes A and D are connected by link 3.  A passes its end of link 3
// to B (over link 1) at the same time as D passes its end to C (over
// link 2).  Neither mover knows about the other; the far end of each
// moved link "must be oblivious to the move, even if it is currently
// relocating its end as well."  Afterwards what used to connect A to D
// connects B to C, and a message crosses it.
//
// Run it on Charlotte (three-party agreement through the link's home
// kernel) and compare bench_link_move for the same dance on Chrysalis.
#include <cstdio>

#include "lynx/lynx.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"

namespace {

using lynx::Incoming;
using lynx::LinkHandle;
using lynx::Message;
using lynx::ThreadCtx;

sim::Task<> process_a(ThreadCtx& ctx, LinkHandle link1, LinkHandle link3) {
  std::printf("[%8.1f ms] A: passing my end of link3 to B\n",
              sim::to_msec(ctx.engine().now()));
  Message req = lynx::make_message("take", {link3});
  (void)co_await ctx.call(link1, std::move(req));
  std::printf("[%8.1f ms] A: done — I no longer hold link3\n",
              sim::to_msec(ctx.engine().now()));
}

sim::Task<> process_d(ThreadCtx& ctx, LinkHandle link2, LinkHandle link3) {
  std::printf("[%8.1f ms] D: passing my end of link3 to C\n",
              sim::to_msec(ctx.engine().now()));
  Message req = lynx::make_message("take", {link3});
  (void)co_await ctx.call(link2, std::move(req));
  std::printf("[%8.1f ms] D: done — I no longer hold link3\n",
              sim::to_msec(ctx.engine().now()));
}

sim::Task<> process_b(ThreadCtx& ctx, LinkHandle link1) {
  ctx.enable_requests(link1);
  Incoming in = co_await ctx.receive();
  LinkHandle mine = std::get<LinkHandle>(in.msg.args.at(0));
  Message ok;
  co_await ctx.reply(in, std::move(ok));
  std::printf("[%8.1f ms] B: received an end of link3; speaking into it\n",
              sim::to_msec(ctx.engine().now()));
  Message hello = lynx::make_message("hello", {std::string("from B")});
  Message reply = co_await ctx.call(mine, std::move(hello));
  std::printf("[%8.1f ms] B: link3 answered: \"%s\"\n",
              sim::to_msec(ctx.engine().now()),
              std::get<std::string>(reply.args.at(0)).c_str());
}

sim::Task<> process_c(ThreadCtx& ctx, LinkHandle link2) {
  ctx.enable_requests(link2);
  Incoming in = co_await ctx.receive();
  LinkHandle mine = std::get<LinkHandle>(in.msg.args.at(0));
  Message ok;
  co_await ctx.reply(in, std::move(ok));
  std::printf("[%8.1f ms] C: received an end of link3; listening\n",
              sim::to_msec(ctx.engine().now()));
  ctx.enable_requests(mine);
  Incoming hello = co_await ctx.receive();
  std::printf("[%8.1f ms] C: heard \"%s\" %s\n",
              sim::to_msec(ctx.engine().now()), hello.msg.op.c_str(),
              std::get<std::string>(hello.msg.args.at(0)).c_str());
  Message reply;
  reply.args.emplace_back(std::string("hello back from C"));
  co_await ctx.reply(hello, std::move(reply));
}

}  // namespace

int main() {
  sim::Engine engine;
  net::TokenRing ring(engine);
  charlotte::Cluster crystal(engine, 4, ring);

  auto mk = [&](const char* name, std::uint32_t node) {
    auto p = std::make_unique<lynx::Process>(
        engine, name,
        std::make_unique<lynx::CharlotteBackend>(crystal, net::NodeId(node)),
        lynx::vax_runtime_costs());
    p->start();
    return p;
  };
  auto a = mk("A", 0), b = mk("B", 1), c = mk("C", 2), d = mk("D", 3);

  LinkHandle l1a, l1b, l2d, l2c, l3a, l3d;
  engine.spawn("wire", [](lynx::Process* pa, lynx::Process* pb,
                          lynx::Process* pc, lynx::Process* pd,
                          LinkHandle* o1, LinkHandle* o2, LinkHandle* o3,
                          LinkHandle* o4, LinkHandle* o5,
                          LinkHandle* o6) -> sim::Task<> {
    auto [x1, y1] = co_await lynx::CharlotteBackend::connect(*pa, *pb);
    *o1 = x1;
    *o2 = y1;
    auto [x2, y2] = co_await lynx::CharlotteBackend::connect(*pd, *pc);
    *o3 = x2;
    *o4 = y2;
    auto [x3, y3] = co_await lynx::CharlotteBackend::connect(*pa, *pd);
    *o5 = x3;
    *o6 = y3;
  }(a.get(), b.get(), c.get(), d.get(), &l1a, &l1b, &l2d, &l2c, &l3a, &l3d));
  engine.run();

  std::printf("figure 1: A--link3--D; A ships to B while D ships to C\n\n");
  a->spawn_thread("A", [&](ThreadCtx& ctx) { return process_a(ctx, l1a, l3a); });
  d->spawn_thread("D", [&](ThreadCtx& ctx) { return process_d(ctx, l2d, l3d); });
  b->spawn_thread("B", [&](ThreadCtx& ctx) { return process_b(ctx, l1b); });
  c->spawn_thread("C", [&](ThreadCtx& ctx) { return process_c(ctx, l2c); });
  engine.run();

  const std::size_t failures =
      a->thread_failures().size() + b->thread_failures().size() +
      c->thread_failures().size() + d->thread_failures().size();
  std::printf(
      "\nlink3 now connects B to C (%zu thread failures), with %llu "
      "kernel move-protocol frames spent on agreement\n",
      failures,
      static_cast<unsigned long long>(
          engine.total(&sim::Counts::move_protocol_frames)));
  return failures == 0 ? 0 : 1;
}
