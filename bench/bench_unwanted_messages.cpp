// E9 (paper §3.2.1): the cost of screening unwanted messages on
// Charlotte.
//
// The kernel cannot be told "requests no, replies yes" on one link, so
// whenever a process awaits a reply with its request queue closed, a
// peer's request lands unintentionally and must be bounced (RETRY when
// the receiver can drop its kernel Receive, FORBID/ALLOW when it
// cannot).  This bench drives an adversarial bidirectional workload and
// counts the extra traffic and latency; the same workload on the
// primitive kernels generates NO unwanted deliveries at all.
#include "harness.hpp"

#include "common/assert.hpp"

namespace {

using namespace bench;
using load::Substrate;
using lynx::Incoming;
using lynx::LinkHandle;
using lynx::Message;
using lynx::ThreadCtx;

// Server side: one coroutine serves, another keeps firing counter-
// requests in the reverse direction — each lands at the client while
// the client's request queue is closed.
sim::Task<> serve_thread(ThreadCtx& ctx, LinkHandle link, int rounds) {
  ctx.enable_requests(link);
  for (int i = 0; i < rounds; ++i) {
    Incoming in = co_await ctx.receive();
    co_await ctx.delay(sim::msec(60));  // window for the counter-request
    Message rep;
    co_await ctx.reply(in, std::move(rep));
  }
}

sim::Task<> counter_thread(ThreadCtx& ctx, LinkHandle link, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await ctx.delay(sim::msec(35));
    Message req = lynx::make_message("reverse", {});
    (void)co_await ctx.call(link, std::move(req));
  }
}

sim::Task<> client_thread(ThreadCtx& ctx, LinkHandle link, int rounds,
                          sim::Time* t0, sim::Time* t1,
                          sim::Engine* engine) {
  *t0 = engine->now();
  for (int i = 0; i < rounds; ++i) {
    // call with the request queue CLOSED (the §3.2.1 setup)...
    Message req = lynx::make_message("forward", {});
    (void)co_await ctx.call(link, std::move(req));
    // ...then briefly open it to serve the bounced counter-request.
    ctx.enable_requests(link);
    Incoming in = co_await ctx.receive();
    Message rep;
    co_await ctx.reply(in, std::move(rep));
    ctx.disable_requests(link);
  }
  *t1 = engine->now();
}

struct Outcome {
  double ms_per_round = 0;
  std::uint64_t unwanted = 0;
  std::uint64_t forbids = 0;
  std::uint64_t retries = 0;
  std::uint64_t allows = 0;
  std::uint64_t returned = 0;
};

Outcome run_charlotte(int rounds) {
  Pair w(Substrate::kCharlotte);
  sim::Time t0 = 0, t1 = 0;
  w.server.spawn_thread("serve", [&](ThreadCtx& ctx) {
    return serve_thread(ctx, w.server_end, rounds);
  });
  w.server.spawn_thread("counter", [&](ThreadCtx& ctx) {
    return counter_thread(ctx, w.server_end, rounds);
  });
  w.client.spawn_thread("client", [&](ThreadCtx& ctx) {
    return client_thread(ctx, w.client_end, rounds, &t0, &t1, &w.engine);
  });
  w.engine.run();
  RELYNX_ASSERT(w.engine.process_failures().empty());
  Outcome o;
  o.ms_per_round = sim::to_msec(t1 - t0) / rounds;
  const sim::Counts& client = w.engine.counts(1);  // Pair's node numbers
  o.unwanted = client.unwanted_received;
  o.forbids = client.forbids_sent;
  o.retries = client.retries_sent;
  o.allows = client.allows_sent;
  o.returned = w.engine.counts(0).requests_returned;
  return o;
}

Outcome run_soda(int rounds) {
  Pair w(Substrate::kSoda);
  sim::Time t0 = 0, t1 = 0;
  w.server.spawn_thread("serve", [&](ThreadCtx& ctx) {
    return serve_thread(ctx, w.server_end, rounds);
  });
  w.server.spawn_thread("counter", [&](ThreadCtx& ctx) {
    return counter_thread(ctx, w.server_end, rounds);
  });
  w.client.spawn_thread("client", [&](ThreadCtx& ctx) {
    return client_thread(ctx, w.client_end, rounds, &t0, &t1, &w.engine);
  });
  w.engine.run();
  RELYNX_ASSERT(w.engine.process_failures().empty());
  Outcome o;
  o.ms_per_round = sim::to_msec(t1 - t0) / rounds;
  o.unwanted = w.engine.counts(1).unwanted_received;  // structurally zero
  return o;
}

void report() {
  constexpr int kRounds = 8;
  Outcome ch = run_charlotte(kRounds);
  Outcome so = run_soda(kRounds);

  table_header("E9: unwanted-message screening (paper §3.2.1)");
  std::printf("%-40s %12s %10s\n", "metric", "charlotte", "soda");
  std::printf("%-40s %12.2f %10.2f\n", "ms per bidirectional round",
              ch.ms_per_round, so.ms_per_round);
  std::printf("%-40s %12llu %10llu\n", "unwanted messages received",
              static_cast<unsigned long long>(ch.unwanted),
              static_cast<unsigned long long>(so.unwanted));
  std::printf("%-40s %12llu %10s\n", "FORBID sent",
              static_cast<unsigned long long>(ch.forbids), "-");
  std::printf("%-40s %12llu %10s\n", "RETRY sent",
              static_cast<unsigned long long>(ch.retries), "-");
  std::printf("%-40s %12llu %10s\n", "ALLOW sent",
              static_cast<unsigned long long>(ch.allows), "-");
  std::printf("%-40s %12llu %10s\n", "requests bounced back to sender",
              static_cast<unsigned long long>(ch.returned), "-");
  print_note("shape checks: Charlotte receives unwanted requests and pays");
  print_note("retry/forbid/allow traffic; SODA never receives an unwanted");
  print_note("message (screening = deciding what to accept).");
  RELYNX_ASSERT(ch.unwanted > 0);
  RELYNX_ASSERT(ch.forbids + ch.retries > 0);
  RELYNX_ASSERT(so.unwanted == 0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(&argc, argv, "unwanted_messages");
  report();
  return 0;
}
