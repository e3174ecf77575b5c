// End-to-end causal-identity tests: one TraceId must follow an RPC from
// the client runtime through the kernel and the wire to the server and
// back, so a single causal chain can be filtered out of the stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "lynx/charlotte_backend.hpp"
#include "lynx/runtime.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"
#include "trace/phases.hpp"
#include "trace/trace.hpp"

namespace trace {
namespace {

using net::NodeId;

struct World {
  sim::Engine engine;
  Recorder rec{engine};
  net::TokenRing ring{engine};
  charlotte::Cluster cluster{engine, 4, ring};
  lynx::Process server{
      engine, "server",
      std::make_unique<lynx::CharlotteBackend>(cluster, NodeId(0))};
  lynx::Process client{
      engine, "client",
      std::make_unique<lynx::CharlotteBackend>(cluster, NodeId(1))};
  lynx::LinkHandle server_end;
  lynx::LinkHandle client_end;

  void boot() {
    server.start();
    client.start();
    engine.spawn("connect", wire(this));
    engine.run();
    RELYNX_ASSERT(server_end.valid() && client_end.valid());
  }

  static sim::Task<> wire(World* w) {
    auto [se, ce] =
        co_await lynx::CharlotteBackend::connect(w->server, w->client);
    w->server_end = se;
    w->client_end = ce;
  }
};

sim::Task<> echo_server(lynx::ThreadCtx& ctx, lynx::LinkHandle link, int n) {
  ctx.enable_requests(link);
  for (int i = 0; i < n; ++i) {
    lynx::Incoming in = co_await ctx.receive();
    lynx::Message rep;
    rep.args = in.msg.args;
    co_await ctx.reply(in, std::move(rep));
  }
}

sim::Task<> echo_client(lynx::ThreadCtx& ctx, lynx::LinkHandle link, int n) {
  for (int i = 0; i < n; ++i) {
    lynx::Message req = lynx::make_message("echo", {std::string("ping")});
    (void)co_await ctx.call(link, std::move(req));
  }
}

void run_echo(World& w, int n) {
  w.server.spawn_thread("serve", [&](lynx::ThreadCtx& ctx) {
    return echo_server(ctx, w.server_end, n);
  });
  w.client.spawn_thread("drive", [&](lynx::ThreadCtx& ctx) {
    return echo_client(ctx, w.client_end, n);
  });
  w.engine.run();
  ASSERT_TRUE(w.engine.process_failures().empty());
  ASSERT_TRUE(w.server.thread_failures().empty());
  ASSERT_TRUE(w.client.thread_failures().empty());
}

// kSpanEnd/kCtx records leave `label` at 0, so only look at the kinds
// that actually carry one.
bool labelled(const Record& r) {
  return r.kind == Kind::kSpanBegin || r.kind == Kind::kInstant;
}

std::vector<Record> with_label(const Recorder& rec,
                               const std::vector<Record>& records,
                               std::string_view label) {
  std::vector<Record> out;
  for (const Record& r : records) {
    if (labelled(r) && rec.label_name(r.label) == label) out.push_back(r);
  }
  return out;
}

TEST(Causal, OneRpcSharesOneTraceIdAcrossLayers) {
  World w;
  w.boot();
  run_echo(w, 1);

  const auto records = w.rec.snapshot();
  const auto calls = with_label(w.rec, records, "call");
  ASSERT_EQ(calls.size(), 1u);  // one begin record for the one RPC
  ASSERT_EQ(calls[0].kind, Kind::kSpanBegin);
  const TraceId tid = calls[0].trace;
  ASSERT_NE(tid, 0u);

  // Every phase of that one RPC carries the same TraceId, on both sides.
  std::set<std::string> labels_on_trace;
  std::set<std::uint32_t> nodes_on_trace;
  for (const Record& r : records) {
    if (!labelled(r) || r.trace != tid) continue;
    labels_on_trace.insert(w.rec.label_name(r.label));
    nodes_on_trace.insert(r.node);
  }
  for (const char* phase :
       {"call", "call.send", "call.wait", "recv.scatter", "reply.send",
        "frame.tx", "frame.rx"}) {
    EXPECT_TRUE(labels_on_trace.count(phase))
        << "missing phase on trace: " << phase;
  }
  // Client is node 1, server is node 0: the chain crosses the machine
  // boundary.
  EXPECT_TRUE(nodes_on_trace.count(0u));
  EXPECT_TRUE(nodes_on_trace.count(1u));

  // The wire shows at least one tx and one rx in each direction.
  std::size_t tx = 0, rx = 0;
  for (const Record& r : records) {
    if (!labelled(r) || r.trace != tid) continue;
    const std::string& l = w.rec.label_name(r.label);
    if (l == "frame.tx") ++tx;
    if (l == "frame.rx") ++rx;
  }
  EXPECT_GE(tx, 2u);  // request out + reply back
  EXPECT_GE(rx, 2u);
}

TEST(Causal, ConcurrentRpcsGetDistinctTraceIds) {
  World w;
  w.boot();
  run_echo(w, 3);

  const auto records = w.rec.snapshot();
  std::set<TraceId> call_traces;
  for (const Record& r : records) {
    if (r.kind == Kind::kSpanBegin && w.rec.label_name(r.label) == "call") {
      call_traces.insert(r.trace);
    }
  }
  EXPECT_EQ(call_traces.size(), 3u);

  // Filtering the phase table by one TraceId isolates exactly one RPC.
  PhaseTable one(w.rec, *call_traces.begin());
  EXPECT_EQ(one.count("call"), 1u);
  PhaseTable all(w.rec);
  EXPECT_EQ(all.count("call"), 3u);
}

TEST(Causal, PhaseSpansCoverMostOfEndToEndLatency) {
  // The acceptance bar for the decomposition: the recorded client-side
  // "call" spans account for >=95% of measured wall-clock once the
  // one-time link setup is amortized over a few operations (exactly how
  // the benches report span coverage).
  World w;
  w.boot();
  const sim::Time t0 = w.engine.now();
  run_echo(w, 10);
  const double e2e_ms = sim::to_msec(w.engine.now() - t0);

  PhaseTable table(w.rec);
  ASSERT_EQ(table.count("call"), 10u);
  EXPECT_GE(table.total_ms("call"), 0.95 * e2e_ms);
  EXPECT_LE(table.total_ms("call"), e2e_ms);
}

TEST(Causal, DeterministicDigestAcrossIdenticalRuns) {
  auto digest_of_run = [] {
    World w;
    w.boot();
    run_echo(w, 2);
    return w.rec.digest();
  };
  const std::uint64_t d1 = digest_of_run();
  const std::uint64_t d2 = digest_of_run();
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1, Recorder::kEmptyDigest);
}

}  // namespace
}  // namespace trace
