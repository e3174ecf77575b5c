// Trace determinism under chaos: the recorded event stream must be a
// pure function of (seed, plan, workload).  Re-running any chaos-sweep
// universe with a Recorder attached yields a byte-identical stream —
// pinned by common::Digest, the digest fault::digest() uses too — even
// though drops, duplicates, corruption and retransmits all emit into it.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "../support/co_check.hpp"
#include "charlotte/kernel.hpp"
#include "common/digest.hpp"
#include "fault/faulty_medium.hpp"
#include "fault/invariant_checker.hpp"
#include "load/load.hpp"
#include "lynx/chrysalis_backend.hpp"
#include "lynx/runtime.hpp"
#include "net/csma_bus.hpp"
#include "net/token_ring.hpp"
#include "sim/engine.hpp"
#include "soda/kernel.hpp"
#include "sweep/sweep.hpp"
#include "trace/trace.hpp"

namespace fault {
namespace {

using net::NodeId;

soda::Payload so_bytes(std::string s) {
  return soda::Payload(s.begin(), s.end());
}

charlotte::Payload ch_bytes(std::string s) {
  return charlotte::Payload(s.begin(), s.end());
}

sim::Task<> so_server(soda::Network* nw, soda::Pid me, soda::Name* out,
                      sim::Gate* ready) {
  soda::Kernel& k = nw->kernel_of(me);
  soda::Name n = co_await k.generate_name(me);
  CO_CHECK_EQ(co_await k.advertise(me, n), soda::Status::kOk);
  *out = n;
  ready->open();
  soda::Interrupt intr = co_await k.next_interrupt(me);
  auto* req = std::get_if<soda::RequestInterrupt>(&intr);
  CO_CHECK(req != nullptr);
  auto taken = co_await k.accept(me, req->request, soda::Oob{1, 0},
                                 so_bytes("pong"), 4096);
  CO_CHECK(taken.ok());
}

sim::Task<> so_client(soda::Network* nw, soda::Pid me, soda::Pid server,
                      soda::Name* name, sim::Gate* ready,
                      std::uint64_t trace) {
  co_await ready->wait();
  soda::Kernel& k = nw->kernel_of(me);
  auto req = co_await k.request(me, server, *name, soda::Oob{},
                                so_bytes("ping"), 4096, trace);
  CO_CHECK(req.ok());
  (void)co_await k.next_interrupt(me);
}

soda::Costs soda_ack_costs(sim::Duration coalesce = sim::msec(3)) {
  soda::Costs c;
  c.ack_timeout = sim::msec(10);
  c.ack_coalesce_delay = coalesce;
  return c;
}

struct RunResult {
  std::uint64_t trace_digest = 0;
  std::uint64_t fault_digest = 0;
  std::uint64_t emitted = 0;
};

// One chaos universe: the sweep scenario from chaos_test.cpp with a
// Recorder attached.  Returns the digests that must be reproducible.
// `tie` selects the engine's same-instant tie-break policy — determinism
// must hold under schedule exploration too, where the seed additionally
// permutes simultaneous events (sim::TieBreak::kSeededPermutation).
// `coalesce` = 0 drops the owed-ack deadline timer: every ack goes out
// standalone at once, a different set of timer event sources.
RunResult run_universe(std::uint64_t seed,
                       sim::TieBreak tie = sim::TieBreak::kFifo,
                       sim::Duration coalesce = sim::msec(3)) {
  sim::Engine e;
  e.set_tie_policy({.kind = tie, .seed = seed});
  trace::Recorder rec(e);
  net::CsmaBus bus(e, sim::Rng(7));
  FaultyMedium fm(e, bus, seed,
                  Plan{}.background({.drop_prob = 0.15,
                                     .duplicate_prob = 0.1,
                                     .corrupt_prob = 0.05,
                                     .max_jitter = sim::usec(300)}));
  InvariantChecker check(fm);
  soda::Network nw(e, 3, fm, soda_ack_costs(coalesce));

  soda::Pid s = nw.create_process(NodeId(0));
  soda::Pid c = nw.create_process(NodeId(1));
  soda::Name name;
  sim::Gate ready(e);
  e.spawn("server", so_server(&nw, s, &name, &ready));
  e.spawn("client", so_client(&nw, c, s, &name, &ready, rec.new_trace()));
  e.run();

  EXPECT_TRUE(check.ok()) << "seed " << seed << ": "
                          << check.violations().front();
  EXPECT_TRUE(e.process_failures().empty()) << "seed " << seed;
  return {rec.digest(), fm.fault_digest(), rec.total_emitted()};
}

// A Charlotte universe under loss and duplication, exercising the ack
// machinery end to end: retransmit timers (adaptive RTO + backoff),
// watermark dedup of duplicated frames, and — when `coalesce` is on —
// owed-ack timers and piggybacked acks.  The coalescing timer is a new
// event source, so determinism is pinned with piggybacking both ON
// (default delay) and OFF (0: immediate standalone acks).
// `formation` additionally arms RPC formation (src/form/, DESIGN.md
// §14): the packer's deadline timers and batch dispatch are two more
// event sources, and a dropped frame now kills a whole Batch — the
// digests must stay a pure function of the seed regardless.
RunResult run_charlotte_universe(std::uint64_t seed, bool coalesce,
                                 bool formation = false) {
  sim::Engine e;
  trace::Recorder rec(e);
  net::TokenRing ring(e);
  FaultyMedium fm(e, ring, seed,
                  Plan{}.background({.drop_prob = 0.1,
                                     .duplicate_prob = 0.1,
                                     .max_jitter = sim::usec(300)}));
  InvariantChecker check(fm);
  charlotte::Costs costs;
  costs.send_retransmit_timeout = sim::msec(40);
  costs.max_send_attempts = 10;
  costs.ack_coalesce_delay = coalesce ? sim::msec(3) : sim::Duration(0);
  costs.form_delay = formation ? sim::msec(2) : sim::Duration(0);
  charlotte::Cluster cluster(e, 2, fm, costs);

  charlotte::Pid pa = cluster.create_process(NodeId(0));
  charlotte::Pid pb = cluster.create_process(NodeId(1));
  charlotte::LinkPair link = cluster.bootstrap_link(pa, pb);

  auto ping = [](charlotte::Cluster* cl, charlotte::Pid me,
                 charlotte::EndId end, std::uint64_t trace) -> sim::Task<> {
    charlotte::Kernel& k = cl->kernel_of(me);
    for (int i = 0; i < 3; ++i) {
      CO_CHECK_EQ(co_await k.send(me, end, ch_bytes("p"),
                                  charlotte::EndId::invalid(), trace),
                  charlotte::Status::kOk);
      CO_CHECK_EQ((co_await k.wait(me)).status, charlotte::Status::kOk);
      CO_CHECK_EQ(co_await k.receive(me, end, 64), charlotte::Status::kOk);
      CO_CHECK_EQ((co_await k.wait(me)).status, charlotte::Status::kOk);
    }
  };
  auto pong = [](charlotte::Cluster* cl, charlotte::Pid me,
                 charlotte::EndId end) -> sim::Task<> {
    charlotte::Kernel& k = cl->kernel_of(me);
    for (int i = 0; i < 3; ++i) {
      CO_CHECK_EQ(co_await k.receive(me, end, 64), charlotte::Status::kOk);
      CO_CHECK_EQ((co_await k.wait(me)).status, charlotte::Status::kOk);
      CO_CHECK_EQ(co_await k.send(me, end, ch_bytes("q")),
                  charlotte::Status::kOk);
      CO_CHECK_EQ((co_await k.wait(me)).status, charlotte::Status::kOk);
    }
  };
  e.spawn("ping", ping(&cluster, pa, link.end1, rec.new_trace()));
  e.spawn("pong", pong(&cluster, pb, link.end2));
  e.run();

  EXPECT_TRUE(check.ok()) << "seed " << seed << ": "
                          << check.violations().front();
  EXPECT_TRUE(e.process_failures().empty()) << "seed " << seed;
  return {rec.digest(), fm.fault_digest(), rec.total_emitted()};
}

sim::Task<> ch_echo_serve(lynx::ThreadCtx& ctx, lynx::LinkHandle link, int n) {
  ctx.enable_requests(link);
  for (int i = 0; i < n; ++i) {
    lynx::Incoming in = co_await ctx.receive();
    lynx::Message rep;
    rep.args = in.msg.args;
    co_await ctx.reply(in, rep);
  }
}

sim::Task<> ch_echo_drive(lynx::ThreadCtx& ctx, lynx::LinkHandle link, int n) {
  for (int i = 0; i < n; ++i) {
    lynx::Message req = lynx::make_message("echo", {std::int64_t(i)});
    lynx::Message rep = co_await ctx.call(link, std::move(req));
    CO_CHECK_EQ(std::get<std::int64_t>(rep.args[0]), i);
  }
}

// A Chrysalis universe: LYNX echo over the shared-memory backend.  No
// medium, so the seed enters through the engine's seeded-permutation
// tie-break instead — schedule exploration over the backend's event
// sources (batched pump drains, the cheap-flag fast path, and — unless
// `coalesce` is 0 — the consumed-notice coalescing timers).
RunResult run_chrysalis_universe(std::uint64_t seed, sim::Duration coalesce) {
  sim::Engine e;
  e.set_tie_policy(
      {.kind = sim::TieBreak::kSeededPermutation, .seed = seed});
  trace::Recorder rec(e);
  chrysalis::Kernel kernel(e);
  lynx::ChrysalisBackendParams params;
  params.consumed_coalesce_delay = coalesce;
  lynx::Process server(e, "server", std::make_unique<lynx::ChrysalisBackend>(
                                         kernel, NodeId(0), params));
  lynx::Process client(e, "client", std::make_unique<lynx::ChrysalisBackend>(
                                         kernel, NodeId(1), params));
  server.start();
  client.start();
  lynx::LinkHandle server_end;
  lynx::LinkHandle client_end;
  e.spawn("connect", [](lynx::Process* sp, lynx::Process* cp,
                        lynx::LinkHandle* se,
                        lynx::LinkHandle* ce) -> sim::Task<> {
    auto [a, b] = co_await lynx::ChrysalisBackend::connect(*sp, *cp);
    *se = a;
    *ce = b;
  }(&server, &client, &server_end, &client_end));
  e.run();
  EXPECT_TRUE(server_end.valid() && client_end.valid());

  server.spawn_thread("serve", [&](lynx::ThreadCtx& ctx) {
    return ch_echo_serve(ctx, server_end, 4);
  });
  client.spawn_thread("drive", [&](lynx::ThreadCtx& ctx) {
    return ch_echo_drive(ctx, client_end, 4);
  });
  e.run();

  EXPECT_TRUE(e.process_failures().empty()) << "seed " << seed;
  EXPECT_TRUE(server.thread_failures().empty()) << "seed " << seed;
  EXPECT_TRUE(client.thread_failures().empty()) << "seed " << seed;
  return {rec.digest(), 0, rec.total_emitted()};
}

// A loaded universe: an open-loop Poisson scenario on the SODA backend
// with a Recorder watching the whole multi-client run.  Traced load is
// the regime where nondeterminism would hide (hundreds of interleaved
// RPCs), so the sweep pins its digest alongside the chaos universes'.
// With `formation` on, co-destined RPCs share wire frames — the clean
// (lossless) counterpart of the lossy Charlotte formation universe.
RunResult run_load_universe(std::uint64_t seed, bool formation = false) {
  load::Scenario sc;
  sc.clients = 2;
  sc.arrival = load::Arrival::kOpenPoisson;
  sc.offered_rate = 120.0;
  sc.mix = {{32, 32, 1.0}};
  sc.warmup = sim::msec(50);
  sc.measure = sim::msec(250);
  sc.drain = sim::msec(150);
  sc.seed = seed;
  if (formation) sc.form_delay = sim::msec(2);
  load::Runner runner(load::Substrate::kSoda, sc);
  trace::Recorder rec(runner.engine());
  const load::Report r = runner.run();
  EXPECT_EQ(r.errors, 0) << "seed " << seed;
  EXPECT_GT(r.samples, 0) << "seed " << seed;
  return {rec.digest(), 0, rec.total_emitted()};
}

// Every universe variant in the sweep, one run each.  One SeedDigests
// is one seed's worth of the sweep; the test below produces it twice —
// once fanned out over a sweep::ThreadPool, once sequentially — and the
// two must agree field for field.  (Universes are fully independent:
// one Engine each, and the only cross-engine state in src/ is the
// thread-local callable pool.)
struct SeedDigests {
  RunResult chaos;      // lossy SODA, FIFO tie-break
  RunResult perm;       // same universe, seeded-permutation tie-break
  RunResult ch;         // lossy Charlotte, ack piggybacking ON
  RunResult ch_nc;      // ... piggybacking OFF
  RunResult ch_form;    // ... with RPC formation armed
  RunResult soda_nc;    // lossy SODA, no ack coalescing
  RunResult chry;       // Chrysalis backend, consumed-notice coalescing
  RunResult chry_nc;    // ... consumed notices posted immediately
  RunResult load;       // open-loop Poisson load on SODA
  RunResult load_form;  // ... with RPC formation
};

SeedDigests run_seed(std::uint64_t seed) {
  SeedDigests d;
  d.chaos = run_universe(seed);
  d.perm = run_universe(seed, sim::TieBreak::kSeededPermutation);
  d.ch = run_charlotte_universe(seed, /*coalesce=*/true);
  d.ch_nc = run_charlotte_universe(seed, /*coalesce=*/false);
  d.ch_form =
      run_charlotte_universe(seed, /*coalesce=*/true, /*formation=*/true);
  d.soda_nc = run_universe(seed, sim::TieBreak::kFifo, sim::Duration(0));
  d.chry = run_chrysalis_universe(seed, sim::msec(2));
  d.chry_nc = run_chrysalis_universe(seed, sim::Duration(0));
  d.load = run_load_universe(seed);
  d.load_form = run_load_universe(seed, /*formation=*/true);
  return d;
}

void expect_same(const RunResult& a, const RunResult& b, const char* what,
                 std::uint64_t seed) {
  EXPECT_EQ(a.trace_digest, b.trace_digest) << what << " seed " << seed;
  EXPECT_EQ(a.fault_digest, b.fault_digest) << what << " seed " << seed;
  EXPECT_EQ(a.emitted, b.emitted) << what << " seed " << seed;
}

TEST(TraceDeterminism, SweepSeedsReproduceDigestsUnderAnyParallelism) {
  // Every universe in the sweep, run twice: same (seed, plan) => same
  // trace digest AND same fault digest, every time.  Different seeds
  // must not collapse onto one stream.  The two runs happen under
  // maximally different host schedules — wave A shards seeds across a
  // thread pool (several engines in flight at once), wave B replays the
  // whole sweep sequentially on this thread — because the digests are
  // the evidence that host parallelism cannot leak into a simulation.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) seeds.push_back(seed);

  sweep::ThreadPool pool(4);
  const std::vector<SeedDigests> wave_a = sweep::map(
      seeds, [](const std::uint64_t& seed) { return run_seed(seed); }, pool);

  std::set<std::uint64_t> distinct;
  std::set<std::uint64_t> distinct_load;
  std::set<std::uint64_t> distinct_charlotte;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const std::uint64_t seed = seeds[i];
    const SeedDigests& a = wave_a[i];
    const SeedDigests b = run_seed(seed);

    expect_same(a.chaos, b.chaos, "chaos", seed);
    ASSERT_GT(a.chaos.emitted, 0u) << "seed " << seed;
    ASSERT_NE(a.chaos.trace_digest, trace::Recorder::kEmptyDigest)
        << "seed " << seed;
    distinct.insert(a.chaos.trace_digest);

    // The same universe under seeded-permutation tie-break: still a pure
    // function of (seed, plan, policy), run after run.  The explorer's
    // shrinker and repro tokens depend on exactly this property.
    expect_same(a.perm, b.perm, "perm", seed);

    // The Charlotte lossy universe, piggybacking ON and OFF: the owed-ack
    // coalescing timer and the adaptive retransmit machinery must not
    // introduce schedule-dependent state.
    expect_same(a.ch, b.ch, "charlotte", seed);
    ASSERT_GT(a.ch.emitted, 0u) << "charlotte seed " << seed;
    distinct_charlotte.insert(a.ch.trace_digest);
    expect_same(a.ch_nc, b.ch_nc, "charlotte no-coalesce", seed);

    // Lossy Charlotte with RPC formation armed (DESIGN.md §14): batch
    // deadline timers, shared-frame dispatch, and whole-batch drops all
    // ride the same seeded randomness, so the digests must still be
    // bit-identical run over run — and the stream must actually differ
    // from the frame-per-message wire (formation changes what the
    // recorder sees, not just internal counters).
    expect_same(a.ch_form, b.ch_form, "charlotte formation", seed);
    EXPECT_NE(a.ch_form.trace_digest, a.ch.trace_digest)
        << "formation left no mark on the stream, seed " << seed;

    // The lossy SODA universe with immediate standalone acks: no
    // coalescing timer.  (chaos above covers the default.)
    expect_same(a.soda_nc, b.soda_nc, "soda no-coalesce", seed);

    // The Chrysalis backend universes, with and without consumed-notice
    // coalescing, under seeded-permutation schedule exploration.
    expect_same(a.chry, b.chry, "chrysalis", seed);
    ASSERT_GT(a.chry.emitted, 0u) << "chrysalis seed " << seed;
    expect_same(a.chry_nc, b.chry_nc, "chrysalis no-coalesce", seed);

    expect_same(a.load, b.load, "load", seed);
    ASSERT_GT(a.load.emitted, 0u) << "load seed " << seed;
    distinct_load.insert(a.load.trace_digest);

    // The clean loaded universe with formation on: open-loop SODA RPCs
    // sharing frames, double-run to the same digest.
    expect_same(a.load_form, b.load_form, "load formation", seed);
    ASSERT_GT(a.load_form.emitted, 0u) << "load formation seed " << seed;
  }
  // Chaos differs per seed, so the streams (almost) all differ too.
  EXPECT_GT(distinct.size(), 90u);
  // Load arrivals are Poisson-per-seed: streams must not collapse either.
  EXPECT_GT(distinct_load.size(), 90u);
  // Charlotte chaos (drops -> retransmits -> re-acks) differs per seed.
  EXPECT_GT(distinct_charlotte.size(), 90u);
}

// Byte `i` of a patterned payload; `salt` tells calls (and directions)
// apart so a misplaced fragment cannot pass for the right one.
soda::Payload patterned(std::size_t n, std::uint8_t salt) {
  soda::Payload p(n, 0);
  std::uint8_t* w = p.writable();
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = static_cast<std::uint8_t>(i * 7 + salt);
  }
  return p;
}

constexpr int kMultiFragCalls = 6;

// A SODA universe whose every payload spans several 256 B fragments,
// while the server's handler stays closed at first, so whole requests
// are NACKed and their completing fragment must be un-seen for a retry
// to re-run the verdict.  With `acks`, on a lossy, duplicating medium:
// selective retransmission of both legs, with duplicates screened by
// the transport watermark.  Without, on a medium that only duplicates
// (nothing else would recover a loss): duplicates and NACK-driven
// retries reach reassembly unscreened, and its per-fragment dedup keeps
// each payload byte-exact.  Returns the universe's trace digest and
// adds the kernel labels it recorded to `labels`.
std::uint64_t run_multi_fragment_universe(std::uint64_t seed, bool acks,
                                          std::set<std::string>* labels) {
  sim::Engine e;
  trace::Recorder rec(e);
  net::CsmaBus bus(e, sim::Rng(7));
  FaultyMedium fm(e, bus, seed,
                  Plan{}.background({.drop_prob = acks ? 0.15 : 0.0,
                                     .duplicate_prob = 0.1,
                                     .max_jitter = sim::usec(300)}));
  InvariantChecker check(fm);
  soda::Costs costs = acks ? soda_ack_costs() : soda::Costs{};
  costs.max_transport_attempts = 20;
  soda::Network nw(e, 2, fm, costs);

  soda::Pid s = nw.create_process(NodeId(0));
  soda::Pid c = nw.create_process(NodeId(1));
  soda::Name name;
  sim::Gate ready(e);
  int completed = 0;

  auto serve = [](soda::Network* nw, soda::Pid me, soda::Name* out,
                  sim::Gate* ready) -> sim::Task<> {
    soda::Kernel& k = nw->kernel_of(me);
    soda::Name n = co_await k.generate_name(me);
    CO_CHECK_EQ(co_await k.advertise(me, n), soda::Status::kOk);
    *out = n;
    k.close_handler(me);
    ready->open();
    co_await nw->engine().sleep(sim::msec(40));
    k.open_handler(me);
    for (int i = 0; i < kMultiFragCalls; ++i) {
      soda::Interrupt intr = co_await k.next_interrupt(me);
      auto* req = std::get_if<soda::RequestInterrupt>(&intr);
      CO_CHECK(req != nullptr);
      auto taken = co_await k.accept(me, req->request, soda::Oob{1, 0},
                                     patterned(600, 0x80 + i), 4096);
      CO_CHECK(taken.ok());
      CO_CHECK(taken.value() == patterned(1000, i));
    }
  };
  auto drive = [](soda::Network* nw, soda::Pid me, soda::Pid server,
                  soda::Name* name, sim::Gate* ready, std::uint64_t trace,
                  int* completed) -> sim::Task<> {
    co_await ready->wait();
    soda::Kernel& k = nw->kernel_of(me);
    for (int i = 0; i < kMultiFragCalls; ++i) {
      auto req = co_await k.request(me, server, *name, soda::Oob{},
                                    patterned(1000, i), 4096, trace);
      CO_CHECK(req.ok());
      soda::Interrupt intr = co_await k.next_interrupt(me);
      auto* done = std::get_if<soda::CompletionInterrupt>(&intr);
      CO_CHECK(done != nullptr);
      CO_CHECK_EQ(done->delivered, 1000u);
      CO_CHECK(done->data == patterned(600, 0x80 + i));
      ++*completed;
    }
  };
  e.spawn("server", serve(&nw, s, &name, &ready));
  e.spawn("client",
          drive(&nw, c, s, &name, &ready, rec.new_trace(), &completed));
  e.run();

  EXPECT_EQ(completed, kMultiFragCalls) << "seed " << seed;
  EXPECT_TRUE(check.ok()) << "seed " << seed << ": "
                          << check.violations().front();
  EXPECT_TRUE(e.process_failures().empty()) << "seed " << seed;
  for (const trace::Record& r : rec.snapshot()) {
    if (rec.track_name(r.track) == "kernel") {
      labels->insert(rec.label_name(r.label));
    }
  }
  return rec.digest();
}

TEST(TraceDeterminism, SodaMultiFragmentTransportDigestIsPinned) {
  // Pins the event stream of SODA's fragment transport: a change to how
  // fragments are tracked, retransmitted, screened or reassembled that
  // moves any event, cost or frame moves a fold.
  const auto sweep = [](bool acks, std::set<std::string>* labels) {
    common::Digest fold;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      fold.add(run_multi_fragment_universe(seed, acks, labels));
    }
    return fold.value();
  };
  std::set<std::string> labels;
  const std::uint64_t lossy = sweep(/*acks=*/true, &labels);
  // The lossy sweep reaches every path it is meant to guard: both legs
  // retransmit, and NACKed requests are retried.
  EXPECT_TRUE(labels.contains("req.retransmit"));
  EXPECT_TRUE(labels.contains("accept.retransmit"));
  EXPECT_TRUE(labels.contains("req.retry"));
  EXPECT_EQ(lossy, 0xb7778c92777637feull) << std::hex << "0x" << lossy;
  const std::uint64_t unscreened = sweep(/*acks=*/false, &labels);
  EXPECT_EQ(unscreened, 0x4110d776d680b0c0ull) << std::hex << "0x" << unscreened;
}

TEST(TraceDeterminism, SodaFrameTxCodesArePinned) {
  // trace::Recorder folds each SODA frame.tx record's type code into its
  // digest, so every pinned digest depends on these values.
  using K = soda::Kernel;
  using W = K::WireFrame;
  EXPECT_EQ(K::frame_code(W(K::ReqFrag{})), 0u);
  EXPECT_EQ(K::frame_code(W(K::ReqNack{})), 1u);
  EXPECT_EQ(K::frame_code(W(K::AcceptFrag{})), 2u);
  EXPECT_EQ(K::frame_code(W(K::CrashNote{})), 3u);
  EXPECT_EQ(K::frame_code(W(K::DiscoverQuery{})), 4u);
  EXPECT_EQ(K::frame_code(W(K::DiscoverReply{})), 5u);
  EXPECT_EQ(K::frame_code(W(K::RebootNote{})), 8u);
  EXPECT_EQ(K::frame_code(W(K::TransportAck{})), 9u);
  EXPECT_EQ(std::variant_size_v<W>, 8u) << "a new frame needs a pinned code";
}

TEST(TraceDeterminism, FaultEventsLandInTheSameStream) {
  // In an impaired universe the fault layer's injections (drop /
  // duplicate / corrupt) must appear in the trace stream alongside the
  // kernel's retransmits, each carrying the frame's causal TraceId.
  sim::Engine e;
  trace::Recorder rec(e);
  net::CsmaBus bus(e, sim::Rng(7));
  FaultyMedium fm(e, bus, 42,
                  Plan{}.background({.drop_prob = 0.3,
                                     .duplicate_prob = 0.1,
                                     .max_jitter = sim::usec(300)}));
  InvariantChecker check(fm);
  soda::Network nw(e, 3, fm, soda_ack_costs());

  soda::Pid s = nw.create_process(NodeId(0));
  soda::Pid c = nw.create_process(NodeId(1));
  soda::Name name;
  sim::Gate ready(e);
  e.spawn("server", so_server(&nw, s, &name, &ready));
  e.spawn("client", so_client(&nw, c, s, &name, &ready, rec.new_trace()));
  e.run();
  ASSERT_TRUE(check.ok()) << check.violations().front();

  std::map<std::string, std::size_t> track_counts;
  std::set<std::string> labels;
  bool fault_with_trace = false;
  for (const trace::Record& r : rec.snapshot()) {
    ++track_counts[rec.track_name(r.track)];
    labels.insert(rec.label_name(r.label));
    if (rec.track_name(r.track) == "fault" && r.trace != 0) {
      fault_with_trace = true;
    }
  }
  EXPECT_GT(track_counts["wire"], 0u);   // frame.tx / frame.rx
  EXPECT_GT(track_counts["fault"], 0u);  // injected impairments
  EXPECT_TRUE(labels.count("drop") || labels.count("duplicate") ||
              labels.count("delay"))
      << "no impairment labels recorded";
  EXPECT_TRUE(fault_with_trace)
      << "fault records must carry the impaired frame's TraceId";
}

}  // namespace
}  // namespace fault
