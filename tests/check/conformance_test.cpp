// The reference model itself: clean runs on every substrate must
// conform, and each conformance rule must actually fire when fed a
// stream that violates it.  Synthetic streams are emitted straight into
// a Recorder — the model only sees records, so the test can forge any
// interleaving the kernels could (or must never) produce.  Every check
// is made twice, by a model fed as the records are emitted (the
// recorder's sink, as in the explorer) and by one replaying the
// snapshot, and the two must report the same.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/explorer.hpp"
#include "check/linearizability.hpp"
#include "check/reference_model.hpp"
#include "lynx/lynx.hpp"
#include "replica/replica.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace check {
namespace {

TEST(Conformance, CleanRunsConformOnAllSubstrates) {
  for (load::Substrate substrate : load::all_substrates()) {
    RunConfig cfg;
    cfg.substrate = substrate;
    const RunVerdict v = run_one(cfg);
    EXPECT_TRUE(v.ok) << load::to_string(substrate) << ": " << v.failure;
    EXPECT_EQ(v.calls_checked, 8u) << load::to_string(substrate);
    EXPECT_GT(v.records, 0u) << load::to_string(substrate);
  }
}

TEST(Conformance, CleanRunsConformUnderAckStormPlan) {
  // Loss the kernels are built to recover from must not register as a
  // divergence: retransmit + dedup + re-ack converge to the same
  // conforming stream.
  for (load::Substrate substrate :
       {load::Substrate::kCharlotte, load::Substrate::kSoda}) {
    RunConfig cfg;
    cfg.substrate = substrate;
    cfg.plan = PlanSpec::kAckStorm;
    const RunVerdict v = run_one(cfg);
    EXPECT_TRUE(v.ok) << load::to_string(substrate) << ": " << v.failure;
    EXPECT_EQ(v.calls_checked, 8u) << load::to_string(substrate);
  }
}

// ---- synthetic streams: one per rule ---------------------------------

std::string render(const ReferenceModel& m) {
  return m.divergence().has_value() ? m.divergence()->render() : "";
}

// Emits the full conforming skeleton of one RPC on `trace`; the
// violating tests perturb it.  Each record also reaches, as it is
// emitted, one online model per expectation the script was built with;
// replay(m, i) replays `m` (built with the i-th expectation) over the
// snapshot and expects the i-th online model to report the same.
struct Script {
  explicit Script(std::vector<Expectation> expectations = {Expectation{}}) {
    for (const Expectation& e : expectations) online.emplace_back(e);
    rec.set_sink([this](const trace::Record& r) {
      for (ReferenceModel& m : online) m.feed(rec, r);
    });
  }

  sim::Engine engine;
  std::deque<ReferenceModel> online;  // models neither copy nor move
  trace::Recorder rec{engine};

  bool replay(ReferenceModel& m, std::size_t i = 0) {
    const bool conforms = m.replay(rec);
    ReferenceModel& fed = online.at(i);
    EXPECT_EQ(fed.finish(), conforms);
    EXPECT_EQ(fed.records_checked(), m.records_checked());
    EXPECT_EQ(fed.calls_checked(), m.calls_checked());
    // The rendered text holds the rule, time, seq, detail and context.
    EXPECT_EQ(render(fed), render(m));
    return conforms;
  }

  trace::SpanId begin(const char* label, std::uint64_t trace) {
    return rec.begin_span(0, "runtime", label, trace);
  }
  void end(trace::SpanId s) { rec.end_span(0, s); }
  void instant(const char* label, std::uint64_t trace, std::uint64_t a = 0) {
    rec.instant(0, "runtime", label, trace, a);
  }

  void conforming_rpc(std::uint64_t trace) {
    const auto call = begin("call", trace);
    const auto gather = begin("call.gather", trace);
    end(gather);
    const auto send = begin("call.send", trace);
    end(send);
    const auto wait = begin("call.wait", trace);
    const auto served = begin("recv.scatter", trace);
    end(served);
    const auto rgather = begin("reply.gather", trace);
    end(rgather);
    const auto rsend = begin("reply.send", trace);
    end(rsend);
    end(wait);
    const auto scatter = begin("call.scatter", trace);
    end(scatter);
    end(call);
  }
};

std::string rule_of(const ReferenceModel& m) {
  return m.divergence().has_value() ? m.divergence()->rule : "";
}

TEST(Conformance, ConformingScriptPasses) {
  Script s;
  s.conforming_rpc(1);
  s.conforming_rpc(2);
  ReferenceModel m;
  EXPECT_TRUE(s.replay(m));
  EXPECT_EQ(m.calls_checked(), 2u);
}

TEST(Conformance, DoubleDeliveryIsCaught) {
  // The exact semantic the dedup / re-ack machinery protects: one
  // request serviced twice.
  Script s;
  const auto call = s.begin("call", 1);
  s.end(s.begin("call.gather", 1));
  s.end(s.begin("call.send", 1));
  const auto wait = s.begin("call.wait", 1);
  s.end(s.begin("recv.scatter", 1));
  s.end(s.begin("recv.scatter", 1));  // duplicate delivery
  ReferenceModel m;
  EXPECT_FALSE(s.replay(m));
  EXPECT_EQ(rule_of(m), "single-delivery");
  EXPECT_FALSE(m.divergence()->context.empty());
  (void)call;
  (void)wait;
}

TEST(Conformance, ServiceWithoutRequestIsCaught) {
  Script s;
  s.end(s.begin("recv.scatter", 7));
  ReferenceModel m;
  EXPECT_FALSE(s.replay(m));
  EXPECT_EQ(rule_of(m), "service-after-send");
}

TEST(Conformance, ReplyWithoutServiceIsCaught) {
  Script s;
  const auto call = s.begin("call", 1);
  s.end(s.begin("call.gather", 1));
  s.end(s.begin("call.send", 1));
  s.end(s.begin("reply.send", 1));  // never serviced
  ReferenceModel m;
  EXPECT_FALSE(s.replay(m));
  EXPECT_EQ(rule_of(m), "reply-after-serve");
  (void)call;
}

TEST(Conformance, SecondReplyIsCaught) {
  Script s;
  const auto call = s.begin("call", 1);
  s.end(s.begin("call.gather", 1));
  s.end(s.begin("call.send", 1));
  s.end(s.begin("recv.scatter", 1));
  s.end(s.begin("reply.send", 1));
  s.end(s.begin("reply.send", 1));  // answered twice
  ReferenceModel m;
  EXPECT_FALSE(s.replay(m));
  EXPECT_EQ(rule_of(m), "reply-after-serve");
  (void)call;
}

TEST(Conformance, ScatterOfUnsentReplyIsCaught) {
  Script s;
  const auto call = s.begin("call", 1);
  s.end(s.begin("call.gather", 1));
  s.end(s.begin("call.send", 1));
  const auto wait = s.begin("call.wait", 1);
  s.end(wait);
  s.end(s.begin("call.scatter", 1));  // no server-side reply exists
  ReferenceModel m;
  EXPECT_FALSE(s.replay(m));
  EXPECT_EQ(rule_of(m), "reply-consumption");
  (void)call;
}

TEST(Conformance, PhaseOrderIsEnforced) {
  Script s;
  const auto call = s.begin("call", 1);
  s.end(s.begin("call.send", 1));  // send before gather
  ReferenceModel m;
  EXPECT_FALSE(s.replay(m));
  EXPECT_EQ(rule_of(m), "phase-order");
  (void)call;
}

TEST(Conformance, DisallowedErrorKindIsCaught) {
  Script s;
  const auto call = s.begin("call", 1);
  s.instant("rpc.error", 1,
            static_cast<std::uint64_t>(lynx::ErrorKind::kLinkDestroyed));
  s.end(call);
  ReferenceModel m;
  EXPECT_FALSE(s.replay(m));
  EXPECT_EQ(rule_of(m), "error-surface");
}

TEST(Conformance, AllowedErrorKindPasses) {
  Expectation exp;
  exp.allowed_errors = {lynx::ErrorKind::kLinkDestroyed};
  Script s({exp});
  const auto call = s.begin("call", 1);
  s.instant("rpc.error", 1,
            static_cast<std::uint64_t>(lynx::ErrorKind::kLinkDestroyed));
  s.end(call);
  ReferenceModel m(exp);
  EXPECT_TRUE(s.replay(m)) << m.divergence()->render();
}

TEST(Conformance, UnexpectedScreeningRejectIsCaught) {
  Expectation exp;
  exp.allow_rejects = true;
  Script s({{}, exp});
  s.instant("req.reject", 3);
  ReferenceModel m;
  EXPECT_FALSE(s.replay(m));
  EXPECT_EQ(rule_of(m), "screening");

  ReferenceModel permissive(exp);
  EXPECT_TRUE(s.replay(permissive, 1));
}

TEST(Conformance, TraceZeroErrorIsCaught) {
  // An error raised outside any call's causal chain (e.g. "call on
  // destroyed link" thrown before a trace is allocated) still lands on
  // the runtime track, as a trace-0 instant — R8 must see it.  This is
  // exactly how the planted re-ack bug's second-order damage surfaces.
  Script s;
  s.conforming_rpc(1);
  s.instant("rpc.error", 0,
            static_cast<std::uint64_t>(lynx::ErrorKind::kLinkDestroyed));
  ReferenceModel m;
  EXPECT_FALSE(s.replay(m));
  EXPECT_EQ(rule_of(m), "error-surface");
  EXPECT_EQ(m.divergence()->trace, 0u);
}

TEST(Conformance, LinkDeathIsAllowedByDefaultAndOptOutCatchesIt) {
  // Orderly termination destroys links (§2.1), so a death notice after
  // a completed exchange is normal teardown...
  Expectation strict;
  strict.allow_link_death = false;
  Script s({{}, strict});
  s.conforming_rpc(1);
  s.instant("link.dead", 0, 1);
  ReferenceModel m;
  EXPECT_TRUE(s.replay(m));

  // ...but a scenario that keeps every process alive can forbid it.
  ReferenceModel pinned(strict);
  EXPECT_FALSE(s.replay(pinned, 1));
  EXPECT_EQ(pinned.divergence()->rule, "link-death");
}

TEST(Conformance, SilentlyDroppedCallIsCaught) {
  // A call whose span closes cleanly but that was never served: the
  // "kernel lost the request and nobody noticed" shape.
  Script s;
  const auto call = s.begin("call", 1);
  s.end(s.begin("call.gather", 1));
  s.end(s.begin("call.send", 1));
  const auto wait = s.begin("call.wait", 1);
  s.end(wait);
  s.end(call);
  ReferenceModel m;
  EXPECT_FALSE(s.replay(m));
  EXPECT_EQ(rule_of(m), "completion");
}

TEST(Conformance, InFlightCallAtEndOfRunIsCaught) {
  Expectation exp;
  exp.require_completion = false;
  Script s({{}, exp});
  const auto call = s.begin("call", 1);
  s.end(s.begin("call.gather", 1));
  (void)call;  // never closed
  ReferenceModel m;
  EXPECT_FALSE(s.replay(m));
  EXPECT_EQ(rule_of(m), "incomplete-call");

  ReferenceModel lax(exp);
  EXPECT_TRUE(s.replay(lax, 1));
}

TEST(Conformance, InFlightCallDivergenceCarriesItsContext) {
  Script s;
  s.conforming_rpc(1);
  const auto call = s.begin("call", 2);
  s.end(s.begin("call.gather", 2));
  (void)call;  // never closed
  ReferenceModel m;
  ASSERT_FALSE(s.replay(m));
  const Divergence& d = *m.divergence();
  EXPECT_EQ(d.rule, "incomplete-call");
  EXPECT_EQ(d.trace, 2u);
  const std::vector<std::string> want = {
      "[0.000us] seq=16 node=0 begin call",
      "[0.000us] seq=17 node=0 begin call.gather",
      "[0.000us] seq=18 node=0 end call.gather",
  };
  EXPECT_EQ(d.context, want);
  EXPECT_NE(d.render().find("causal context (trace 2):"), std::string::npos);
}

TEST(Conformance, ContextKeepsTheFirstRecordsOfALongTrace) {
  // 52 runtime records on one trace before it diverges: the context is
  // its first kMaxHistory records, oldest first, each with its edge.
  Script s;
  const auto call = s.begin("call", 1);  // seq 0
  s.instant("call.note", 1, 7);          // seq 1
  for (int i = 0; i < 25; ++i) {          // seqs 2..51
    s.end(s.begin("call.gather", 1));
  }
  s.instant("rpc.error", 1,  // seq 52
            static_cast<std::uint64_t>(lynx::ErrorKind::kLinkDestroyed));
  (void)call;
  ReferenceModel m;
  ASSERT_FALSE(s.replay(m));
  const Divergence& d = *m.divergence();
  EXPECT_EQ(d.rule, "error-surface");
  EXPECT_EQ(d.seq, 52u);
  ASSERT_EQ(ReferenceModel::kMaxHistory, 48u);
  ASSERT_EQ(d.context.size(), ReferenceModel::kMaxHistory);
  for (std::size_t i = 0; i < d.context.size(); ++i) {
    std::string want = "[0.000us] seq=" + std::to_string(i) + " node=0 ";
    if (i == 0) {
      want += "begin call";
    } else if (i == 1) {
      want += "instant call.note a=7";
    } else {
      want += i % 2 == 0 ? "begin call.gather" : "end call.gather";
    }
    EXPECT_EQ(d.context[i], want);
  }
}

TEST(Conformance, RingOverflowIsItselfADivergence) {
  sim::Engine e;
  trace::Recorder rec(e, 4);  // tiny ring: guaranteed to wrap
  for (int i = 0; i < 64; ++i) rec.instant(0, "runtime", "rpc.error", 1, 0);
  ReferenceModel m;
  EXPECT_FALSE(m.replay(rec));
  EXPECT_EQ(m.divergence()->rule, "ring-overflow");
}

TEST(Conformance, DivergenceRenderCarriesCausalContext) {
  Script s;
  s.conforming_rpc(1);
  const auto call = s.begin("call", 2);
  s.end(s.begin("call.gather", 2));
  s.end(s.begin("call.send", 2));
  s.end(s.begin("recv.scatter", 2));
  s.end(s.begin("recv.scatter", 2));
  (void)call;
  ReferenceModel m;
  ASSERT_FALSE(s.replay(m));
  const Divergence& d = *m.divergence();
  EXPECT_EQ(d.trace, 2u);
  // Context holds only trace-2 history: the begin/end chatter of the
  // healthy trace 1 must not drown the story.
  ASSERT_GE(d.context.size(), 4u);
  const std::string text = d.render();
  EXPECT_NE(text.find("single-delivery"), std::string::npos);
  EXPECT_NE(text.find("recv.scatter"), std::string::npos);
}

// ---- online against replay ------------------------------------------

sim::Task<> wire(load::Universe* u, lynx::Process* server,
                 lynx::Process* client,
                 std::vector<std::pair<lynx::LinkHandle, lynx::LinkHandle>>*
                     links) {
  for (int ch = 0; ch < 2; ++ch) {
    auto ends = co_await u->connect(*server, *client);
    links->push_back(ends);
  }
}

sim::Task<> serve(lynx::ThreadCtx& ctx, lynx::LinkHandle link) {
  ctx.enable_requests(link);
  for (int i = 0; i < 4; ++i) {
    lynx::Incoming in = co_await ctx.receive();
    lynx::Message rep;
    rep.args = in.msg.args;
    co_await ctx.reply(in, std::move(rep));
  }
}

sim::Task<> drive(lynx::ThreadCtx& ctx, lynx::LinkHandle link) {
  for (int i = 0; i < 4; ++i) {
    lynx::Message m = lynx::make_message(
        "echo", {lynx::Bytes(32, static_cast<std::uint8_t>(i + 1))});
    (void)co_await ctx.call(link, std::move(m));
  }
}

// The explorer's echo pair: two channels of four 32 B calls.  With
// `reack_bug`, its ack storm and Charlotte's planted re-ack bug.
std::unique_ptr<load::Universe> run_echo(sim::Engine& engine,
                                         load::Substrate substrate,
                                         bool reack_bug) {
  load::UniverseSpec spec;
  spec.substrate = substrate;
  spec.nodes = substrate == load::Substrate::kChrysalis ? 16 : 2;
  if (reack_bug) {
    spec.faults = fault::Plan{}.drop_between(sim::msec(60), sim::msec(310),
                                             1.0, net::NodeId(0),
                                             net::NodeId(1));
    spec.charlotte.send_retransmit_timeout = sim::msec(100);
    spec.charlotte.max_send_attempts = 8;
    spec.charlotte.debug_drop_reacks = true;
  }
  auto universe = std::make_unique<load::Universe>(engine, spec);
  lynx::Process& server = universe->spawn("server", 0);
  lynx::Process& client = universe->spawn("client", 1);
  std::vector<std::pair<lynx::LinkHandle, lynx::LinkHandle>> links;
  engine.spawn("wire", wire(universe.get(), &server, &client, &links));
  engine.run();
  for (std::size_t ch = 0; ch < links.size(); ++ch) {
    const lynx::LinkHandle server_end = links[ch].first;
    const lynx::LinkHandle client_end = links[ch].second;
    server.spawn_thread("srv" + std::to_string(ch),
                        [server_end](lynx::ThreadCtx& ctx) {
                          return serve(ctx, server_end);
                        });
    client.spawn_thread("cli" + std::to_string(ch),
                        [client_end](lynx::ThreadCtx& ctx) {
                          return drive(ctx, client_end);
                        });
  }
  engine.run();
  return universe;
}

// The explorer's replica universe: two clients of four KV operations.
std::unique_ptr<replica::Group> run_replica(sim::Engine& engine,
                                            load::Substrate substrate,
                                            bool stale_bug) {
  replica::Options options;
  options.clients = 2;
  options.ops_per_client = 4;
  options.debug_stale_reads = stale_bug;
  auto group = std::make_unique<replica::Group>(engine, substrate, options);
  (void)engine.run_until(sim::sec(60));
  return group;
}

// What both oracles report on one universe.
struct Checked {
  bool conforms = false;
  std::uint64_t calls = 0;
  std::uint64_t records = 0;
  std::string divergence;
  LinVerdict lin;
};

// Builds and runs a universe with `run`, checked one of two ways:
// `online`, the oracles are the sink of a recorder that keeps no ring,
// as in the explorer; otherwise they replay a ring that keeps the whole
// stream.
template <typename Run>
Checked check_universe(bool online, const Expectation& exp, Run run) {
  sim::Engine engine;
  KvHistory history;
  ReferenceModel model(exp);
  trace::Recorder rec(engine, online ? 0 : std::size_t{1} << 18);
  if (online) {
    rec.set_sink([&](const trace::Record& r) {
      history.feed(rec, r);
      model.feed(rec, r);
    });
  }
  const auto world = run(engine);
  Checked c;
  if (online) {
    rec.set_sink(nullptr);
    c.conforms = model.finish();
    c.lin = history.check();
    EXPECT_EQ(rec.allocated_slots(), 0u);
    ReferenceModel ringless(exp);
    EXPECT_FALSE(ringless.replay(rec));
    EXPECT_EQ(ringless.divergence()->rule, "ring-overflow");
  } else {
    EXPECT_EQ(rec.overwritten(), 0u);
    c.conforms = model.replay(rec);
    c.lin = check_trace(rec);
  }
  c.calls = model.calls_checked();
  c.records = model.records_checked();
  c.divergence = render(model);
  return c;
}

template <typename Run>
void expect_online_matches_replay(const Expectation& exp, Run run,
                                  bool planted_bug) {
  const Checked online = check_universe(true, exp, run);
  const Checked replayed = check_universe(false, exp, run);
  EXPECT_EQ(online.conforms, replayed.conforms);
  EXPECT_EQ(online.calls, replayed.calls);
  EXPECT_EQ(online.records, replayed.records);
  EXPECT_GT(online.records, 0u);
  EXPECT_EQ(online.divergence, replayed.divergence);
  EXPECT_EQ(online.lin.ok, replayed.lin.ok);
  EXPECT_EQ(online.lin.failure, replayed.lin.failure);
  EXPECT_EQ(online.lin.ops_checked, replayed.lin.ops_checked);
  EXPECT_EQ(online.lin.optional_ops, replayed.lin.optional_ops);
  // A planted bug must fail the run, or the comparison covers no
  // divergence at all.
  EXPECT_EQ(online.conforms && online.lin.ok, !planted_bug)
      << online.divergence << online.lin.failure;
}

TEST(Conformance, OnlineCheckMatchesReplayOnEchoAndReplicaUniverses) {
  Expectation replica_exp;
  replica_exp.allowed_errors = {lynx::ErrorKind::kLinkDestroyed};
  for (load::Substrate substrate : load::all_substrates()) {
    for (bool bug : {false, true}) {
      SCOPED_TRACE(std::string(load::to_string(substrate)) +
                   (bug ? " with the planted bug" : " clean"));
      if (!bug || substrate == load::Substrate::kCharlotte) {
        SCOPED_TRACE("echo");
        expect_online_matches_replay(
            Expectation{},
            [&](sim::Engine& e) { return run_echo(e, substrate, bug); }, bug);
      }
      SCOPED_TRACE("replica");
      expect_online_matches_replay(
          replica_exp,
          [&](sim::Engine& e) { return run_replica(e, substrate, bug); },
          bug);
    }
  }
}

}  // namespace
}  // namespace check
