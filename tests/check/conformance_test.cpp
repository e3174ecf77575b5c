// The reference model itself: clean runs on every substrate must
// conform, and each conformance rule must actually fire when fed a
// stream that violates it.  Synthetic streams are emitted straight into
// a Recorder — the model only sees records, so the test can forge any
// interleaving the kernels could (or must never) produce.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "check/reference_model.hpp"
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

// Emits the full conforming skeleton of one RPC on `trace`; the
// violating tests perturb it.
struct Script {
  sim::Engine engine;
  trace::Recorder rec{engine};

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
  EXPECT_TRUE(m.replay(s.rec));
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
  EXPECT_FALSE(m.replay(s.rec));
  EXPECT_EQ(rule_of(m), "single-delivery");
  EXPECT_FALSE(m.divergence()->context.empty());
  (void)call;
  (void)wait;
}

TEST(Conformance, ServiceWithoutRequestIsCaught) {
  Script s;
  s.end(s.begin("recv.scatter", 7));
  ReferenceModel m;
  EXPECT_FALSE(m.replay(s.rec));
  EXPECT_EQ(rule_of(m), "service-after-send");
}

TEST(Conformance, ReplyWithoutServiceIsCaught) {
  Script s;
  const auto call = s.begin("call", 1);
  s.end(s.begin("call.gather", 1));
  s.end(s.begin("call.send", 1));
  s.end(s.begin("reply.send", 1));  // never serviced
  ReferenceModel m;
  EXPECT_FALSE(m.replay(s.rec));
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
  EXPECT_FALSE(m.replay(s.rec));
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
  EXPECT_FALSE(m.replay(s.rec));
  EXPECT_EQ(rule_of(m), "reply-consumption");
  (void)call;
}

TEST(Conformance, PhaseOrderIsEnforced) {
  Script s;
  const auto call = s.begin("call", 1);
  s.end(s.begin("call.send", 1));  // send before gather
  ReferenceModel m;
  EXPECT_FALSE(m.replay(s.rec));
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
  EXPECT_FALSE(m.replay(s.rec));
  EXPECT_EQ(rule_of(m), "error-surface");
}

TEST(Conformance, AllowedErrorKindPasses) {
  Script s;
  const auto call = s.begin("call", 1);
  s.instant("rpc.error", 1,
            static_cast<std::uint64_t>(lynx::ErrorKind::kLinkDestroyed));
  s.end(call);
  Expectation exp;
  exp.allowed_errors = {lynx::ErrorKind::kLinkDestroyed};
  ReferenceModel m(exp);
  EXPECT_TRUE(m.replay(s.rec)) << m.divergence()->render();
}

TEST(Conformance, UnexpectedScreeningRejectIsCaught) {
  Script s;
  s.instant("req.reject", 3);
  ReferenceModel m;
  EXPECT_FALSE(m.replay(s.rec));
  EXPECT_EQ(rule_of(m), "screening");

  Expectation exp;
  exp.allow_rejects = true;
  ReferenceModel permissive(exp);
  EXPECT_TRUE(permissive.replay(s.rec));
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
  EXPECT_FALSE(m.replay(s.rec));
  EXPECT_EQ(rule_of(m), "error-surface");
  EXPECT_EQ(m.divergence()->trace, 0u);
}

TEST(Conformance, LinkDeathIsAllowedByDefaultAndOptOutCatchesIt) {
  // Orderly termination destroys links (§2.1), so a death notice after
  // a completed exchange is normal teardown...
  Script s;
  s.conforming_rpc(1);
  s.instant("link.dead", 0, 1);
  ReferenceModel m;
  EXPECT_TRUE(m.replay(s.rec));

  // ...but a scenario that keeps every process alive can forbid it.
  Expectation strict;
  strict.allow_link_death = false;
  ReferenceModel pinned(strict);
  EXPECT_FALSE(pinned.replay(s.rec));
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
  EXPECT_FALSE(m.replay(s.rec));
  EXPECT_EQ(rule_of(m), "completion");
}

TEST(Conformance, InFlightCallAtEndOfRunIsCaught) {
  Script s;
  const auto call = s.begin("call", 1);
  s.end(s.begin("call.gather", 1));
  (void)call;  // never closed
  ReferenceModel m;
  EXPECT_FALSE(m.replay(s.rec));
  EXPECT_EQ(rule_of(m), "incomplete-call");

  Expectation exp;
  exp.require_completion = false;
  ReferenceModel lax(exp);
  EXPECT_TRUE(lax.replay(s.rec));
}

TEST(Conformance, InFlightCallDivergenceCarriesItsContext) {
  Script s;
  s.conforming_rpc(1);
  const auto call = s.begin("call", 2);
  s.end(s.begin("call.gather", 2));
  (void)call;  // never closed
  ReferenceModel m;
  ASSERT_FALSE(m.replay(s.rec));
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
  ASSERT_FALSE(m.replay(s.rec));
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
  ASSERT_FALSE(m.replay(s.rec));
  const Divergence& d = *m.divergence();
  EXPECT_EQ(d.trace, 2u);
  // Context holds only trace-2 history: the begin/end chatter of the
  // healthy trace 1 must not drown the story.
  ASSERT_GE(d.context.size(), 4u);
  const std::string text = d.render();
  EXPECT_NE(text.find("single-delivery"), std::string::npos);
  EXPECT_NE(text.find("recv.scatter"), std::string::npos);
}

}  // namespace
}  // namespace check
