// Recorder unit tests: interning, span pairing, the context stack, the
// determinism digest (including its survival of ring overwrite), and the
// disabled-recorder zero-cost contract.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace trace {
namespace {

TEST(Recorder, InternsLabelsAndTracks) {
  sim::Engine e;
  Recorder rec(e);
  const std::uint16_t a = rec.intern_label("call");
  const std::uint16_t b = rec.intern_label("call.send");
  const std::uint16_t a2 = rec.intern_label("call");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.label_name(a), "call");
  const std::uint32_t t = rec.intern_track("runtime");
  EXPECT_EQ(t, rec.intern_track("runtime"));
  EXPECT_EQ(rec.track_name(t), "runtime");
}

TEST(Recorder, SpanBeginEndPairAndCarryArgs) {
  sim::Engine e;
  Recorder rec(e);
  const TraceId tid = rec.new_trace();
  const SpanId s = rec.begin_span(3, "runtime", "call", tid, 11, 22);
  EXPECT_NE(s, 0u);
  rec.end_span(3, s);
  auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, Kind::kSpanBegin);
  EXPECT_EQ(records[0].span, s);
  EXPECT_EQ(records[0].trace, tid);
  EXPECT_EQ(records[0].node, 3u);
  EXPECT_EQ(records[0].a, 11u);
  EXPECT_EQ(records[0].b, 22u);
  EXPECT_EQ(records[1].kind, Kind::kSpanEnd);
  EXPECT_EQ(records[1].span, s);
}

TEST(Recorder, SpanScopeEndsOnceAndSurvivesMove) {
  sim::Engine e;
  Recorder rec(e);
  {
    SpanScope outer(&rec, 0, "runtime", "call", 1);
    SpanScope moved = std::move(outer);
    moved.end();
    moved.end();  // idempotent
  }                // dtor after end(): no extra record
  auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, Kind::kSpanBegin);
  EXPECT_EQ(records[1].kind, Kind::kSpanEnd);
}

TEST(Recorder, NullRecorderSpanScopeIsNoop) {
  SpanScope s(nullptr, 0, "runtime", "call", 1);
  s.end();  // must not crash
}

TEST(Recorder, ContextStackPushPop) {
  sim::Engine e;
  Recorder rec(e);
  EXPECT_EQ(rec.context_depth(), 0u);
  rec.push_context(Dim::kProcess, 7);
  rec.push_context(Dim::kThread, 9);
  EXPECT_EQ(rec.context_depth(), 2u);
  rec.pop_context();
  rec.pop_context();
  EXPECT_EQ(rec.context_depth(), 0u);
  auto records = rec.snapshot();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].kind, Kind::kCtxPush);
  EXPECT_EQ(records[0].dim, Dim::kProcess);
  EXPECT_EQ(records[0].a, 7u);
  EXPECT_EQ(records[3].kind, Kind::kCtxPop);
}

TEST(Recorder, DigestIsDeterministicAcrossRuns) {
  auto run = [] {
    sim::Engine e;
    Recorder rec(e);
    for (int i = 0; i < 100; ++i) {
      const TraceId t = rec.new_trace();
      const SpanId s = rec.begin_span(0, "runtime", "call", t,
                                      static_cast<std::uint64_t>(i));
      rec.instant(1, "wire", "frame.tx", t, static_cast<std::uint64_t>(i));
      rec.end_span(0, s);
    }
    return rec.digest();
  };
  const std::uint64_t d1 = run();
  const std::uint64_t d2 = run();
  EXPECT_EQ(d1, d2);
  EXPECT_NE(d1, Recorder::kEmptyDigest);
}

TEST(Recorder, DigestSurvivesRingOverwrite) {
  sim::Engine e;
  Recorder small(e, /*ring_capacity=*/16);
  for (int i = 0; i < 1000; ++i) {
    small.instant(0, "wire", "frame.tx", 1, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(small.total_emitted(), 1000u);
  EXPECT_GT(small.overwritten(), 0u);
  EXPECT_LE(small.retained(), 16u);

  // An identical run with a big ring (nothing overwritten) must produce
  // the same digest: the digest covers EMITTED records, not retained.
  sim::Engine e2;
  Recorder big(e2, 4096);
  for (int i = 0; i < 1000; ++i) {
    big.instant(0, "wire", "frame.tx", 1, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(big.overwritten(), 0u);
  EXPECT_EQ(small.digest(), big.digest());
}

TEST(Recorder, SnapshotMergesWrappedRingsInEmissionOrder) {
  // Three nodes emit unevenly interleaved records into rings of 8 that
  // all wrap, each at a different point.  The snapshot must still be in
  // global emission order and hold exactly each node's newest records.
  sim::Engine e;
  constexpr std::size_t kCapacity = 8;
  Recorder rec(e, kCapacity);
  std::map<std::uint32_t, std::vector<std::uint64_t>> emitted;  // node -> seqs
  for (std::uint64_t i = 0; i < 60; ++i) {
    const auto node = static_cast<std::uint32_t>((i * i + i / 5) % 3);
    emitted[node].push_back(rec.total_emitted());  // the seq it will get
    rec.instant(node, "wire", "frame.tx", 0, i);
  }
  ASSERT_EQ(emitted.size(), 3u);

  const std::vector<Record> records = rec.snapshot();
  ASSERT_EQ(records.size(), 3 * kCapacity);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].seq, records[i].seq) << "at " << i;
  }
  std::map<std::uint32_t, std::vector<std::uint64_t>> kept;
  for (const Record& r : records) kept[r.node].push_back(r.seq);
  for (const auto& [node, seqs] : emitted) {
    ASSERT_GT(seqs.size(), kCapacity) << "node " << node << " never wrapped";
    const std::vector<std::uint64_t> newest(seqs.end() - kCapacity,
                                            seqs.end());
    EXPECT_EQ(kept[node], newest) << "node " << node;
  }
}

TEST(Recorder, DigestDiffersWhenStreamDiffers) {
  sim::Engine e1, e2;
  Recorder a(e1), b(e2);
  a.instant(0, "wire", "frame.tx", 1);
  b.instant(0, "wire", "frame.rx", 1);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Recorder, DisabledRecorderEmitsAndAllocatesNothing) {
  sim::Engine e;
  Recorder rec(e);
  rec.enable(false);
  EXPECT_EQ(trace::get(e), nullptr);  // the gate refuses a disabled recorder
  rec.instant(0, "wire", "frame.tx", 1);
  (void)rec.begin_span(0, "runtime", "call", 1);
  EXPECT_EQ(rec.total_emitted(), 0u);
  EXPECT_EQ(rec.allocated_slots(), 0u);  // rings are lazy: nothing touched
  EXPECT_EQ(rec.digest(), Recorder::kEmptyDigest);

  rec.enable(true);
  EXPECT_EQ(trace::get(e), &rec);
  rec.instant(0, "wire", "frame.tx", 1);
  EXPECT_EQ(rec.total_emitted(), 1u);
  EXPECT_GT(rec.allocated_slots(), 0u);
}

TEST(Recorder, GetReturnsNullWithoutRecorder) {
  sim::Engine e;
  EXPECT_EQ(trace::get(e), nullptr);
  {
    Recorder rec(e);
    EXPECT_EQ(trace::get(e), &rec);
  }
  EXPECT_EQ(trace::get(e), nullptr);  // detached on destruction
}

}  // namespace
}  // namespace trace
