// Recorder unit tests: interning (also through the address-keyed name
// cache), span pairing, the snapshot before and after the ring wraps,
// the determinism digest (every field it covers, and its survival of
// ring overwrite), and the idle recorder's zero-allocation contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
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
  Recorder small(e, /*capacity=*/16);
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

TEST(Recorder, DigestDiffersWhenStreamDiffers) {
  sim::Engine e1, e2;
  Recorder a(e1), b(e2);
  a.instant(0, "wire", "frame.tx", 1);
  b.instant(0, "wire", "frame.rx", 1);
  EXPECT_NE(a.digest(), b.digest());
}

// ---- names found by address --------------------------------------------

// Two arrays with one text: distinct addresses, as two translation units'
// copies of one literal may have.
constexpr char kSendA[] = "call.send";
constexpr char kSendB[] = "call.send";
constexpr char kRuntimeA[] = "runtime";
constexpr char kRuntimeB[] = "runtime";

TEST(Recorder, OneTextThroughTwoAddressesIsOneName) {
  ASSERT_NE(static_cast<const void*>(kSendA), static_cast<const void*>(kSendB));
  sim::Engine e1, e2;
  Recorder two(e1), one(e2);
  two.instant(0, kRuntimeA, kSendA, 1);
  two.instant(0, kRuntimeB, kSendB, 2);
  one.instant(0, kRuntimeA, kSendA, 1);
  one.instant(0, kRuntimeA, kSendA, 2);
  const std::vector<Record> records = two.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].label, records[1].label);
  EXPECT_EQ(records[0].track, records[1].track);
  EXPECT_EQ(two.label_count(), 1u);
  EXPECT_EQ(two.digest(), one.digest());
}

// 200 labels on 40 tracks, cycled in an order that revisits each name
// after many others, overflow the name caches' slots many times over.
// Ids and the digest must equal those of the same names each passed
// through a fresh address (every lookup a miss, so the text table
// alone decides): ids go by first use, never by address.
TEST(Recorder, CollidingNamesKeepIdsAndDigest) {
  constexpr std::size_t kLabels = 200;
  constexpr std::size_t kTracks = 40;
  std::vector<std::string> labels;
  std::vector<std::string> tracks;
  for (std::size_t i = 0; i < kLabels; ++i) {
    labels.push_back("label." + std::to_string(i));
  }
  for (std::size_t i = 0; i < kTracks; ++i) {
    tracks.push_back("track." + std::to_string(i));
  }
  sim::Engine e1, e2;
  Recorder cached(e1), fresh(e2);
  std::vector<std::unique_ptr<std::string>> copies;  // alive to the end
  std::vector<std::uint16_t> first_use;              // label id by order
  std::map<std::size_t, std::uint16_t> expected;     // label -> id
  for (std::size_t round = 0; round < 6; ++round) {
    for (std::size_t k = 0; k < kLabels; ++k) {
      const std::size_t i = (k * 37 + round * 11) % kLabels;
      const std::size_t t = (k * 7 + round) % kTracks;
      expected.emplace(i, static_cast<std::uint16_t>(expected.size()));
      cached.instant(0, tracks[t].c_str(), labels[i].c_str(), round, k);
      copies.push_back(std::make_unique<std::string>(tracks[t]));
      const char* track_copy = copies.back()->c_str();
      copies.push_back(std::make_unique<std::string>(labels[i]));
      fresh.instant(0, track_copy, copies.back()->c_str(), round, k);
      first_use.push_back(expected.at(i));
    }
  }
  const std::vector<Record> got = cached.snapshot();
  const std::vector<Record> want = fresh.snapshot();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), first_use.size());
  for (std::size_t n = 0; n < got.size(); ++n) {
    ASSERT_EQ(got[n].label, first_use[n]) << "record " << n;
    ASSERT_EQ(got[n].label, want[n].label) << "record " << n;
    ASSERT_EQ(got[n].track, want[n].track) << "record " << n;
  }
  EXPECT_EQ(cached.label_count(), kLabels);
  EXPECT_EQ(cached.digest(), fresh.digest());
}

// ---- snapshot ------------------------------------------------------------

// Three nodes emit unevenly interleaved records into one ring of
// `capacity` (8 unless a test asks for another).  A snapshot taken after
// each record, from the `from`-th on, must be the newest
// min(n, capacity) records of the whole stream merged across the nodes,
// oldest first, whichever nodes emitted them.
void expect_snapshots_are_newest_in_emission_order(std::size_t from,
                                                   std::size_t to,
                                                   std::size_t capacity = 8) {
  sim::Engine e;
  Recorder rec(e, capacity);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> emitted;  // node, a
  for (std::uint64_t i = 0; i < to; ++i) {
    const auto node = static_cast<std::uint32_t>((i * i + i / 5) % 3);
    emitted.emplace_back(node, i);
    rec.instant(node, "wire", "frame.tx", 0, i);
    if (i < from) continue;

    const std::size_t kept = std::min(emitted.size(), capacity);
    const std::size_t first = emitted.size() - kept;
    ASSERT_EQ(rec.total_emitted(), emitted.size());
    ASSERT_EQ(rec.overwritten(), first) << "after " << i;
    const std::vector<Record> records = rec.snapshot();
    ASSERT_EQ(records.size(), kept) << "after " << i;
    for (std::size_t k = 0; k < kept; ++k) {
      EXPECT_EQ(records[k].seq, first + k) << "after " << i << " at " << k;
      EXPECT_EQ(records[k].node, emitted[first + k].first)
          << "after " << i << " at " << k;
      EXPECT_EQ(records[k].a, emitted[first + k].second)
          << "after " << i << " at " << k;
    }
  }
}

// After the ring has wrapped: the newest 8 records of the stream.  The
// capacity is honoured exactly, down to 3 and to 0, which keeps no ring
// and counts every record as overwritten.
TEST(Recorder, SnapshotMergesWrappedRingsInEmissionOrder) {
  expect_snapshots_are_newest_in_emission_order(8, 60);
  expect_snapshots_are_newest_in_emission_order(3, 60, 3);
  expect_snapshots_are_newest_in_emission_order(0, 60, 0);
}

// Before the ring wraps: every record so far, in emission order.
TEST(Recorder, UnwrappedSnapshotIsTheMergedEmissionOrder) {
  expect_snapshots_are_newest_in_emission_order(0, 8);
}

// ---- digest --------------------------------------------------------------

// Two streams that differ in one field of one record digest apart, for
// every field the digest covers.  Both recorders intern the same names
// in the same order first, so only the field differs.
TEST(Recorder, DigestCoversEveryRecordField) {
  struct Emit {
    std::uint32_t node = 0;
    const char* track = "wire";
    const char* label = "frame.tx";
    TraceId trace = 1;
    std::uint64_t a = 2;
    std::uint64_t b = 3;
  };
  const auto digest_of = [](const std::function<void(Recorder&)>& second,
                            sim::Duration at = 0) {
    sim::Engine e;
    Recorder rec(e);
    (void)rec.intern_track("wire");
    (void)rec.intern_track("kernel");
    (void)rec.intern_label("frame.tx");
    (void)rec.intern_label("frame.rx");
    e.schedule(at, [&] { second(rec); });
    e.run();
    return rec.digest();
  };
  const auto instant = [](Emit x) {
    return [x](Recorder& r) {
      r.instant(x.node, x.track, x.label, x.trace, x.a, x.b);
    };
  };
  const std::uint64_t base = digest_of(instant({}));
  EXPECT_NE(digest_of(instant({}), sim::usec(1)), base) << "at";
  EXPECT_NE(digest_of(instant({.node = 1})), base) << "node";
  EXPECT_NE(digest_of(instant({.track = "kernel"})), base) << "track";
  EXPECT_NE(digest_of(instant({.label = "frame.rx"})), base) << "label";
  EXPECT_NE(digest_of(instant({.trace = 9})), base) << "trace";
  EXPECT_NE(digest_of(instant({.a = 9})), base) << "a";
  EXPECT_NE(digest_of(instant({.b = 9})), base) << "b";

  // The end of span 1 differs from the end of span 2 in span alone, and
  // from a begin of span 1 on track 0 and label 0, untraced and without
  // arguments, in kind alone.
  const std::uint64_t end = digest_of([](Recorder& r) { r.end_span(0, 1); });
  EXPECT_NE(digest_of([](Recorder& r) { r.end_span(0, 2); }), end) << "span";
  EXPECT_NE(digest_of([](Recorder& r) {
              (void)r.begin_span(0, "wire", "frame.tx", 0);
            }),
            end)
      << "kind";
}

TEST(Recorder, IdleRecorderAllocatesNothing) {
  sim::Engine e;
  Recorder rec(e);
  EXPECT_EQ(rec.allocated_slots(), 0u);  // the ring is lazy
  EXPECT_EQ(rec.digest(), Recorder::kEmptyDigest);
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
