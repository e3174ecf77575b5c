// Unit tests for the form::Packer (DESIGN.md §14): the three flush
// triggers, the delay==0 passthrough guarantee, the lone-enclosure
// unwrap, broadcast ordering, and teardown behaviour.
#include "form/packer.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "form/batch.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"

namespace form {
namespace {

using net::NodeId;

// A loopback that records everything the packer emits, with the
// simulated time each frame left, so tests can pin both ordering and
// the deadline trigger's timing.
class RecordingMedium final : public net::Medium {
 public:
  struct Record {
    net::Frame frame;
    sim::Time at;
    bool was_broadcast = false;
  };

  explicit RecordingMedium(sim::Engine& engine) : engine_(&engine) {}

  void attach(NodeId, net::FrameHandler) override {}
  void send(net::Frame frame) override {
    stamp(frame);
    log.push_back(Record{std::move(frame), engine_->now(), false});
  }
  void broadcast(net::Frame frame) override {
    stamp(frame);
    log.push_back(Record{std::move(frame), engine_->now(), true});
  }
  std::vector<Record> log;

 private:
  sim::Engine* engine_;
};

net::Frame frame_to(NodeId src, NodeId dst, std::size_t bytes,
                    std::string tag, std::uint64_t trace = 0) {
  net::Frame f{src, dst, bytes, std::move(tag)};
  f.trace_id = trace;
  return f;
}

std::string tag_of(const net::Frame& f) { return f.as<std::string>(); }

TEST(FormPacker, DelayZeroIsExactPassthrough) {
  sim::Engine e;
  RecordingMedium medium(e);
  Packer packer(e, medium, NodeId(0), sim::Duration(0));
  EXPECT_FALSE(packer.enabled());

  packer.submit(frame_to(NodeId(0), NodeId(1), 40, "a", 7));
  packer.submit(frame_to(NodeId(0), NodeId(1), 40, "b"));
  packer.submit(frame_to(NodeId(0), NodeId(2), 40, "c"));
  e.run();

  // Frame-per-message, byte-identical, and immediate: no Batch frames,
  // no formation counters, nothing held back for a deadline.
  ASSERT_EQ(medium.log.size(), 3u);
  EXPECT_EQ(tag_of(medium.log[0].frame), "a");
  EXPECT_EQ(medium.log[0].frame.payload_bytes, 40u);
  EXPECT_EQ(medium.log[0].frame.trace_id, 7u);
  EXPECT_EQ(medium.log[0].at, sim::Time(0));
  EXPECT_EQ(tag_of(medium.log[2].frame), "c");
  EXPECT_EQ(e.counts(0).batches_sent, 0u);
  EXPECT_EQ(e.counts(0).singles_sent, 0u);
}

TEST(FormPacker, CoDestinedFramesShareOneBatchAtTheDeadline) {
  sim::Engine e;
  RecordingMedium medium(e);
  Packer packer(e, medium, NodeId(0), sim::msec(2));
  EXPECT_TRUE(packer.enabled());

  packer.submit(frame_to(NodeId(0), NodeId(1), 10, "a"));
  packer.submit(frame_to(NodeId(0), NodeId(1), 20, "b", 42));
  packer.submit(frame_to(NodeId(0), NodeId(1), 30, "c", 43));
  EXPECT_TRUE(medium.log.empty());  // held by the formation window
  e.run();

  ASSERT_EQ(medium.log.size(), 1u);
  const net::Frame& out = medium.log[0].frame;
  EXPECT_EQ(medium.log[0].at, sim::msec(2));  // deadline, not sooner
  EXPECT_EQ(out.dst, NodeId(1));
  // Billing: batch header + a descriptor per enclosure on top of the
  // enclosed payloads.
  EXPECT_EQ(out.payload_bytes,
            kBatchHeaderBytes + 3 * kEnclosureHeaderBytes + 10 + 20 + 30);
  // The batch inherits the first *traced* enclosure's identity.
  EXPECT_EQ(out.trace_id, 42u);
  const auto& batch = out.as<Batch>();
  ASSERT_EQ(batch.frames.size(), 3u);
  EXPECT_EQ(tag_of(batch.frames[0]), "a");  // submission order kept
  EXPECT_EQ(tag_of(batch.frames[1]), "b");
  EXPECT_EQ(tag_of(batch.frames[2]), "c");
  EXPECT_EQ(batch.frames[2].trace_id, 43u);  // per-enclosure TraceIds
  EXPECT_EQ(e.counts(0).batches_sent, 1u);
  EXPECT_EQ(e.counts(0).enclosures_batched, 3u);
  EXPECT_EQ(e.counts(0).singles_sent, 0u);
}

TEST(FormPacker, ByteBudgetClosesTheBatchBeforeTheDeadline) {
  sim::Engine e;
  RecordingMedium medium(e);
  // The budget fits two wrapped 400-byte frames (8 + 2*404 = 816 <=
  // 1024) but not three (1220 > 1024).
  constexpr std::size_t kBytes = 400;
  static_assert(kBatchHeaderBytes + 2 * (kEnclosureHeaderBytes + kBytes) <=
                kMaxBatchBytes);
  static_assert(kBatchHeaderBytes + 3 * (kEnclosureHeaderBytes + kBytes) >
                kMaxBatchBytes);
  Packer packer(e, medium, NodeId(0), sim::msec(5));

  packer.submit(frame_to(NodeId(0), NodeId(1), kBytes, "a"));
  packer.submit(frame_to(NodeId(0), NodeId(1), kBytes, "b"));
  ASSERT_TRUE(medium.log.empty());
  packer.submit(frame_to(NodeId(0), NodeId(1), kBytes, "c"));
  // The third frame would blow the budget: the pending pair flushes
  // immediately (t == 0), "c" starts a fresh window.
  ASSERT_EQ(medium.log.size(), 1u);
  EXPECT_EQ(medium.log[0].at, sim::Time(0));
  const auto& batch = medium.log[0].frame.as<Batch>();
  ASSERT_EQ(batch.frames.size(), 2u);
  EXPECT_EQ(tag_of(batch.frames[0]), "a");
  EXPECT_EQ(tag_of(batch.frames[1]), "b");

  e.run();  // "c" rides its own deadline out, alone -> unwrapped
  ASSERT_EQ(medium.log.size(), 2u);
  EXPECT_EQ(medium.log[1].at, sim::msec(5));
  EXPECT_EQ(tag_of(medium.log[1].frame), "c");
  EXPECT_EQ(e.counts(0).batches_sent, 1u);
  EXPECT_EQ(e.counts(0).enclosures_batched, 2u);
  EXPECT_EQ(e.counts(0).singles_sent, 1u);
}

TEST(FormPacker, LoneEnclosureGoesOutUnwrapped) {
  sim::Engine e;
  RecordingMedium medium(e);
  Packer packer(e, medium, NodeId(0), sim::msec(3));

  packer.submit(frame_to(NodeId(0), NodeId(1), 64, "solo", 9));
  e.run();

  // Sparse traffic pays the window but never the batch framing: the
  // wire sees the original frame, bytes and trace untouched.
  ASSERT_EQ(medium.log.size(), 1u);
  EXPECT_EQ(medium.log[0].at, sim::msec(3));
  EXPECT_EQ(tag_of(medium.log[0].frame), "solo");
  EXPECT_EQ(medium.log[0].frame.payload_bytes, 64u);
  EXPECT_EQ(medium.log[0].frame.trace_id, 9u);
  EXPECT_EQ(e.counts(0).batches_sent, 0u);
  EXPECT_EQ(e.counts(0).singles_sent, 1u);
}

TEST(FormPacker, BroadcastFlushesEveryQueueFirst) {
  sim::Engine e;
  RecordingMedium medium(e);
  Packer packer(e, medium, NodeId(0), sim::msec(5));

  packer.submit(frame_to(NodeId(0), NodeId(1), 16, "u1"));
  packer.submit(frame_to(NodeId(0), NodeId(2), 16, "u2"));
  packer.submit_broadcast(frame_to(NodeId(0), NodeId(0), 16, "bcast"));

  // The broadcast reaches every destination, so it must not overtake
  // any queued unicast: both queues flush (lone frames -> unwrapped)
  // before the broadcast leaves, all at t == 0.
  ASSERT_EQ(medium.log.size(), 3u);
  EXPECT_FALSE(medium.log[0].was_broadcast);
  EXPECT_FALSE(medium.log[1].was_broadcast);
  EXPECT_TRUE(medium.log[2].was_broadcast);
  EXPECT_EQ(tag_of(medium.log[2].frame), "bcast");
  e.run();
  EXPECT_EQ(medium.log.size(), 3u);  // no stale deadline fires later
}

TEST(FormPacker, FlushHintDrainsOnlyTheNamedDestination) {
  sim::Engine e;
  RecordingMedium medium(e);
  Packer packer(e, medium, NodeId(0), sim::msec(4));

  packer.submit(frame_to(NodeId(0), NodeId(1), 16, "a"));
  packer.submit(frame_to(NodeId(0), NodeId(2), 16, "b"));
  packer.flush(NodeId(1));
  ASSERT_EQ(medium.log.size(), 1u);
  EXPECT_EQ(tag_of(medium.log[0].frame), "a");

  e.run();  // destination 2 still rides its deadline
  ASSERT_EQ(medium.log.size(), 2u);
  EXPECT_EQ(tag_of(medium.log[1].frame), "b");
  EXPECT_EQ(medium.log[1].at, sim::msec(4));
}

TEST(FormPacker, DestructionCancelsDeadlinesWithoutFlushing) {
  sim::Engine e;
  RecordingMedium medium(e);
  {
    Packer packer(e, medium, NodeId(0), sim::msec(2));
    packer.submit(frame_to(NodeId(0), NodeId(1), 16, "doomed"));
  }
  e.run();
  // Pending enclosures die with the packer, exactly like parked frames
  // at teardown; no deadline callback outlives it.
  EXPECT_TRUE(medium.log.empty());
}

}  // namespace
}  // namespace form
