// Unit tests for the simulated Chrysalis kernel.
#include "chrysalis/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "../support/co_check.hpp"
#include "sim/engine.hpp"

namespace chrysalis {
namespace {

using net::NodeId;

struct World {
  sim::Engine engine;
  Kernel kernel{engine};
};

// ---- memory objects -------------------------------------------------------

sim::Task<> object_roundtrip(Kernel* k, Pid a, Pid b,
                             std::vector<std::string>* log) {
  auto obj = co_await k->make_object(a, 256);
  CO_CHECK(obj.ok());
  const MemId id = obj.value();

  std::vector<std::uint8_t> msg = {'h', 'i', '!', 0};
  CO_CHECK_EQ(co_await k->block_write(a, id, 16, msg), Status::kOk);

  // b can't touch it before mapping
  auto denied = co_await k->block_read(b, id, 16, 4);
  CO_CHECK(!denied.ok());
  CO_CHECK_EQ(denied.error(), Status::kNotMapped);

  CO_CHECK_EQ(co_await k->map(b, id), Status::kOk);
  auto got = co_await k->block_read(b, id, 16, 4);
  CO_CHECK(got.ok());
  log->push_back(std::string(got.value().begin(), got.value().end() - 1));
}

TEST(ChrysalisKernel, SharedObjectRoundTrip) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  Pid b = w.kernel.create_process(NodeId(1));
  std::vector<std::string> log;
  w.engine.spawn("p", object_roundtrip(&w.kernel, a, b, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "hi!");
  EXPECT_TRUE(w.engine.process_failures().empty());
}

sim::Task<> refcount_prog(Kernel* k, Pid a, Pid b,
                          std::vector<std::string>* log) {
  auto obj = co_await k->make_object(a, 64);
  CO_CHECK(obj.ok());
  const MemId id = obj.value();
  CO_CHECK_EQ(co_await k->map(b, id), Status::kOk);
  // a marks it releasable and unmaps; object must survive (b still maps)
  k->release_when_unreferenced(id);
  CO_CHECK_EQ(co_await k->unmap(a, id), Status::kOk);
  CO_CHECK(k->object_exists(id));
  // b unmaps: refcount hits zero, object reclaimed
  CO_CHECK_EQ(co_await k->unmap(b, id), Status::kOk);
  CO_CHECK(!k->object_exists(id));
  log->push_back("reclaimed");
}

TEST(ChrysalisKernel, ReferenceCountReclaimsAtZero) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  Pid b = w.kernel.create_process(NodeId(1));
  std::vector<std::string> log;
  w.engine.spawn("p", refcount_prog(&w.kernel, a, b, &log));
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "reclaimed");
}

sim::Task<> flags_prog(Kernel* k, Pid a, std::vector<std::uint16_t>* out) {
  auto obj = co_await k->make_object(a, 8);
  CO_CHECK(obj.ok());
  const MemId id = obj.value();
  out->push_back((co_await k->fetch_or16(a, id, 0, 0x0005)).value());
  out->push_back((co_await k->fetch_or16(a, id, 0, 0x0002)).value());
  out->push_back((co_await k->fetch_and16(a, id, 0, 0xFFFE)).value());
  out->push_back((co_await k->read16(a, id, 0)).value());
}

TEST(ChrysalisKernel, AtomicFlagOpsReturnOldValue) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  std::vector<std::uint16_t> out;
  w.engine.spawn("p", flags_prog(&w.kernel, a, &out));
  w.engine.run();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 0x0000);
  EXPECT_EQ(out[1], 0x0005);
  EXPECT_EQ(out[2], 0x0007);
  EXPECT_EQ(out[3], 0x0006);
}

// The eight memory primitives, each reduced to the status it returns.
enum class Primitive {
  kRead16, kWrite16, kFetchOr16, kFetchAnd16,
  kRead32, kWrite32, kBlockWrite, kBlockRead,
};
constexpr Primitive kPrimitives[] = {
    Primitive::kRead16,     Primitive::kWrite16,   Primitive::kFetchOr16,
    Primitive::kFetchAnd16, Primitive::kRead32,    Primitive::kWrite32,
    Primitive::kBlockWrite, Primitive::kBlockRead,
};

Status status_of(Status st) { return st; }
template <typename T>
Status status_of(const Result<T>& r) {
  return r.ok() ? Status::kOk : r.error();
}

sim::Task<Status> call_primitive(Kernel* k, Primitive prim, Pid pid, MemId id,
                                 std::size_t offset) {
  static const std::vector<std::uint8_t> block(4, 0x5a);
  switch (prim) {
    case Primitive::kRead16:
      co_return status_of(co_await k->read16(pid, id, offset));
    case Primitive::kWrite16:
      co_return status_of(co_await k->write16(pid, id, offset, 1));
    case Primitive::kFetchOr16:
      co_return status_of(co_await k->fetch_or16(pid, id, offset, 1));
    case Primitive::kFetchAnd16:
      co_return status_of(co_await k->fetch_and16(pid, id, offset, 1));
    case Primitive::kRead32:
      co_return status_of(co_await k->read32(pid, id, offset));
    case Primitive::kWrite32:
      co_return status_of(co_await k->write32(pid, id, offset, 1));
    case Primitive::kBlockWrite:
      co_return status_of(co_await k->block_write(pid, id, offset, block));
    case Primitive::kBlockRead:
      co_return status_of(
          co_await k->block_read(pid, id, offset, block.size()));
  }
  co_return Status::kOk;
}

// Bytes each primitive touches (a block moves four).
std::size_t width(Primitive prim) {
  return prim == Primitive::kRead16 || prim == Primitive::kWrite16 ||
                 prim == Primitive::kFetchOr16 ||
                 prim == Primitive::kFetchAnd16
             ? 2
             : 4;
}

struct Outcome {
  Status status;
  Primitive prim;
  sim::Duration took;
};

// The access cases of the table below, in order.
enum Column {
  kStranger, kPastTheEnd, kReclaimed, kDeadCaller, kGranted, kReclaimedInFlight,
  kColumns,
};

// Every memory primitive refuses a stranger (kNotMapped), an offset past
// the end (kBadOffset), a reclaimed object (kDeallocated) and a dead
// caller (kProcessDead), each for exactly one primitive_call.  Then it is
// granted, and last its object is reclaimed while it is in flight.
sim::Task<> access_table(Kernel* k, Pid owner, Pid stranger, Pid dead,
                         std::vector<Outcome>* out) {
  auto obj = co_await k->make_object(owner, 16);
  CO_CHECK(obj.ok());
  auto gone = co_await k->make_object(owner, 16);
  CO_CHECK(gone.ok());
  k->release_when_unreferenced(gone.value());
  CO_CHECK_EQ(co_await k->unmap(owner, gone.value()), Status::kOk);
  CO_CHECK(!k->object_exists(gone.value()));
  for (const Primitive prim : kPrimitives) {
    // The last live process to map a released object dies mid-call.
    const Pid doomed = k->create_process(NodeId(0));
    auto fleeting = co_await k->make_object(doomed, 16);
    CO_CHECK(fleeting.ok());
    k->release_when_unreferenced(fleeting.value());
    struct Case {
      Pid pid;
      MemId id;
      std::size_t offset;
    };
    const Case cases[kColumns] = {
        {stranger, obj.value(), 0},
        {owner, obj.value(), 17 - width(prim)},  // the first bad offset
        {owner, gone.value(), 0},
        {dead, obj.value(), 0},
        {owner, obj.value(), 0},
        {doomed, fleeting.value(), 0},
    };
    for (const Case& c : cases) {
      if (c.pid == doomed) {
        k->engine().schedule(1, [k, doomed] { k->terminate(doomed); });
      }
      const sim::Time t0 = k->engine().now();
      const Status st = co_await call_primitive(k, prim, c.pid, c.id, c.offset);
      out->push_back(Outcome{st, prim, k->engine().now() - t0});
    }
  }
}

TEST(ChrysalisKernel, BadOffsetRejected) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  auto prog = [](Kernel* k, Pid pid, std::vector<Status>* out) -> sim::Task<> {
    auto obj = co_await k->make_object(pid, 16);
    CO_CHECK(obj.ok());
    out->push_back(co_await k->write16(pid, obj.value(), 15, 1));
    out->push_back(co_await k->write16(pid, obj.value(), 14, 1));
  };
  std::vector<Status> out;
  w.engine.spawn("p", prog(&w.kernel, a, &out));
  w.engine.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], Status::kBadOffset);
  EXPECT_EQ(out[1], Status::kOk);

  // The same refusal, and the other three, on every memory primitive.
  Pid stranger = w.kernel.create_process(NodeId(1));
  Pid dead = w.kernel.create_process(NodeId(0));
  w.kernel.terminate(dead);
  std::vector<Outcome> table;
  w.engine.spawn("t", access_table(&w.kernel, a, stranger, dead, &table));
  w.engine.run();
  EXPECT_TRUE(w.engine.process_failures().empty());
  const Costs& costs = w.kernel.costs();
  ASSERT_EQ(table.size(), std::size(kPrimitives) * kColumns);
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Outcome& o = table[i];
    const auto column = static_cast<Column>(i % kColumns);
    SCOPED_TRACE("primitive " + std::to_string(static_cast<int>(o.prim)) +
                 ", column " + std::to_string(column));
    const bool fetch =
        o.prim == Primitive::kFetchOr16 || o.prim == Primitive::kFetchAnd16;
    // A granted local access costs its word, or a block through the switch.
    const sim::Duration granted =
        o.prim == Primitive::kBlockWrite || o.prim == Primitive::kBlockRead
            ? costs.primitive_call + net::ButterflyFabric{}.block_transfer(
                                         width(o.prim), false)
        : width(o.prim) == 2 ? costs.atomic16
                             : costs.word32;
    switch (column) {
      case kStranger:
        EXPECT_EQ(o.status, Status::kNotMapped);
        break;
      case kPastTheEnd:
        EXPECT_EQ(o.status, Status::kBadOffset);
        break;
      case kReclaimed:
        EXPECT_EQ(o.status, Status::kDeallocated);
        break;
      case kDeadCaller:
        EXPECT_EQ(o.status, Status::kProcessDead);
        break;
      case kGranted:
        EXPECT_EQ(o.status, Status::kOk);
        break;
      case kReclaimedInFlight:
        // A fetch acts at the call instant; the rest re-find the object.
        EXPECT_EQ(o.status, fetch ? Status::kOk : Status::kDeallocated);
        break;
      case kColumns:
        break;
    }
    EXPECT_EQ(o.took, column < kGranted ? costs.primitive_call : granted);
  }
}

// ---- event blocks ----------------------------------------------------------

sim::Task<> event_owner(Kernel* k, Pid me, EventId* slot, sim::Gate* ready,
                        std::vector<std::uint32_t>* got) {
  auto ev = co_await k->make_event(me);
  CO_CHECK(ev.ok());
  *slot = ev.value();
  ready->open();
  got->push_back((co_await k->wait_event(me, ev.value())).value());
  got->push_back((co_await k->wait_event(me, ev.value())).value());
}

sim::Task<> event_poster(Kernel* k, Pid me, EventId* slot, sim::Gate* ready) {
  co_await ready->wait();
  CO_CHECK_EQ(co_await k->post(me, *slot, 111), Status::kOk);
  CO_CHECK_EQ(co_await k->post(me, *slot, 222), Status::kOk);
}

TEST(ChrysalisKernel, EventBlockCarriesDatum) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  Pid b = w.kernel.create_process(NodeId(1));
  EventId slot;
  sim::Gate ready(w.engine);
  std::vector<std::uint32_t> got;
  w.engine.spawn("owner", event_owner(&w.kernel, a, &slot, &ready, &got));
  w.engine.spawn("poster", event_poster(&w.kernel, b, &slot, &ready));
  w.engine.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 111u);
  EXPECT_EQ(got[1], 222u);
}

// The owner waits once, then stays busy while two more posts land, takes
// one and is busy again while a fourth lands: all come out in the order
// they were posted.
sim::Task<> busy_owner(Kernel* k, Pid me, EventId* slot, sim::Gate* ready,
                       std::vector<std::uint32_t>* got) {
  auto ev = co_await k->make_event(me);
  CO_CHECK(ev.ok());
  *slot = ev.value();
  ready->open();
  got->push_back((co_await k->wait_event(me, ev.value())).value());
  co_await k->engine().sleep(sim::msec(10));
  got->push_back((co_await k->wait_event(me, ev.value())).value());
  co_await k->engine().sleep(sim::msec(10));
  got->push_back((co_await k->wait_event(me, ev.value())).value());
  got->push_back((co_await k->wait_event(me, ev.value())).value());
}

sim::Task<> spaced_poster(Kernel* k, Pid me, EventId* slot, sim::Gate* ready) {
  co_await ready->wait();
  co_await k->engine().sleep(sim::msec(1));  // the owner parks first
  CO_CHECK_EQ(co_await k->post(me, *slot, 1), Status::kOk);
  co_await k->engine().sleep(sim::msec(1));  // the owner is now busy
  CO_CHECK_EQ(co_await k->post(me, *slot, 2), Status::kOk);
  CO_CHECK_EQ(co_await k->post(me, *slot, 3), Status::kOk);
  co_await k->engine().sleep(sim::msec(10));  // it took 2, and is busy
  CO_CHECK_EQ(co_await k->post(me, *slot, 4), Status::kOk);
}

TEST(ChrysalisKernel, PostsAfterAWaitKeepFifoOrder) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  Pid b = w.kernel.create_process(NodeId(1));
  EventId slot;
  sim::Gate ready(w.engine);
  std::vector<std::uint32_t> got;
  w.engine.spawn("owner", busy_owner(&w.kernel, a, &slot, &ready, &got));
  w.engine.spawn("poster", spaced_poster(&w.kernel, b, &slot, &ready));
  w.engine.run();
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 3, 4}));
  EXPECT_TRUE(w.engine.process_failures().empty());
}

TEST(ChrysalisKernel, OnlyOwnerMayWait) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  Pid b = w.kernel.create_process(NodeId(1));
  auto prog = [](Kernel* k, Pid owner, Pid thief,
                 std::vector<Status>* out) -> sim::Task<> {
    auto ev = co_await k->make_event(owner);
    CO_CHECK(ev.ok());
    auto res = co_await k->wait_event(thief, ev.value());
    out->push_back(res.ok() ? Status::kOk : res.error());
  };
  std::vector<Status> out;
  w.engine.spawn("p", prog(&w.kernel, a, b, &out));
  w.engine.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Status::kNotOwner);
}

// ---- dual queues ------------------------------------------------------------

sim::Task<> dq_consumer(Kernel* k, Pid me, DqId q,
                        std::vector<std::uint32_t>* got, int n) {
  auto ev = co_await k->make_event(me);
  CO_CHECK(ev.ok());
  for (int i = 0; i < n; ++i) {
    auto out = co_await k->dequeue_many(me, q, ev.value(), 1);
    CO_CHECK(out.ok());
    if (!out.value().would_block) {
      got->push_back(out.value().data.front());
      continue;
    }
    auto v = co_await k->wait_event(me, ev.value());
    CO_CHECK(v.ok());
    got->push_back(v.value());
  }
}

sim::Task<> dq_producer(Kernel* k, Pid me, DqId q, std::uint32_t base,
                        int n) {
  for (int i = 0; i < n; ++i) {
    const std::uint32_t datum = base + static_cast<std::uint32_t>(i);
    CO_CHECK_EQ(co_await k->enqueue(me, q, std::span(&datum, 1)),
                Status::kOk);
  }
}

TEST(ChrysalisKernel, DualQueueDataThenWaiters) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  Pid b = w.kernel.create_process(NodeId(1));
  DqId q;
  {
    auto mk = [](Kernel* k, Pid pid, DqId* out) -> sim::Task<> {
      auto r = co_await k->make_dual_queue(pid, 16);
      CO_CHECK(r.ok());
      *out = r.value();
    };
    w.engine.spawn("mk", mk(&w.kernel, a, &q));
    w.engine.run();
  }
  std::vector<std::uint32_t> got;
  // Consumer starts first: queue empty -> event name parked; producer's
  // enqueues post the event instead of storing data.
  w.engine.spawn("consumer", dq_consumer(&w.kernel, a, q, &got, 5));
  w.engine.spawn("producer", dq_producer(&w.kernel, b, q, 100, 5));
  w.engine.run();
  EXPECT_EQ(got, (std::vector<std::uint32_t>{100, 101, 102, 103, 104}));
  EXPECT_TRUE(w.engine.process_failures().empty());

  // Two consumers block at once: the first arms the cheap flag, the
  // second parks its event name in the queue.  Each gets one datum.
  Pid c = w.kernel.create_process(NodeId(0));
  std::vector<std::uint32_t> pair;
  w.engine.spawn("consumer-a", dq_consumer(&w.kernel, a, q, &pair, 1));
  w.engine.spawn("consumer-c", dq_consumer(&w.kernel, c, q, &pair, 1));
  w.engine.run();
  ASSERT_TRUE(pair.empty());
  w.engine.spawn("producer", dq_producer(&w.kernel, b, q, 200, 2));
  w.engine.run();
  std::sort(pair.begin(), pair.end());
  EXPECT_EQ(pair, (std::vector<std::uint32_t>{200, 201}));
  EXPECT_TRUE(w.engine.process_failures().empty());
}

TEST(ChrysalisKernel, DualQueueBuffersWhenNoWaiter) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  Pid b = w.kernel.create_process(NodeId(1));
  DqId q;
  {
    auto mk = [](Kernel* k, Pid pid, DqId* out) -> sim::Task<> {
      auto r = co_await k->make_dual_queue(pid, 16);
      CO_CHECK(r.ok());
      *out = r.value();
    };
    w.engine.spawn("mk", mk(&w.kernel, a, &q));
    w.engine.run();
  }
  std::vector<std::uint32_t> got;
  w.engine.spawn("producer", dq_producer(&w.kernel, b, q, 7, 3));
  w.engine.run();  // all three parked as data
  w.engine.spawn("consumer", dq_consumer(&w.kernel, a, q, &got, 3));
  w.engine.run();
  EXPECT_EQ(got, (std::vector<std::uint32_t>{7, 8, 9}));
}

TEST(ChrysalisKernel, DualQueueCapacityIsEnforced) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  auto prog = [](Kernel* k, Pid pid, std::vector<Status>* out) -> sim::Task<> {
    auto r = co_await k->make_dual_queue(pid, 2);
    CO_CHECK(r.ok());
    for (std::uint32_t datum = 1; datum <= 3; ++datum) {
      out->push_back(co_await k->enqueue(pid, r.value(), std::span(&datum, 1)));
    }
  };
  std::vector<Status> out;
  w.engine.spawn("p", prog(&w.kernel, a, &out));
  w.engine.run();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], Status::kOk);
  EXPECT_EQ(out[1], Status::kOk);
  EXPECT_EQ(out[2], Status::kQueueFull);
}

// ---- termination handlers -----------------------------------------------------

TEST(ChrysalisKernel, TerminationHandlerRunsBeforeReaping) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  std::vector<std::string> log;
  w.kernel.set_termination_handler(a, [&] { log.push_back("cleanup"); });
  w.engine.schedule(sim::msec(1), [&] { w.kernel.terminate(a); });
  w.engine.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], "cleanup");
  EXPECT_FALSE(w.kernel.alive(a));
}

TEST(ChrysalisKernel, TerminationUnmapsAndReclaims) {
  World w;
  Pid a = w.kernel.create_process(NodeId(0));
  MemId id;
  auto prog = [](Kernel* k, Pid pid, MemId* out) -> sim::Task<> {
    auto obj = co_await k->make_object(pid, 32);
    CO_CHECK(obj.ok());
    *out = obj.value();
    k->release_when_unreferenced(obj.value());
  };
  w.engine.spawn("p", prog(&w.kernel, a, &id));
  w.engine.run();
  EXPECT_TRUE(w.kernel.object_exists(id));
  w.kernel.terminate(a);
  EXPECT_FALSE(w.kernel.object_exists(id));
}

// ---- cost sanity ------------------------------------------------------------

// Each remote access pays the switch: a block write, and a dual-queue
// enqueue and dequeue on a queue homed on another board.
enum class RemoteOp { kBlockWrite, kEnqueue, kDequeue };

sim::Task<> remote_op(Kernel* k, Pid owner, Pid user, RemoteOp op,
                      sim::Duration* took) {
  auto obj = co_await k->make_object(owner, 1024);
  CO_CHECK(obj.ok());
  CO_CHECK_EQ(co_await k->map(user, obj.value()), Status::kOk);
  auto q = co_await k->make_dual_queue(owner, 4);
  CO_CHECK(q.ok());
  auto ev = co_await k->make_event(user);
  CO_CHECK(ev.ok());
  const std::vector<std::uint8_t> data(1000, 0xAB);
  const std::uint32_t datum = 7;
  const sim::Time t0 = k->engine().now();
  switch (op) {
    case RemoteOp::kBlockWrite:
      CO_CHECK_EQ(co_await k->block_write(user, obj.value(), 0, data),
                  Status::kOk);
      break;
    case RemoteOp::kEnqueue:
      CO_CHECK_EQ(co_await k->enqueue(user, q.value(), std::span(&datum, 1)),
                  Status::kOk);
      break;
    case RemoteOp::kDequeue:
      CO_CHECK((co_await k->dequeue_many(user, q.value(), ev.value(), 1)).ok());
      break;
  }
  *took = k->engine().now() - t0;
}

TEST(ChrysalisKernel, RemoteCostsMoreThanLocal) {
  // Same operation run by a process co-resident with the object vs remote.
  auto run = [](NodeId proc_node, RemoteOp op) {
    sim::Engine e;
    Kernel k(e);
    Pid owner = k.create_process(NodeId(0));
    Pid user = k.create_process(proc_node);
    sim::Duration took = 0;
    e.spawn("p", remote_op(&k, owner, user, op, &took));
    e.run();
    EXPECT_TRUE(e.process_failures().empty());
    return took;
  };
  for (const RemoteOp op :
       {RemoteOp::kBlockWrite, RemoteOp::kEnqueue, RemoteOp::kDequeue}) {
    SCOPED_TRACE("op " + std::to_string(static_cast<int>(op)));
    EXPECT_GT(run(NodeId(5), op), run(NodeId(0), op));
  }
}

}  // namespace
}  // namespace chrysalis
