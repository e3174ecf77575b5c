// Unit tests for the simulated Chrysalis kernel.
#include "chrysalis/kernel.hpp"

#include <gtest/gtest.h>

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

TEST(ChrysalisKernel, RemoteCostsMoreThanLocal) {
  // Same program run by a process co-resident with the object vs remote.
  auto run = [](NodeId proc_node) {
    sim::Engine e;
    Kernel k(e);
    Pid owner = k.create_process(NodeId(0));
    Pid user = k.create_process(proc_node);
    auto prog = [](Kernel* kk, Pid o, Pid u) -> sim::Task<> {
      auto obj = co_await kk->make_object(o, 1024);
      CO_CHECK(obj.ok());
      CO_CHECK_EQ(co_await kk->map(u, obj.value()), Status::kOk);
      std::vector<std::uint8_t> data(1000, 0xAB);
      CO_CHECK_EQ(co_await kk->block_write(u, obj.value(), 0, data),
                  Status::kOk);
    };
    e.spawn("p", prog(&k, owner, user));
    e.run();
    return e.now();
  };
  EXPECT_GT(run(NodeId(5)), run(NodeId(0)));
}

}  // namespace
}  // namespace chrysalis
