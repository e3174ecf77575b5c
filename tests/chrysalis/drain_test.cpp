// Batched dual-queue drains and the cheap-flag fast path (DESIGN.md
// §12, "Chrysalis"): dequeue_many must be
// FIFO-equivalent to a one-notice-at-a-time loop, the uncontended
// single-notice delivery must bypass the queue machinery entirely, and
// the batched drain must collapse the per-notice dispatch count.
#include "chrysalis/kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../support/co_check.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace chrysalis {
namespace {

using net::NodeId;

struct World {
  sim::Engine engine;
  Kernel kernel{engine};
};

// Producer: N notices in seeded bursts — a burst of 1..8 enqueues
// back-to-back, then a gap long enough that the consumer usually drains
// dry and re-arms.  The mix exercises ready-data drains, partial
// drains, and the would-block path in one run.
sim::Task<> burst_produce(sim::Engine* e, Kernel* k, Pid me, DqId q, int n,
                          std::uint64_t seed) {
  sim::Rng rng(seed);
  int sent = 0;
  while (sent < n) {
    const auto burst = static_cast<int>(rng.next_range(1, 8));
    for (int i = 0; i < burst && sent < n; ++i) {
      CO_CHECK_EQ(co_await k->enqueue(me, q, static_cast<std::uint32_t>(sent)),
                  Status::kOk);
      ++sent;
    }
    co_await e->sleep(sim::usec(rng.next_range(50, 2000)));
  }
}

// Consumer, batched: every wakeup drains all ready notices through one
// dequeue_many dispatch (the backend's pump loop).
sim::Task<> drain_batched(Kernel* k, Pid me, DqId q, EventId ev, int n,
                          std::vector<std::uint32_t>* log) {
  while (static_cast<int>(log->size()) < n) {
    auto out = co_await k->dequeue_many(me, q, ev, 16);
    CO_CHECK(out.ok());
    if (out.value().would_block) {
      auto datum = co_await k->wait_event(me, ev);
      CO_CHECK(datum.ok());
      log->push_back(datum.value());
      continue;
    }
    for (const std::uint32_t d : out.value().data) log->push_back(d);
  }
}

// Consumer, reference: one notice per wakeup.
sim::Task<> drain_single(Kernel* k, Pid me, DqId q, EventId ev, int n,
                         std::vector<std::uint32_t>* log) {
  while (static_cast<int>(log->size()) < n) {
    auto datum = co_await k->dequeue_wait(me, q, ev);
    CO_CHECK(datum.ok());
    log->push_back(datum.value());
  }
}

// The batched drain must deliver the exact FIFO sequence the
// one-at-a-time loop delivers, under the same seeded burst schedule.
TEST(ChrysalisDrain, BatchedDrainPreservesFifoOrder) {
  constexpr int kNotices = 60;
  auto run = [](bool batched) {
    World w;
    Pid prod = w.kernel.create_process(NodeId(0));
    Pid cons = w.kernel.create_process(NodeId(1));
    std::vector<std::uint32_t> log;
    w.engine.spawn("setup", [](World* world, Pid p, Pid c, bool use_batched,
                               std::vector<std::uint32_t>* lg) -> sim::Task<> {
      Kernel& k = world->kernel;
      auto q = co_await k.make_dual_queue(c, 64);
      CO_CHECK(q.ok());
      auto ev = co_await k.make_event(c);
      CO_CHECK(ev.ok());
      world->engine.spawn(
          "produce", burst_produce(&world->engine, &k, p, q.value(), kNotices,
                                   /*seed=*/99));
      if (use_batched) {
        world->engine.spawn(
            "drain", drain_batched(&k, c, q.value(), ev.value(), kNotices, lg));
      } else {
        world->engine.spawn(
            "drain", drain_single(&k, c, q.value(), ev.value(), kNotices, lg));
      }
    }(&w, prod, cons, batched, &log));
    w.engine.run();
    EXPECT_TRUE(w.engine.process_failures().empty());
    return log;
  };

  const std::vector<std::uint32_t> batched = run(true);
  const std::vector<std::uint32_t> single = run(false);
  ASSERT_EQ(batched.size(), static_cast<std::size_t>(kNotices));
  for (int i = 0; i < kNotices; ++i) {
    EXPECT_EQ(batched[static_cast<std::size_t>(i)],
              static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(batched, single);
}

// An uncontended single-notice delivery — consumer parked on an empty
// queue, one producer — must ride the cheap flag: the datum goes
// straight to the consumer's event block and neither side touches the
// deque (zero queue allocations, counted by the sim).
TEST(ChrysalisDrain, CheapFlagFastPathSkipsQueueMachinery) {
  constexpr int kCycles = 10;
  World w;
  Pid prod = w.kernel.create_process(NodeId(0));
  Pid cons = w.kernel.create_process(NodeId(1));
  std::vector<std::uint32_t> log;
  std::uint64_t allocs_before = 0;
  std::uint64_t fast_before = 0;

  w.engine.spawn("setup", [](World* world, Pid p, Pid c,
                             std::vector<std::uint32_t>* lg,
                             std::uint64_t* allocs0,
                             std::uint64_t* fast0) -> sim::Task<> {
    Kernel& k = world->kernel;
    sim::Engine& e = world->engine;
    auto q = co_await k.make_dual_queue(c, 64);
    CO_CHECK(q.ok());
    auto ev = co_await k.make_event(c);
    CO_CHECK(ev.ok());
    *allocs0 = k.queue_allocs();
    *fast0 = k.fast_deliveries();
    e.spawn("produce", [](sim::Engine* eng, Kernel* kk, Pid me,
                          DqId qq) -> sim::Task<> {
      for (int i = 0; i < kCycles; ++i) {
        // Arrive well after the consumer has parked: queue empty, flag
        // armed — the uncontended case the fast path exists for.
        co_await eng->sleep(sim::msec(5));
        CO_CHECK_EQ(co_await kk->enqueue(me, qq, static_cast<std::uint32_t>(i)),
                    Status::kOk);
      }
    }(&e, &k, p, q.value()));
    e.spawn("drain",
            drain_single(&k, c, q.value(), ev.value(), kCycles, lg));
  }(&w, prod, cons, &log, &allocs_before, &fast_before));
  w.engine.run();

  ASSERT_EQ(log.size(), static_cast<std::size_t>(kCycles));
  for (int i = 0; i < kCycles; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)], static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(w.kernel.fast_deliveries() - fast_before,
            static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(w.kernel.queue_allocs() - allocs_before, 0u)
      << "fast-path delivery touched the deque";
  EXPECT_TRUE(w.engine.process_failures().empty());
}

// The dispatch-count pin: draining 32 parked notices takes 32 kernel
// dispatches one-at-a-time but exactly 2 dequeue_many dispatches at
// 16 notices per drain — the 16x per-wakeup op ratio the backend's
// pump relies on (each dispatch is a primitive_call on the wire; extra
// notices in a batch cost only dq_dequeue_extra).
TEST(ChrysalisDrain, BatchedDrainCollapsesDispatchCount) {
  constexpr int kParked = 32;
  auto run = [](bool batched, std::uint64_t* drain_ops) {
    World w;
    Pid prod = w.kernel.create_process(NodeId(0));
    Pid cons = w.kernel.create_process(NodeId(1));
    std::vector<std::uint32_t> log;
    w.engine.spawn("setup", [](World* world, Pid p, Pid c, bool use_batched,
                               std::uint64_t* ops_out,
                               std::vector<std::uint32_t>* lg) -> sim::Task<> {
      Kernel& k = world->kernel;
      auto q = co_await k.make_dual_queue(c, 64);
      CO_CHECK(q.ok());
      auto ev = co_await k.make_event(c);
      CO_CHECK(ev.ok());
      // Park all 32 notices first: the consumer is not running yet, so
      // every datum lands in the deque.
      for (int i = 0; i < kParked; ++i) {
        CO_CHECK_EQ(co_await k.enqueue(p, q.value(),
                                       static_cast<std::uint32_t>(i)),
                    Status::kOk);
      }
      const std::uint64_t ops_before = k.microcode_ops();
      if (use_batched) {
        co_await drain_batched(&k, c, q.value(), ev.value(), kParked, lg);
      } else {
        co_await drain_single(&k, c, q.value(), ev.value(), kParked, lg);
      }
      *ops_out = k.microcode_ops() - ops_before;
    }(&w, prod, cons, batched, drain_ops, &log));
    w.engine.run();
    EXPECT_TRUE(w.engine.process_failures().empty());
    EXPECT_EQ(log.size(), static_cast<std::size_t>(kParked));
    return log;
  };

  std::uint64_t single_ops = 0;
  std::uint64_t batched_ops = 0;
  const auto log_single = run(false, &single_ops);
  const auto log_batched = run(true, &batched_ops);
  EXPECT_EQ(log_single, log_batched);
  EXPECT_EQ(single_ops, static_cast<std::uint64_t>(kParked));
  EXPECT_EQ(batched_ops, 2u);  // 32 notices / 16 per drain
}

}  // namespace
}  // namespace chrysalis
