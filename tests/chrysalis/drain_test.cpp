// Batched dual-queue drains and the cheap-flag fast path (DESIGN.md
// §12, "Chrysalis"): dequeue_many must be
// FIFO-equivalent to a one-notice-at-a-time loop, the uncontended
// single-notice delivery must bypass the queue machinery entirely, and
// the batched drain must collapse the per-notice dispatch count.
#include "chrysalis/kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
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
      const auto datum = static_cast<std::uint32_t>(sent);
      CO_CHECK_EQ(co_await k->enqueue(me, q, std::span(&datum, 1)),
                  Status::kOk);
      ++sent;
    }
    co_await e->sleep(sim::usec(rng.next_range(50, 2000)));
  }
}

// Consumer: every wakeup drains up to `max` ready notices through one
// dequeue_many dispatch — 16 is the backend's pump loop, 1 the
// one-at-a-time reference.
sim::Task<> drain(Kernel* k, Pid me, DqId q, EventId ev, int n,
                  std::vector<std::uint32_t>* log, std::size_t max) {
  while (static_cast<int>(log->size()) < n) {
    auto out = co_await k->dequeue_many(me, q, ev, max);
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
      world->engine.spawn("drain", drain(&k, c, q.value(), ev.value(),
                                         kNotices, lg, use_batched ? 16 : 1));
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
    *allocs0 = e.total(&sim::Counts::queue_allocs);
    *fast0 = e.total(&sim::Counts::fast_deliveries);
    e.spawn("produce", [](sim::Engine* eng, Kernel* kk, Pid me,
                          DqId qq) -> sim::Task<> {
      for (int i = 0; i < kCycles; ++i) {
        // Arrive well after the consumer has parked: queue empty, flag
        // armed — the uncontended case the fast path exists for.
        co_await eng->sleep(sim::msec(5));
        const auto datum = static_cast<std::uint32_t>(i);
        CO_CHECK_EQ(co_await kk->enqueue(me, qq, std::span(&datum, 1)),
                    Status::kOk);
      }
    }(&e, &k, p, q.value()));
    e.spawn("drain",
            drain(&k, c, q.value(), ev.value(), kCycles, lg, 1));
  }(&w, prod, cons, &log, &allocs_before, &fast_before));
  w.engine.run();

  ASSERT_EQ(log.size(), static_cast<std::size_t>(kCycles));
  for (int i = 0; i < kCycles; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)], static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(w.engine.total(&sim::Counts::fast_deliveries) - fast_before,
            static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(w.engine.total(&sim::Counts::queue_allocs) - allocs_before, 0u)
      << "fast-path delivery touched the deque";
  EXPECT_TRUE(w.engine.process_failures().empty());
}

// The dispatch-count pin: draining 32 parked notices takes 32 kernel
// dispatches one at a time (max = 1) but exactly 2 dequeue_many
// dispatches at 16 notices per drain — the 16x per-wakeup op ratio the backend's
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
        const auto datum = static_cast<std::uint32_t>(i);
        CO_CHECK_EQ(co_await k.enqueue(p, q.value(), std::span(&datum, 1)),
                    Status::kOk);
      }
      const std::uint64_t ops_before =
          world->engine.total(&sim::Counts::microcode_ops);
      co_await drain(&k, c, q.value(), ev.value(), kParked, lg,
                     use_batched ? 16 : 1);
      *ops_out =
          world->engine.total(&sim::Counts::microcode_ops) - ops_before;
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
