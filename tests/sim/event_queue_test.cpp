// Property tests pinning the event queue's order.
//
// The engine's two-level wheel + overflow heap (engine.cpp) must pop
// events in exactly the order the historical
// single binary heap did: ascending (time, key, seq), where key is the
// tie-break policy's function of seq.  The oracle here IS that old
// comparator — a std::priority_queue over (at, key, seq) — driven
// through the same scripted universe as a real Engine: every fired
// event runs a pure function of its id that may schedule children (so
// sequence numbers stay in lockstep) or cancel an earlier timer.  The
// script stresses every structural edge of the queue: same-instant
// bursts, zero delays, events landing exactly on bucket boundaries, on
// an epoch boundary and one bucket short of it, second-level events
// 4.2-33 ms out that cascade into the first level, events past the
// second level's span that overflow to the heap, and one absolute
// bucket per millisecond that a whole delay class aims at — its chain
// spills to the heap at insert once an insert walks past the threshold,
// then takes more inserts that must merge with the spilled events —
// plus cancellations that land on chain heads, chain middles, epoch
// chains and spilled events.  A stepped variant drives run_until() to
// deadlines that fall between a cascade and the next fire and schedules
// nearer events there.  Any divergence — a single swap anywhere in the
// fire order — shows up as a mismatched id sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace sim {
namespace {

// Mirrors engine.cpp's splitmix64 so the oracle can reproduce tie keys.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t oracle_tie_key(const TiePolicy& p, std::uint64_t seq) {
  if (p.kind == TieBreak::kFifo || seq >= p.horizon) return seq;
  const std::uint64_t h = splitmix64(p.seed ^ seq);
  if (p.kind == TieBreak::kSeededPermutation) return h;
  return (h & 3) == 0 ? h : seq;  // kPriorityFuzz
}

// ---- the scripted universe ---------------------------------------------
// Everything an event does is a pure function of (workload seed, id), so
// the Engine and the oracle walk identical universes as long as they
// fire the same events in the same order.

constexpr int kInitialEvents = 160;
constexpr int kSpawnCap = 3000;   // total events per run stays bounded
constexpr std::uint64_t kBucketNs = 1024;  // engine wheel bucket width
// One first-level epoch: 4096 buckets.  The second level spans the next
// 256 epochs (~1.07 s).
constexpr std::uint64_t kEpochNs = 4096 * kBucketNs;
// Bucket-aligned period of the targeted class: its events all aim at
// the first bucket of the next period.
constexpr std::uint64_t kTargetPeriodNs = 1024 * kBucketNs;

std::uint64_t h_of(std::uint64_t workload_seed, std::uint64_t id) {
  return splitmix64(workload_seed * 0x9e3779b97f4a7c15ULL + id);
}

// Delay classes chosen to hit the queue's structural edges.
Duration delay_for(std::uint64_t workload_seed, std::uint64_t id, Time now) {
  const std::uint64_t h = h_of(workload_seed, id);
  switch (h % 12) {
    case 0: return 0;  // same-instant with the scheduler
    case 1: return usec(5);  // heavy pile-up: one bucket spills its chain
    case 2: return static_cast<Duration>(kBucketNs * ((h >> 8) % 6));
      // exact bucket boundaries, including 0
    case 3: return msec(8) + static_cast<Duration>((h >> 8) % 100000);
      // a retransmit horizon: second level
    case 4: return usec(2) + static_cast<Duration>((h >> 8) % 3);
      // sub-bucket jitter: distinct times inside one bucket
    case 5: {
      // one absolute bucket per period, at up to three instants in it:
      // it spills at insert, then keeps taking inserts
      const auto t = static_cast<std::uint64_t>(now);
      const std::uint64_t target =
          (t / kTargetPeriodNs + 1) * kTargetPeriodNs;
      return static_cast<Duration>(target + (h >> 8) % 3 - t);
    }
    case 6: {
      // exactly on one of the next three epoch boundaries, or one bucket
      // or one nanosecond short of it
      const auto t = static_cast<std::uint64_t>(now);
      const std::uint64_t boundary =
          (t / kEpochNs + 1 + (h >> 8) % 3) * kEpochNs;
      const std::uint64_t short_by[] = {0, kBucketNs, 1};
      return static_cast<Duration>(
          std::max(boundary - short_by[(h >> 16) % 3], t) - t);
    }
    case 7: return usec(4200) + static_cast<Duration>((h >> 8) % 28800000);
      // 4.2-33 ms: Charlotte's kernel calls, SODA's deferrals
    case 8: return msec(1200) + static_cast<Duration>((h >> 8) % 400000000);
      // past the second level's ~1.07 s span: the overflow heap
    default: return static_cast<Duration>((h >> 8) % (2 * 1000 * 1000));
      // anywhere in a 2ms spread
  }
}

bool is_cancellable(std::uint64_t workload_seed, std::uint64_t id) {
  return h_of(workload_seed, id) % 16 == 5;
}

bool cancels_one(std::uint64_t workload_seed, std::uint64_t id) {
  return h_of(workload_seed, id) % 16 == 6;
}

int children_for(std::uint64_t workload_seed, std::uint64_t id) {
  const std::uint64_t h = h_of(workload_seed, id) >> 32;
  return static_cast<int>(h % 3);  // 0..2 children per fired event
}

// The stepped variant starts sparse and calls run_until() once per
// step, often to a deadline just short of an epoch boundary, so a step
// tends to end right after the engine cascaded a later epoch into its
// first level; the step's external events are then scheduled from an
// earlier epoch than the first level's.
constexpr int kSteppedInitialEvents = 3;
constexpr int kSteps = 600;

Time step_deadline(std::uint64_t workload_seed, int step, Time now) {
  const std::uint64_t h =
      h_of(workload_seed ^ 0x5bd1e995u, static_cast<std::uint64_t>(step));
  const auto t = static_cast<std::uint64_t>(now);
  switch (h % 3) {
    case 0: return static_cast<Time>(t + (h >> 8) % 2000000);
    case 1:  // within a bucket short of the next epoch boundary
      return static_cast<Time>((t / kEpochNs + 1) * kEpochNs - 1 -
                               (h >> 8) % kBucketNs);
    default: return static_cast<Time>(t + (h >> 8) % 40000000);
  }
}

int externals_for(std::uint64_t workload_seed, int step) {
  const std::uint64_t h =
      h_of(workload_seed ^ 0x5bd1e995u, static_cast<std::uint64_t>(step));
  return 1 + static_cast<int>((h >> 40) % 2);
}

// ---- the oracle: the historical comparator over (at, key, seq) ---------

struct OracleEvent {
  Time at = 0;
  std::uint64_t key = 0;
  std::uint64_t seq = 0;
  std::uint64_t id = 0;
};
struct OracleLater {
  bool operator()(const OracleEvent& a, const OracleEvent& b) const {
    if (a.at != b.at) return a.at > b.at;
    if (a.key != b.key) return a.key > b.key;
    return a.seq > b.seq;
  }
};

std::vector<std::uint64_t> oracle_run(std::uint64_t workload_seed,
                                      TiePolicy policy, bool stepped = false) {
  std::priority_queue<OracleEvent, std::vector<OracleEvent>, OracleLater> q;
  std::unordered_set<std::uint64_t> cancelled;
  std::vector<std::uint64_t> cancellable;  // ids, cancelled oldest-first
  std::size_t next_cancel = 0;
  std::vector<std::uint64_t> fired;
  Time now = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t next_id = 0;
  std::uint64_t spawned = 0;

  auto push = [&](std::uint64_t id) {
    const Time at = now + delay_for(workload_seed, id, now);
    q.push({at, oracle_tie_key(policy, next_seq), next_seq, id});
    ++next_seq;
    if (is_cancellable(workload_seed, id)) cancellable.push_back(id);
  };

  // Fires every event up to `deadline`; a cancelled event is dropped
  // without moving now, as the engine reclaims it.
  auto run_until = [&](Time deadline) {
    while (!q.empty() && q.top().at <= deadline) {
      const OracleEvent ev = q.top();
      q.pop();
      if (cancelled.count(ev.id) != 0) continue;
      now = ev.at;
      fired.push_back(ev.id);
      if (cancels_one(workload_seed, ev.id) &&
          next_cancel < cancellable.size()) {
        cancelled.insert(cancellable[next_cancel++]);
      }
      const int kids = children_for(workload_seed, ev.id);
      for (int k = 0; k < kids && spawned < kSpawnCap; ++k, ++spawned) {
        push(next_id++);
      }
    }
  };

  const int initial = stepped ? kSteppedInitialEvents : kInitialEvents;
  for (int i = 0; i < initial; ++i) push(next_id++);
  for (int step = 0; stepped && step < kSteps; ++step) {
    run_until(step_deadline(workload_seed, step, now));
    const int ext = externals_for(workload_seed, step);
    for (int k = 0; k < ext && spawned < kSpawnCap; ++k, ++spawned) {
      push(next_id++);
    }
  }
  run_until(std::numeric_limits<Time>::max());
  return fired;
}

// ---- the engine, walking the same universe -----------------------------

std::vector<std::uint64_t> engine_run(std::uint64_t workload_seed,
                                      TiePolicy policy, bool stepped = false) {
  Engine e;
  e.set_tie_policy(policy);
  struct State {
    Engine* e = nullptr;
    std::uint64_t workload_seed = 0;
    std::vector<std::uint64_t> fired;
    std::vector<TimerHandle> cancellable;
    std::size_t next_cancel = 0;
    std::uint64_t next_id = 0;
    std::uint64_t spawned = 0;
  } st;
  st.e = &e;
  st.workload_seed = workload_seed;

  struct Fire {
    State* st;
    std::uint64_t id;
    void operator()() const {
      st->fired.push_back(id);
      if (cancels_one(st->workload_seed, id) &&
          st->next_cancel < st->cancellable.size()) {
        st->cancellable[st->next_cancel++].cancel();
      }
      const int kids = children_for(st->workload_seed, id);
      for (int k = 0; k < kids && st->spawned < kSpawnCap; ++k, ++st->spawned) {
        push(st, st->next_id++);
      }
    }
    static void push(State* st, std::uint64_t id) {
      const Duration d = delay_for(st->workload_seed, id, st->e->now());
      if (is_cancellable(st->workload_seed, id)) {
        st->cancellable.push_back(
            st->e->schedule_cancellable(d, Fire{st, id}));
      } else {
        st->e->schedule(d, Fire{st, id});
      }
    }
  };

  const int initial = stepped ? kSteppedInitialEvents : kInitialEvents;
  for (int i = 0; i < initial; ++i) Fire::push(&st, st.next_id++);
  for (int step = 0; stepped && step < kSteps; ++step) {
    e.run_until(step_deadline(workload_seed, step, e.now()));
    const int ext = externals_for(workload_seed, step);
    for (int k = 0; k < ext && st.spawned < kSpawnCap; ++k, ++st.spawned) {
      Fire::push(&st, st.next_id++);
    }
  }
  e.run();
  return st.fired;
}

class EventQueueOrder : public ::testing::TestWithParam<TieBreak> {};

TEST_P(EventQueueOrder, MatchesHistoricalComparatorBitForBit) {
  for (std::uint64_t workload_seed = 1; workload_seed <= 8; ++workload_seed) {
    TiePolicy policy;
    policy.kind = GetParam();
    policy.seed = workload_seed * 0x2545f4914f6cdd1dULL;
    const auto expect = oracle_run(workload_seed, policy);
    const auto got = engine_run(workload_seed, policy);
    ASSERT_GT(expect.size(), static_cast<std::size_t>(kInitialEvents));
    ASSERT_EQ(got, expect) << "policy " << to_string(policy.kind)
                           << " workload seed " << workload_seed;
  }
}

TEST_P(EventQueueOrder, MatchesUnderAShrinkerHorizon) {
  // The shrinker lowers TiePolicy::horizon to re-FIFO a suffix of the
  // schedule; key computation straddles the boundary, so the wheel and
  // the oracle must agree there too.
  for (std::uint64_t horizon : {std::uint64_t{0}, std::uint64_t{64},
                                std::uint64_t{777}}) {
    TiePolicy policy;
    policy.kind = GetParam();
    policy.seed = 0xfeedfacecafebeefULL;
    policy.horizon = horizon;
    const auto expect = oracle_run(3, policy);
    const auto got = engine_run(3, policy);
    ASSERT_EQ(got, expect) << "policy " << to_string(policy.kind)
                           << " horizon " << horizon;
  }
}

TEST_P(EventQueueOrder, MatchesWhenRunUntilStopsAfterACascade) {
  // run_until() can return right after a cascade, with now in an
  // earlier epoch than the first level's; the step's events, scheduled
  // from there, must still fire in comparator order.
  for (std::uint64_t workload_seed = 1; workload_seed <= 8; ++workload_seed) {
    TiePolicy policy;
    policy.kind = GetParam();
    policy.seed = workload_seed * 0x2545f4914f6cdd1dULL;
    const auto expect = oracle_run(workload_seed, policy, /*stepped=*/true);
    const auto got = engine_run(workload_seed, policy, /*stepped=*/true);
    ASSERT_GT(expect.size(), static_cast<std::size_t>(kSteps));
    ASSERT_EQ(got, expect) << "policy " << to_string(policy.kind)
                           << " workload seed " << workload_seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EventQueueOrder,
                         ::testing::Values(TieBreak::kFifo,
                                           TieBreak::kSeededPermutation,
                                           TieBreak::kPriorityFuzz),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- cancellation storms ------------------------------------------------

// A retransmit-heavy run cancels timers by the thousand.  Dead events
// must be reclaimed eagerly (compaction), not carried to fire time: the
// population of cancelled-but-queued events stays bounded by the live
// population, never growing with the total cancel count.  `delay`
// chooses the level the timers wait in.
void cancel_storm(Duration delay) {
  Engine e;
  std::vector<TimerHandle> handles;
  std::size_t worst = 0;
  std::size_t worst_queued = 0;
  int fired = 0;
  int kept = 0;
  for (int round = 0; round < 200; ++round) {
    handles.clear();
    for (int i = 0; i < 100; ++i) {
      handles.push_back(
          e.schedule_cancellable(delay + usec(i), [&fired] { ++fired; }));
    }
    // Cancel 99 of 100; one survivor per round keeps live events queued.
    for (int i = 0; i < 100; ++i) {
      if (i == 57) continue;
      handles[static_cast<std::size_t>(i)].cancel();
    }
    ++kept;
    worst = std::max(worst, e.cancelled_pending());
    worst_queued = std::max(worst_queued, e.queue_size());
    // The reclamation invariant from Engine::timer_cancel: compaction
    // fires before the dead ever outnumber the live by more than the
    // hysteresis threshold.
    ASSERT_TRUE(e.cancelled_pending() < 64 ||
                2 * e.cancelled_pending() < e.queue_size() + 2)
        << "round " << round << ": " << e.cancelled_pending() << " dead of "
        << e.queue_size() << " queued";
  }
  // 19800 cancels happened; the dead population never approached that.
  // From the invariant, dead < live + 100, and live tops out at 300.
  EXPECT_LT(worst, 400u);
  // Compaction really freed them: queued = live + dead stays under
  // 300 + 400 (a level that compaction skipped would hold every one).
  EXPECT_LT(worst_queued, 700u);
  e.run();
  EXPECT_EQ(fired, kept);
  EXPECT_EQ(e.cancelled_pending(), 0u);
  EXPECT_EQ(e.queue_size(), 0u);
}

TEST(EventQueueCancellation, StormKeepsCancelledPendingBounded) {
  // 10 ms retransmit timers: the second level.
  cancel_storm(msec(10));
}

TEST(EventQueueCancellation,
     StormPastTheSecondLevelKeepsCancelledPendingBounded) {
  // 1.2 s timers, past the second level's ~1.07 s span: the heap.
  cancel_storm(msec(1200));
}

// ---- regressions: stale handles and drain-vs-stop -----------------------

TEST(EngineShutdown, ShutdownInvalidatesPendingHandles) {
  // Regression: pending() used to keep answering true after shutdown()
  // dropped the event queue — the handle outlived the event it named.
  Engine e;
  TimerHandle t = e.schedule_cancellable(msec(1), [] {});
  ASSERT_TRUE(t.pending());
  e.shutdown();
  EXPECT_FALSE(t.pending());
  t.cancel();  // must be harmless on a dead engine
  EXPECT_FALSE(t.pending());
  EXPECT_TRUE(e.is_shut_down());
}

TEST(EngineRunUntil, DrainedSameIterationAsStopReportsDrained) {
  // Regression: when the final event both drained the queue and called
  // stop(), run_until() reported false ("stopped") even though the
  // queue was empty.  Drained is authoritative: callers poll the return
  // value to decide whether more work remains.
  Engine e;
  int fired = 0;
  e.schedule(usec(1), [&] {
    ++fired;
    e.stop();
  });
  EXPECT_TRUE(e.run_until(usec(10)));
  EXPECT_EQ(fired, 1);

  // With work left behind, stop still wins and reports unfinished.
  e.schedule(usec(1), [&] {
    ++fired;
    e.stop();
  });
  e.schedule(usec(2), [&] { ++fired; });
  EXPECT_FALSE(e.run_until(usec(10)));
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(e.run_until(usec(10)));
  EXPECT_EQ(fired, 3);
}

TEST(EngineRunUntil, NearerEventAfterAnEarlyReturnFiresFirst) {
  // The only event is in epoch 2 (8.39-12.58 ms), so locate() cascades
  // it into the first level and run_until() returns with now still in
  // epoch 0.  An event for epoch 1 scheduled then would alias a slot of
  // the first level, which holds epoch 2: it lands in bucket 3717 of
  // its epoch, after the 8.5 ms event's bucket 108.
  Engine e;
  std::vector<int> order;
  e.schedule(usec(8500), [&] { order.push_back(4); });
  EXPECT_FALSE(e.run_until(usec(1000)));
  EXPECT_EQ(e.now(), 0);
  e.schedule(usec(8000), [&] { order.push_back(2); });
  e.schedule(usec(100), [&] { order.push_back(1); });
  e.schedule(usec(8400), [&] { order.push_back(3); });
  EXPECT_EQ(e.queue_size(), 4u);
  EXPECT_TRUE(e.run_until(msec(20)));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace sim
