// The deterministic discrete-event engine.
//
// One Engine per experiment.  Events are (time, key, seq) ordered, so two
// events at the same instant fire in scheduling order (under the default
// FIFO tie-break) and a run is a pure function of its inputs (seed and
// parameters).  Simulated "processes" are Task<void> coroutines spawned
// onto the engine; everything they do — sleeping, kernel calls, message
// waits — is expressed as awaitables that park the coroutine and schedule
// its resumption.
//
// Event records live in a chunked slab (stable addresses, freelist
// reuse): a record is constructed once at schedule time and never moved
// again — the queues below shuffle 4-byte indices and 32-byte sort
// keys, not 100-byte closures.  The pending events sit in a two-level
// timer wheel in the style of Varghese & Lauck's hierarchical wheels,
// plus an overflow heap:
//
//   * First level: one epoch (4096 buckets × 1.024 µs ≈ 4.19 ms) of
//     intrusive singly-linked chains, each kept in fire order: insert
//     walks its bucket's chain to the event's place, and pop takes the
//     head of the first occupied bucket, found by two countr_zero calls
//     over a summary word and the 64 occupancy words.
//   * Second level: a ring of 256 unsorted epoch chains (about 1.07 s
//     past the first level's epoch) with an occupancy bitmap.  A push
//     there is O(1).  When the first level is empty, pop cascades the
//     earliest non-empty epoch into it — each live event is inserted
//     once into its bucket's chain, each dead one freed — unless the
//     heap's top fires in an earlier epoch.
//   * Overflow heap of (time, key, seq, index) entries: events past the
//     second level's span, same-instant bursts (an insert that would
//     walk past kSpillMax records moves its whole chain here), and
//     events for an epoch earlier than the first level's.  The last
//     exist only after run_until() returned right after pop moved the
//     first level to a later epoch (a cascade, say), with now still in
//     an earlier one; in the ring they would alias.
//
// Pop compares the first level's head with the heap's top under the
// one (time, key, seq) comparator.  Every second-level event fires
// after every first-level one, so the fire order is bit-identical to a
// single global priority queue — the determinism digests in tests/fault
// pin exactly that.  No pop candidate or bucket minimum is cached from
// one pop to the next: such caches sped up only the engine-only
// microbenchmarks, and no end-to-end metric paid for them (DESIGN.md
// §15).
//
// The engine is strictly single-threaded; host-level parallelism lives in
// sweep::, which runs many independent Engines on a thread pool.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "sim/counts.hpp"
#include "sim/event_fn.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace trace {
class Recorder;  // structured event recorder (src/trace/)
}  // namespace trace

namespace sim {

class Engine;

// How the engine orders events scheduled for the *same* instant.  The
// comparator is always (time, key, seq); the policy only chooses the
// key, so every policy yields a total, reproducible order.
enum class TieBreak : std::uint8_t {
  // key = seq: same-instant events fire in scheduling order (the seed
  // behaviour, bit-identical to the historical comparator).
  kFifo = 0,
  // key = hash(seed, seq): same-instant events fire in a seeded
  // pseudo-random permutation.  One seed selects one interleaving; the
  // schedule-exploration checker (src/check/) sweeps seeds to search
  // the space of legal orders.
  kSeededPermutation,
  // key = seq for most events, hash for a seeded quarter of them: FIFO
  // order with a minority of events demoted to random priorities —
  // gentler perturbation that keeps long causal chains mostly intact.
  kPriorityFuzz,
};

[[nodiscard]] const char* to_string(TieBreak tie_break);

struct TiePolicy {
  static constexpr std::uint64_t kNoHorizon = ~0ull;

  TieBreak kind = TieBreak::kFifo;
  std::uint64_t seed = 0;
  // Events whose scheduling sequence number is >= horizon fall back to
  // FIFO keys.  The explorer's shrinker lowers this to find the
  // shortest permuted schedule prefix that still reproduces a failure.
  std::uint64_t horizon = kNoHorizon;
};

// Cancellable handle to a scheduled event (retry timers and the like).
// A handle is a (slot, generation) ticket into the engine's timer-slot
// pool: cancel and fire both retire the generation, so a stale handle
// — cancelled twice, cancelled after fire, or outliving a shutdown —
// is a cheap no-op instead of a use-after-free.  Handles must not be
// used after the Engine itself is destroyed (they point into it); in
// practice every handle lives in an object torn down alongside or
// before its engine.
class TimerHandle {
 public:
  TimerHandle() = default;
  void cancel();
  [[nodiscard]] bool pending() const;

 private:
  TimerHandle(Engine* engine, std::uint32_t slot1, std::uint32_t gen)
      : engine_(engine), slot1_(slot1), gen_(gen) {}
  Engine* engine_ = nullptr;
  std::uint32_t slot1_ = 0;  // slot index + 1; 0 = inert (default) handle
  std::uint32_t gen_ = 0;
  friend class Engine;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  [[nodiscard]] Time now() const { return now_; }

  // -- same-instant tie-break ------------------------------------------
  // Tie-break keys are computed when an event is scheduled, so for a
  // reproducible run set the policy before anything is scheduled (the
  // checker sets it immediately after constructing the engine).  The
  // default FIFO policy reproduces the historical order exactly.
  void set_tie_policy(TiePolicy policy) { tie_policy_ = policy; }

  // -- raw event interface --------------------------------------------
  void schedule(Duration delay, EventFn fn);
  TimerHandle schedule_cancellable(Duration delay, EventFn fn);
  void schedule_at(Time t, EventFn fn);

  // -- run loop --------------------------------------------------------
  // Runs until the event queue is empty or `stop()` was called.
  void run();
  // Runs until simulated time would exceed `deadline`; events at exactly
  // `deadline` still fire.  Returns true if the queue drained — the
  // drained check is authoritative, so a stop() racing the final event
  // still reports a drained queue as true.
  bool run_until(Time deadline);
  void stop() { stop_requested_ = true; }
  // Destroys every still-suspended spawned frame and drops the pending
  // event queue, leaving the engine inert.  Outstanding TimerHandles
  // are invalidated (they report !pending() and cancel as a no-op).
  // For owners whose processes must outlive frame teardown (frames
  // reference process state in their local destructors): call this
  // while those objects are still alive instead of relying on ~Engine,
  // which may run after them.  Idempotent.
  void shutdown();
  // True once shutdown() has run: the engine is inert and rejects new
  // bootstrap work (load::Universe::connect checks this).
  [[nodiscard]] bool is_shut_down() const { return shut_down_; }

  // -- coroutine processes ----------------------------------------------
  // Starts `body` as a detached simulated process at the current time.
  // The name appears in failure reports.  Processes that exit by
  // exception are recorded, not fatal, so tests can assert on them.
  void spawn(std::string name, Task<> body);

  [[nodiscard]] std::size_t live_processes() const { return live_; }
  [[nodiscard]] const std::vector<std::string>& process_failures() const {
    return failures_;
  }

  // Events currently queued, including cancelled ones not yet reclaimed.
  // Exposed so tests can assert that cancellation does not accumulate
  // garbage across a long run.
  [[nodiscard]] std::size_t queue_size() const {
    return wheel_count_ + epoch_count_ + far_.size();
  }
  [[nodiscard]] std::size_t cancelled_pending() const { return cancelled_; }
  // Total events fired over the engine's lifetime (cancelled events are
  // reclaimed, not fired).  bench_sim divides this by wall-clock time to
  // report simulated-events-per-wall-second (the BENCH_SIM trajectory).
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  // Awaitable: suspend the calling coroutine for `d` of simulated time.
  // d == 0 still yields through the event queue (a fairness point).
  [[nodiscard]] auto sleep(Duration d) {
    struct SleepAwaiter {
      Engine* engine;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        engine->schedule(d, [h] { h.resume(); });
      }
      void await_resume() const noexcept {}
    };
    RELYNX_ASSERT(d >= 0);
    return SleepAwaiter{this, d};
  }

  // -- protocol counts (sim/counts.hpp) ----------------------------------
  // One table per node, grown on first touch; a fresh engine reads zero
  // everywhere.  Growing allocates at most once per node, never per
  // event, and never moves a table: a component that counts at one node
  // keeps the reference for its lifetime.
  [[nodiscard]] Counts& counts(std::uint32_t node) {
    if (node >= counts_.size()) {
      RELYNX_ASSERT_MSG(node < (1u << 16), "counts: node id out of range");
      counts_.resize(node + 1);
    }
    return counts_[node];
  }
  // `field` summed over every node.
  [[nodiscard]] std::uint64_t total(std::uint64_t Counts::*field) const {
    std::uint64_t n = 0;
    for (const Counts& c : counts_) n += c.*field;
    return n;
  }

  // -- tracing -----------------------------------------------------------
  // Structured recorder attachment (normally done by the Recorder's own
  // constructor/destructor).  The engine never dereferences the pointer
  // except through trace::get, which also checks the runtime enable.
  void set_recorder(trace::Recorder* rec) { recorder_ = rec; }
  [[nodiscard]] trace::Recorder* recorder() const { return recorder_; }

 private:
  static constexpr std::uint32_t kNil = ~0u;

  // An event record in the slab.  `next` threads the record into its
  // first-level bucket chain, in fire order, or its second-level epoch
  // chain, unsorted (or the freelist once reclaimed); records referenced
  // from the overflow heap are not chained.
  struct Node {
    Time at;
    std::uint64_t seq;
    std::uint64_t key;  // same-instant tie-break (== seq under FIFO)
    std::uint32_t next = kNil;
    std::uint32_t slot1 = 0;  // cancellable: timer-slot index + 1
    std::uint32_t gen = 0;    // generation the slot held when scheduled
    EventFn fn;
  };
  // Sort key for the overflow heap; the record itself stays in the slab.
  struct FarEntry {
    Time at;
    std::uint64_t seq;
    std::uint64_t key;
    std::uint32_t idx;
  };
  // True when a should fire later than b: the engine's one event order.
  static bool fires_later(Time a_at, std::uint64_t a_key, std::uint64_t a_seq,
                          Time b_at, std::uint64_t b_key,
                          std::uint64_t b_seq) {
    if (a_at != b_at) return a_at > b_at;
    if (a_key != b_key) return a_key > b_key;
    return a_seq > b_seq;
  }
  struct Later {
    bool operator()(const FarEntry& a, const FarEntry& b) const {
      return fires_later(a.at, a.key, a.seq, b.at, b.key, b.seq);
    }
  };
  // A cancellable event's liveness ticket.  The generation bumps when
  // the event fires, is cancelled, or the engine shuts down; a Node
  // or TimerHandle whose gen no longer matches is dead.
  struct TimerSlot {
    std::uint32_t gen = 0;
    bool armed = false;
  };

  // -- timer wheel geometry ---------------------------------------------
  // First level: 2^12 buckets of 2^10 ns, one epoch of ~4.19 ms.  It
  // holds only the epoch `epoch_`, so a bucket's index is its absolute
  // bucket number masked into the epoch, without aliasing.  One epoch
  // alone is too narrow for the kernels: a third of Charlotte's events
  // and two fifths of SODA's wait 4-33 ms (DESIGN.md §15 has the census).
  static constexpr int kBucketShift = 10;
  static constexpr int kBucketBits = 12;
  static constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;
  static constexpr std::size_t kBucketMask = kBuckets - 1;
  static constexpr std::size_t kWords = kBuckets / 64;
  static_assert(kWords <= 64, "one summary word covers the occupancy words");
  // Second level: a ring of 2^8 epoch chains for epochs epoch_ + 1 to
  // epoch_ + 256 (~1.07 s).  Ring index is the absolute epoch masked.
  static constexpr int kEpochShift = kBucketShift + kBucketBits;
  static constexpr std::size_t kEpochs = 256;
  static constexpr std::size_t kEpochMask = kEpochs - 1;
  static constexpr std::size_t kEpochWords = kEpochs / 64;
  // An insert that walks past this many records spills its bucket's
  // chain to the overflow heap (same-instant spawn bursts would
  // otherwise cost O(k^2)).
  static constexpr std::size_t kSpillMax = 16;

  // Slab geometry: chunked so record addresses are stable across growth
  // (a callback being invoked in place must survive the slab growing
  // under it).
  static constexpr int kChunkShift = 10;
  static constexpr std::size_t kChunkNodes = 1024;
  static constexpr std::size_t kChunkMask = kChunkNodes - 1;

  // A first-level bucket's index within its epoch.
  static std::uint64_t bucket_of(Time t) {
    return (static_cast<std::uint64_t>(t) >> kBucketShift) & kBucketMask;
  }
  static std::uint64_t epoch_of(Time t) {
    return static_cast<std::uint64_t>(t) >> kEpochShift;
  }

  [[nodiscard]] Node& node(std::uint32_t idx) {
    return slab_[idx >> kChunkShift][idx & kChunkMask];
  }
  [[nodiscard]] const Node& node(std::uint32_t idx) const {
    return slab_[idx >> kChunkShift][idx & kChunkMask];
  }
  [[nodiscard]] std::uint32_t alloc_node();
  // Destroys the record's callable and returns the slot to the freelist.
  void free_node(std::uint32_t idx) {
    Node& n = node(idx);
    n.fn.reset();
    n.next = free_head_;
    free_head_ = idx;
  }

  [[nodiscard]] std::uint64_t tie_key(std::uint64_t seq) const;
  void push_event(Time at, std::uint64_t seq, EventFn&& fn, std::uint32_t slot1,
                  std::uint32_t gen);
  [[nodiscard]] bool node_dead(const Node& n) const {
    return n.slot1 != 0 && slots_[n.slot1 - 1].gen != n.gen;
  }
  // Links an event of epoch epoch_ into its bucket's chain, in fire
  // order, or spills the chain to the heap.
  void push_near(std::uint32_t idx);
  void push_far(std::uint32_t idx);
  // Returns the slab index of the next live event across both levels
  // and the overflow heap, reclaiming dead ones on the way; kNil when
  // the queue drained.
  [[nodiscard]] std::uint32_t locate();
  // Moves epoch `e`'s chain into the (empty) first level.
  void cascade(std::uint64_t e);
  // Unlinks and runs the event locate() just returned.
  void fire(std::uint32_t idx);
  // The first occupied bucket; the first level must not be empty.
  [[nodiscard]] std::uint64_t first_bucket() const {
    const int w = std::countr_zero(summary_);
    return (static_cast<std::uint64_t>(w) << 6) |
           static_cast<std::uint64_t>(std::countr_zero(occupied_[w]));
  }
  // The earliest non-empty second-level epoch; the ring must not be
  // empty.
  [[nodiscard]] std::uint64_t next_epoch() const;
  void mark_bucket(std::uint64_t b) {
    occupied_[b >> 6] |= 1ull << (b & 63);
    summary_ |= 1ull << (b >> 6);
  }
  void clear_bucket_mark(std::uint64_t b) {
    occupied_[b >> 6] &= ~(1ull << (b & 63));
    if (occupied_[b >> 6] == 0) summary_ &= ~(1ull << (b >> 6));
  }
  // Frees the dead records of a chain, returning how many.
  std::size_t drop_dead(std::uint32_t* link);

  [[nodiscard]] bool timer_pending(std::uint32_t slot1,
                                   std::uint32_t gen) const {
    return slot1 != 0 && slots_[slot1 - 1].gen == gen;
  }
  // Retires the timer; once dead events outnumber the live ones,
  // compact() rebuilds the queues without them.
  void timer_cancel(std::uint32_t slot1, std::uint32_t gen);
  void compact();
  friend class TimerHandle;

  // Root driver for spawned processes.  Detached: the frame lives until
  // the body finishes (then unlinks itself) or the engine is shut down
  // (then the engine destroys it).  Live roots form an intrusive list
  // threaded through their promises, in spawn order: a spawn costs no
  // table insert, and shutdown needs no key.
  struct Root {
    struct promise_type;
    std::coroutine_handle<> handle;
  };
  Root drive(std::string name, Task<> body);
  void link_root(Root::promise_type* p);
  void unlink_root(Root::promise_type* p);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  TiePolicy tie_policy_{};
  bool shut_down_ = false;

  // Event-record slab: chunked storage plus an intrusive freelist.
  std::vector<std::unique_ptr<Node[]>> slab_;
  std::uint32_t slab_size_ = 0;
  std::uint32_t free_head_ = kNil;

  // First level: the events of epoch `epoch_`, one intrusive chain per
  // bucket in fire order.  epoch_ never trails now's epoch.
  std::vector<std::uint32_t> bucket_head_ =
      std::vector<std::uint32_t>(kBuckets, kNil);
  std::array<std::uint64_t, kWords> occupied_{};
  std::uint64_t summary_ = 0;  // bit w: occupied_[w] != 0
  std::uint64_t epoch_ = 0;
  std::size_t wheel_count_ = 0;
  // Overflow: events past the second level, spilled bursts, and events
  // for an epoch before epoch_.
  // Binary heap managed with std::push_heap/pop_heap so compact() can
  // filter the underlying vector (std::priority_queue hides it).
  std::vector<FarEntry> far_;

  std::vector<TimerSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t cancelled_ = 0;
  bool stop_requested_ = false;

  std::size_t live_ = 0;
  Root::promise_type* roots_head_ = nullptr;
  Root::promise_type* roots_tail_ = nullptr;
  std::vector<std::string> failures_;
  trace::Recorder* recorder_ = nullptr;
  std::deque<Counts> counts_;
  // Second level: one unsorted chain per epoch; a head is meaningful
  // only while its occupancy bit is set.  Kept last, so its 1 KB of
  // ring heads moves no member above it (EXPERIMENTS.md E17 measured
  // both layouts).
  std::array<std::uint32_t, kEpochs> epoch_head_{};
  std::array<std::uint64_t, kEpochWords> epoch_occupied_{};
  std::size_t epoch_count_ = 0;
};

inline void TimerHandle::cancel() {
  if (engine_ != nullptr) engine_->timer_cancel(slot1_, gen_);
}

inline bool TimerHandle::pending() const {
  return engine_ != nullptr && engine_->timer_pending(slot1_, gen_);
}

struct Engine::Root::promise_type {
  Engine* engine = nullptr;  // null once detached by shutdown()
  promise_type* prev = nullptr;
  promise_type* next = nullptr;

  // The driver coroutine is a member coroutine of Engine: parameters are
  // (Engine* this, name, body).
  promise_type(Engine& e, std::string&, Task<>&) : engine(&e) {}

  Root get_return_object() {
    engine->link_root(this);
    return Root{std::coroutine_handle<promise_type>::from_promise(*this)};
  }
  std::suspend_always initial_suspend() noexcept { return {}; }
  std::suspend_never final_suspend() noexcept { return {}; }
  void return_void() {}
  // Root frames recycle through the same pool as Task frames.
  static void* operator new(std::size_t n) {
    return detail::CallablePool::allocate(n);
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    detail::CallablePool::release(p, n);
  }
  void unhandled_exception() {
    // drive() catches everything; reaching here is a bug.
    RELYNX_ASSERT_MSG(false, "engine root leaked an exception");
  }
  ~promise_type() {
    // Frame is being destroyed: normal completion (final_suspend never
    // suspends) unlinks it; shutdown() detached it first.
    if (engine) engine->unlink_root(this);
  }
};

inline void Engine::link_root(Root::promise_type* p) {
  p->prev = roots_tail_;
  p->next = nullptr;
  (roots_tail_ != nullptr ? roots_tail_->next : roots_head_) = p;
  roots_tail_ = p;
}

inline void Engine::unlink_root(Root::promise_type* p) {
  (p->prev != nullptr ? p->prev->next : roots_head_) = p->next;
  (p->next != nullptr ? p->next->prev : roots_tail_) = p->prev;
}

}  // namespace sim
