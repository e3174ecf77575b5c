#include "sim/engine.hpp"

#include "sim/random.hpp"

namespace sim {

const char* to_string(TieBreak tie_break) {
  switch (tie_break) {
    case TieBreak::kFifo: return "fifo";
    case TieBreak::kSeededPermutation: return "perm";
    case TieBreak::kPriorityFuzz: return "fuzz";
  }
  return "?";
}

std::uint64_t Engine::tie_key(std::uint64_t seq) const {
  if (tie_policy_.kind == TieBreak::kFifo || seq >= tie_policy_.horizon) {
    return seq;
  }
  const std::uint64_t h = splitmix64(tie_policy_.seed ^ seq);
  if (tie_policy_.kind == TieBreak::kSeededPermutation) return h;
  // kPriorityFuzz: a seeded quarter of events get random keys.  Hash
  // keys are almost always larger than sequence numbers, so fuzzed
  // events are demoted behind their same-instant FIFO peers.
  return (h & 3) == 0 ? h : seq;
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  // Destroy any still-suspended process frames (servers parked at a block
  // point when the experiment ended).  Destroying the root frame unwinds
  // nested Task frames because each child Task object lives inside its
  // awaiter's frame.  Detach the whole list first: a frame spawned while
  // unwinding joins a fresh list, reaped by the next shutdown().
  Root::promise_type* p = roots_head_;
  roots_head_ = roots_tail_ = nullptr;
  while (p != nullptr) {
    Root::promise_type* next = p->next;
    p->engine = nullptr;
    auto h = std::coroutine_handle<Root::promise_type>::from_promise(*p);
    if (!h.done()) h.destroy();
    p = next;
  }
  // Unwinding frames can enqueue wakeups (e.g. a serializer guard waking
  // the next waiter, whose frame we then destroy too).  Those events hold
  // handles to frames that no longer exist: drop them so a post-shutdown
  // run() is a no-op instead of a resume-after-destroy.
  auto free_chain = [this](std::uint32_t idx) {
    while (idx != kNil) {
      const std::uint32_t next = node(idx).next;
      free_node(idx);
      idx = next;
    }
  };
  for (std::uint32_t& head : bucket_head_) {
    free_chain(head);
    head = kNil;
  }
  occupied_.fill(0);
  summary_ = 0;
  wheel_count_ = 0;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    if ((epoch_occupied_[e >> 6] >> (e & 63) & 1) != 0) {
      free_chain(epoch_head_[e]);
    }
  }
  epoch_occupied_.fill(0);
  epoch_count_ = 0;
  for (const FarEntry& fe : far_) free_node(fe.idx);
  far_.clear();
  cancelled_ = 0;
  live_ = 0;
  // Retire every armed timer slot so outstanding TimerHandles observe
  // !pending() and cancel as a no-op (their events are gone; leaving
  // the generations live would make handles report phantom timers).
  free_slots_.clear();
  for (std::size_t i = slots_.size(); i > 0; --i) {
    TimerSlot& s = slots_[i - 1];
    if (s.armed) {
      ++s.gen;
      s.armed = false;
    }
    free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  shut_down_ = true;
}

std::uint32_t Engine::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = node(idx).next;
    return idx;
  }
  if ((slab_size_ & kChunkMask) == 0) {
    slab_.push_back(std::make_unique<Node[]>(kChunkNodes));
  }
  return slab_size_++;
}

void Engine::push_event(Time at, std::uint64_t seq, EventFn&& fn,
                        std::uint32_t slot1, std::uint32_t gen) {
  const std::uint32_t idx = alloc_node();
  Node& n = node(idx);
  n.at = at;
  n.seq = seq;
  n.key = tie_key(seq);
  n.slot1 = slot1;
  n.gen = gen;
  n.fn = std::move(fn);
  const std::uint64_t e = epoch_of(at);
  if (e == epoch_) {
    push_near(idx);
  } else if (e > epoch_ && e - epoch_ <= kEpochs) {
    // Second level: O(1), unsorted; the cascade sorts it.
    std::uint64_t& bits = epoch_occupied_[(e & kEpochMask) >> 6];
    const std::uint64_t bit = 1ull << (e & 63);
    n.next = (bits & bit) != 0 ? epoch_head_[e & kEpochMask] : kNil;
    epoch_head_[e & kEpochMask] = idx;
    bits |= bit;
    ++epoch_count_;
  } else {
    // Past the second level, or before the first level's epoch (now
    // trails it when run_until returned right after pop moved the first
    // level on), where a ring slot would alias.
    push_far(idx);
  }
}

void Engine::push_near(std::uint32_t idx) {
  Node& n = node(idx);
  const std::uint64_t b = bucket_of(n.at);
  // Walk the chain to the first event that fires later: chains are kept
  // in fire order, so a bucket's head is its next event.
  std::uint32_t* link = &bucket_head_[b];
  for (std::size_t walked = 0; *link != kNil; ++walked) {
    Node& m = node(*link);
    if (fires_later(m.at, m.key, m.seq, n.at, n.key, n.seq)) break;
    if (walked == kSpillMax) {
      // Same-instant burst: move the whole chain into the overflow heap
      // once instead of walking it on every insert.
      for (std::uint32_t i = bucket_head_[b]; i != kNil; i = node(i).next) {
        push_far(i);
        --wheel_count_;
      }
      bucket_head_[b] = kNil;
      clear_bucket_mark(b);
      push_far(idx);
      return;
    }
    link = &m.next;
  }
  n.next = *link;
  *link = idx;
  mark_bucket(b);
  ++wheel_count_;
}

void Engine::push_far(std::uint32_t idx) {
  const Node& n = node(idx);
  far_.push_back(FarEntry{n.at, n.seq, n.key, idx});
  std::push_heap(far_.begin(), far_.end(), Later{});
}

std::uint64_t Engine::next_epoch() const {
  const std::uint64_t from = (epoch_ + 1) & kEpochMask;
  std::uint64_t word = from >> 6;
  std::uint64_t bits = epoch_occupied_[word] & (~0ull << (from & 63));
  while (bits == 0) {
    word = (word + 1) & (kEpochWords - 1);
    bits = epoch_occupied_[word];
  }
  const std::uint64_t found =
      (word << 6) | static_cast<std::uint64_t>(std::countr_zero(bits));
  return epoch_ + 1 + ((found - from) & kEpochMask);
}

void Engine::cascade(std::uint64_t e) {
  epoch_ = e;
  epoch_occupied_[(e & kEpochMask) >> 6] &= ~(1ull << (e & 63));
  std::uint32_t idx = epoch_head_[e & kEpochMask];
  while (idx != kNil) {
    const std::uint32_t next = node(idx).next;
    --epoch_count_;
    if (node_dead(node(idx))) {
      free_node(idx);
      if (cancelled_ > 0) --cancelled_;
    } else {
      push_near(idx);
    }
    idx = next;
  }
}

std::uint32_t Engine::locate() {
  // Prune dead overflow heads so the merge below compares live events.
  while (!far_.empty() && node_dead(node(far_.front().idx))) {
    std::pop_heap(far_.begin(), far_.end(), Later{});
    free_node(far_.back().idx);
    far_.pop_back();
    if (cancelled_ > 0) --cancelled_;
  }
  for (;;) {
    while (wheel_count_ > 0) {
      const std::uint64_t b = first_bucket();
      std::uint32_t& head = bucket_head_[b];
      while (head != kNil && node_dead(node(head))) {
        const std::uint32_t idx = head;
        head = node(idx).next;
        free_node(idx);
        --wheel_count_;
        if (cancelled_ > 0) --cancelled_;
      }
      if (head == kNil) {
        clear_bucket_mark(b);
        continue;
      }
      // Bucket order is time order, and every second-level event fires
      // later, so this head is the wheels' minimum.
      const Node& n = node(head);
      if (far_.empty()) return head;
      const FarEntry& ft = far_.front();
      return fires_later(ft.at, ft.key, ft.seq, n.at, n.key, n.seq) ? head
                                                                    : ft.idx;
    }
    // The first level is empty: refill it from the earliest epoch,
    // unless the heap's top fires in an earlier one.
    if (epoch_count_ == 0) break;
    const std::uint64_t e = next_epoch();
    if (!far_.empty() && epoch_of(far_.front().at) < e) break;
    cascade(e);
  }
  if (far_.empty()) return kNil;
  // Both wheels are empty up to the heap's top: move the first level to
  // its epoch, so what it schedules lands on the wheels again.  Every
  // second-level event is in a later epoch, so none aliases.
  epoch_ = std::max(epoch_, epoch_of(far_.front().at));
  return far_.front().idx;
}

void Engine::fire(std::uint32_t idx) {
  Node& n = node(idx);
  if (!far_.empty() && far_.front().idx == idx) {
    std::pop_heap(far_.begin(), far_.end(), Later{});
    far_.pop_back();
  } else {
    const std::uint64_t b = bucket_of(n.at);
    bucket_head_[b] = n.next;
    if (n.next == kNil) clear_bucket_mark(b);
    --wheel_count_;
  }
  RELYNX_ASSERT(n.at >= now_);
  now_ = n.at;
  ++fired_;
  if (n.slot1 != 0) {
    // Fired: retire the generation first so the handle reports
    // !pending() from inside the callback and from same-instant peers.
    TimerSlot& s = slots_[n.slot1 - 1];
    ++s.gen;
    s.armed = false;
    free_slots_.push_back(n.slot1 - 1);
  }
  // Invoke in place: the slab never relocates records, so the closure
  // can schedule freely while it runs.  The guard reclaims the record
  // even if the callback throws.
  struct Reclaim {
    Engine* e;
    std::uint32_t idx;
    ~Reclaim() { e->free_node(idx); }
  } reclaim{this, idx};
  n.fn();
}

void Engine::timer_cancel(std::uint32_t slot1, std::uint32_t gen) {
  if (slot1 == 0) return;
  TimerSlot& s = slots_[slot1 - 1];
  if (s.gen != gen) return;  // already fired, cancelled, or shut down
  ++s.gen;
  s.armed = false;
  free_slots_.push_back(slot1 - 1);
  ++cancelled_;
  // Reclaim once dead events dominate: O(n) rebuild amortized against
  // the n cancellations that triggered it.
  if (cancelled_ >= 64 && cancelled_ * 2 >= queue_size()) compact();
}

std::size_t Engine::drop_dead(std::uint32_t* link) {
  std::size_t dropped = 0;
  while (*link != kNil) {
    const std::uint32_t idx = *link;
    Node& n = node(idx);
    if (node_dead(n)) {
      *link = n.next;
      free_node(idx);
      ++dropped;
    } else {
      link = &n.next;
    }
  }
  return dropped;
}

void Engine::compact() {
  for (std::uint64_t words = summary_; words != 0; words &= words - 1) {
    const auto w = static_cast<std::size_t>(std::countr_zero(words));
    for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t b =
          (w << 6) | static_cast<std::uint64_t>(std::countr_zero(bits));
      wheel_count_ -= drop_dead(&bucket_head_[b]);
      if (bucket_head_[b] == kNil) clear_bucket_mark(b);
    }
  }
  for (std::size_t w = 0; w < kEpochWords; ++w) {
    for (std::uint64_t bits = epoch_occupied_[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t e =
          (w << 6) | static_cast<std::uint64_t>(std::countr_zero(bits));
      epoch_count_ -= drop_dead(&epoch_head_[e]);
      if (epoch_head_[e] == kNil) epoch_occupied_[w] &= ~(1ull << (e & 63));
    }
  }
  std::erase_if(far_, [this](const FarEntry& fe) {
    if (!node_dead(node(fe.idx))) return false;
    free_node(fe.idx);
    return true;
  });
  std::make_heap(far_.begin(), far_.end(), Later{});
  cancelled_ = 0;
}

void Engine::schedule(Duration delay, EventFn fn) {
  RELYNX_ASSERT_MSG(delay >= 0, "cannot schedule into the past");
  push_event(now_ + delay, next_seq_++, std::move(fn), 0, 0);
}

void Engine::schedule_at(Time t, EventFn fn) {
  RELYNX_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  push_event(t, next_seq_++, std::move(fn), 0, 0);
}

TimerHandle Engine::schedule_cancellable(Duration delay, EventFn fn) {
  RELYNX_ASSERT_MSG(delay >= 0, "cannot schedule into the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(TimerSlot{});
  }
  TimerSlot& s = slots_[slot];
  s.armed = true;
  const std::uint32_t gen = s.gen;
  push_event(now_ + delay, next_seq_++, std::move(fn), slot + 1, gen);
  return TimerHandle(this, slot + 1, gen);
}

void Engine::run() {
  stop_requested_ = false;
  while (!stop_requested_) {
    const std::uint32_t idx = locate();
    if (idx == kNil) return;
    fire(idx);
  }
}

bool Engine::run_until(Time deadline) {
  stop_requested_ = false;
  for (;;) {
    // Drained is checked first and is authoritative: a stop() that
    // raced the queue's final event still reports the drain.
    const std::uint32_t idx = locate();
    if (idx == kNil) return true;
    if (stop_requested_ || node(idx).at > deadline) return false;
    fire(idx);
  }
}

Engine::Root Engine::drive(std::string name, Task<> body) {
  ++live_;
  try {
    co_await std::move(body);
  } catch (const std::exception& e) {
    failures_.push_back(name + ": " + e.what());
  } catch (...) {
    failures_.push_back(name + ": non-standard exception");
  }
  --live_;
}

void Engine::spawn(std::string name, Task<> body) {
  RELYNX_ASSERT_MSG(body.valid(), "spawn of empty task");
  Root root = drive(std::move(name), std::move(body));
  schedule(0, [h = root.handle] { h.resume(); });
}

}  // namespace sim
