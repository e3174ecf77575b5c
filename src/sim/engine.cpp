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
  // step()/run() is a no-op instead of a resume-after-destroy.
  for (std::uint32_t& head : bucket_head_) {
    while (head != kNil) {
      const std::uint32_t idx = head;
      head = node(idx).next;
      free_node(idx);
    }
  }
  occupied_.fill(0);
  wheel_count_ = 0;
  for (const FarEntry& fe : far_) free_node(fe.idx);
  far_.clear();
  loc_valid_ = false;
  loc_kind_ = LocKind::kNone;
  wf_valid_ = false;
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
  const std::uint64_t b = bucket_of(at);
  // Every queued event is at or after now, so `b - base` cannot wrap.
  const bool wheel = b - bucket_of(now_) < kBuckets;
  if (wheel) {
    if (b < cursor_) cursor_ = b;
    std::uint32_t& head = bucket_head_[b & kBucketMask];
    n.next = head;
    head = idx;
    mark_bucket(b);
    ++wheel_count_;
    if (wf_valid_) {
      if (b < wf_bucket_) {
        // wf_bucket_ was the lowest occupied bucket, so this one was
        // empty: the new event is alone in the new front bucket.
        wf_bucket_ = b;
        w1_idx_ = idx;
        w1_prev_ = kNil;
        w2_state_ = W2::kNone;
        w2_more_ = false;
      } else if (b == wf_bucket_) {
        // Head insert: whichever tracked node was the head of this
        // chain now follows the new one.
        if (w1_prev_ == kNil) {
          w1_prev_ = idx;
        } else if (w2_state_ == W2::kKnown && w2_prev_ == kNil) {
          w2_prev_ = idx;
        }
        const Node& w1 = node(w1_idx_);
        if (fires_later(at, n.key, seq, w1.at, w1.key, w1.seq)) {
          if (w2_state_ == W2::kNone) {
            w2_state_ = W2::kKnown;
            w2_idx_ = idx;
            w2_prev_ = kNil;
          } else if (w2_state_ == W2::kKnown) {
            const Node& w2 = node(w2_idx_);
            w2_more_ = true;  // a third live event either way
            if (!fires_later(at, n.key, seq, w2.at, w2.key, w2.seq)) {
              w2_idx_ = idx;
              w2_prev_ = kNil;
            }
          }
        } else {
          // New wheel minimum: the old minimum becomes the runner-up.
          w2_more_ = w2_more_ || w2_state_ != W2::kNone;
          w2_state_ = W2::kKnown;
          w2_idx_ = w1_idx_;
          w2_prev_ = w1_prev_;
          w1_idx_ = idx;
          w1_prev_ = kNil;
        }
      }
      // b > wf_bucket_ cannot affect the front: bucket order is time
      // order.
    }
  } else {
    far_.push_back(FarEntry{at, seq, n.key, idx});
    std::push_heap(far_.begin(), far_.end(), Later{});
  }
  // Cache maintenance: one comparison decides whether the cached pop
  // candidate survives the push.  A later-firing event cannot displace
  // the minimum (a heap push of one never displaces the overflow top
  // either); an earlier-firing one IS the new minimum, and its location
  // is known exactly — the head of its bucket, or the overflow top.
  if (!loc_valid_) return;
  if (loc_kind_ != LocKind::kNone &&
      fires_later(at, n.key, seq, loc_time_, loc_key_, loc_seq_)) {
    // Cached candidate still wins; if the new event was head-inserted
    // in front of it, the candidate's chain predecessor is now the new
    // node.
    if (wheel && loc_kind_ == LocKind::kWheel && b == loc_bucket_ &&
        loc_prev_ == kNil) {
      loc_prev_ = idx;
    }
    return;
  }
  loc_kind_ = wheel ? LocKind::kWheel : LocKind::kFar;
  loc_bucket_ = b;
  loc_idx_ = idx;
  loc_prev_ = kNil;
  loc_time_ = at;
  loc_key_ = n.key;
  loc_seq_ = seq;
}

std::uint64_t Engine::next_occupied(std::uint64_t from) const {
  // Caller guarantees an occupied bucket within one window of `from`.
  const std::uint64_t from_idx = from & kBucketMask;
  std::uint64_t word = from_idx >> 6;
  std::uint64_t bits = occupied_[word] & (~0ull << (from_idx & 63));
  while (bits == 0) {
    word = (word + 1) & (kWords - 1);
    bits = occupied_[word];
  }
  const std::uint64_t found_idx =
      (word << 6) | static_cast<std::uint64_t>(std::countr_zero(bits));
  return from + ((found_idx - from_idx) & kBucketMask);
}

bool Engine::locate() {
  if (loc_valid_) return loc_kind_ != LocKind::kNone;
  // Prune dead overflow heads so the merge below compares live events.
  while (!far_.empty() && node_dead(node(far_.front().idx))) {
    std::pop_heap(far_.begin(), far_.end(), Later{});
    free_node(far_.back().idx);
    far_.pop_back();
    if (cancelled_ > 0) --cancelled_;
  }
  std::uint32_t best = kNil;
  std::uint32_t best_prev = kNil;
  std::uint64_t best_bucket = 0;
  if (wf_valid_) {
    best = w1_idx_;
    best_prev = w1_prev_;
    best_bucket = wf_bucket_;
  } else if (wheel_count_ > 0) {
    std::uint32_t best2 = kNil;
    std::uint32_t best2_prev = kNil;
    // The cursor may trail now's bucket after a pop from the overflow
    // heap advanced time; every lower bucket is empty either way.
    std::uint64_t b = std::max(cursor_, bucket_of(now_));
    std::size_t len = 0;
    while (wheel_count_ > 0) {
      b = next_occupied(b);
      std::uint32_t& head = bucket_head_[b & kBucketMask];
      // Walk the chain: reclaim dead records in place and track the
      // comparator minimum and runner-up (chain order is irrelevant to
      // selection).
      std::uint32_t prev = kNil;
      std::uint32_t idx = head;
      len = 0;
      while (idx != kNil) {
        Node& n = node(idx);
        const std::uint32_t next = n.next;
        if (node_dead(n)) {
          if (prev == kNil) {
            head = next;
          } else {
            node(prev).next = next;
          }
          free_node(idx);
          --wheel_count_;
          if (cancelled_ > 0) --cancelled_;
          idx = next;
          continue;
        }
        ++len;
        if (best == kNil) {
          best = idx;
          best_prev = prev;
        } else {
          const Node& bn = node(best);
          if (fires_later(bn.at, bn.key, bn.seq, n.at, n.key, n.seq)) {
            best2 = best;
            best2_prev = best_prev;
            best = idx;
            best_prev = prev;
          } else if (best2 == kNil) {
            best2 = idx;
            best2_prev = prev;
          } else {
            const Node& b2 = node(best2);
            if (fires_later(b2.at, b2.key, b2.seq, n.at, n.key, n.seq)) {
              best2 = idx;
              best2_prev = prev;
            }
          }
        }
        prev = idx;
        idx = next;
      }
      if (head == kNil) {
        clear_bucket_mark(b);
        cursor_ = b + 1;
        best = kNil;
        best2 = kNil;
        continue;
      }
      if (len > kSpillMax) {
        // Same-instant burst: push it into the overflow heap once
        // instead of min-scanning it on every pop.
        idx = head;
        while (idx != kNil) {
          Node& n = node(idx);
          far_.push_back(FarEntry{n.at, n.seq, n.key, idx});
          std::push_heap(far_.begin(), far_.end(), Later{});
          idx = n.next;
        }
        wheel_count_ -= len;
        head = kNil;
        clear_bucket_mark(b);
        cursor_ = b + 1;
        best = kNil;
        best2 = kNil;
        continue;
      }
      best_bucket = b;
      cursor_ = b;
      break;
    }
    if (best != kNil) {
      wf_valid_ = true;
      wf_bucket_ = best_bucket;
      w1_idx_ = best;
      w1_prev_ = best_prev;
      if (best2 == kNil) {
        w2_state_ = W2::kNone;
        w2_more_ = false;
      } else {
        w2_state_ = W2::kKnown;
        w2_idx_ = best2;
        w2_prev_ = best2_prev;
        w2_more_ = len > 2;
      }
    }
  }
  if (best == kNil && far_.empty()) {
    loc_kind_ = LocKind::kNone;
    loc_valid_ = true;
    return false;
  }
  if (best != kNil) {
    const Node& bn = node(best);
    const FarEntry* ft = far_.empty() ? nullptr : &far_.front();
    if (ft == nullptr ||
        fires_later(ft->at, ft->key, ft->seq, bn.at, bn.key, bn.seq)) {
      loc_kind_ = LocKind::kWheel;
      loc_bucket_ = best_bucket;
      loc_idx_ = best;
      loc_prev_ = best_prev;
      loc_time_ = bn.at;
      loc_key_ = bn.key;
      loc_seq_ = bn.seq;
      loc_valid_ = true;
      return true;
    }
  }
  loc_kind_ = LocKind::kFar;
  loc_idx_ = far_.front().idx;
  loc_time_ = far_.front().at;
  loc_key_ = far_.front().key;
  loc_seq_ = far_.front().seq;
  loc_valid_ = true;
  return true;
}

std::uint32_t Engine::take_located() {
  loc_valid_ = false;
  if (loc_kind_ == LocKind::kFar) {
    std::pop_heap(far_.begin(), far_.end(), Later{});
    const std::uint32_t idx = far_.back().idx;
    far_.pop_back();
    return idx;
  }
  const std::uint32_t idx = loc_idx_;
  if (loc_prev_ == kNil) {
    bucket_head_[loc_bucket_ & kBucketMask] = node(idx).next;
    if (node(idx).next == kNil) clear_bucket_mark(loc_bucket_);
  } else {
    node(loc_prev_).next = node(idx).next;
  }
  --wheel_count_;
  // Promote the runner-up to wheel minimum.  With untracked live
  // events left in the bucket (or none at all) the front knowledge is
  // spent, and the next locate() rescans from the cursor.
  if (wf_valid_ && idx == w1_idx_) {
    if (w2_state_ == W2::kKnown) {
      if (w2_prev_ == idx) w2_prev_ = loc_prev_;  // unlink bridged it
      w1_idx_ = w2_idx_;
      w1_prev_ = w2_prev_;
      w2_state_ = w2_more_ ? W2::kUnknown : W2::kNone;
      w2_more_ = false;
    } else {
      wf_valid_ = false;
    }
  }
  return idx;
}

void Engine::fire_located() {
  const std::uint32_t idx = take_located();
  Node& n = node(idx);
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
  note_cancelled();
}

void Engine::note_cancelled() {
  // The caches only care about a cancellation of a tracked node; any
  // other event was already firing later and still is.
  if (wf_valid_) {
    if (node_dead(node(w1_idx_))) {
      wf_valid_ = false;
    } else if (w2_state_ == W2::kKnown && node_dead(node(w2_idx_))) {
      w2_state_ = W2::kUnknown;
      w2_more_ = false;
    }
  }
  if (loc_valid_ && loc_kind_ != LocKind::kNone &&
      node_dead(node(loc_idx_))) {
    loc_valid_ = false;
  }
  ++cancelled_;
  // Reclaim once dead events dominate: O(n) rebuild amortized against
  // the n cancellations that triggered it.
  if (cancelled_ >= 64 && cancelled_ * 2 >= queue_size()) compact();
}

void Engine::compact() {
  loc_valid_ = false;
  wf_valid_ = false;
  for (std::size_t w = 0; w < kWords; ++w) {
    std::uint64_t bits = occupied_[w];
    while (bits != 0) {
      const std::uint64_t bidx =
          (w << 6) | static_cast<std::uint64_t>(std::countr_zero(bits));
      bits &= bits - 1;
      std::uint32_t* link = &bucket_head_[bidx];
      while (*link != kNil) {
        const std::uint32_t idx = *link;
        Node& n = node(idx);
        if (node_dead(n)) {
          *link = n.next;
          free_node(idx);
          --wheel_count_;
        } else {
          link = &n.next;
        }
      }
      if (bucket_head_[bidx] == kNil) occupied_[w] &= ~(1ull << (bidx & 63));
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

bool Engine::step() {
  if (!locate()) return false;
  fire_located();
  return true;
}

void Engine::run() {
  stop_requested_ = false;
  while (!stop_requested_ && step()) {
  }
}

bool Engine::run_until(Time deadline) {
  stop_requested_ = false;
  for (;;) {
    // Drained is checked first and is authoritative: a stop() that
    // raced the queue's final event still reports the drain.
    if (!locate()) return true;
    if (stop_requested_) return false;
    if (loc_time_ > deadline) return false;
    fire_located();
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
