#include "chrysalis/kernel.hpp"

#include <algorithm>
#include <cstring>

namespace chrysalis {

Kernel::Kernel(sim::Engine& engine, net::ButterflyParams fabric, Costs costs)
    : engine_(&engine), costs_(costs), fabric_(fabric) {}

// ===================== processes =====================

Pid Kernel::create_process(net::NodeId node) {
  const Pid pid = pids_.next();
  procs_.emplace(pid, host::ProcessInfo{pid, node, true});
  RELYNX_ASSERT(pid.value() == counts_.size());
  counts_.push_back(&engine_->counts(node.value()));
  return pid;
}

net::NodeId Kernel::node_of(Pid pid) const {
  auto it = procs_.find(pid);
  RELYNX_ASSERT_MSG(it != procs_.end(), "node_of unknown pid");
  return it->second.node;
}

void Kernel::set_termination_handler(Pid pid, std::function<void()> handler) {
  term_handlers_[pid] = std::move(handler);
}

void Kernel::terminate(Pid pid) {
  auto it = procs_.find(pid);
  if (it == procs_.end()) return;
  // Run the catch-and-clean-up handler first (paper: "even erroneous
  // processes can clean up their links before going away").
  if (auto h = term_handlers_.find(pid); h != term_handlers_.end()) {
    auto handler = std::move(h->second);
    term_handlers_.erase(h);
    handler();
  }
  // Drop all this process's mappings; reclaim released objects.
  // (Collect first: reaping erases from objects_ while we walk it.)
  std::vector<MemId> touched;
  for (auto& [id, obj] : objects_) {
    if (obj.mapped_by.erase(pid) > 0) touched.push_back(id);
  }
  for (MemId id : touched) {
    if (Object* obj = find_object(id)) reap_object_if_dead(*obj);
  }
  // The kernel reclaims orphaned waiters lazily; an event owned by a dead
  // process simply never delivers (no processor-failure detection).
  procs_.erase(it);
}

bool Kernel::is_remote(Pid caller, net::NodeId home) const {
  return node_of(caller) != home;
}

sim::Duration Kernel::remote_reference(Pid caller, net::NodeId home) const {
  return is_remote(caller, home) ? fabric_.word_reference(true) : 0;
}

// ===================== memory objects =====================

Kernel::Object* Kernel::find_object(MemId id) {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : &it->second;
}

Status Kernel::check_access(Pid caller, MemId id, std::size_t offset,
                            std::size_t len, Object** out) {
  if (!procs_.contains(caller)) return Status::kProcessDead;
  Object* obj = find_object(id);
  if (obj == nullptr) return Status::kDeallocated;
  if (!obj->mapped_by.contains(caller)) return Status::kNotMapped;
  if (offset + len > obj->bytes.size()) return Status::kBadOffset;
  *out = obj;
  return Status::kOk;
}

Kernel::Access Kernel::begin_access(Pid caller, MemId id,
                                    std::size_t offset, std::size_t len,
                                    std::optional<sim::Duration> word) {
  ++counts(caller).microcode_ops;
  Access a;
  a.id = id;
  a.status = check_access(caller, id, offset, len, &a.obj);
  if (a.status != Status::kOk) {
    a.delay = costs_.primitive_call;
    return a;
  }
  const bool remote = is_remote(caller, a.obj->home);
  a.delay = word.has_value() ? *word + fabric_.word_reference(remote) -
                                   fabric_.word_reference(false)
                             : costs_.primitive_call +
                                   fabric_.block_transfer(len, remote);
  return a;
}

Status Kernel::reopen(Access& a) {
  if (a.status != Status::kOk) return a.status;
  a.obj = find_object(a.id);
  return a.obj == nullptr ? Status::kDeallocated : Status::kOk;
}

void Kernel::reap_object_if_dead(Object& obj) {
  if (obj.release_pending && obj.mapped_by.empty()) {
    objects_.erase(obj.id);
  }
}

sim::Task<Result<MemId>> Kernel::make_object(Pid caller, std::size_t size) {
  ++counts(caller).microcode_ops;
  co_await engine_->sleep(costs_.primitive_call + costs_.make_object);
  if (!procs_.contains(caller)) co_return common::Err(Status::kProcessDead);
  const MemId id = mem_ids_.next();
  Object obj;
  obj.id = id;
  obj.home = node_of(caller);  // allocated on the caller's memory board
  obj.bytes.assign(size, 0);
  obj.mapped_by.insert(caller);  // creator starts mapped
  objects_.emplace(id, std::move(obj));
  co_return id;
}

sim::Task<Status> Kernel::map(Pid caller, MemId id) {
  ++counts(caller).microcode_ops;
  co_await engine_->sleep(costs_.primitive_call + costs_.map_object);
  if (!procs_.contains(caller)) co_return Status::kProcessDead;
  Object* obj = find_object(id);
  if (obj == nullptr) co_return Status::kDeallocated;
  obj->mapped_by.insert(caller);
  co_return Status::kOk;
}

sim::Task<Status> Kernel::unmap(Pid caller, MemId id) {
  ++counts(caller).microcode_ops;
  co_await engine_->sleep(costs_.primitive_call + costs_.unmap_object);
  Object* obj = find_object(id);
  if (obj == nullptr) co_return Status::kDeallocated;
  if (obj->mapped_by.erase(caller) == 0) co_return Status::kNotMapped;
  reap_object_if_dead(*obj);
  co_return Status::kOk;
}

void Kernel::release_when_unreferenced(MemId id) {
  Object* obj = find_object(id);
  if (obj == nullptr) return;
  obj->release_pending = true;
  reap_object_if_dead(*obj);
}

sim::Task<Result<std::uint16_t>> Kernel::read16(Pid caller, MemId id,
                                                std::size_t offset) {
  Access a = begin_access(caller, id, offset, 2, costs_.atomic16);
  co_await engine_->sleep(a.delay);
  if (Status st = reopen(a); st != Status::kOk) co_return common::Err(st);
  std::uint16_t v;
  std::memcpy(&v, a.obj->bytes.data() + offset, 2);
  co_return v;
}

sim::Task<Status> Kernel::write16(Pid caller, MemId id, std::size_t offset,
                                  std::uint16_t value) {
  Access a = begin_access(caller, id, offset, 2, costs_.atomic16);
  co_await engine_->sleep(a.delay);
  if (Status st = reopen(a); st != Status::kOk) co_return st;
  std::memcpy(a.obj->bytes.data() + offset, &value, 2);
  co_return Status::kOk;
}

sim::Task<Result<std::uint16_t>> Kernel::fetch_or16(Pid caller, MemId id,
                                                    std::size_t offset,
                                                    std::uint16_t bits) {
  return fetch_mask16(caller, id, offset, 0xffff, bits);
}

sim::Task<Result<std::uint16_t>> Kernel::fetch_and16(Pid caller, MemId id,
                                                     std::size_t offset,
                                                     std::uint16_t mask) {
  return fetch_mask16(caller, id, offset, mask, 0);
}

sim::Task<Result<std::uint16_t>> Kernel::fetch_mask16(Pid caller, MemId id,
                                                      std::size_t offset,
                                                      std::uint16_t keep,
                                                      std::uint16_t set) {
  const Access a = begin_access(caller, id, offset, 2, costs_.atomic16);
  // The read-modify-write is performed atomically *at this point in
  // simulated time* (the microcode holds the memory bank); the charged
  // delay models the caller's latency, during which the new value is
  // already visible to others — conservative and race-free.
  std::uint16_t old = 0;
  if (a.status == Status::kOk) {
    std::memcpy(&old, a.obj->bytes.data() + offset, 2);
    const auto neu = static_cast<std::uint16_t>((old & keep) | set);
    std::memcpy(a.obj->bytes.data() + offset, &neu, 2);
  }
  co_await engine_->sleep(a.delay);
  if (a.status != Status::kOk) co_return common::Err(a.status);
  co_return old;
}

sim::Task<Result<std::uint32_t>> Kernel::read32(Pid caller, MemId id,
                                                std::size_t offset) {
  Access a = begin_access(caller, id, offset, 4, costs_.word32);
  co_await engine_->sleep(a.delay);
  if (Status st = reopen(a); st != Status::kOk) co_return common::Err(st);
  std::uint32_t v;
  std::memcpy(&v, a.obj->bytes.data() + offset, 4);
  co_return v;
}

sim::Task<Status> Kernel::write32(Pid caller, MemId id, std::size_t offset,
                                  std::uint32_t value) {
  Access a = begin_access(caller, id, offset, 4, costs_.word32);
  // Non-atomic 32-bit write: the paper's §5.2 relies on exactly this
  // (dual queue names are written non-atomically, made safe by update
  // ordering).  We model the tear window by writing the low half now and
  // the high half after the delay.
  if (a.status == Status::kOk) {
    std::memcpy(a.obj->bytes.data() + offset, &value, 2);
  }
  co_await engine_->sleep(a.delay);
  if (Status st = reopen(a); st != Status::kOk) co_return st;
  std::memcpy(a.obj->bytes.data() + offset + 2,
              reinterpret_cast<const std::uint8_t*>(&value) + 2, 2);
  co_return Status::kOk;
}

sim::Task<Status> Kernel::block_write(Pid caller, MemId id,
                                      std::size_t offset,
                                      std::span<const std::uint8_t> data) {
  Access a = begin_access(caller, id, offset, data.size(), std::nullopt);
  co_await engine_->sleep(a.delay);
  if (Status st = reopen(a); st != Status::kOk) co_return st;
  std::copy(data.begin(), data.end(),
            a.obj->bytes.begin() + static_cast<std::ptrdiff_t>(offset));
  co_return Status::kOk;
}

sim::Task<Result<common::Body>> Kernel::block_read(
    Pid caller, MemId id, std::size_t offset, std::size_t length) {
  Access a = begin_access(caller, id, offset, length, std::nullopt);
  co_await engine_->sleep(a.delay);
  if (Status st = reopen(a); st != Status::kOk) co_return common::Err(st);
  common::Body out(
      a.obj->bytes.begin() + static_cast<std::ptrdiff_t>(offset),
      a.obj->bytes.begin() + static_cast<std::ptrdiff_t>(offset + length));
  co_return out;
}

// ===================== event blocks =====================

sim::Task<Result<EventId>> Kernel::make_event(Pid owner) {
  ++counts(owner).microcode_ops;
  co_await engine_->sleep(costs_.primitive_call + costs_.make_event);
  if (!procs_.contains(owner)) co_return common::Err(Status::kProcessDead);
  const EventId id = event_ids_.next();
  Event ev;
  ev.id = id;
  ev.owner = owner;
  events_.emplace(id, std::move(ev));
  co_return id;
}

sim::Task<Status> Kernel::post(Pid caller, EventId id, std::uint32_t datum) {
  ++counts(caller).microcode_ops;  // any process that knows the name may post
  co_await engine_->sleep(costs_.primitive_call + costs_.event_post);
  co_return post_event(id, datum) ? Status::kOk : Status::kNoSuchObject;
}

bool Kernel::post_event(EventId id, std::uint32_t datum) {
  auto it = events_.find(id);
  if (it == events_.end()) return false;
  Event& ev = it->second;
  // The one-shot takes a datum only when none is queued ahead of it, and
  // wait_event drains the one-shot before `pending`: posts stay FIFO.
  if (ev.waiter != nullptr && !ev.waiter->fulfilled() && ev.pending.empty()) {
    ev.waiter->fulfill(datum);
  } else {
    ev.pending.push_back(datum);
  }
  return true;
}

sim::Task<Result<std::uint32_t>> Kernel::wait_event(Pid caller, EventId id) {
  ++counts(caller).microcode_ops;
  co_await engine_->sleep(costs_.primitive_call + costs_.event_wait);
  auto it = events_.find(id);
  if (it == events_.end()) co_return common::Err(Status::kNoSuchObject);
  Event& ev = it->second;
  if (ev.owner != caller) co_return common::Err(Status::kNotOwner);
  const bool posted_first = ev.waiter != nullptr && ev.waiter->fulfilled();
  if (!posted_first && !ev.pending.empty()) {
    const std::uint32_t datum = ev.pending.front();
    ev.pending.pop_front();
    co_return datum;
  }
  if (ev.waiter == nullptr) {
    ev.waiter = std::make_unique<sim::OneShot<std::uint32_t>>(*engine_);
  }
  const std::uint32_t datum = co_await ev.waiter->take();
  co_return datum;
}

// ===================== dual queues =====================

sim::Task<Result<DqId>> Kernel::make_dual_queue(Pid caller,
                                                std::size_t capacity) {
  ++counts(caller).microcode_ops;
  co_await engine_->sleep(costs_.primitive_call + costs_.make_queue);
  if (!procs_.contains(caller)) co_return common::Err(Status::kProcessDead);
  const DqId id = dq_ids_.next();
  DualQueue q;
  q.id = id;
  q.home = node_of(caller);
  q.capacity = capacity;
  queues_.emplace(id, std::move(q));
  co_return id;
}

Status Kernel::deliver_to_queue(DualQueue& q, std::uint32_t datum) {
  if (q.fast_armed) {
    // The cheap flag was armed first (waiters were empty then), so its
    // consumer is served first; FIFO over consumers is preserved.
    q.fast_armed = false;
    post_event(q.fast_event, datum);
    return Status::kOk;
  }
  if (!q.waiters.empty()) {
    // "An enqueue operation on a queue containing event block names
    // actually posts a queued event instead of adding its datum."
    const EventId target = q.waiters.front();
    q.waiters.pop_front();
    post_event(target, datum);
    return Status::kOk;
  }
  if (q.data.size() >= q.capacity) return Status::kQueueFull;
  q.data.push_back(datum);
  ++engine_->counts(q.home.value()).queue_allocs;
  return Status::kOk;
}

sim::Task<Status> Kernel::enqueue(Pid caller, DqId id,
                                  std::span<const std::uint32_t> data) {
  if (data.empty()) co_return Status::kOk;
  sim::Counts& c = counts(caller);
  ++c.microcode_ops;
  ++c.enqueue_calls;
  auto it = queues_.find(id);
  if (it == queues_.end()) {
    co_await engine_->sleep(costs_.primitive_call);
    co_return Status::kNoSuchObject;
  }
  DualQueue& q = it->second;
  const sim::Duration reach = remote_reference(caller, q.home);
  if (data.size() == 1 && q.fast_armed && q.data.empty() &&
      q.waiters.empty()) {
    // Cheap-flag fast path: claim the armed slot at the call instant
    // (an atomic16 — nothing else can take it across the suspension)
    // and post the consumer's event directly.  No queue is touched.
    const std::uint32_t datum = data.front();
    const EventId target = q.fast_event;
    q.fast_armed = false;
    ++c.fast_deliveries;
    co_await engine_->sleep(costs_.primitive_call + costs_.atomic16 +
                            costs_.event_post + reach);
    post_event(target, datum);
    co_return Status::kOk;
  }
  co_await engine_->sleep(costs_.primitive_call + costs_.dq_enqueue +
                          costs_.dq_enqueue_extra *
                              static_cast<sim::Duration>(data.size() - 1) +
                          reach);
  // queue object may have been reclaimed across the suspension
  auto it2 = queues_.find(id);
  if (it2 == queues_.end()) co_return Status::kNoSuchObject;
  Status status = Status::kOk;
  for (const std::uint32_t datum : data) {
    if (deliver_to_queue(it2->second, datum) == Status::kQueueFull) {
      status = Status::kQueueFull;  // that datum dropped; keep delivering
    }
  }
  co_return status;
}

sim::Task<Result<Kernel::DequeueManyOutcome>> Kernel::dequeue_many(
    Pid caller, DqId id, EventId my_event, std::size_t max) {
  ++counts(caller).microcode_ops;
  auto it = queues_.find(id);
  if (it == queues_.end()) {
    co_await engine_->sleep(costs_.primitive_call);
    co_return common::Err(Status::kNoSuchObject);
  }
  co_await engine_->sleep(costs_.primitive_call + costs_.dq_dequeue +
                          remote_reference(caller, it->second.home));
  auto it2 = queues_.find(id);
  if (it2 == queues_.end()) co_return common::Err(Status::kNoSuchObject);
  DualQueue& q2 = it2->second;
  DequeueManyOutcome out;
  while (!q2.data.empty() && out.data.size() < max) {
    out.data.push_back(q2.data.front());
    q2.data.pop_front();
  }
  if (!out.data.empty()) {
    if (out.data.size() > 1) {
      co_await engine_->sleep(
          costs_.dq_dequeue_extra *
          static_cast<sim::Duration>(out.data.size() - 1));
    }
    co_return out;
  }
  // "Once a queue becomes empty, subsequent dequeue operations actually
  // enqueue event block names, on which the calling processes can wait."
  // An uncontended consumer arms the cheap flag instead of pushing its
  // event name; a second concurrent consumer falls back to the queue.
  if (!q2.fast_armed && q2.waiters.empty()) {
    q2.fast_event = my_event;
    q2.fast_armed = true;
  } else {
    q2.waiters.push_back(my_event);
    ++engine_->counts(q2.home.value()).queue_allocs;
  }
  out.would_block = true;
  co_return out;
}

}  // namespace chrysalis
