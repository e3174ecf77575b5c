// The simulated Chrysalis operating system (paper §5).
//
// One Kernel per Butterfly.  Everything is shared memory: the kernel
// manages memory objects (mappable, reference counted), event blocks
// (owner-waits binary semaphores carrying a 32-bit datum), and dual
// queues (bounded data queues that flip into queues of event-block
// names when drained).  There is no message passing; the LYNX backend
// builds its own screening on top of these primitives — exactly the
// paper's point in lesson two.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "chrysalis/types.hpp"
#include "common/body.hpp"
#include "common/id_map.hpp"
#include "common/result.hpp"
#include "net/butterfly_switch.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/sync.hpp"

namespace chrysalis {

template <typename T>
using Result = common::Result<T, Status>;

class Kernel {
 public:
  explicit Kernel(sim::Engine& engine, net::ButterflyParams fabric = {},
                  Costs costs = {});
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] const Costs& costs() const { return costs_; }

  // ---- processes ------------------------------------------------------
  [[nodiscard]] Pid create_process(net::NodeId node);
  // Chrysalis lets a dying process catch the exception and clean up; the
  // handler runs (synchronously, kernel-mediated) before the process is
  // reaped.  Processor failures are NOT detected — as in the paper.
  void set_termination_handler(Pid pid, std::function<void()> handler);
  void terminate(Pid pid);
  [[nodiscard]] bool alive(Pid pid) const { return procs_.contains(pid); }
  [[nodiscard]] net::NodeId node_of(Pid pid) const;

  // ---- memory objects --------------------------------------------------
  [[nodiscard]] sim::Task<Result<MemId>> make_object(Pid caller,
                                                     std::size_t size);
  [[nodiscard]] sim::Task<Status> map(Pid caller, MemId obj);
  [[nodiscard]] sim::Task<Status> unmap(Pid caller, MemId obj);
  // "inform Chrysalis that the object can be deallocated when its
  // reference count reaches zero"
  void release_when_unreferenced(MemId obj);
  [[nodiscard]] bool object_exists(MemId obj) const {
    return objects_.contains(obj);
  }

  // word ops (16-bit atomic: cheap; 32-bit: costly)
  [[nodiscard]] sim::Task<Result<std::uint16_t>> read16(Pid, MemId,
                                                        std::size_t offset);
  [[nodiscard]] sim::Task<Status> write16(Pid, MemId, std::size_t offset,
                                          std::uint16_t value);
  // atomic read-modify-write on a 16-bit word; returns the OLD value
  [[nodiscard]] sim::Task<Result<std::uint16_t>> fetch_or16(
      Pid, MemId, std::size_t offset, std::uint16_t bits);
  [[nodiscard]] sim::Task<Result<std::uint16_t>> fetch_and16(
      Pid, MemId, std::size_t offset, std::uint16_t mask);
  [[nodiscard]] sim::Task<Result<std::uint32_t>> read32(Pid, MemId,
                                                        std::size_t offset);
  [[nodiscard]] sim::Task<Status> write32(Pid, MemId, std::size_t offset,
                                          std::uint32_t value);
  // block transfer through the switch (microcoded copy)
  // These two copies are the model: the bytes really do cross the switch.
  // `data` must stay alive until the write completes.
  [[nodiscard]] sim::Task<Status> block_write(
      Pid, MemId, std::size_t offset, std::span<const std::uint8_t> data);
  [[nodiscard]] sim::Task<Result<common::Body>> block_read(
      Pid, MemId, std::size_t offset, std::size_t length);

  // ---- event blocks ------------------------------------------------------
  [[nodiscard]] sim::Task<Result<EventId>> make_event(Pid owner);
  // anyone who knows the name may post; only the owner may wait
  [[nodiscard]] sim::Task<Status> post(Pid caller, EventId event,
                                       std::uint32_t datum);
  [[nodiscard]] sim::Task<Result<std::uint32_t>> wait_event(Pid caller,
                                                            EventId event);

  // ---- dual queues ---------------------------------------------------------
  [[nodiscard]] sim::Task<Result<DqId>> make_dual_queue(Pid caller,
                                                        std::size_t capacity);
  // enqueue: appends each datum, or — if the queue holds waiter event
  // names — posts the front event with the datum instead (paper §5.1).
  // One microcode dispatch (primitive_call + dq_enqueue + the remote
  // switch setup, paid once) delivers every datum in order, charging
  // only Costs::dq_enqueue_extra for each datum after the first: the
  // shared-memory analogue of RPC formation (DESIGN.md §14).  Data that
  // find the queue full are dropped; the call then reports kQueueFull
  // after delivering the rest.  `data` must stay alive until the call
  // completes.
  [[nodiscard]] sim::Task<Status> enqueue(Pid caller, DqId q,
                                          std::span<const std::uint32_t> data);
  // dequeue_many: one microcode dispatch pops every ready datum (up to
  // `max`), charging Costs::dq_dequeue_extra for each after the first.
  // An empty queue leaves `my_event`'s name behind (or arms the cheap
  // flag) and reports would-block; the caller then waits on its event
  // block ("The most common use of event blocks is in conjunction with
  // dual queues").  `max` = 1 is the paper's one-datum dequeue.
  struct DequeueManyOutcome {
    bool would_block = false;
    std::vector<std::uint32_t> data;
  };
  [[nodiscard]] sim::Task<Result<DequeueManyOutcome>> dequeue_many(
      Pid caller, DqId q, EventId my_event, std::size_t max);

 private:
  struct Object {
    MemId id;
    net::NodeId home;  // memory board it lives on
    std::vector<std::uint8_t> bytes;
    common::IdSet<Pid> mapped_by;
    bool release_pending = false;
  };
  struct Event {
    EventId id;
    Pid owner;
    sim::Fifo<std::uint32_t> pending;  // posted data not yet waited for
    std::unique_ptr<sim::OneShot<std::uint32_t>> waiter;  // armed by wait
  };
  struct DualQueue {
    DqId id;
    net::NodeId home;
    std::size_t capacity;
    // either data or event names, never both
    sim::Fifo<std::uint32_t> data;
    sim::Fifo<EventId> waiters;
    // Cheap-flag fast path: a lone consumer's empty dequeue arms this
    // 16-bit-flag-sized slot instead of pushing onto `waiters`; the next
    // enqueue finding it armed posts the event directly — an atomic16
    // claim plus an event_post, no queue machinery.
    EventId fast_event;
    bool fast_armed = false;
  };

  // A memory primitive in progress: its access check and the delay it
  // sleeps (one primitive_call for a refusal).
  struct Access {
    MemId id;
    Status status = Status::kOk;
    Object* obj = nullptr;  // valid until the primitive suspends
    sim::Duration delay = 0;
  };

  // The protocol counts of `caller`'s node (sim/counts.hpp).
  [[nodiscard]] sim::Counts& counts(Pid caller) {
    return *counts_.at(caller.value());
  }
  [[nodiscard]] Object* find_object(MemId id);
  [[nodiscard]] Status check_access(Pid caller, MemId obj, std::size_t offset,
                                    std::size_t len, Object** out);
  // The prologue of every memory primitive: counts the microcode op and
  // checks the access.  A granted access costs a word reference of base
  // cost `word` or, without one, a `len`-byte block transfer.
  [[nodiscard]] Access begin_access(Pid caller, MemId obj, std::size_t offset,
                                    std::size_t len,
                                    std::optional<sim::Duration> word);
  // After the delay: the refusal, or kDeallocated if the object was
  // reclaimed meanwhile; else re-points `a.obj` at the object.
  [[nodiscard]] Status reopen(Access& a);
  // fetch_or16 and fetch_and16: new = (old & keep) | set.
  [[nodiscard]] sim::Task<Result<std::uint16_t>> fetch_mask16(
      Pid caller, MemId obj, std::size_t offset, std::uint16_t keep,
      std::uint16_t set);
  void reap_object_if_dead(Object& obj);
  [[nodiscard]] bool is_remote(Pid caller, net::NodeId home) const;
  // The switch setup a call pays when `home` is not the caller's board.
  [[nodiscard]] sim::Duration remote_reference(Pid caller,
                                               net::NodeId home) const;
  // Posts `datum` to event `id` (every post, kernel call or queue
  // delivery, goes through here).  False if there is no such event.
  bool post_event(EventId id, std::uint32_t datum);
  // Post-suspension delivery of one datum into a dual queue: posts the
  // front waiter event if the queue holds event names, else appends
  // (kQueueFull drops the datum).
  Status deliver_to_queue(DualQueue& q, std::uint32_t datum);

  sim::Engine* engine_;
  Costs costs_;
  net::ButterflyFabric fabric_;
  common::IdMap<Pid, host::ProcessInfo> procs_;
  common::IdMap<Pid, std::function<void()>> term_handlers_;
  common::IdMap<MemId, Object> objects_;
  common::IdMap<EventId, Event> events_;
  common::IdMap<DqId, DualQueue> queues_;
  common::IdAllocator<Pid> pids_;
  common::IdAllocator<MemId> mem_ids_;
  common::IdAllocator<EventId> event_ids_;
  common::IdAllocator<DqId> dq_ids_;
  // Each pid's node's counts, indexed by pid: a process never changes
  // node, so the entry outlives the process.
  std::vector<sim::Counts*> counts_;
};

}  // namespace chrysalis
