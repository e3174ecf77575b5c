// Chrysalis interface types (paper §5.1).
//
// Chrysalis runs one instance on a whole BBN Butterfly: processes share
// memory, so there is no inter-kernel wire protocol at all — the kernel
// provides *objects* (memory objects, event blocks, dual queues) and
// mostly-microcoded operations on them.  Costs are charged per
// operation; remote references pay the switch (net::ButterflyFabric).
#pragma once

#include <cstdint>
#include <vector>

#include "common/strong_id.hpp"
#include "host/process.hpp"
#include "sim/time.hpp"

namespace chrysalis {

using host::Pid;

struct MemTag {
  static const char* prefix() { return "mem"; }
};
// Address-space-independent memory object name (the paper's moved links
// are exactly these names passed in messages).
using MemId = common::StrongId<MemTag>;

struct EventTag {
  static const char* prefix() { return "evt"; }
};
using EventId = common::StrongId<EventTag>;

struct DqTag {
  static const char* prefix() { return "dq"; }
};
using DqId = common::StrongId<DqTag>;

enum class Status : std::uint8_t {
  kOk,
  kNoSuchObject,
  kNotMapped,       // touching an object the process has not mapped
  kNotOwner,        // waiting on someone else's event block
  kBadOffset,       // out-of-range object access
  kQueueFull,       // dual queue data side over capacity
  kDeallocated,     // object reclaimed (refcount hit zero)
  kProcessDead,
};

[[nodiscard]] constexpr const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNoSuchObject: return "no-such-object";
    case Status::kNotMapped: return "not-mapped";
    case Status::kNotOwner: return "not-owner";
    case Status::kBadOffset: return "bad-offset";
    case Status::kQueueFull: return "queue-full";
    case Status::kDeallocated: return "deallocated";
    case Status::kProcessDead: return "process-dead";
  }
  return "?";
}

// Nominal MC68000/Chrysalis operation costs.  The split matches the
// paper's remarks: atomic 16-bit changes are "extremely inexpensive",
// atomic changes to larger quantities are "relatively costly", dual
// queue and event operations are microcoded, mapping an object into an
// address space is the heavyweight call.
struct Costs {
  sim::Duration primitive_call = sim::usec(25);   // dispatch into microcode
  sim::Duration atomic16 = sim::usec(4);
  sim::Duration word32 = sim::usec(18);           // non-microcoded 32-bit op
  sim::Duration event_post = sim::usec(45);
  sim::Duration event_wait = sim::usec(30);
  sim::Duration dq_enqueue = sim::usec(70);
  // Marginal cost of each datum after the first in a batched
  // enqueue (src/form/, DESIGN.md §14): the microcode holds the
  // queue and pays the dispatch/switch setup once, so extra data cost
  // little more than the word writes themselves.
  sim::Duration dq_enqueue_extra = sim::usec(8);
  sim::Duration dq_dequeue = sim::usec(70);
  // Marginal cost of each datum after the first in a batched
  // dequeue_many (the drain-side mirror of dq_enqueue_extra): one
  // dispatch services every ready notice.
  sim::Duration dq_dequeue_extra = sim::usec(8);
  sim::Duration make_object = sim::usec(600);
  sim::Duration map_object = sim::usec(450);
  sim::Duration unmap_object = sim::usec(250);
  sim::Duration make_event = sim::usec(120);
  sim::Duration make_queue = sim::usec(300);
};

}  // namespace chrysalis
