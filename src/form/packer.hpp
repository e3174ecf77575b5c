// RPC formation: the Packer (DESIGN.md §14).
//
// One Packer per (engine, kernel); it sits between the kernel and the
// medium, and is the only code that knows the form::Batch format.
//
// Send side.  Unicast frames are queued per
// destination node and flushed as a single form::Batch frame when one
// of three triggers fires, the same knob idiom as Charlotte's
// Costs::ack_coalesce_delay:
//
//   * byte budget — pending enclosures reach kMaxBatchBytes;
//   * deadline    — the formation delay elapsed since the queue went
//                   non-empty (so a lone message is never held longer
//                   than the formation window);
//   * flush hint  — the kernel flushes explicitly (e.g. before a
//                   broadcast, which must not overtake queued unicasts
//                   on the same per-link FIFO order).
//
// delay == 0 disables formation entirely: submit() passes frames
// straight to the medium, byte-identically to the frame-per-message
// wire, which keeps the 100-seed determinism digests and every existing
// baseline untouched at the default setting.
//
// A flush holding exactly one frame sends it UNWRAPPED — sparse traffic
// pays the formation delay but never the batch framing bytes, and the
// wire stays identical to today's except for timing.
//
// Receive side.  receive() absorbs whatever the medium delivers: a lone
// frame pays one absorption; a batch pays one absorption for the whole
// frame plus a cheap length-prefixed demultiplex per enclosure.  Every
// kernel frame is then dispatched in submission order within a single
// event, so per-link FIFO is exactly what it would have been
// frame-per-message, minus the per-frame overheads.
#pragma once

#include <cstdint>
#include <vector>

#include "common/id_map.hpp"
#include "form/batch.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"

namespace form {

class Packer {
 public:
  // `delay` is the formation window.  0 = off: frames pass straight
  // through.
  Packer(sim::Engine& engine, net::Medium& medium, net::NodeId node,
         sim::Duration delay);
  Packer(const Packer&) = delete;
  Packer& operator=(const Packer&) = delete;
  ~Packer();  // cancels deadline timers; never flushes into teardown

  [[nodiscard]] bool enabled() const { return delay_ > 0; }

  // Unicast: queue behind the formation trigger (or pass through when
  // formation is off).  Takes over the frame's FIFO position: frames to
  // one destination leave the medium in submission order.
  void submit(net::Frame frame);

  // Broadcast: flushes every queue first (a broadcast reaches all
  // destinations, so letting it overtake any queued unicast would
  // reorder that link), then broadcasts unbatched.
  void submit_broadcast(net::Frame frame);

  // Flush hints.
  void flush(net::NodeId dst);
  void flush_all();

  // Absorbs a frame delivered to this node.  After `absorb` plus
  // copy_cost(frame) — or, for a batch, `absorb` plus `demux` +
  // copy_cost(enclosure) per enclosure — hands each kernel frame to
  // `dispatch(net::Frame&)` in one event.  Records frame.rx (a batch:
  // batch.rx, then frame.rx per enclosure) at arrival.
  template <typename CopyCost, typename Dispatch>
  void receive(net::Frame frame, sim::Duration absorb, sim::Duration demux,
               CopyCost copy_cost, Dispatch dispatch);

 private:
  struct Queue {
    std::vector<net::Frame> pending;
    std::size_t bytes = 0;  // sum of wrapped_bytes(pending)
    sim::TimerHandle deadline;
  };

  void do_flush(net::NodeId dst, Queue& q);
  void record_rx(const net::Frame& frame) const;

  sim::Engine* engine_;
  net::Medium* medium_;
  net::NodeId node_;
  sim::Counts& counts_;
  sim::Duration delay_;
  common::IdMap<net::NodeId, Queue> queues_;
};

template <typename CopyCost, typename Dispatch>
void Packer::receive(net::Frame frame, sim::Duration absorb,
                     sim::Duration demux, CopyCost copy_cost,
                     Dispatch dispatch) {
  // The event carries `dispatch` and the frame, not a kernel's wire
  // variant, so it stays inside EventFn's inline buffer (DESIGN.md §18).
  static_assert(sizeof(Dispatch) <= sizeof(void*));
  sim::Duration cost = absorb;
  if (frame.holds<Batch>()) {
    for (const net::Frame& sub : frame.as<Batch>().frames) {
      cost += demux + copy_cost(sub);
    }
  } else {
    cost += copy_cost(frame);
  }
  record_rx(frame);
  engine_->schedule(cost, [dispatch, f = std::move(frame)]() mutable {
    if (!f.holds<Batch>()) {
      dispatch(f);
      return;
    }
    for (net::Frame& sub : f.as<Batch>().frames) dispatch(sub);
  });
}

}  // namespace form
