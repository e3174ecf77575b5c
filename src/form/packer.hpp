// RPC formation: the send-side Packer (ROADMAP item 5, DESIGN.md §14).
//
// One Packer per (engine, sending kernel); it sits between the kernel's
// transmit path and the medium.  Unicast frames are queued per
// destination node and flushed as a single form::Batch frame when one
// of three triggers fires, the same knob idiom as Charlotte's
// Costs::ack_coalesce_delay:
//
//   * byte budget — pending enclosures reach Params::max_bytes;
//   * deadline    — Params::delay elapsed since the queue went
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
#pragma once

#include <cstdint>
#include <vector>

#include "common/id_map.hpp"
#include "form/batch.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"

namespace form {

struct Params {
  // Formation window.  0 = off: frames pass straight through.
  sim::Duration delay = 0;
  // Flush as soon as the pending batch frame would reach this size.
  std::size_t max_bytes = 1024;
};

class Packer {
 public:
  Packer(sim::Engine& engine, net::Medium& medium, net::NodeId src,
         Params params);
  Packer(const Packer&) = delete;
  Packer& operator=(const Packer&) = delete;
  ~Packer();  // cancels deadline timers; never flushes into teardown

  [[nodiscard]] bool enabled() const { return params_.delay > 0; }
  [[nodiscard]] const Params& params() const { return params_; }

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

  // ---- instrumentation (E16) ----
  [[nodiscard]] std::uint64_t batches_sent() const { return batches_; }
  [[nodiscard]] std::uint64_t enclosures_batched() const { return enclosed_; }
  [[nodiscard]] std::uint64_t singles_sent() const { return singles_; }

 private:
  struct Queue {
    std::vector<net::Frame> pending;
    std::size_t bytes = 0;  // sum of wrapped_bytes(pending)
    sim::TimerHandle deadline;
  };

  void do_flush(net::NodeId dst, Queue& q);

  sim::Engine* engine_;
  net::Medium* medium_;
  net::NodeId src_;
  Params params_;
  common::IdMap<net::NodeId, Queue> queues_;
  std::uint64_t batches_ = 0;
  std::uint64_t enclosed_ = 0;
  std::uint64_t singles_ = 0;
};

}  // namespace form
