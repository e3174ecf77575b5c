// Frames and the medium interface.
//
// The three kernels talk to each other through a Medium: the Crystal
// token ring for Charlotte, the SODA CSMA bus, and a perfect loopback
// for unit tests.  A Frame's body is a type-erased kernel-level message;
// payload_bytes is what the medium charges for (headers are the medium's
// own business).
#pragma once

#include <any>
#include <cstddef>
#include <functional>
#include <utility>

#include "common/assert.hpp"
#include "common/strong_id.hpp"
#include "sim/time.hpp"

namespace net {

struct NodeTag {
  static const char* prefix() { return "node"; }
};
using NodeId = common::StrongId<NodeTag, std::uint32_t>;

struct Frame {
  NodeId src;
  NodeId dst;  // ignored for broadcast
  std::size_t payload_bytes = 0;
  std::any body;
  // Medium-assigned, unique per medium instance (0 = not yet stamped).
  // Lets fault injection and drop observers name the exact frame lost.
  std::uint64_t id = 0;
  // Set by fault injection; a receiver-side checksum would reject the
  // frame, so impaired media discard marked frames at the boundary.
  bool corrupted = false;
  // Causal identity of the RPC this frame serves (trace::TraceId; 0 =
  // untraced).  Stamped by the sending kernel so trace sinks and fault
  // observers can follow one operation across nodes, retransmits
  // included.
  std::uint64_t trace_id = 0;

  template <typename T>
  [[nodiscard]] const T& as() const {
    const T* p = std::any_cast<T>(&body);
    RELYNX_ASSERT_MSG(p != nullptr, "frame body has unexpected type");
    return *p;
  }
  // Moves the body out; for the frame's owner, once it is done with it.
  template <typename T>
  [[nodiscard]] T take() {
    T* p = std::any_cast<T>(&body);
    RELYNX_ASSERT_MSG(p != nullptr, "frame body has unexpected type");
    return std::move(*p);
  }
};

// Delivery callback, invoked in simulated time at the receiving node.
// The handler owns the frame it is given: unicast media move a frame
// from send() to its handler, so the kernel can move the body on.
using FrameHandler = std::function<void(Frame)>;

class Medium {
 public:
  virtual ~Medium() = default;

  // Registers the receive handler for a node.  Must be called once per
  // node before any traffic involving it.
  virtual void attach(NodeId node, FrameHandler handler) = 0;

  // Queues a unicast frame.  Delivery obeys the medium's timing model.
  virtual void send(Frame frame) = 0;

  // Queues a broadcast; delivered to every attached node except the
  // sender.  Reliability is medium-specific (the CSMA bus may drop).
  virtual void broadcast(Frame frame) = 0;

  // Observability for experiments.
  [[nodiscard]] virtual std::uint64_t frames_sent() const = 0;
  [[nodiscard]] virtual std::uint64_t bytes_sent() const = 0;

 protected:
  // Gives every frame a medium-unique id on entry (idempotent: a
  // wrapping medium may have stamped it already).
  void stamp(Frame& frame) {
    if (frame.id == 0) frame.id = ++next_frame_id_;
  }

 private:
  std::uint64_t next_frame_id_ = 0;
};

}  // namespace net
