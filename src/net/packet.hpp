// Frames and the medium interface.
//
// The three kernels talk to each other through a Medium: the Crystal
// token ring for Charlotte, the SODA CSMA bus, and a perfect loopback
// for unit tests.  A Frame's body is a type-erased kernel-level message;
// payload_bytes is what the medium charges for (headers are the medium's
// own business).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "common/strong_id.hpp"
#include "sim/block_pool.hpp"
#include "sim/engine.hpp"
#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace net {

struct NodeTag {
  static const char* prefix() { return "node"; }
};
using NodeId = common::StrongId<NodeTag, std::uint32_t>;

// A frame's body: one value of any copyable type, held in a block from a
// thread-local pool of its own (DESIGN.md §18).  The handle is two
// words: the block, and a tag that is the address of the stored type's
// ops table, so a type test is one pointer compare.  Copying a body
// clones the value (a common::Body inside it still shares its buffer);
// take() moves the value out and returns the block at once.
class FrameBody {
 public:
  FrameBody() noexcept = default;

  template <typename T, typename V = std::decay_t<T>,
            typename = std::enable_if_t<!std::is_same_v<V, FrameBody>>>
  FrameBody(T&& value)  // NOLINT(google-explicit-constructor): Frame{..., v}
      : ops_(&kOps<V>), block_(make<V>(std::forward<T>(value))) {}

  FrameBody(const FrameBody& other)
      : ops_(other.ops_),
        block_(ops_ != nullptr ? ops_->clone(other.block_) : nullptr) {}
  FrameBody(FrameBody&& other) noexcept
      : ops_(std::exchange(other.ops_, nullptr)),
        block_(std::exchange(other.block_, nullptr)) {}
  FrameBody& operator=(FrameBody other) noexcept {
    std::swap(ops_, other.ops_);
    std::swap(block_, other.block_);
    return *this;
  }
  ~FrameBody() { reset(); }

  template <typename T>
  [[nodiscard]] bool holds() const noexcept {
    return ops_ == &kOps<T>;
  }

  template <typename T>
  [[nodiscard]] T& as() {
    RELYNX_ASSERT_MSG(holds<T>(), "frame body has unexpected type");
    return *std::launder(static_cast<T*>(block_));
  }
  template <typename T>
  [[nodiscard]] const T& as() const {
    RELYNX_ASSERT_MSG(holds<T>(), "frame body has unexpected type");
    return *std::launder(static_cast<const T*>(block_));
  }

  // Moves the value out and leaves the body empty.
  template <typename T>
  [[nodiscard]] T take() {
    T out(std::move(as<T>()));
    reset();
    return out;
  }

 private:
  struct PoolTag;
  using Pool = sim::BlockPool<PoolTag>;

  struct Ops {
    void* (*clone)(const void*);
    void (*destroy)(void*) noexcept;
  };

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(block_);
      ops_ = nullptr;
      block_ = nullptr;
    }
  }

  template <typename V, typename... Args>
  static void* make(Args&&... args) {
    static_assert(alignof(V) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "pool blocks carry operator new's default alignment");
    void* block = Pool::allocate(sizeof(V));
    try {
      ::new (block) V(std::forward<Args>(args)...);
    } catch (...) {
      Pool::release(block, sizeof(V));
      throw;
    }
    return block;
  }

  template <typename V>
  static constexpr Ops kOps{
      [](const void* src) -> void* {
        return make<V>(*std::launder(static_cast<const V*>(src)));
      },
      [](void* block) noexcept {
        std::launder(static_cast<V*>(block))->~V();
        Pool::release(block, sizeof(V));
      },
  };

  const Ops* ops_ = nullptr;
  void* block_ = nullptr;
};

struct Frame {
  NodeId src;
  NodeId dst;  // ignored for broadcast
  std::size_t payload_bytes = 0;
  FrameBody body;
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
  [[nodiscard]] bool holds() const noexcept {
    return body.holds<T>();
  }
  template <typename T>
  [[nodiscard]] T& as() {
    return body.as<T>();
  }
  template <typename T>
  [[nodiscard]] const T& as() const {
    return body.as<T>();
  }
  // Moves the body out; for the frame's owner, once it is done with it.
  template <typename T>
  [[nodiscard]] T take() {
    return body.take<T>();
  }
};

// Media and kernels schedule a frame's delivery as a [this, frame]
// closure; it must stay inside EventFn's inline buffer, or every frame
// hop would spill to the heap (DESIGN.md §18).
static_assert(sizeof(void*) + sizeof(Frame) <= sim::EventFn::kInlineSize &&
                  std::is_nothrow_move_constructible_v<Frame>,
              "a [this, net::Frame] closure must fit EventFn's inline buffer");

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

 protected:
  // Gives every frame a medium-unique id on entry (idempotent: a
  // wrapping medium may have stamped it already).
  void stamp(Frame& frame) {
    if (frame.id == 0) frame.id = ++next_frame_id_;
  }
  // Counts a frame put on the wire, and its bytes, at its sender.
  static void count_sent(sim::Engine& engine, const Frame& frame) {
    sim::Counts& c = engine.counts(frame.src.value());
    ++c.frames_sent;
    c.bytes_sent += frame.payload_bytes;
  }

 private:
  std::uint64_t next_frame_id_ = 0;
};

}  // namespace net
