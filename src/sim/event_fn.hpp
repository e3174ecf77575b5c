// EventFn: the engine's event callback.
//
// A move-only type-erased callable sized for the discrete-event hot
// path.  std::function was measured to heap-allocate for nearly every
// event the media and kernels schedule (its small-buffer is 16 bytes;
// a frame-delivery closure — FrameHandler* plus a moved net::Frame —
// is 64), so each simulated event paid an allocator round trip before
// any work happened.  EventFn gives those closures 64 bytes of inline
// storage, and routes the rare oversized capture through a
// thread-local size-class freelist (sim::BlockPool) so even the spill
// path stops touching the global allocator in steady state.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/block_pool.hpp"

namespace sim {
namespace detail {

// Coroutine frames and oversized event closures share one pool; frame
// bodies have their own (src/net/packet.hpp).
struct CallableTag;
using CallablePool = BlockPool<CallableTag>;

}  // namespace detail

class EventFn {
 public:
  // Sized so a frame-delivery closure (handler pointer + net::Frame)
  // stays inline; see the header comment.  Alignment is capped at
  // pointer grain to keep the engine's event records compact — the
  // rare over-aligned capture takes the heap path.
  static constexpr std::size_t kInlineSize = 64;
  static constexpr std::size_t kInlineAlign = alignof(void*);

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callable wrapper
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      void* block = detail::CallablePool::allocate(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(f));
      *reinterpret_cast<void**>(buf_) = block;
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-construct into dst from src's storage, then destroy src's
    // residue.  Lets containers of EventFn relocate without knowing
    // the erased type.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static Fn* as(void* buf) noexcept {
    return std::launder(reinterpret_cast<Fn*>(buf));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* buf) { (*as<Fn>(buf))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*as<Fn>(src)));
        as<Fn>(src)->~Fn();
      },
      [](void* buf) noexcept { as<Fn>(buf)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* buf) { (**reinterpret_cast<Fn**>(buf))(); },
      [](void* dst, void* src) noexcept {
        *reinterpret_cast<void**>(dst) = *reinterpret_cast<void**>(src);
      },
      [](void* buf) noexcept {
        Fn* p = *reinterpret_cast<Fn**>(buf);
        p->~Fn();
        detail::CallablePool::release(p, sizeof(Fn));
      },
  };

  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace sim
