// One buffer per message body.
//
// A LYNX message body is serialized once and then crosses the backend,
// the kernel, the medium and the receiving kernel and backend before
// deserialize reads it.  common::Body is how it makes that trip without
// being copied: an immutable byte buffer, shared by reference count and
// seen through a window [offset, offset + size).  Copying a Body shares
// the buffer; moving one hands it on.  Truncating a body or stripping a
// header off it changes only that holder's window, so no holder ever
// sees another's bytes change.
//
// A freshly made buffer is writable until it is first shared.  make()
// allocates it with spare headroom in front of the window, writable()
// fills the window, and prepend() grows the window back into the
// headroom — which is how a backend puts its packet header in front of
// a serialized body without moving the body.  Both assert that the
// buffer is unshared.
//
// The count is not atomic.  A body never leaves the universe that made
// it, and a universe runs on one thread (sweep:: hands whole universes
// to its workers), so no two threads ever touch one count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <utility>

#include "common/assert.hpp"

namespace common {

class Body {
 public:
  Body() noexcept = default;

  // A new buffer holding `n` copies of `value`.
  Body(std::size_t n, std::uint8_t value) : Body(make(n)) {
    if (n > 0) std::memset(writable(), value, n);
  }

  // A new buffer holding a copy of [first, last).
  template <std::forward_iterator It>
  Body(It first, It last)
      : Body(make(static_cast<std::size_t>(std::distance(first, last)))) {
    std::uint8_t* out = writable();
    if constexpr (std::contiguous_iterator<It> &&
                  sizeof(std::iter_value_t<It>) == 1) {
      if (len_ > 0) std::memcpy(out, std::to_address(first), len_);
    } else {
      for (; first != last; ++first) {
        *out++ = static_cast<std::uint8_t>(*first);
      }
    }
  }

  Body(std::initializer_list<std::uint8_t> bytes)
      : Body(bytes.begin(), bytes.end()) {}

  // A new, unshared buffer of `size` bytes (contents unspecified until
  // written through writable()) with `headroom` spare bytes in front.
  [[nodiscard]] static Body make(std::size_t size, std::size_t headroom = 0) {
    Body b;
    const std::size_t capacity = headroom + size;
    if (capacity == 0) return b;
    RELYNX_ASSERT_MSG(capacity <= UINT32_MAX, "body too large");
    b.block_ = static_cast<Block*>(::operator new(sizeof(Block) + capacity));
    b.block_->refs = 1;
    b.off_ = static_cast<std::uint32_t>(headroom);
    b.len_ = static_cast<std::uint32_t>(size);
    return b;
  }

  Body(const Body& other) noexcept
      : block_(other.block_), off_(other.off_), len_(other.len_) {
    if (block_ != nullptr) ++block_->refs;
  }
  Body(Body&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)),
        off_(std::exchange(other.off_, 0)),
        len_(std::exchange(other.len_, 0)) {}
  Body& operator=(const Body& other) noexcept {
    Body(other).swap(*this);
    return *this;
  }
  Body& operator=(Body&& other) noexcept {
    Body(std::move(other)).swap(*this);
    return *this;
  }
  ~Body() { release(); }

  void swap(Body& other) noexcept {
    std::swap(block_, other.block_);
    std::swap(off_, other.off_);
    std::swap(len_, other.len_);
  }

  [[nodiscard]] const std::uint8_t* data() const {
    return block_ == nullptr ? nullptr : bytes() + off_;
  }
  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] const std::uint8_t* begin() const { return data(); }
  [[nodiscard]] const std::uint8_t* end() const { return data() + len_; }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return data()[i];
  }
  [[nodiscard]] std::uint8_t front() const { return data()[0]; }
  [[nodiscard]] std::uint8_t back() const { return data()[len_ - 1]; }

  // True if no other Body shares this buffer.
  [[nodiscard]] bool unique() const {
    return block_ != nullptr && block_->refs == 1;
  }

  // ---- window changes (never touch the shared bytes) -----------------
  // Keeps at most the first `n` bytes.
  void truncate(std::size_t n) {
    if (n < len_) len_ = static_cast<std::uint32_t>(n);
  }
  // Drops the first `n` bytes (a header stripped by offset).
  void drop_front(std::size_t n) {
    RELYNX_ASSERT_MSG(n <= len_, "drop_front past the end of a body");
    off_ += static_cast<std::uint32_t>(n);
    len_ -= static_cast<std::uint32_t>(n);
  }
  // The bytes [offset, offset + n), sharing this buffer.
  [[nodiscard]] Body slice(std::size_t offset, std::size_t n) const& {
    return Body(*this).narrowed(offset, n);
  }
  [[nodiscard]] Body slice(std::size_t offset, std::size_t n) && {
    return std::move(*this).narrowed(offset, n);
  }

  // ---- writing an unshared buffer ------------------------------------
  [[nodiscard]] std::uint8_t* writable() {
    if (block_ == nullptr) return nullptr;
    RELYNX_ASSERT_MSG(block_->refs == 1, "writing a shared body");
    return bytes() + off_;
  }
  // Grows the window `n` bytes to the front, into the headroom make()
  // left, and returns the new front for the caller to fill.
  [[nodiscard]] std::uint8_t* prepend(std::size_t n) {
    RELYNX_ASSERT_MSG(n <= off_, "body has too little headroom");
    off_ -= static_cast<std::uint32_t>(n);
    len_ += static_cast<std::uint32_t>(n);
    return writable();
  }

  friend bool operator==(const Body& a, const Body& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
  }

 private:
  struct Block {
    std::uint32_t refs;
  };

  [[nodiscard]] std::uint8_t* bytes() const {
    return reinterpret_cast<std::uint8_t*>(block_) + sizeof(Block);
  }
  Body narrowed(std::size_t offset, std::size_t n) && {
    RELYNX_ASSERT_MSG(offset + n <= len_, "slice past the end of a body");
    off_ += static_cast<std::uint32_t>(offset);
    len_ = static_cast<std::uint32_t>(n);
    return std::move(*this);
  }
  void release() {
    if (block_ != nullptr && --block_->refs == 0) free_block(block_);
  }
  // Out of line so gcc's -Wuse-after-free, which cannot see the count,
  // does not take two holders' releases of one buffer for a use after
  // free.  Runs once per buffer.
  [[gnu::noinline]] static void free_block(Block* block) {
    ::operator delete(block);
  }

  Block* block_ = nullptr;
  std::uint32_t off_ = 0;  // headroom before the window
  std::uint32_t len_ = 0;
};

}  // namespace common
