// A FIFO queue that owns no heap memory until its first push.
//
// std::deque allocates a 64-byte map and a 512-byte chunk as soon as it
// is constructed.  The simulator keeps thousands of queues — one per
// wait list, mailbox and LYNX link end — and most stay empty or hold a
// few entries at a time.  Fifo<T> is a ring over raw storage: capacity
// grows by doubling from four on demand, pop_front destroys the element
// at once (as deque does), and the storage is kept for reuse until the
// queue dies.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace sim {

template <typename T>
class Fifo {
 public:
  Fifo() = default;
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;
  Fifo(Fifo&& other) noexcept
      : buf_(std::exchange(other.buf_, nullptr)),
        cap_(std::exchange(other.cap_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Fifo& operator=(Fifo&&) = delete;
  ~Fifo() {
    clear();
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }

  void push_back(T value) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(buf_ + ((head_ + size_) & (cap_ - 1))))
        T(std::move(value));
    ++size_;
  }

  void pop_front() {
    buf_[head_].~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  void clear() {
    while (size_ != 0) pop_front();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kFirstCapacity = 4;

  void grow() {
    const std::size_t cap = cap_ == 0 ? kFirstCapacity : cap_ * 2;
    T* buf = std::allocator<T>{}.allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = buf_[(head_ + i) & (cap_ - 1)];
      ::new (static_cast<void*>(buf + i)) T(std::move(old));
      old.~T();
    }
    if (buf_ != nullptr) std::allocator<T>{}.deallocate(buf_, cap_);
    buf_ = buf;
    cap_ = cap;
    head_ = 0;
  }

  T* buf_ = nullptr;
  std::size_t cap_ = 0;  // zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sim
