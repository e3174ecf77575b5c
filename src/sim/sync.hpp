// Coroutine synchronization for simulated processes.
//
// All wakeups are routed through the engine's event queue (never resumed
// inline), so the interleaving of simulated processes is governed purely
// by (time, sequence) order — the property the protocol tests depend on.
//
//   WaitList  — FIFO parking lot; building block for everything else
//   Gate      — one-shot broadcast ("the server is up")
//   OneShot<T>— single-producer single-consumer completion with a value
//               (a kernel call in flight)
//   Mailbox<T>— unbounded FIFO channel, many producers / many consumers
#pragma once

#include <coroutine>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"
#include "sim/task.hpp"

namespace sim {

class WaitList {
 public:
  explicit WaitList(Engine& engine) : engine_(&engine) {}
  WaitList(const WaitList&) = delete;
  WaitList& operator=(const WaitList&) = delete;

  // Awaitable: always parks the caller; a later wake_one/wake_all
  // schedules resumption through the event queue.
  [[nodiscard]] auto wait() {
    struct Awaiter {
      WaitList* list;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        list->parked_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void wake_one() {
    if (parked_.empty()) return;
    auto h = parked_.front();
    parked_.pop_front();
    engine_->schedule(0, [h] { h.resume(); });
  }

  void wake_all() {
    while (!parked_.empty()) wake_one();
  }

  [[nodiscard]] std::size_t waiting() const { return parked_.size(); }

 private:
  Engine* engine_;
  Fifo<std::coroutine_handle<>> parked_;
};

class Gate {
 public:
  explicit Gate(Engine& engine) : waiters_(engine) {}

  void open() {
    open_ = true;
    waiters_.wake_all();
  }

  [[nodiscard]] bool is_open() const { return open_; }

  [[nodiscard]] Task<> wait() {
    while (!open_) co_await waiters_.wait();
  }

 private:
  bool open_ = false;
  WaitList waiters_;
};

template <typename T>
class OneShot {
 public:
  explicit OneShot(Engine& engine) : waiter_(engine) {}

  void fulfill(T value) {
    RELYNX_ASSERT_MSG(!value_.has_value(), "OneShot fulfilled twice");
    value_.emplace(std::move(value));
    waiter_.wake_one();
  }

  [[nodiscard]] bool fulfilled() const { return value_.has_value(); }

  // At most one consumer, exactly one take.
  [[nodiscard]] Task<T> take() {
    while (!value_.has_value()) {
      RELYNX_ASSERT_MSG(waiter_.waiting() == 0,
                        "OneShot has more than one consumer");
      co_await waiter_.wait();
    }
    T out = std::move(*value_);
    value_.reset();
    co_return out;
  }

 private:
  std::optional<T> value_;
  WaitList waiter_;
};

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : waiters_(engine) {}

  void put(T value) {
    items_.push_back(std::move(value));
    waiters_.wake_one();
  }

  [[nodiscard]] Task<T> get() {
    while (items_.empty()) co_await waiters_.wait();
    T out = std::move(items_.front());
    items_.pop_front();
    co_return out;
  }

  [[nodiscard]] bool try_get(T& out) {
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }

 private:
  Fifo<T> items_;
  WaitList waiters_;
};

}  // namespace sim
