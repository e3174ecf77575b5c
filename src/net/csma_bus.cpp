#include "net/csma_bus.hpp"

#include <algorithm>

namespace net {

void CsmaBus::attach(NodeId node, FrameHandler handler) {
  RELYNX_ASSERT_MSG(!handlers_.contains(node), "node attached twice");
  handlers_.emplace(node, std::move(handler));
}

void CsmaBus::send(Frame frame) {
  RELYNX_ASSERT_MSG(handlers_.contains(frame.dst), "send to unattached node");
  stamp(frame);
  try_transmit(std::move(frame), ++entries_, /*attempt=*/0);
}

void CsmaBus::broadcast(Frame frame) {
  frame.dst = NodeId::invalid();
  stamp(frame);
  try_transmit(std::move(frame), ++entries_, /*attempt=*/0);
}

void CsmaBus::record_drop(const Frame& frame, NodeId receiver) {
  ++engine_->counts(receiver.value()).bus_drops;
  if (on_drop_) on_drop_(frame, receiver);
}

sim::Duration CsmaBus::backoff_delay(std::uint64_t entry, int attempt) const {
  const int exponent = std::min(attempt, params_.max_backoff_exponent);
  const std::uint64_t window = 1ULL << exponent;
  const std::uint64_t draw = sim::splitmix64(
      sim::splitmix64(backoff_seed_ + entry) +
      static_cast<std::uint64_t>(attempt));
  // Uniform in [0, window), as sim::Rng::next_below maps it.
  const auto slot = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(draw) * window) >> 64);
  return params_.slot_time * static_cast<sim::Duration>(1 + slot);
}

void CsmaBus::try_transmit(Frame frame, std::uint64_t entry, int attempt) {
  const sim::Time now = engine_->now();
  if (now < busy_until_) {
    // Nothing can start transmitting before busy_until_, so every retry
    // drawn short of it would find the bus busy and draw again: draw
    // them all now and schedule only the first retry at or after it.
    sim::Time retry = now;
    do {
      ++engine_->counts(frame.src.value()).backoffs;
      retry += backoff_delay(entry, attempt++);
    } while (retry < busy_until_);
    engine_->schedule_at(
        retry, [this, f = std::move(frame), entry, attempt]() mutable {
          try_transmit(std::move(f), entry, attempt);
        });
    return;
  }
  const sim::Duration service = clock_out_time(frame.payload_bytes);
  busy_until_ = now + service;
  count_sent(*engine_, frame);
  if (frame.dst.valid()) {
    // Unicast: the frame moves end-to-end, into the handler, in one
    // event at end of transmission plus propagation.
    engine_->schedule(service + params_.propagation,
                      [this, f = std::move(frame)]() mutable {
                        deliver(std::move(f));
                      });
    return;
  }
  engine_->schedule(service,
                    [this, f = std::move(frame)] { fan_out(f); });
}

void CsmaBus::deliver(Frame frame) {
  if (params_.unicast_drop_prob > 0.0 &&
      rng_.next_bool(params_.unicast_drop_prob)) {
    record_drop(frame, frame.dst);
    return;
  }
  auto it = handlers_.find(frame.dst);
  RELYNX_ASSERT(it != handlers_.end());
  it->second(std::move(frame));
}

void CsmaBus::fan_out(const Frame& frame) {
  // Each receiver gets its own copy (sharing any message body) and its
  // own delivery event.
  for (auto& [node, handler] : handlers_) {
    if (node == frame.src) continue;
    if (params_.broadcast_drop_prob > 0.0 &&
        rng_.next_bool(params_.broadcast_drop_prob)) {
      record_drop(frame, node);
      continue;
    }
    engine_->schedule(params_.propagation, [h = &handler, f = frame]() mutable {
      (*h)(std::move(f));
    });
  }
}

}  // namespace net
