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
  try_transmit(std::move(frame), /*is_broadcast=*/false, /*attempt=*/0);
}

void CsmaBus::broadcast(Frame frame) {
  frame.dst = NodeId::invalid();
  stamp(frame);
  try_transmit(std::move(frame), /*is_broadcast=*/true, /*attempt=*/0);
}

void CsmaBus::record_drop(const Frame& frame, NodeId receiver) {
  ++drops_;
  ++drops_at_[receiver];
  if (on_drop_) on_drop_(frame, receiver);
}

sim::Duration CsmaBus::backoff_delay(int attempt) {
  const int exponent = std::min(attempt, params_.max_backoff_exponent);
  const std::uint64_t window = 1ULL << exponent;
  return params_.slot_time *
         static_cast<sim::Duration>(1 + rng_.next_below(window));
}

void CsmaBus::try_transmit(Frame frame, bool is_broadcast, int attempt) {
  if (busy_) {
    ++backoffs_;
    engine_->schedule(
        backoff_delay(attempt),
        [this, f = std::move(frame), is_broadcast, attempt]() mutable {
          try_transmit(std::move(f), is_broadcast, attempt + 1);
        });
    return;
  }
  busy_ = true;
  ++frames_;
  bytes_ += frame.payload_bytes;
  const sim::Duration service = clock_out_time(frame.payload_bytes);
  engine_->schedule(service,
                    [this, f = std::move(frame), is_broadcast]() mutable {
                      busy_ = false;
                      deliver(std::move(f), is_broadcast);
                    });
}

void CsmaBus::deliver(Frame frame, bool is_broadcast) {
  if (!is_broadcast) {
    if (params_.unicast_drop_prob > 0.0 &&
        rng_.next_bool(params_.unicast_drop_prob)) {
      record_drop(frame, frame.dst);
      return;
    }
    auto it = handlers_.find(frame.dst);
    RELYNX_ASSERT(it != handlers_.end());
    // Unicast: the frame moves end-to-end, into the handler; only
    // broadcast fan-out below copies it (sharing any message body).
    engine_->schedule(params_.propagation,
                      [h = &it->second, f = std::move(frame)]() mutable {
                        (*h)(std::move(f));
                      });
    return;
  }
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
