#include "net/token_ring.hpp"

namespace net {

void TokenRing::attach(NodeId node, FrameHandler handler) {
  RELYNX_ASSERT_MSG(!handlers_.contains(node), "node attached twice");
  handlers_.emplace(node, std::move(handler));
}

void TokenRing::send(Frame frame) {
  RELYNX_ASSERT_MSG(handlers_.contains(frame.dst), "send to unattached node");
  stamp(frame);
  backlog_.push_back(std::move(frame));
  if (!busy_) start_next();
}

void TokenRing::broadcast(Frame frame) {
  // The ring delivers a broadcast frame to every station in one rotation;
  // model as one transmission fanned out at completion.
  frame.dst = NodeId::invalid();
  stamp(frame);
  backlog_.push_back(std::move(frame));
  if (!busy_) start_next();
}

void TokenRing::start_next() {
  if (backlog_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Frame frame = std::move(backlog_.front());
  backlog_.pop_front();
  count_sent(*engine_, frame);
  const sim::Duration service = service_time(frame.payload_bytes);
  engine_->schedule(service, [this, f = std::move(frame)]() mutable {
    deliver(std::move(f));
    start_next();
  });
}

void TokenRing::deliver(Frame frame) {
  if (frame.dst.valid()) {
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
    engine_->schedule(params_.propagation, [h = &handler, f = frame]() mutable {
      (*h)(std::move(f));
    });
  }
}

}  // namespace net
