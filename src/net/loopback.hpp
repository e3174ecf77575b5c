// A perfect medium: fixed latency, no queueing, no loss.
//
// Used by unit tests that exercise kernel protocol logic without wanting
// a wire model in the way.
#pragma once

#include "common/id_map.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"

namespace net {

class Loopback final : public Medium {
 public:
  Loopback(sim::Engine& engine, sim::Duration latency)
      : engine_(&engine), latency_(latency) {}

  void attach(NodeId node, FrameHandler handler) override {
    RELYNX_ASSERT_MSG(!handlers_.contains(node), "node attached twice");
    handlers_.emplace(node, std::move(handler));
  }

  void send(Frame frame) override {
    stamp(frame);
    count_sent(*engine_, frame);
    auto it = handlers_.find(frame.dst);
    RELYNX_ASSERT_MSG(it != handlers_.end(), "send to unattached node");
    engine_->schedule(latency_,
                      [handler = &it->second, f = std::move(frame)]() mutable {
                        (*handler)(std::move(f));
                      });
  }

  void broadcast(Frame frame) override {
    stamp(frame);
    count_sent(*engine_, frame);
    for (auto& [node, handler] : handlers_) {
      if (node == frame.src) continue;
      engine_->schedule(latency_, [h = &handler, f = frame]() mutable {
        (*h)(std::move(f));
      });
    }
  }

 private:
  sim::Engine* engine_;
  sim::Duration latency_;
  common::IdMap<NodeId, FrameHandler> handlers_;
};

}  // namespace net
