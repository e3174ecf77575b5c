// A medium for tests that watch the wire.  It forwards to an inner
// medium, stamps every frame on entry, drops the frames `drop` selects
// and logs the frames `log_filter` selects — the log's copies share the
// bodies and keep the frame ids, so re-injecting a logged frame puts a
// duplicate of the original on the wire: the "duplicate delayed by the
// network for an arbitrarily long time" that windowed dedup schemes
// cannot screen.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace test_support {

class SpyMedium final : public net::Medium {
 public:
  explicit SpyMedium(net::Medium& inner) : inner_(&inner) {}

  void attach(net::NodeId node, net::FrameHandler handler) override {
    inner_->attach(node, std::move(handler));
  }
  void send(net::Frame frame) override {
    stamp(frame);
    if (log_filter && log_filter(frame)) logged.push_back(frame);
    if (drop && drop(frame)) return;
    inner_->send(std::move(frame));
  }
  void broadcast(net::Frame frame) override {
    stamp(frame);
    inner_->broadcast(std::move(frame));
  }
  // Puts a frame on the inner wire, as if a peer had sent it.
  void inject(net::Frame frame) {
    stamp(frame);
    inner_->send(std::move(frame));
  }

  std::function<bool(const net::Frame&)> drop;
  std::function<bool(const net::Frame&)> log_filter;
  std::vector<net::Frame> logged;

 private:
  net::Medium* inner_;
};

}  // namespace test_support
