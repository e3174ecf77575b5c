// The Crystal interconnect: a Proteon 10 Mbit/s token ring.
//
// Model: the ring is a single shared channel.  A node that wants to
// transmit waits for the token (modelled as a mean acquisition latency
// plus FIFO queueing behind other transmitters), clocks the frame out at
// the ring's bit rate with per-frame protocol overhead, and the frame
// arrives after a short propagation delay.  This reproduces what matters
// for the Charlotte experiments: serialized access, per-frame cost, and
// a wire fast enough (10 Mb/s) that kernel software, not the ring,
// dominates latency — exactly the regime of the paper's §3.3.
#pragma once

#include "common/id_map.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "sim/fifo.hpp"

namespace net {

struct TokenRingParams {
  std::int64_t bits_per_second = 10'000'000;  // Proteon ProNET-10
  std::size_t header_bytes = 32;              // ring + Charlotte framing
  sim::Duration token_acquisition = sim::usec(150);  // mean token wait
  sim::Duration frame_overhead = sim::usec(50);      // interface turnaround
  sim::Duration propagation = sim::usec(10);
};

class TokenRing final : public Medium {
 public:
  TokenRing(sim::Engine& engine, TokenRingParams params = {})
      : engine_(&engine), params_(params) {}

  void attach(NodeId node, FrameHandler handler) override;
  void send(Frame frame) override;
  void broadcast(Frame frame) override;

  // Service time for one frame (token wait + clocking + overhead); used
  // by the calibration tests.
  [[nodiscard]] sim::Duration service_time(std::size_t payload_bytes) const {
    const auto bits = static_cast<std::int64_t>(
        8 * (payload_bytes + params_.header_bytes));
    return params_.token_acquisition + params_.frame_overhead +
           sim::transmission_time(bits, params_.bits_per_second);
  }

 private:
  void start_next();
  void deliver(Frame frame);

  sim::Engine* engine_;
  TokenRingParams params_;
  common::IdMap<NodeId, FrameHandler> handlers_;
  sim::Fifo<Frame> backlog_;
  bool busy_ = false;
};

}  // namespace net
