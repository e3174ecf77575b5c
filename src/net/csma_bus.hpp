// The SODA interconnect: a 1 Mbit/s CSMA broadcast bus.
//
// Model: carrier-sense with binary exponential backoff.  A node that
// finds the bus busy defers and retries after a random number of slot
// times (doubling window per attempt).  Broadcasts are physically
// natural on a bus; they are *unreliable*: each receiver independently
// drops with `broadcast_drop_prob` (the paper leans on exactly this —
// SODA's `discover` uses unreliable broadcast, and the LYNX mapping
// needs heuristics plus a fallback for when it fails).  Unicast frames
// are reliable by default; `unicast_drop_prob` exists for failure
// injection.
//
// The slow wire is the point of experiment E5: at 1 Mb/s, a kilobyte
// costs ~8 ms to clock out, which is what pushes the SODA/Charlotte
// crossover into the 1–2 KB range of the paper's footnote 2.
#pragma once

#include <deque>

#include "common/id_map.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace net {

struct CsmaBusParams {
  std::int64_t bits_per_second = 1'000'000;
  std::size_t header_bytes = 16;  // SODA kept framing minimal
  sim::Duration slot_time = sim::usec(100);
  sim::Duration propagation = sim::usec(10);
  sim::Duration frame_overhead = sim::usec(30);
  int max_backoff_exponent = 6;
  double broadcast_drop_prob = 0.05;
  double unicast_drop_prob = 0.0;
};

class CsmaBus final : public Medium {
 public:
  CsmaBus(sim::Engine& engine, sim::Rng rng, CsmaBusParams params = {})
      : engine_(&engine), rng_(rng), params_(params) {}

  void attach(NodeId node, FrameHandler handler) override;
  void send(Frame frame) override;
  void broadcast(Frame frame) override;

  [[nodiscard]] std::uint64_t frames_sent() const override { return frames_; }
  [[nodiscard]] std::uint64_t bytes_sent() const override { return bytes_; }
  [[nodiscard]] std::uint64_t backoffs() const { return backoffs_; }
  [[nodiscard]] std::uint64_t drops() const { return drops_; }

  // Loss observability: the global counter says only *that* frames were
  // lost; callers (fault::InvariantChecker, loss-sensitive protocols)
  // need to know *which* frame missed *which* receiver.
  using DropObserver = std::function<void(const Frame&, NodeId receiver)>;
  void set_drop_observer(DropObserver obs) { on_drop_ = std::move(obs); }
  // Frames dropped on the way to `node` specifically.
  [[nodiscard]] std::uint64_t drops_at(NodeId node) const {
    auto it = drops_at_.find(node);
    return it == drops_at_.end() ? 0 : it->second;
  }

  [[nodiscard]] sim::Duration clock_out_time(std::size_t payload_bytes) const {
    const auto bits = static_cast<std::int64_t>(
        8 * (payload_bytes + params_.header_bytes));
    return params_.frame_overhead +
           sim::transmission_time(bits, params_.bits_per_second);
  }

 private:
  void try_transmit(Frame frame, bool is_broadcast, int attempt);
  void deliver(Frame frame, bool is_broadcast);
  void record_drop(const Frame& frame, NodeId receiver);
  [[nodiscard]] sim::Duration backoff_delay(int attempt);

  sim::Engine* engine_;
  sim::Rng rng_;
  CsmaBusParams params_;
  common::IdMap<NodeId, FrameHandler> handlers_;
  DropObserver on_drop_;
  bool busy_ = false;
  std::uint64_t frames_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t backoffs_ = 0;
  std::uint64_t drops_ = 0;
  common::IdMap<NodeId, std::uint64_t> drops_at_;
};

}  // namespace net
