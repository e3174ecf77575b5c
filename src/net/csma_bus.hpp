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
//
// Event model (DESIGN.md §17).  Every frame handed to send()/broadcast()
// gets an entry number, and its backoff draws are a pure function of
// (bus seed, entry, attempt): a FaultyMedium duplicate, which reuses the
// frame id, is a new entry with its own chain.  The bus is busy until
// `busy_until_`, a time, so every retry that would fire before it is
// sure to find the bus busy; a deferring frame therefore draws its
// chain up to the first retry at or after busy_until_ and schedules
// only that one — one event per frame per busy period, with
// sim::Counts::backoffs still counting every draw.  A unicast frame
// arrives in one event, at end of transmission plus propagation; a
// broadcast keeps an end-of-transmission event that fans out one
// delivery event per receiver, so permuted schedules still interleave
// the receivers.
#pragma once

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
  // `rng` seeds the backoff draws and drives the drop draws.
  CsmaBus(sim::Engine& engine, sim::Rng rng, CsmaBusParams params = {})
      : engine_(&engine),
        rng_(rng),
        backoff_seed_(rng_.next_u64()),
        params_(params) {}

  void attach(NodeId node, FrameHandler handler) override;
  void send(Frame frame) override;
  void broadcast(Frame frame) override;

  // Loss observability: sim::Counts::bus_drops says only *that* frames
  // were lost at a node; callers (fault::InvariantChecker, loss-sensitive
  // protocols) need to know *which* frame missed *which* receiver.
  using DropObserver = std::function<void(const Frame&, NodeId receiver)>;
  void set_drop_observer(DropObserver obs) { on_drop_ = std::move(obs); }

  // The backoff before retry `attempt` (0, 1, ...) of the frame that
  // entered the bus as entry `entry` (1, 2, ... in send/broadcast
  // order): a pure function of (bus seed, entry, attempt).
  [[nodiscard]] sim::Duration backoff_delay(std::uint64_t entry,
                                            int attempt) const;

  [[nodiscard]] sim::Duration clock_out_time(std::size_t payload_bytes) const {
    const auto bits = static_cast<std::int64_t>(
        8 * (payload_bytes + params_.header_bytes));
    return params_.frame_overhead +
           sim::transmission_time(bits, params_.bits_per_second);
  }

 private:
  // A broadcast frame is one whose dst is invalid.
  void try_transmit(Frame frame, std::uint64_t entry, int attempt);
  void deliver(Frame frame);
  void fan_out(const Frame& frame);
  void record_drop(const Frame& frame, NodeId receiver);

  sim::Engine* engine_;
  sim::Rng rng_;  // drop draws, in event order
  std::uint64_t backoff_seed_;
  CsmaBusParams params_;
  common::IdMap<NodeId, FrameHandler> handlers_;
  DropObserver on_drop_;
  sim::Time busy_until_ = 0;  // the bus is busy while now < busy_until_
  std::uint64_t entries_ = 0;
};

}  // namespace net
