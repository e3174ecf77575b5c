// A fault-injecting decorator around any net::Medium.
//
// FaultyMedium sits between the kernels and the real wire model:
// kernels attach to and send through the wrapper; the wrapper forwards
// to the inner medium and intercepts deliveries.  With an empty Plan
// and a zero BackgroundModel it is timing-transparent — every frame
// reaches its handler at exactly the instant the inner medium would
// have delivered it — so wrapping is safe by default and faults are
// strictly opt-in.
//
// Fault sites:
//   send side      crash of the source, loss windows, background
//                  drop / duplicate / corrupt-marking
//   delivery side  crash of the receiver, cut links, partitions,
//                  corrupt discard (the modelled checksum), jitter
//                  (which also reorders, since later frames can draw
//                  smaller delays)
//
// Node crash/restart additionally fans out to registered observers so
// the owning kernel can react (Charlotte turns a crash into absolute
// link-failure notices; SODA's hints just go stale until timeouts bite).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "fault/plan.hpp"
#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace fault {

class FaultyMedium final : public net::Medium {
 public:
  // Arms `plan` against `engine` immediately: every action is scheduled
  // at its absolute time.  `seed` drives all stochastic faults.
  FaultyMedium(sim::Engine& engine, net::Medium& inner, std::uint64_t seed,
               Plan plan = {});

  // -- net::Medium ----------------------------------------------------
  void attach(net::NodeId node, net::FrameHandler handler) override;
  void send(net::Frame frame) override;
  void broadcast(net::Frame frame) override;

  // Replaces the stochastic background model mid-run.  Benches use this
  // to boot a world over a clean wire and then turn on impairment for
  // just the measured region.
  void set_background(const BackgroundModel& model) {
    plan_.background(model);
  }

  // -- manual fault controls (the Plan calls these on schedule) --------
  void cut_link(net::NodeId a, net::NodeId b);
  void heal_link(net::NodeId a, net::NodeId b);
  void partition(std::vector<net::NodeId> island);
  void heal_all();
  void crash(net::NodeId node);
  void restart(net::NodeId node);

  [[nodiscard]] bool crashed(net::NodeId node) const {
    return crashed_.contains(node);
  }
  // True if a cut or a partition currently separates a and b.
  [[nodiscard]] bool link_cut(net::NodeId a, net::NodeId b) const;

  // -- observers (multicast) ------------------------------------------
  using FaultObserver = std::function<void(const FaultRecord&)>;
  using DeliveryObserver =
      std::function<void(const net::Frame&, net::NodeId receiver)>;
  using NodeObserver = std::function<void(net::NodeId)>;
  void observe_faults(FaultObserver obs) {
    fault_observers_.push_back(std::move(obs));
  }
  void observe_delivery(DeliveryObserver obs) {
    delivery_observers_.push_back(std::move(obs));
  }
  void on_crash(NodeObserver obs) { crash_observers_.push_back(std::move(obs)); }
  void on_restart(NodeObserver obs) {
    restart_observers_.push_back(std::move(obs));
  }

  // -- observability ---------------------------------------------------
  [[nodiscard]] const std::vector<FaultRecord>& fault_log() const {
    return log_;
  }
  [[nodiscard]] std::uint64_t fault_digest() const { return digest(log_); }

  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] net::Medium& inner() { return *inner_; }
  [[nodiscard]] const Plan& plan() const { return plan_; }

 private:
  void apply(const Action& action);
  // `trace` is the causal identity of the impaired frame (0 for
  // frame-less faults such as cuts and crashes); forwarded into the
  // trace recorder so injected faults land in the same event stream as
  // the RPC they hit.
  void record(FaultKind kind, std::uint64_t frame_id, net::NodeId src,
              net::NodeId dst, sim::Duration delay = 0,
              std::uint64_t trace = 0);
  // Per-frame send-side faults; returns false if the frame was consumed
  // (dropped).  May mark the frame corrupted or inject a duplicate.
  bool impair_outbound(net::Frame& frame, bool is_broadcast);
  void deliver(const net::FrameHandler& handler, net::NodeId receiver,
               net::Frame frame);
  void finish_delivery(const net::FrameHandler& handler, net::NodeId receiver,
                       net::Frame frame);
  [[nodiscard]] double drop_probability(net::NodeId src,
                                        net::NodeId dst) const;
  // Which kind of severance (if any) separates a and b right now.
  [[nodiscard]] std::optional<FaultKind> severed(net::NodeId a,
                                                net::NodeId b) const;

  sim::Engine* engine_;
  net::Medium* inner_;
  sim::Rng rng_;
  Plan plan_;

  std::set<std::pair<net::NodeId, net::NodeId>> cuts_;  // normalized a<b
  std::vector<std::unordered_set<net::NodeId>> islands_;
  std::unordered_set<net::NodeId> crashed_;

  std::vector<FaultRecord> log_;
  std::vector<FaultObserver> fault_observers_;
  std::vector<DeliveryObserver> delivery_observers_;
  std::vector<NodeObserver> crash_observers_;
  std::vector<NodeObserver> restart_observers_;
};

}  // namespace fault
