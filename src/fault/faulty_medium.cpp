#include "fault/faulty_medium.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace fault {

namespace {

std::pair<net::NodeId, net::NodeId> normalized(net::NodeId a, net::NodeId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace

FaultyMedium::FaultyMedium(sim::Engine& engine, net::Medium& inner,
                           std::uint64_t seed, Plan plan)
    : engine_(&engine), inner_(&inner), rng_(seed), plan_(std::move(plan)) {
  // plan_ is never mutated after construction, so the references into
  // its action list stay valid for the lifetime of the medium.
  for (const Action& action : plan_.actions()) {
    engine_->schedule_at(action.at, [this, &action] { apply(action); });
  }
}

void FaultyMedium::attach(net::NodeId node, net::FrameHandler handler) {
  auto shared = std::make_shared<net::FrameHandler>(std::move(handler));
  inner_->attach(node, [this, node, shared](net::Frame frame) {
    deliver(*shared, node, std::move(frame));
  });
}

void FaultyMedium::send(net::Frame frame) {
  stamp(frame);
  if (!impair_outbound(frame, /*is_broadcast=*/false)) return;
  inner_->send(std::move(frame));
}

void FaultyMedium::broadcast(net::Frame frame) {
  frame.dst = net::NodeId::invalid();
  stamp(frame);
  if (!impair_outbound(frame, /*is_broadcast=*/true)) return;
  inner_->broadcast(std::move(frame));
}

// -- fault controls ----------------------------------------------------

void FaultyMedium::cut_link(net::NodeId a, net::NodeId b) {
  if (!cuts_.insert(normalized(a, b)).second) return;
  record(FaultKind::kCut, 0, a, b);
}

void FaultyMedium::heal_link(net::NodeId a, net::NodeId b) {
  if (cuts_.erase(normalized(a, b)) == 0) return;
  record(FaultKind::kHeal, 0, a, b);
}

void FaultyMedium::partition(std::vector<net::NodeId> island) {
  islands_.emplace_back(island.begin(), island.end());
  record(FaultKind::kCut, 0, net::NodeId::invalid(), net::NodeId::invalid());
}

void FaultyMedium::heal_all() {
  if (cuts_.empty() && islands_.empty()) return;
  cuts_.clear();
  islands_.clear();
  record(FaultKind::kHeal, 0, net::NodeId::invalid(), net::NodeId::invalid());
}

void FaultyMedium::crash(net::NodeId node) {
  if (!crashed_.insert(node).second) return;
  record(FaultKind::kCrash, 0, node, net::NodeId::invalid());
  for (auto& obs : crash_observers_) obs(node);
}

void FaultyMedium::restart(net::NodeId node) {
  if (crashed_.erase(node) == 0) return;
  record(FaultKind::kRestart, 0, node, net::NodeId::invalid());
  for (auto& obs : restart_observers_) obs(node);
}

bool FaultyMedium::link_cut(net::NodeId a, net::NodeId b) const {
  return severed(a, b).has_value();
}

std::optional<FaultKind> FaultyMedium::severed(net::NodeId a,
                                               net::NodeId b) const {
  if (cuts_.contains(normalized(a, b))) return FaultKind::kCutDrop;
  for (const auto& island : islands_) {
    if (island.contains(a) != island.contains(b)) {
      return FaultKind::kPartitionDrop;
    }
  }
  return std::nullopt;
}

// -- frame path --------------------------------------------------------

void FaultyMedium::apply(const Action& action) {
  switch (action.op) {
    case Action::Op::kCutLink:
      cut_link(action.a, action.b);
      break;
    case Action::Op::kHealLink:
      heal_link(action.a, action.b);
      break;
    case Action::Op::kPartition: {
      std::vector<net::NodeId> island = action.island;
      partition(std::move(island));
      break;
    }
    case Action::Op::kHealAll:
      heal_all();
      break;
    case Action::Op::kCrash:
      crash(action.a);
      break;
    case Action::Op::kRestart:
      restart(action.a);
      break;
  }
}

void FaultyMedium::record(FaultKind kind, std::uint64_t frame_id,
                          net::NodeId src, net::NodeId dst,
                          sim::Duration delay, std::uint64_t trace) {
  FaultRecord rec{engine_->now(), kind, frame_id, src, dst, delay};
  log_.push_back(rec);
  if (auto* trec = trace::get(*engine_)) {
    trec->instant(src.valid() ? src.value() : 0, "fault", to_string(kind),
                  trace, frame_id, static_cast<std::uint64_t>(delay));
  }
  for (auto& obs : fault_observers_) obs(rec);
}

double FaultyMedium::drop_probability(net::NodeId src, net::NodeId dst) const {
  double p = plan_.background().drop_prob;
  const sim::Time now = engine_->now();
  for (const DropWindow& window : plan_.windows()) {
    if (window.matches(now, src, dst)) p = std::max(p, window.prob);
  }
  return p;
}

bool FaultyMedium::impair_outbound(net::Frame& frame, bool is_broadcast) {
  const net::NodeId dst = is_broadcast ? net::NodeId::invalid() : frame.dst;
  if (crashed_.contains(frame.src)) {
    ++engine_->counts(frame.src.value()).injected_drops;
    record(FaultKind::kCrashDrop, frame.id, frame.src, dst, 0,
           frame.trace_id);
    return false;
  }
  if (!is_broadcast) {
    if (auto kind = severed(frame.src, frame.dst)) {
      ++engine_->counts(frame.src.value()).injected_drops;
      record(*kind, frame.id, frame.src, frame.dst, 0, frame.trace_id);
      return false;
    }
  }
  const double p = drop_probability(frame.src, dst);
  if (p > 0.0 && rng_.next_bool(p)) {
    ++engine_->counts(frame.src.value()).injected_drops;
    record(FaultKind::kDrop, frame.id, frame.src, dst, 0, frame.trace_id);
    return false;
  }
  const BackgroundModel& bg = plan_.background();
  if (bg.corrupt_prob > 0.0 && rng_.next_bool(bg.corrupt_prob)) {
    frame.corrupted = true;
    record(FaultKind::kCorrupt, frame.id, frame.src, dst, 0, frame.trace_id);
  }
  if (bg.duplicate_prob > 0.0 && rng_.next_bool(bg.duplicate_prob)) {
    ++engine_->counts(frame.src.value()).injected_duplicates;
    record(FaultKind::kDuplicate, frame.id, frame.src, dst, 0,
           frame.trace_id);
    // Same id: a duplicate, not a new frame.  The copy shares any
    // message body with the original.
    net::Frame copy = frame;
    if (is_broadcast) {
      inner_->broadcast(std::move(copy));
    } else {
      inner_->send(std::move(copy));
    }
  }
  return true;
}

void FaultyMedium::deliver(const net::FrameHandler& handler,
                           net::NodeId receiver, net::Frame frame) {
  if (crashed_.contains(receiver)) {
    ++engine_->counts(receiver.value()).injected_drops;
    record(FaultKind::kCrashDrop, frame.id, frame.src, receiver, 0,
           frame.trace_id);
    return;
  }
  if (auto kind = severed(frame.src, receiver)) {
    ++engine_->counts(receiver.value()).injected_drops;
    record(*kind, frame.id, frame.src, receiver, 0, frame.trace_id);
    return;
  }
  if (frame.corrupted) {
    ++engine_->counts(receiver.value()).corrupt_discards;
    record(FaultKind::kCorruptDiscard, frame.id, frame.src, receiver, 0,
           frame.trace_id);
    return;
  }
  const sim::Duration max_jitter = plan_.background().max_jitter;
  if (max_jitter > 0) {
    const sim::Duration extra = rng_.next_range(0, max_jitter);
    if (extra > 0) {
      ++engine_->counts(receiver.value()).injected_delays;
      record(FaultKind::kDelay, frame.id, frame.src, receiver, extra,
             frame.trace_id);
      engine_->schedule(extra, [this, h = &handler, receiver,
                                f = std::move(frame)]() mutable {
        finish_delivery(*h, receiver, std::move(f));
      });
      return;
    }
  }
  finish_delivery(handler, receiver, std::move(frame));
}

void FaultyMedium::finish_delivery(const net::FrameHandler& handler,
                                   net::NodeId receiver, net::Frame frame) {
  ++engine_->counts(receiver.value()).deliveries;
  for (auto& obs : delivery_observers_) obs(frame, receiver);
  handler(std::move(frame));
}

}  // namespace fault
